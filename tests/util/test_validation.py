"""Tests for repro.util.validation."""

import numpy as np
import pytest

from repro.util.validation import (
    check_fraction,
    check_in_range,
    check_positive,
    check_sorted,
)


@pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
def test_check_fraction_accepts(value):
    assert check_fraction(value, "x") == value


@pytest.mark.parametrize("value", [-0.01, 1.01, 2.0])
def test_check_fraction_rejects(value):
    with pytest.raises(ValueError, match="x"):
        check_fraction(value, "x")


def test_check_positive():
    assert check_positive(3, "n") == 3
    with pytest.raises(ValueError):
        check_positive(0, "n")


@pytest.mark.parametrize("func, value", [
    (check_positive, 3),
    (lambda v, n: check_in_range(v, 0, 10, n), 7),
])
def test_checks_return_float_for_chaining(func, value):
    result = func(value, "n")
    assert isinstance(result, float)
    assert result == value


def test_check_in_range_accepts_bounds():
    assert check_in_range(-1.0, -1, 1, "rho") == -1.0
    assert check_in_range(1.0, -1, 1, "rho") == 1.0


@pytest.mark.parametrize("value", [-1.01, 1.01])
def test_check_in_range_rejects(value):
    with pytest.raises(ValueError, match=r"rho must be in \[-1, 1\]"):
        check_in_range(value, -1, 1, "rho")


def test_check_sorted_accepts_sorted_and_empty():
    check_sorted(np.array([1, 2, 2, 3]), "t")
    check_sorted(np.array([]), "t")


def test_check_sorted_rejects_unsorted():
    with pytest.raises(ValueError, match="sorted"):
        check_sorted(np.array([3, 1, 2]), "t")


def test_check_sorted_rejects_2d():
    with pytest.raises(ValueError, match="1-D"):
        check_sorted(np.zeros((2, 2)), "t")
