"""Tests for repro.util.rng."""

import numpy as np
import pytest

from repro.util.rng import as_generator, spawn_child


def test_as_generator_from_int_deterministic():
    a = as_generator(123).random(5)
    b = as_generator(123).random(5)
    assert np.array_equal(a, b)


def test_as_generator_passthrough():
    g = np.random.default_rng(0)  # repro-lint: disable=RL001
    assert as_generator(g) is g


def test_as_generator_none_gives_generator():
    assert isinstance(as_generator(None), np.random.Generator)


def test_spawn_child_streams_differ():
    parent = as_generator(7)
    a, b = spawn_child(parent, streams=2)
    assert not np.array_equal(a.random(10), b.random(10))


def test_spawn_child_deterministic_from_seed():
    x = spawn_child(as_generator(9), streams=3)[2].random(4)
    y = spawn_child(as_generator(9), streams=3)[2].random(4)
    assert np.array_equal(x, y)


def test_spawn_child_rejects_zero_streams():
    with pytest.raises(ValueError):
        spawn_child(as_generator(0), streams=0)


def test_spawn_child_rejects_missing_seed_sequence():
    # Legacy seeding clears the bit generator's SeedSequence; spawning from
    # such a generator must fail loudly instead of raising AttributeError.
    mt = np.random.MT19937()
    mt._legacy_seeding(42)
    legacy = np.random.Generator(mt)
    with pytest.raises(TypeError, match="SeedSequence"):
        spawn_child(legacy, streams=2)
