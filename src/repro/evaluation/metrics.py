"""Precision / recall accounting (paper §3.2).

The paper's definitions: Tp is the number of correct predictions, Fp the
number of false alarms, Fn the number of failures that were not predicted.
Precision is computed over *predictions made* and recall over *failures that
occurred*, so the two numerators differ in general (one warning can cover
several failures; several warnings can cover one failure) — :class:`Metrics`
therefore keeps all four raw counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Metrics:
    """Scores of one warning stream against one test fold."""

    n_warnings: int
    tp_warnings: int
    n_fatals: int
    covered_fatals: int

    def __post_init__(self) -> None:
        if not 0 <= self.tp_warnings <= self.n_warnings:
            raise ValueError("tp_warnings must be within [0, n_warnings]")
        if not 0 <= self.covered_fatals <= self.n_fatals:
            raise ValueError("covered_fatals must be within [0, n_fatals]")

    @property
    def fp_warnings(self) -> int:
        """False alarms: warnings whose horizon saw no failure."""
        return self.n_warnings - self.tp_warnings

    @property
    def precision(self) -> float:
        """Correct predictions / all predictions (1.0 when nothing predicted).

        The degenerate no-warnings case returns 1.0 by convention: a silent
        predictor raised no false alarm.  Callers that prefer NaN semantics
        can test ``n_warnings`` directly.
        """
        if self.n_warnings == 0:
            return 1.0
        return self.tp_warnings / self.n_warnings

    @property
    def recall(self) -> float:
        """Predicted failures / all failures (1.0 when there was nothing
        to predict)."""
        if self.n_fatals == 0:
            return 1.0
        return self.covered_fatals / self.n_fatals

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        if p + r == 0:
            return 0.0
        return 2 * p * r / (p + r)

    def __add__(self, other: "Metrics") -> "Metrics":
        """Pool raw counts (micro-aggregation across folds)."""
        return Metrics(
            n_warnings=self.n_warnings + other.n_warnings,
            tp_warnings=self.tp_warnings + other.tp_warnings,
            n_fatals=self.n_fatals + other.n_fatals,
            covered_fatals=self.covered_fatals + other.covered_fatals,
        )


def mean_metrics(folds: Sequence[Metrics]) -> tuple[float, float]:
    """Macro-averaged (precision, recall) across folds (paper's averaging).

    Folds with no warnings/failures contribute their conventional 1.0 values,
    matching an average over per-fold results.
    """
    if not folds:
        raise ValueError("at least one fold required")
    p = sum(m.precision for m in folds) / len(folds)
    r = sum(m.recall for m in folds) / len(folds)
    return p, r


def micro_metrics(folds: Iterable[Metrics]) -> Metrics:
    """Pooled counts across folds (robust to tiny folds)."""
    total = Metrics(0, 0, 0, 0)
    for m in folds:
        total = total + m
    return total
