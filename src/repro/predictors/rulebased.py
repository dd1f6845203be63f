"""Rule-based base predictor (paper §3.2.2).

Training builds event-sets over the *rule-generation window* and mines
association rules from non-fatal precursors to fatal events (support >= 0.04,
confidence >= 0.2 by default, the paper's thresholds).

Prediction slides an observation window of ``prediction_window`` seconds over
the test stream; whenever the window's set of non-fatal subcategories
completes some rule's body, a warning is raised for the highest-confidence
satisfied rule (paper Step 6: "if multiple rules are observed, select the
rule with the highest confidence").  While a rule's warning horizon is still
active the rule is not re-raised — its precursors lingering in the window are
one prediction, not many.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.mining.incremental import generate_rules
from repro.mining.rules import Rule, RuleMatcher, RuleSet, item_ids_for
from repro.mining.transactions import build_event_sets
from repro.obs import get_registry
from repro.predictors.base import FailureWarning, Predictor
from repro.ras.store import EventStore
from repro.util.timeutil import MINUTE
from repro.util.validation import check_fraction, check_positive


class RuleBasedPredictor(Predictor):
    """Association-rule predictor from non-fatal precursors to failures.

    Parameters
    ----------
    rule_window:
        Rule-generation window used to build training event-sets (the paper
        selects 15 min for ANL and 25 min for SDSC via a sweep).
    prediction_window:
        Observation/prediction window at test time (swept 5-60 min in the
        paper's Figure 4).
    min_support / min_confidence:
        Mining thresholds; paper defaults 0.04 / 0.2.
    """

    name = "rule"

    def __init__(
        self,
        rule_window: float = 15 * MINUTE,
        prediction_window: float = 30 * MINUTE,
        min_support: float = 0.04,
        min_confidence: float = 0.2,
        max_len: int = 6,
    ) -> None:
        super().__init__()
        check_positive(rule_window, "rule_window")
        check_positive(prediction_window, "prediction_window")
        self.rule_window = float(rule_window)
        self.prediction_window = float(prediction_window)
        self.min_support = check_fraction(min_support, "min_support")
        self.min_confidence = check_fraction(min_confidence, "min_confidence")
        self.max_len = max_len
        self.ruleset: Optional[RuleSet] = None
        #: Fraction of training failures with no precursor (recall ceiling).
        self.no_precursor_fraction: float = 0.0

    @classmethod
    def from_state(
        cls,
        *,
        rule_window: float,
        prediction_window: float,
        min_support: float,
        min_confidence: float,
        max_len: int,
        ruleset: RuleSet,
        no_precursor_fraction: float,
    ) -> "RuleBasedPredictor":
        """Rebuild a *fitted* predictor from a previously mined rule set.

        The public restore path used by model deserialization and the
        artifact cache; equivalent to a :meth:`fit` that mined exactly
        ``ruleset``.
        """
        rb = cls(
            rule_window=rule_window,
            prediction_window=prediction_window,
            min_support=check_fraction(min_support, "min_support"),
            min_confidence=check_fraction(min_confidence, "min_confidence"),
            max_len=max_len,
        )
        return rb.restore_state(ruleset, no_precursor_fraction)

    def restore_state(
        self, ruleset: RuleSet, no_precursor_fraction: float
    ) -> "RuleBasedPredictor":
        """Install a mined rule set onto this instance and mark it fitted."""
        self.ruleset = ruleset
        self.no_precursor_fraction = float(no_precursor_fraction)
        self.mark_fitted()
        return self

    def fit(self, events: EventStore) -> "RuleBasedPredictor":
        """Mine rules from the training store (Steps 1-4)."""
        obs = get_registry()
        with obs.span("phase2.fit.rule"):
            db = build_event_sets(events, self.rule_window)
            self.no_precursor_fraction = db.no_precursor_fraction()
            self.ruleset = generate_rules(
                db,
                min_support=self.min_support,
                min_confidence=self.min_confidence,
                max_len=self.max_len,
            )
        obs.counter("predictor.rules_mined", len(self.ruleset))
        obs.gauge(
            "predictor.no_precursor_fraction", self.no_precursor_fraction
        )
        self._fitted = True
        return self

    def predict(self, events: EventStore) -> list[FailureWarning]:
        """Stream the test store through the sliding-window matcher."""
        self._check_fitted()
        assert self.ruleset is not None
        if len(self.ruleset) == 0 or len(events) == 0:
            return []
        obs = get_registry()
        with obs.span("phase2.predict.rule"):
            warnings = _match_stream(
                events, self.ruleset, self.prediction_window, source=self.name
            )
        obs.counter("predictor.warnings", len(warnings), source=self.name)
        return warnings


def _match_stream(
    events: EventStore,
    ruleset: RuleSet,
    window: float,
    source: str,
) -> list[FailureWarning]:
    """Streaming matcher behind :meth:`RuleBasedPredictor.predict`.

    The meta-learner does not call this: ``MetaStream.detect`` runs its
    own loop over the same :class:`RuleMatcher`.  Store labels are mapped
    into the rule items by name; a label the training store never had is
    given an id no rule body contains.

    Maintains the non-fatal items inside the trailing ``window`` seconds; on
    each arrival that completes at least one rule, emits a warning for the
    highest-confidence *currently satisfied* rule unless that rule's previous
    warning is still active.
    """
    warnings: list[FailureWarning] = []
    matcher = RuleMatcher(ruleset)
    in_window: deque[tuple[int, int]] = deque()  # (time, item)
    active_until: dict[frozenset[int], int] = {}  # rule body -> horizon end
    w = int(window)
    # Hoisted bindings: one Python-level loop per event is the serving hot
    # path, so bulk-convert the columns once and bind methods to locals.
    times = events.times.tolist()
    subcats = item_ids_for(
        events, ruleset.item_index, unseen=len(ruleset.item_names)
    ).tolist()
    fatal_list = events.fatal_mask().tolist()
    matcher_add = matcher.add
    matcher_remove = matcher.remove
    best_satisfied = matcher.best_satisfied
    window_popleft = in_window.popleft
    window_append = in_window.append
    append_warning = warnings.append
    item_names = ruleset.item_names
    for t, item, is_fatal in zip(times, subcats, fatal_list):
        # Evict items older than the observation window.
        cutoff = t - w
        while in_window and in_window[0][0] < cutoff:
            matcher_remove(window_popleft()[1])
        if is_fatal:
            continue  # rule bodies are non-fatal items only
        window_append((t, item))
        if not matcher_add(item):
            continue
        # Paper Step 6: among observed rules pick the highest confidence —
        # kept incrementally by the matcher instead of rescanned per event.
        best: Optional[Rule] = best_satisfied()
        if best is None:  # pragma: no cover - completed implies satisfied
            continue
        end = active_until.get(best.body)
        if end is not None and t <= end:
            continue  # this rule's previous warning is still active
        warning = FailureWarning(
            issued_at=t,
            horizon_start=t + 1,
            horizon_end=t + w,
            confidence=best.confidence,
            source=source,
            detail=best.format(item_names),
        )
        active_until[best.body] = warning.horizon_end
        append_warning(warning)
    return warnings
