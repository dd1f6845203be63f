"""Coverage-based stacked generalization (paper §3.3).

The meta-learner "adaptively integrates the statistical based method and the
rule based method": on the testing set it observes the events inside the
trailing observation window and

1. if there are non-fatal events, applies the rule-based method (a warning is
   raised when a rule's body is fully observed);
2. if no non-fatal event is observed, applies the statistical method to the
   fatal history (a warning is raised when a trigger-category failure is
   reported after an earlier trigger — an isolated first failure is the
   potential *start* of a pattern, not evidence of one);
3. if both non-fatal and fatal events are present, uses the base method whose
   candidate prediction carries the higher confidence.

The dispatch logic lives in one loop, :meth:`MetaStream.detect`, a strictly
forward state machine fed classified stores: :meth:`MetaLearner.predict`
runs it over a whole store, and :class:`repro.online.detector.OnlineSession`
runs it chunk by chunk over a live feed — by construction both produce
identical warnings, which is the paper's online-deployability claim made
testable.  Store labels are mapped into the model's rule-item space by name
before dispatch, so the result does not depend on a store's intern order.
Cost per event is O(rules containing the arriving item), "about the same as
the rule-based method".
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.mining.rules import Rule, RuleMatcher, RuleSet, classified_subcats
from repro.obs import get_registry
from repro.predictors.base import FailureWarning, Predictor
from repro.predictors.rulebased import RuleBasedPredictor
from repro.predictors.statistical import StatisticalPredictor
from repro.ras.backend import TableMap
from repro.ras.store import EventStore
from repro.taxonomy.categories import MainCategory
from repro.util.timeutil import MINUTE
from repro.util.validation import check_positive


class MetaStream:
    """Forward-only dispatch state machine of the meta-learner.

    Holds exactly the state an online daemon needs: the rule matcher over
    the trailing prediction window, the last hour of fatal history (the
    paper: an online engine "will require maintaining the history of all the
    events for the duration of 1 hour after a failure has been reported"),
    and the active-warning tables used for deduplication.

    :meth:`detect` is the one detection loop: classified stores go in, in
    non-decreasing time order within and across calls, and the warnings they
    raised come out.  State carries over between calls, so any chunking of a
    stream yields the same warnings as feeding it whole.
    """

    def __init__(
        self,
        ruleset: RuleSet,
        statistical: StatisticalPredictor,
        prediction_window: float,
        source: str = "meta",
    ) -> None:
        self.ruleset = ruleset
        self.statistical = statistical
        self.w = int(prediction_window)
        self.source = source
        self.stat_lo = max(int(statistical.lead), 1)
        self.stat_hi = int(statistical.window)
        self.trigger_set = set(statistical.trigger_categories)
        self.dispatch_counts = {"rule": 0, "statistical": 0}

        # The stream's item space: the rule items (the training store's label
        # order), then every classifier label the training store lacked.
        # Those extra ids are in no rule body, so they reach only the
        # statistical side, with their own main category.
        clf = statistical.classifier
        item_index = dict(ruleset.item_index)
        for name in clf.label_names:
            item_index.setdefault(name, len(item_index))
        self._item_index = item_index
        #: A label the model never saw counts as the classifier's fallback.
        self._unseen = unseen = item_index[clf.label_names[-1]]
        #: Item id -> main category (consulted for fatal arrivals only).
        self._categories = [clf.category_of_label(n) for n in item_index]
        #: Compiled once per model: main category -> candidate confidence.
        self._stat_conf_map = {c: statistical.candidate_confidence(c) for c in MainCategory}
        #: Compiled once per label table: store label id -> item id, by name.
        self._items = TableMap(lambda name: item_index.get(name, unseen))

        self._matcher = RuleMatcher(ruleset)
        self._window_events: deque[tuple[int, int]] = deque()  # non-fatal
        self._fatal_history: deque[int] = deque()
        self._trigger_history: deque[int] = deque()
        self._rule_active_until: dict[frozenset[int], int] = {}
        self._stat_active_until: dict[str, int] = {}
        self._stat_conf_until: list[tuple[int, float]] = []
        self._last_time: Optional[int] = None

    def _emit_rule(self, t: int, rule: Rule) -> Optional[FailureWarning]:
        end = self._rule_active_until.get(rule.body)
        if end is not None and t <= end:
            return None
        warning = FailureWarning(
            issued_at=t,
            horizon_start=t + 1,
            horizon_end=t + self.w,
            confidence=rule.confidence,
            source=self.source,
            detail="rule: " + rule.format(self.ruleset.item_names),
        )
        self._rule_active_until[rule.body] = warning.horizon_end
        self.dispatch_counts["rule"] += 1
        return warning

    def _emit_stat(
        self, t: int, category: MainCategory, conf: float
    ) -> Optional[FailureWarning]:
        # One active statistical warning per trigger category: within a
        # failure burst the first trigger's horizon already covers the
        # cluster, so re-warning on every member would only add duplicates.
        end = self._stat_active_until.get(category.value)
        if end is not None and t <= end:
            return None
        warning = FailureWarning(
            issued_at=t,
            horizon_start=t + self.stat_lo,
            horizon_end=t + self.stat_hi,
            confidence=conf,
            source=self.source,
            detail=f"statistical: {category.value}",
        )
        self._stat_active_until[category.value] = warning.horizon_end
        self._stat_conf_until.append((warning.horizon_end, conf))
        if len(self._stat_conf_until) > 8:
            del self._stat_conf_until[0]
        self.dispatch_counts["statistical"] += 1
        return warning

    def item_ids(self, store: EventStore) -> np.ndarray:
        """A classified store's labels in the stream's item space, by name.

        Equal to :func:`~repro.mining.rules.item_ids_for`, through a remap
        compiled once per label table instead of once per call.
        """
        return self._items(store.subcat_table)[classified_subcats(store)]

    def detect(self, store: EventStore) -> list[FailureWarning]:
        """Run a classified store through the dispatch; returns its warnings.

        The store's labels are mapped into the stream's item space
        (:meth:`item_ids`), the columns are bulk-converted to Python
        scalars, and every attribute and method lookup is hoisted out of
        the per-event loop.  Time order is validated once, vectorized.
        """
        n = len(store)
        if n == 0:
            return []
        times = store.times
        late = np.flatnonzero(np.diff(times) < 0) if n > 1 else np.empty(0)
        if late.size:
            i = int(late[0]) + 1
            raise ValueError(
                f"events must arrive in time order "
                f"({int(times[i])} < {int(times[i - 1])})"
            )
        if self._last_time is not None and int(times[0]) < self._last_time:
            raise ValueError(
                f"events must arrive in time order "
                f"({int(times[0])} < {self._last_time})"
            )
        t_list = times.tolist()
        item_list = self.item_ids(store).tolist()
        fatal_list = store.fatal_mask().tolist()

        out: list[FailureWarning] = []
        out_append = out.append
        w = self.w
        stat_hi = self.stat_hi
        trigger_set = self.trigger_set
        categories = self._categories
        matcher = self._matcher
        matcher_add = matcher.add
        matcher_remove = matcher.remove
        best_satisfied = matcher.best_satisfied
        has_observed = matcher.has_observed
        window_events = self._window_events
        win_append = window_events.append
        win_popleft = window_events.popleft
        fatal_history = self._fatal_history
        fatal_append = fatal_history.append
        fatal_popleft = fatal_history.popleft
        trigger_history = self._trigger_history
        trigger_append = trigger_history.append
        trigger_popleft = trigger_history.popleft
        stat_conf_until = self._stat_conf_until  # mutated in place, never rebound
        stat_conf_map = self._stat_conf_map
        emit_rule = self._emit_rule
        emit_stat = self._emit_stat

        for t, item, is_fatal in zip(t_list, item_list, fatal_list):
            # Slide the windows: the rule window over the last W seconds,
            # the fatal and trigger histories over the statistical band.
            cutoff = t - w
            while window_events and window_events[0][0] < cutoff:
                matcher_remove(win_popleft()[1])
            cutoff = t - stat_hi
            while fatal_history and fatal_history[0] < cutoff:
                fatal_popleft()
            while trigger_history and trigger_history[0] < cutoff:
                trigger_popleft()

            if not is_fatal:
                win_append((t, item))
                # The matcher keeps the best satisfied rule incrementally
                # (lazy satisfied-index heap) instead of rescanning rules.
                if matcher_add(item):
                    best = best_satisfied()
                    if best is not None:
                        if fatal_history:
                            # Case 3 at a non-fatal arrival: defer to the
                            # statistical method only if one of its warnings
                            # is actually active and more confident.
                            active = 0.0
                            for end, c in stat_conf_until:
                                if t <= end and c > active:
                                    active = c
                            if best.confidence >= active:
                                warning = emit_rule(t, best)
                                if warning:
                                    out_append(warning)
                        else:
                            # Case 1: only non-fatal context.
                            warning = emit_rule(t, best)
                            if warning:
                                out_append(warning)
                continue

            # Fatal arrival: the statistical method's trigger point.
            category = categories[item]
            stat_conf = stat_conf_map[category]
            if stat_conf is not None and not trigger_history:
                # The learned pattern is "trigger-category failure, then more
                # failures"; a trigger with no trigger-category history is
                # the potential *start* of a pattern, not evidence of one.
                stat_conf = None
            nonfatal_present = has_observed()
            best = best_satisfied() if nonfatal_present else None
            if stat_conf is not None:
                if not nonfatal_present:
                    # Case 2: only fatal context -> statistical method.
                    warning = emit_stat(t, category, stat_conf)
                    if warning:
                        out_append(warning)
                else:
                    # Case 3: both present -> higher confidence wins.  The
                    # rule side's candidate is the best currently satisfied
                    # rule; if it wins, its warning is already active (or is
                    # (re)issued here), so the statistical one is suppressed.
                    rule_conf = best.confidence if best is not None else 0.0
                    if stat_conf > rule_conf:
                        warning = emit_stat(t, category, stat_conf)
                        if warning:
                            out_append(warning)
                    elif best is not None:
                        warning = emit_rule(t, best)
                        if warning:
                            out_append(warning)
            elif best is not None:
                # Case 1 with a fatal of a non-trigger category: the rule
                # method covers what the statistical method cannot.
                warning = emit_rule(t, best)
                if warning:
                    out_append(warning)
            fatal_append(t)
            if category in trigger_set:
                trigger_append(t)

        self._last_time = t_list[-1]
        return out


class MetaLearner(Predictor):
    """Stacked combination of the statistical and rule-based predictors.

    Parameters
    ----------
    prediction_window:
        The observation/prediction window W: rule bodies are matched over the
        trailing W seconds and rule warnings' horizons end W seconds after
        issue (swept 5-60 min in the paper's Figure 5).
    rule_window:
        Rule-generation window for the embedded rule-based predictor.
    statistical / rulebased:
        Pre-configured base predictors; freshly constructed when omitted.
        ``fit`` (re)fits both on the training store.  The statistical method
        keeps its own fixed band (paper: 5 min to 1 hour) regardless of W —
        its horizon is a property of the failure process, not of the sweep
        parameter.
    """

    name = "meta"

    def __init__(
        self,
        prediction_window: float = 30 * MINUTE,
        rule_window: float = 15 * MINUTE,
        statistical: Optional[StatisticalPredictor] = None,
        rulebased: Optional[RuleBasedPredictor] = None,
    ) -> None:
        super().__init__()
        check_positive(prediction_window, "prediction_window")
        self.prediction_window = float(prediction_window)
        self.statistical = statistical or StatisticalPredictor()
        self.rulebased = rulebased or RuleBasedPredictor(
            rule_window=rule_window, prediction_window=prediction_window
        )
        #: Diagnostics: number of emitted warnings per base method.
        self.dispatch_counts: dict[str, int] = {"rule": 0, "statistical": 0}

    @classmethod
    def from_state(
        cls,
        *,
        prediction_window: float,
        statistical: StatisticalPredictor,
        rulebased: RuleBasedPredictor,
    ) -> "MetaLearner":
        """Rebuild a *fitted* meta-learner from fitted base predictors.

        The public restore path used by model deserialization and the
        artifact cache.  Both bases must already be fitted (restored via
        their own ``from_state``/``restore_state``).
        """
        if not statistical.is_fitted or not rulebased.is_fitted:
            raise ValueError(
                "MetaLearner.from_state requires fitted base predictors"
            )
        meta = cls(
            prediction_window=prediction_window,
            statistical=statistical,
            rulebased=rulebased,
        )
        meta.mark_fitted()
        return meta

    def fit(self, events: EventStore) -> "MetaLearner":
        """Fit both base predictors on the training store (paper step 1)."""
        self.statistical.fit(events)
        self.rulebased.fit(events)
        self._fitted = True
        return self

    def stream(self) -> MetaStream:
        """A fresh online dispatch stream sharing this learner's models."""
        self._check_fitted()
        assert self.rulebased.ruleset is not None
        return MetaStream(
            ruleset=self.rulebased.ruleset,
            statistical=self.statistical,
            prediction_window=self.prediction_window,
            source=self.name,
        )

    def predict(self, events: EventStore) -> list[FailureWarning]:
        """Drive a fresh dispatch stream over a whole store."""
        obs = get_registry()
        stream = self.stream()
        with obs.span("phase3.dispatch"):
            warnings = stream.detect(events)
        self.dispatch_counts = dict(stream.dispatch_counts)
        # Which base method each emitted warning came from — the paper's
        # case-1/2/3 coverage dispatch made visible per run.
        obs.counter(
            "meta.dispatch", self.dispatch_counts["rule"], method="rule"
        )
        obs.counter(
            "meta.dispatch",
            self.dispatch_counts["statistical"],
            method="statistical",
        )
        obs.counter("predictor.warnings", len(warnings), source=self.name)
        return warnings
