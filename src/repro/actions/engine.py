"""The prediction-to-action engine: decide, schedule, settle.

:class:`ActionEngine` folds an event stream plus the warnings a serving
stack raised over it into a :class:`~repro.actions.ledger.Ledger`.  It is
deliberately a *deterministic* fold: the same events and warnings in the
same order produce a byte-identical ledger whether fed as one store
(``serve-replay``) or chunk by chunk (the daemon) — the engine buffers
each warning until the first event strictly later than its issue time
arrives, so decision points and tie order never depend on chunk
boundaries.

Per absorbed event, in canonical order:

1. decide buffered warnings issued strictly before the event, oldest
   first (ties by confidence, source, detail);
2. expire open actions whose deadline has passed (``false_alarm``);
3. absorb the event into the job view and the hot-midplane tracker;
4. if the event is fatal and lands on an occupied midplane, settle the
   kill: a completed migration or quarantine dodges it, else the latest
   completed checkpoint bounds the rollback, and sibling actions on the
   same job settle ``redundant``/``late``.

The engine is seedable (``ctx.rng``) for stochastic policies; the seed is
recorded in the ledger so persisted state can only resume like-for-like.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.actions.cost import Action, CostModel
from repro.actions.jobview import JobView, StreamJobView
from repro.actions.ledger import Ledger, LedgerEntry, LedgerTracker
from repro.actions.policy import Policy, PolicyContext
from repro.obs import get_registry
from repro.predictors.base import FailureWarning
from repro.ras.store import EventStore
from repro.util.rng import as_generator

#: Fallback horizon for localizing risk: fatals older than this no longer
#: mark a midplane "hot".  Risk topology, not a price, so not in CostModel.
DEFAULT_HOT_WINDOW_SECONDS = 21_600.0


class _OpenAction:
    __slots__ = ("action", "seq")

    def __init__(self, action: Action, seq: int) -> None:
        self.action = action
        self.seq = seq


def _warning_order(w: FailureWarning) -> Tuple[int, float, str, str]:
    return (w.issued_at, -w.confidence, w.source, w.detail)


class ActionEngine:
    """Schedules actions for warnings and settles them against outcomes.

    Parameters
    ----------
    policy:
        The decision rule (see :mod:`repro.actions.policy`).
    cost:
        The price book shared by policies and settlements.
    view:
        Job-allocation provider; defaults to a fresh
        :class:`~repro.actions.jobview.StreamJobView` inferred from the
        events themselves.
    seed:
        Seeds ``ctx.rng`` for stochastic policies and is stamped into the
        ledger; the bundled policies are deterministic regardless.
    ledger:
        Optional pre-populated ledger (daemon restart: counters restored
        from ``--state`` resume in place).
    """

    def __init__(
        self,
        policy: Policy,
        cost: Optional[CostModel] = None,
        *,
        view: Optional[JobView] = None,
        seed: int = 0,
        hot_window_seconds: float = DEFAULT_HOT_WINDOW_SECONDS,
        ledger: Optional[Ledger] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.policy = policy
        self.cost = cost if cost is not None else CostModel()
        self.view: JobView = view if view is not None else StreamJobView()
        self.rng = as_generator(seed)
        self.hot_window = hot_window_seconds
        self.ledger = ledger if ledger is not None else Ledger()
        self.ledger.policy = policy.name
        self.ledger.seed = seed
        self._labels = dict(labels) if labels else {}
        #: Windowed settlement economics, PrecisionTracker-style: after a
        #: drift-triggered retrain the windowed net climbs back above zero
        #: while the cumulative ledger still remembers the bad stretch.
        self.tracker = LedgerTracker()
        self._pending: List[FailureWarning] = []
        self._open: List[_OpenAction] = []
        self._seq = 0
        self._ckpt_marks: Dict[int, int] = {}
        self._killed: set[int] = set()
        self._fatal_history: Deque[Tuple[float, int]] = deque()
        #: Location id -> midplane for the last location table seen, keyed
        #: like :class:`~repro.ras.backend.TableMap`; each entry is resolved
        #: at its first row, so the view numbers midplanes in stream order.
        self._loc_strings: Optional[List[str]] = None
        self._loc_midplanes: List[Optional[int]] = []
        get_registry().gauge(
            "actions.engine", 1.0, policy=policy.name, **self._labels
        )

    # ------------------------------------------------------------- #
    # ActionSink surface (what serve's StreamChannel calls)
    # ------------------------------------------------------------- #

    def observe_store(
        self, store: EventStore, warnings: List[FailureWarning]
    ) -> None:
        """Absorb one chunk of events and the warnings raised over it."""
        self._pending.extend(warnings)
        loc_table = store.location_table
        midplanes = self._loc_midplanes
        if loc_table is not self._loc_strings or len(midplanes) > len(loc_table):
            self._loc_strings, midplanes = loc_table, []
            self._loc_midplanes = midplanes
        midplanes.extend([None] * (len(loc_table) - len(midplanes)))
        midplane_index = self.view.midplane_index
        observe = self.view.observe_midplane
        due = self._next_due()
        for t, loc_id, job, fatal in zip(
            store.times.tolist(),
            store.location_ids.tolist(),
            store.jobs.tolist(),
            store.fatal_mask().tolist(),
        ):
            # Deciding and expiring are no-ops until t passes the earliest
            # pending issue time or open deadline.
            if t > due:
                self._decide_before(t)
                self._expire_before(t)
                due = self._next_due()
            mp = midplanes[loc_id]
            if mp is None:
                mp = midplanes[loc_id] = midplane_index(loc_table[loc_id])
            observe(t, mp, job)
            if fatal:
                self._on_fatal(t, mp)
                due = self._next_due()

    def _next_due(self) -> float:
        """The earliest pending issue time or open deadline (inf if none)."""
        due = [w.issued_at for w in self._pending] + [o.action.deadline for o in self._open]
        return min(due, default=float("inf"))

    def finalize(self) -> Ledger:
        """Decide and settle everything still buffered; return the ledger."""
        self._decide_before(None)
        self._expire_before(None)
        self._publish_gauges()
        return self.ledger

    # ------------------------------------------------------------- #
    # Decisions
    # ------------------------------------------------------------- #

    def _decide_before(self, t: Optional[int]) -> None:
        if not self._pending:
            return
        if t is None:
            due = self._pending
            self._pending = []
        else:
            due = [w for w in self._pending if w.issued_at < t]
            if not due:
                return
            self._pending = [w for w in self._pending if w.issued_at >= t]
        due.sort(key=_warning_order)
        for warning in due:
            self._decide(warning)

    def _quarantined(self) -> frozenset[int]:
        return frozenset(
            o.action.midplane
            for o in self._open
            if o.action.kind == "quarantine"
        )

    def _decide(self, warning: FailureWarning) -> None:
        now = warning.issued_at
        hot_midplane, hot_share = self._hot_midplane(now)
        ctx = PolicyContext(
            warning=warning,
            now=now,
            view=self.view,
            cost=self.cost,
            rng=self.rng,
            hot_midplane=hot_midplane,
            hot_share=hot_share,
            restore_points=self._ckpt_marks,
            quarantined=self._quarantined(),
            dead_jobs=frozenset(self._killed),
        )
        registry = get_registry()
        for action in self.policy.decide(ctx):
            self.ledger.record_taken(action)
            self._open.append(_OpenAction(action, self._seq))
            self._seq += 1
            if action.kind == "checkpoint":
                mark = self._ckpt_marks.get(action.job_id, 0)
                self._ckpt_marks[action.job_id] = max(mark, action.completes_at)
            registry.counter("actions.taken", 1, kind=action.kind, **self._labels)

    def _hot_midplane(self, now: float) -> Tuple[int, float]:
        """(suspect midplane, its share of windowed fatals), or (-1, 0.0)."""
        history = self._fatal_history
        while history and history[0][0] <= now - self.hot_window:
            history.popleft()
        if not history:
            return -1, 0.0
        counts: Dict[int, int] = {}
        for _, mp in history:
            counts[mp] = counts.get(mp, 0) + 1
        # Highest count wins; ties go to the lowest midplane index.
        hot = min(counts, key=lambda mp: (-counts[mp], mp))
        return hot, counts[hot] / len(history)

    # ------------------------------------------------------------- #
    # Settlements
    # ------------------------------------------------------------- #

    def _settle(self, open_action: _OpenAction, outcome: str, settled_at: int,
                saved: float = 0.0) -> None:
        entry = LedgerEntry(
            action=open_action.action,
            outcome=outcome,
            settled_at=settled_at,
            saved=saved,
            lost=open_action.action.cost,
        )
        self.ledger.record_settlement(entry)
        self.tracker.observe(self.ledger)
        registry = get_registry()
        registry.counter("actions.settled", 1, outcome=outcome, **self._labels)
        if saved:
            registry.counter("actions.saved_node_seconds", saved, **self._labels)
        if outcome == "false_alarm":
            registry.counter(
                "actions.false_alarm_cost", entry.lost, **self._labels
            )

    def _expire_before(self, t: Optional[int]) -> None:
        if not self._open:
            return
        if t is None:
            expired = self._open
            self._open = []
        else:
            expired = [o for o in self._open if o.action.deadline < t]
            if not expired:
                return
            self._open = [o for o in self._open if o.action.deadline >= t]
        expired.sort(key=lambda o: (o.action.deadline, o.seq))
        for o in expired:
            self._settle(o, "false_alarm", o.action.deadline)

    def _on_fatal(self, t: int, mp: int) -> None:
        if mp < 0:
            return
        self._fatal_history.append((float(t), mp))
        occupant = self.view.occupant(mp, t)
        if occupant is None or occupant.job_id in self._killed:
            return
        job = occupant
        self._killed.add(job.job_id)
        self.ledger.record_kill(
            self.cost.reactive_loss(t, job.start, job.width_nodes)
        )
        scoped: List[_OpenAction] = []
        rest: List[_OpenAction] = []
        for o in self._open:
            a = o.action
            if a.job_id == job.job_id or (
                a.kind == "quarantine" and a.midplane == mp
            ):
                scoped.append(o)
            else:
                rest.append(o)
        self._open = rest
        scoped.sort(key=lambda o: o.seq)
        winner = self._claim_winner(scoped, job.start, t)
        for o in scoped:
            a = o.action
            if o is winner:
                if a.kind == "checkpoint":
                    saved = self.cost.checkpoint_saving(
                        a.completes_at, job.start, job.width_nodes
                    )
                else:
                    saved = self.cost.rescue_saving(
                        t, job.start, job.width_nodes
                    )
                self._settle(o, "hit", t, saved=saved)
            elif a.completes_at > t:
                self._settle(o, "late", t)
            else:
                self._settle(o, "redundant", t)
        self._ckpt_marks.pop(job.job_id, None)
        forget = getattr(self.view, "forget", None)
        if forget is not None:
            forget(job.job_id)

    def _claim_winner(
        self, scoped: List[_OpenAction], job_start: float, t: int
    ) -> Optional[_OpenAction]:
        """The one action credited with the save, by remedy strength.

        A completed migration dodged the kill outright; failing that, a
        cordon that predates the job diverted it; failing that, the latest
        completed checkpoint bounds the rollback.
        """
        def complete(o: _OpenAction) -> bool:
            return o.action.completes_at <= t

        migrations = [o for o in scoped if o.action.kind == "migrate" and complete(o)]
        if migrations:
            return min(migrations, key=lambda o: o.seq)
        cordons = [
            o
            for o in scoped
            if o.action.kind == "quarantine"
            and complete(o)
            and job_start > o.action.decided_at
        ]
        if cordons:
            return min(cordons, key=lambda o: o.seq)
        checkpoints = [
            o for o in scoped if o.action.kind == "checkpoint" and complete(o)
        ]
        if checkpoints:
            return max(checkpoints, key=lambda o: (o.action.completes_at, o.seq))
        return None

    # ------------------------------------------------------------- #
    # Observability
    # ------------------------------------------------------------- #

    def _publish_gauges(self) -> None:
        registry = get_registry()
        registry.gauge(
            "actions.net_node_seconds",
            self.ledger.net_node_seconds,
            **self._labels,
        )
        registry.gauge("actions.open", float(len(self._open)), **self._labels)
        registry.gauge(
            "actions.window_net_node_seconds",
            self.tracker.window_net(),
            **self._labels,
        )
        hit_rate = self.tracker.window_hit_rate()
        if hit_rate is not None:
            registry.gauge(
                "actions.window_hit_rate", hit_rate, **self._labels
            )
