"""Tests for repro.actions.engine (decide → schedule → settle fold)."""

from typing import List

import pytest

from repro.actions.cost import Action, CostModel
from repro.actions.engine import ActionEngine
from repro.actions.jobview import TraceJobView
from repro.actions.policy import CheckpointPolicy, NeverActPolicy
from repro.bgl.jobs import Job, JobTrace
from repro.bgl.topology import ANL_SPEC, Machine
from repro.meta.stacked import MetaLearner
from repro.predictors.base import FailureWarning
from repro.ras.fields import Severity
from repro.ras.store import EventStore
from repro.util.timeutil import MINUTE
from tests.conftest import make_event

WIDTH = 512  # one midplane


class _FixedPolicy:
    """Emits a canned action list on the first decision (test scaffolding)."""

    name = "fixed"

    def __init__(self, actions: List[Action]) -> None:
        self._actions = list(actions)

    def decide(self, ctx) -> List[Action]:
        out, self._actions = self._actions, []
        return out


def _info(time, job_id=1, location="R00-M0-N00-C00"):
    return make_event(time=time, location=location, job_id=job_id,
                      severity=Severity.INFO)


def _fatal(time, job_id=1, location="R00-M0-N05-C00"):
    return make_event(time=time, location=location, job_id=job_id,
                      severity=Severity.FATAL,
                      entry="kernel panic: unrecoverable condition detected")


def _warning(issued=1000, end=4600, conf=0.9):
    return FailureWarning(issued_at=issued, horizon_start=issued + 60,
                          horizon_end=end, confidence=conf,
                          source="meta", detail="test")


def _store(events):
    return EventStore.from_events(events)


def test_checkpoint_hit_hand_computed():
    engine = ActionEngine(CheckpointPolicy(), CostModel(checkpoint_cost=120.0))
    store = _store([_info(100), _info(2000), _fatal(3000)])
    engine.observe_store(store, [_warning(1000)])
    ledger = engine.finalize()
    assert ledger.taken == {"checkpoint": 1}
    assert ledger.outcomes == {"hit": 1}
    # Checkpoint at 1000 completes at 1120; job first seen at 100.
    assert ledger.saved_node_seconds == pytest.approx((1120 - 100) * WIDTH)
    assert ledger.cost_node_seconds == pytest.approx(120 * WIDTH)
    assert ledger.net_node_seconds == pytest.approx(460_800)
    assert ledger.reactive_loss == pytest.approx((3000 - 100) * WIDTH)
    assert ledger.jobs_hit == 1


def test_unmatched_warning_expires_as_false_alarm():
    engine = ActionEngine(CheckpointPolicy(), CostModel(checkpoint_cost=120.0))
    store = _store([_info(100), _info(2000), _info(5000)])
    engine.observe_store(store, [_warning(1000, end=4600)])
    ledger = engine.finalize()
    assert ledger.outcomes == {"false_alarm": 1}
    assert ledger.false_alarm_cost == pytest.approx(120 * WIDTH)
    assert ledger.net_node_seconds == pytest.approx(-120 * WIDTH)
    assert ledger.entries[0].settled_at == 4600   # the deadline, not t=5000


def test_finalize_expires_still_open_actions():
    engine = ActionEngine(CheckpointPolicy(), CostModel())
    engine.observe_store(_store([_info(100), _info(2000)]), [_warning(1000)])
    ledger = engine.finalize()
    assert ledger.outcomes == {"false_alarm": 1}


def test_never_act_policy_only_tracks_reactive_loss():
    engine = ActionEngine(NeverActPolicy(), CostModel())
    engine.observe_store(
        _store([_info(100), _fatal(3000)]), [_warning(1000)]
    )
    ledger = engine.finalize()
    assert ledger.taken == {}
    assert ledger.settled == 0
    assert ledger.net_node_seconds == 0.0
    assert ledger.reactive_loss == pytest.approx((3000 - 100) * WIDTH)


def test_job_killed_once():
    engine = ActionEngine(NeverActPolicy(), CostModel())
    engine.observe_store(
        _store([_info(100), _fatal(3000), _fatal(3500)]), []
    )
    assert engine.finalize().jobs_hit == 1


def _trace_ledger(jobs, events):
    """Never-act ledger over an exact job trace on the two-midplane ANL machine."""
    engine = ActionEngine(
        NeverActPolicy(), CostModel(),
        view=TraceJobView(JobTrace(Machine(ANL_SPEC), jobs)),
    )
    engine.observe_store(_store(events), [])
    return engine.finalize()


def test_fatal_on_idle_midplane_kills_nothing():
    ledger = _trace_ledger(
        [Job(1, 10_000, 20_000, (0,))],
        [_fatal(15_000, job_id=-1, location="R00-M1-N03-C07")],
    )
    assert ledger.jobs_hit == 0
    assert ledger.reactive_loss == 0.0


def test_fatal_without_midplane_kills_nothing():
    ledger = _trace_ledger(
        [Job(1, 10_000, 20_000, (0,))],
        [_fatal(15_000, job_id=-1, location="SYSTEM")],
    )
    assert ledger.jobs_hit == 0


def test_full_machine_job_charged_full_width():
    ledger = _trace_ledger(
        [Job(1, 0, 10_000, (0, 1))],
        [_fatal(5_000, job_id=-1, location="R00-M1-N00-C00")],
    )
    assert ledger.jobs_hit == 1
    assert ledger.reactive_loss == pytest.approx(5_000 * 2 * WIDTH)


def test_completed_migration_outranks_checkpoint():
    ckpt = Action(kind="checkpoint", decided_at=1000, completes_at=1120,
                  deadline=4600, job_id=1, width_nodes=WIDTH,
                  cost=120.0 * WIDTH)
    mig = Action(kind="migrate", decided_at=1000, completes_at=1180,
                 deadline=4600, job_id=1, midplane=0, width_nodes=WIDTH,
                 cost=180.0 * WIDTH)
    engine = ActionEngine(_FixedPolicy([ckpt, mig]),
                          CostModel(restart_cost=300.0))
    engine.observe_store(
        _store([_info(100), _info(2000), _fatal(3000)]), [_warning(1000)]
    )
    ledger = engine.finalize()
    assert ledger.outcomes == {"hit": 1, "redundant": 1}
    hit = next(e for e in ledger.entries if e.outcome == "hit")
    assert hit.action.kind == "migrate"
    # Migration dodges the kill: all work since start plus the restart.
    assert hit.saved == pytest.approx((3000 - 100 + 300) * WIDTH)
    redundant = next(e for e in ledger.entries if e.outcome == "redundant")
    assert redundant.action.kind == "checkpoint"
    assert redundant.saved == 0.0


def test_incomplete_action_settles_late():
    ckpt = Action(kind="checkpoint", decided_at=2900, completes_at=3020,
                  deadline=6500, job_id=1, width_nodes=WIDTH,
                  cost=120.0 * WIDTH)
    engine = ActionEngine(_FixedPolicy([ckpt]), CostModel())
    engine.observe_store(
        _store([_info(100), _info(2950), _fatal(3000)]), [_warning(2900)]
    )
    ledger = engine.finalize()
    assert ledger.outcomes == {"late": 1}
    assert ledger.saved_node_seconds == 0.0


def test_cordon_credited_only_for_diverted_jobs():
    cordon = Action(kind="quarantine", decided_at=1000, completes_at=1000,
                    deadline=4600, midplane=0, width_nodes=WIDTH,
                    cost=1000.0)
    # Job 2 starts AFTER the cordon was placed: a diverted job, credited.
    engine = ActionEngine(_FixedPolicy([cordon]), CostModel(restart_cost=300.0))
    engine.observe_store(
        _store([_info(2000, job_id=2), _fatal(3000, job_id=2)]),
        [_warning(1000)],
    )
    ledger = engine.finalize()
    assert ledger.outcomes == {"hit": 1}
    assert ledger.entries[0].saved == pytest.approx((3000 - 2000 + 300) * WIDTH)

    # Job 1 was already running when the cordon went up: no credit.
    cordon2 = Action(kind="quarantine", decided_at=1000, completes_at=1000,
                     deadline=4600, midplane=0, width_nodes=WIDTH,
                     cost=1000.0)
    engine2 = ActionEngine(_FixedPolicy([cordon2]), CostModel())
    engine2.observe_store(
        _store([_info(100), _info(2000), _fatal(3000)]), [_warning(1000)]
    )
    assert engine2.finalize().outcomes == {"redundant": 1}


def test_chunked_feed_matches_one_shot_digest():
    events = [_info(100), _info(2000), _info(2500), _fatal(3000),
              _info(4000), _info(7000)]
    warnings = [_warning(1000), _warning(2400, end=5000, conf=0.7)]

    one_shot = ActionEngine(CheckpointPolicy(), CostModel(), seed=3)
    one_shot.observe_store(_store(events), list(warnings))
    expected = one_shot.finalize().digest()

    for split in range(1, len(events)):
        engine = ActionEngine(CheckpointPolicy(), CostModel(), seed=3)
        engine.observe_store(_store(events[:split]), list(warnings))
        engine.observe_store(_store(events[split:]), [])
        assert engine.finalize().digest() == expected, f"split at {split}"


def test_meta_warnings_pay_on_generated_log(small_anl_log, anl_events):
    """End to end on the generated ANL log: always checkpointing on the
    meta-learner's warnings rescues net node-seconds (paper §1)."""
    # In-sample on the whole small store, for enough covered failures; the
    # out-of-sample magnitude is benchmarks/bench_actions.py's job.
    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(anl_events)
    engine = ActionEngine(CheckpointPolicy(), CostModel(checkpoint_cost=60),
                          view=TraceJobView(small_anl_log.job_trace))
    engine.observe_store(anl_events, list(meta.predict(anl_events)))
    ledger = engine.finalize()
    assert ledger.jobs_hit > 0
    assert ledger.reactive_loss > 0
    assert ledger.outcomes.get("hit", 0) > 0, (
        "some killed job must restart from a checkpoint"
    )
    assert ledger.net_node_seconds > 0, "prediction must pay on this workload"


def test_ledger_stamped_with_policy_and_seed():
    engine = ActionEngine(CheckpointPolicy(), CostModel(), seed=99)
    ledger = engine.finalize()
    assert ledger.policy == "checkpoint"
    assert ledger.seed == 99


def test_hot_midplane_tracking():
    engine = ActionEngine(NeverActPolicy(), CostModel(),
                          hot_window_seconds=1000.0)
    engine.observe_store(
        _store([
            _fatal(100, job_id=-1, location="R00-M0-N00-C00"),
            _fatal(200, job_id=-1, location="R00-M1-N00-C00"),
            _fatal(300, job_id=-1, location="R00-M1-N03-C00"),
        ]),
        [],
    )
    hot, share = engine._hot_midplane(400)
    assert hot == 1                            # two fatals beat one
    assert share == pytest.approx(2.0 / 3.0)
    assert engine._hot_midplane(5000) == (-1, 0.0)   # history aged out
