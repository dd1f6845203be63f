"""Benchmark — the prediction-to-action engine's economics and determinism.

Four gates for ``repro.actions`` (see docs/actions.md), all replaying the
generated ANL machine's job trace, failures and warnings.  Gates 1 and 2
share one bench, and every always-checkpoint ledger of the meta warnings
comes from one module fixture:

1. **Economics** — the cost-aware policy nets positive node-seconds and
   beats both the always-checkpoint policy and never-acting, across three
   checkpoint-cost regimes (cheap, paper-ish, expensive).  Always-checkpoint
   degrades as checkpoints get pricier; the cost-aware composite declines
   unprofitable actions instead.
2. **Checkpoint economics (paper §1)** — every meta-learner warning
   checkpoints the jobs it covers: cheap checkpoints net positive
   node-seconds, and the net never rises as checkpoints get dearer.  This
   is the quantitative form of the paper's "preventive action" argument.
3. **Meta beats statistical (paper §1)** — under the same checkpoint
   policy, the meta-learner's warnings net more node-seconds than the
   statistical predictor's; with 60-s checkpoints they net positive
   node-seconds, and more than 30 % of the jobs that localized failures
   kill restart from a proactive checkpoint instead of from scratch.
4. **Bit identity** — the ledger from a one-shot replay (the serve-replay
   path) is byte-identical, digest and all, to the ledger drained from a
   live daemon fed the same stream over the wire in arbitrary batches.
"""

from __future__ import annotations

import asyncio

import pytest

from benchmarks.conftest import report
from repro.actions import ActionEngine, CostModel, TraceJobView, build_policy
from repro.meta.stacked import MetaLearner
from repro.predictors.statistical import StatisticalPredictor
from repro.serve import DetectorPool
from repro.serve.daemon import DaemonConfig, IngestDaemon
from repro.serve.protocol import decode_frame, encode_frame, event_to_dict
from repro.util.timeutil import HOUR, MINUTE

#: Checkpoint-cost regimes (seconds) of the policy comparison: cheap, the
#: default price, pricey.
REGIMES = (30.0, 120.0, 240.0)

#: Regimes of the paper-§1 economics gate, cheap to very dear.
PAPER_REGIMES = (30.0, 120.0, 300.0, 900.0)

#: Regimes of the paper-§1 meta-vs-statistical gate.
PREDICTOR_REGIMES = (60.0, 120.0)


def _split(events):
    cut = int(len(events) * 0.6)
    return events.select(slice(0, cut)), events.select(slice(cut, len(events)))


@pytest.fixture(scope="module")
def replay(anl_bench_log, anl_bench_events):
    train, test = _split(anl_bench_events)
    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(train)
    return anl_bench_log.job_trace, test, meta.predict(test)


@pytest.fixture(scope="module")
def statistical_warnings(anl_bench_events):
    train, test = _split(anl_bench_events)
    stat = StatisticalPredictor(window=HOUR, lead=5 * MINUTE).fit(train)
    return stat.predict(test)


def _ledger(policy_name, trace, test, warnings, checkpoint_cost):
    engine = ActionEngine(
        build_policy(policy_name),
        CostModel(checkpoint_cost=checkpoint_cost),
        view=TraceJobView(trace),
        seed=0,
    )
    engine.observe_store(test, list(warnings))
    return engine.finalize()


@pytest.fixture(scope="module")
def always_checkpoint(replay):
    """Always-checkpoint ledgers of the meta warnings, one per regime.

    Every gate that prices the ``checkpoint`` policy on meta warnings reads
    this one table, so each regime's engine runs once per module.
    """
    trace, test, warnings = replay
    regimes = sorted(set(REGIMES) | set(PAPER_REGIMES) | set(PREDICTOR_REGIMES))
    return {
        ckpt: _ledger("checkpoint", trace, test, warnings, ckpt)
        for ckpt in regimes
    }


def test_bench_economics_across_regimes(replay, always_checkpoint, benchmark):
    trace, test, warnings = replay

    def run():
        return {
            ckpt: {
                name: _ledger(name, trace, test, warnings, ckpt)
                for name in ("cost-aware", "never")
            }
            for ckpt in REGIMES
        }

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for ckpt in REGIMES:
        rows.append((
            f"ckpt={ckpt:g}s  cost-aware / always-ckpt (net node-hours)",
            round(grid[ckpt]["cost-aware"].net_node_seconds / 3600),
            round(always_checkpoint[ckpt].net_node_seconds / 3600),
        ))
    reactive = grid[REGIMES[0]]["never"].reactive_loss
    rows.append(("reactive loss, no action (node-hours)",
                 round(reactive / 3600)))
    report("Actions — policy economics across checkpoint-cost regimes (ANL)",
           rows)

    rows = [("ckpt cost (s)", "net node-hours", "hits", "false alarms")]
    for ckpt in PAPER_REGIMES:
        ledger = always_checkpoint[ckpt]
        rows.append((
            f"{ckpt:g}",
            round(ledger.net_node_seconds / 3600),
            ledger.outcomes.get("hit", 0),
            ledger.outcomes.get("false_alarm", 0),
        ))
    report("Actions — checkpoint economics by cost regime "
           "(ANL, meta W=30 min, always-checkpoint)", rows)

    for ckpt in REGIMES:
        aware = grid[ckpt]["cost-aware"]
        always = always_checkpoint[ckpt]
        never = grid[ckpt]["never"]
        assert never.net_node_seconds == 0.0
        assert never.taken == {}
        assert aware.net_node_seconds > 0.0, (
            f"cost-aware must net positive node-seconds at ckpt={ckpt}"
        )
        assert aware.net_node_seconds > always.net_node_seconds, (
            f"cost-aware must beat always-checkpoint at ckpt={ckpt}"
        )
        assert aware.net_node_seconds > never.net_node_seconds

    # Paper §1: cheap checkpoints make prediction pay, and the net shrinks
    # monotonically as checkpoints get dearer: each costs more, and more of
    # them complete too late to bound the rollback.
    nets = [always_checkpoint[c].net_node_seconds for c in PAPER_REGIMES]
    assert nets[0] > 0.0, "cheap checkpoints must net positive node-seconds"
    assert all(a >= b for a, b in zip(nets, nets[1:])), (
        f"net node-seconds must not rise with checkpoint cost: {nets}"
    )


def test_bench_meta_beats_statistical(
    replay, always_checkpoint, statistical_warnings, benchmark
):
    trace, test, _ = replay

    def run():
        return {
            ckpt: _ledger("checkpoint", trace, test, statistical_warnings, ckpt)
            for ckpt in PREDICTOR_REGIMES
        }

    statistical = benchmark.pedantic(run, rounds=1, iterations=1)
    meta60 = always_checkpoint[60.0]
    rows = [
        (f"ckpt={ckpt:g}s  meta / statistical (net node-hours)",
         round(always_checkpoint[ckpt].net_node_seconds / 3600),
         round(statistical[ckpt].net_node_seconds / 3600))
        for ckpt in PREDICTOR_REGIMES
    ]
    restarted = meta60.outcomes.get("hit", 0)
    rows += [
        ("jobs killed by localized failures", meta60.jobs_hit),
        ("... restarting from a proactive checkpoint (ckpt=60s, meta)",
         restarted),
        ("reactive loss, no action (node-hours)",
         round(meta60.reactive_loss / 3600)),
    ]
    report("Actions — meta vs statistical under always-checkpoint (ANL)", rows)

    for ckpt in PREDICTOR_REGIMES:
        assert (always_checkpoint[ckpt].net_node_seconds
                > statistical[ckpt].net_node_seconds), (
            f"meta must net more node-seconds than statistical at ckpt={ckpt}"
        )
    assert meta60.net_node_seconds > 0.0, (
        "prediction must rescue net node-hours at ckpt=60s"
    )
    assert meta60.jobs_hit > 0
    assert restarted / meta60.jobs_hit > 0.3, (
        "a share of killed jobs must restart from a proactive checkpoint"
    )


async def _send_frames(port, frames):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses = []
    try:
        for frame in frames:
            writer.write(encode_frame(frame))
            await writer.drain()
            responses.append(decode_frame(await reader.readline()))
    finally:
        writer.close()
        await writer.wait_closed()
    return responses


def test_bench_replay_and_daemon_drain_bit_identical(replay, benchmark):
    _, test, _ = replay
    config = DaemonConfig(port=0, queue_bound=4096, shards=2, chunk_events=256)
    events = list(test)
    cut = int(len(test) * 0.5)
    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(test.select(slice(0, cut)))

    def factory(stream_id):
        return ActionEngine(build_policy("cost-aware"), CostModel(), seed=7)

    async def daemon_run():
        async with IngestDaemon(meta, config, action_factory=factory) as daemon:
            frames = [
                {
                    "op": "batch",
                    "stream": "s",
                    "events": [event_to_dict(e) for e in events[i:i + 500]],
                }
                for i in range(0, len(events), 500)
            ]
            responses = await _send_frames(daemon.port, frames)
            assert all(r["ok"] for r in responses)
            return await daemon.drain()

    def run():
        drained = asyncio.run(daemon_run()).streams[0].ledger
        pool = DetectorPool(meta, shards=config.shards, key=config.key)
        warnings = pool.process_store(test)
        one_shot = ActionEngine(build_policy("cost-aware"), CostModel(), seed=7)
        one_shot.observe_store(test, list(warnings))
        return drained, one_shot.finalize()

    drained, one_shot = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Actions — serve-replay vs daemon-drain ledger identity (ANL)",
        [
            ("events over the wire", len(events)),
            ("actions settled", drained.settled),
            ("net node-hours", round(drained.net_node_seconds / 3600)),
            ("digests equal", drained.digest() == one_shot.digest()),
        ],
    )
    assert drained.digest() == one_shot.digest(), (
        "daemon-drained ledger must be bit-identical to the one-shot replay"
    )
