"""``lifecycle-retrain``: model writes beside serving reads.

Set-up generates the ANL profile, compresses it (Phase 1), replicates the
unique events with time shifts into a longer stream, rotated to a
seed-chosen start, and fits the serving model on its head.  One repetition registers that model in a fresh
registry directory and drives the rest of the stream through
``LifecycleManager.run`` on a 4-shard pool, retraining by count on a
sliding window with incremental mining and a mining-heavy meta spec.

The timed region is ``LifecycleManager.run``; the manager is a subclass
whose ``feed`` records each chunk's latency (one clock pair per chunk),
so retrain and swap stalls land in the latency tail.

Correctness: the final serving snapshot id equals the one a
non-incremental run of the same stream produces (computed once per run,
outside the timed region), and every repetition ends on that snapshot.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from time import perf_counter

import common
from spans import OFF, Tracer


#: Generator seed of the corpus (the benchmarks' ``BENCH_SEED``).  Retrain
#: cost follows the bursts of the log the window holds, and between
#: generator seeds it varied by a quarter at equal size, more than any
#: change this workload should detect.  So every run mines the same corpus,
#: and ``--seed`` picks where in the replicated corpus the stream starts,
#: which changes the head, every window and every snapshot.
CORPUS_SEED = 11


@dataclass(frozen=True)
class Config:
    #: Generator scale of the ANL corpus.
    scale: float = 0.05
    #: Head events: the initial model's training set and drift reference.
    head_events: int = 1024
    #: Events driven through the managed loop.
    served_events: int = 4096
    #: Count trigger: retrain after this many events.
    retrain_every: int = 256
    #: Sliding training window in events.
    window_events: int = 4096
    #: Swap-barrier chunk in events (one latency sample each).
    chunk_events: int = 64
    #: Drift monitor window in events.
    drift_window: int = 512
    #: The managed run repeats at least this many times per run.
    min_repeats: int = 4


CONFIG = Config()
TINY = Config(scale=0.01, head_events=256, served_events=512, retrain_every=128,
              window_events=512, chunk_events=32, drift_window=128, min_repeats=2)


def spec():
    """The mining-heavy meta spec: 2 h rule window, 1% support.

    Rule bodies are capped at three items.  With the default cap of six,
    the subset count of the largest burst in a window decides the cost,
    and moving the stream's start by a few hundred events changed a
    managed run from 1.8 s to 8 s.
    """
    from repro.evaluation.spec import PredictorSpec
    from repro.util.timeutil import MINUTE

    return PredictorSpec.meta(rule_window=120 * MINUTE, min_support=0.01, max_len=3)


def setup(seed: int, cfg: Config):
    """Generate, compress, replicate and fit; returns (head, served, model)."""
    import numpy as np

    from repro.ras.store import EventStore

    unique = common.phase1(common.generate_anl(CORPUS_SEED, cfg.scale).raw).events
    start = int(np.random.default_rng(seed).integers(len(unique)))
    total = cfg.head_events + cfg.served_events
    stream = common.replicate(unique, start + total)[start:]
    head = EventStore.from_events_in_memory(stream[: cfg.head_events])
    served = EventStore.from_events_in_memory(stream[cfg.head_events:])
    model = spec().build(seed=None).fit(head)
    return head, served, model


def managed_run(head, served, model, regdir: str, cfg: Config, incremental: bool, t=OFF):
    """One managed run in a fresh registry.

    Returns (manager, report, per-chunk latencies, seconds of ``run``).
    """
    from repro.lifecycle import (
        DriftMonitor,
        LifecycleManager,
        ModelRegistry,
        RetrainPolicy,
        Retrainer,
    )
    from repro.serve import DetectorPool

    latencies: list[float] = []

    class TimedManager(LifecycleManager):
        pending_max = 0

        def feed(self, chunk):
            c0 = perf_counter()
            warnings = super().feed(chunk)
            latencies.append(perf_counter() - c0)
            if t.enabled:
                self.pending_max = max(self.pending_max, self.pool.pending_count)
            return warnings

    shutil.rmtree(regdir, ignore_errors=True)
    registry = ModelRegistry(regdir)
    base = registry.save(model, spec=spec())
    pool = DetectorPool(model, shards=4)
    monitor = DriftMonitor(head, window=cfg.drift_window)
    policy = RetrainPolicy(cfg.retrain_every, cooldown_events=cfg.retrain_every)
    retrainer = Retrainer(
        spec(), registry, window_events=cfg.window_events, seed=0, incremental=incremental
    )
    manager = TimedManager(pool, monitor, policy, retrainer, serving_snapshot=base.snapshot_id)
    sized = lambda s, *a, **k: len(s)  # noqa: E731
    t.wrap(manager, "feed", "lifecycle.manager.feed", sized)
    t.wrap(pool, "process_store", "serve.pool.process_store", sized)
    t.wrap(pool, "combined_stats", "serve.pool.combined_stats")
    t.wrap(pool, "swap_model", "lifecycle.pool.swap_model")
    t.wrap(pool, "finish", "serve.pool.finish")
    t.wrap(monitor, "observe_store", "lifecycle.drift.observe_store", sized)
    t.wrap(monitor, "evaluate", "lifecycle.drift.evaluate")
    t.wrap(retrainer, "extend", "lifecycle.retrainer.extend", sized)
    t.wrap(retrainer, "retrain", "lifecycle.retrainer.retrain")
    t.wrap(registry, "save", "lifecycle.registry.save")
    with t.span("lifecycle-retrain.run", len(served)):
        t0 = perf_counter()
        report = manager.run(served, chunk_events=cfg.chunk_events)
        wall = perf_counter() - t0
    return manager, report, latencies, wall


def run(seed: int, seconds: float, trace: bool, corrupt: bool, cfg: Config = CONFIG, env=None) -> common.Outcome:
    outcome = common.Outcome("lifecycle-retrain")
    workdir = common.make_workdir("lifecycle-retrain", seed)
    setups, factors = [], []
    for _ in range(common.SETUP_REPEATS):
        ((head, served, model), seconds_taken), k = common.calibrated(
            lambda: common.timed(setup, seed, cfg)
        )
        setups.append(seconds_taken * k)

    # The reference: the same stream without incremental mining.
    ref_manager, _, _, ref_wall = managed_run(
        head, served, model, os.path.join(workdir, "reference"), cfg, incremental=False
    )
    expected = ref_manager.serving_snapshot
    if corrupt:
        expected = "corrupted-reference"

    tracer = Tracer(f"lifecycle-retrain-seed{seed}") if trace else None
    obs = None
    walls, traced_walls, latencies, retrains = [], [], [], []
    pending_max = 0
    deadline = perf_counter() + seconds
    rep = 0
    while rep < cfg.min_repeats or perf_counter() < deadline:
        rep += 1
        (manager, report, lat, wall), k = common.calibrated(
            lambda: managed_run(
                head, served, model, os.path.join(workdir, f"rep{rep}"), cfg, incremental=True
            )
        )
        factors.append(k)
        walls.append(wall * k)
        latencies.extend(x * k for x in lat)
        outcome.attempted += 1
        outcome.check(
            "final snapshot == non-incremental run",
            manager.serving_snapshot == expected,
            f"{manager.serving_snapshot[:12]} after {report.retrains} retrains",
        )
        if tracer is not None:
            from repro.obs import MetricsRegistry, use

            obs = obs or MetricsRegistry()
            with use(obs):
                (manager, report, _, wall), k = common.calibrated(
                    lambda: managed_run(
                        head, served, model, os.path.join(workdir, f"traced{rep}"), cfg,
                        incremental=True, t=tracer,
                    )
                )
            traced_walls.append(wall * k)
            retrains.append(report.retrains)
            pending_max = max(pending_max, manager.pending_max)

    wall = common.median(walls)
    p, tail_value = common.tail(latencies, cfg.min_repeats * len(lat))
    outcome.note(
        f"stream: {len(head)} head + {len(served)} served events from scale {cfg.scale}, "
        f"seed {seed}; set-ups {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    outcome.note(
        f"{len(walls)} managed runs, median {wall:.4f} s at nominal speed (machine speed "
        f"factor {common.median(factors):.3f}), {report.retrains} retrains each; "
        f"non-incremental reference {ref_wall:.4f} s"
    )
    outcome.note(
        f"latency: {len(latencies)} chunks of {cfg.chunk_events} events; tail is p{p:g}"
    )
    outcome.end_to_end.update(
        wall_s=wall,
        throughput_eps=len(served) / wall,
        latency_p50_ms=common.percentile(latencies, 50) * 1e3,
        latency_tail_ms=tail_value * 1e3,
        peak_rss_mib=common.peak_rss_self_mib(),
        setup_s=common.median(setups),
    )
    if tracer is not None:
        layers(outcome, tracer, obs, len(served), retrains, walls, traced_walls)
        outcome.layers["online.pending_max"] = float(pending_max)
        tracer.write(os.path.join(common.OUT_ROOT, f"trace-lifecycle-retrain-seed{seed}.json"))
    shutil.rmtree(workdir, ignore_errors=True)
    return outcome


def layers(outcome, tracer, obs, served, retrains, walls, traced_walls) -> None:
    """Per-layer metrics from the traced managed runs (averaged per run)."""
    table = tracer.layer_table()
    runs = len(traced_walls)
    wall = tracer.roots_wall()
    self_s = lambda name: table.get(name, {}).get("self_s", 0.0)  # noqa: E731
    retrain_ms = [d * 1e3 for d in tracer.durations("lifecycle.retrainer.retrain")]
    p, retrain_tail = common.tail(retrain_ms) if retrain_ms else (0.0, 0.0)
    counters = obs.counters
    reused = counters.get("mining.incremental.suffix_reused", 0)
    mined = counters.get("mining.incremental.suffix_mined", 0)
    drift_s = self_s("lifecycle.drift.observe_store") + self_s("lifecycle.drift.evaluate")
    saves = table.get("lifecycle.registry.save", {}).get("calls", 0)
    swaps = table.get("lifecycle.pool.swap_model", {}).get("calls", 0)
    outcome.note(
        f"traced: {len(retrain_ms)} retrains, retrain tail is p{p:g}; "
        f"suffixes reused {reused} / mined {mined}"
    )
    outcome.layers.update({
        "serve.pool.process_us_per_event": common.per_unit_us(table, "serve.pool.process_store"),
        "lifecycle.retrain_p50_ms": common.percentile(retrain_ms, 50) if retrain_ms else 0.0,
        "lifecycle.retrain_tail_ms": retrain_tail,
        "lifecycle.registry_save_ms": self_s("lifecycle.registry.save") / saves * 1e3 if saves else 0.0,
        "lifecycle.drift_us_per_event": drift_s / (served * runs) * 1e6,
        "lifecycle.swap_ms": self_s("lifecycle.pool.swap_model") / swaps * 1e3 if swaps else 0.0,
        "lifecycle.retrains": common.median(retrains),
        "mining.suffix_reuse_ratio": reused / (reused + mined) if reused + mined else 0.0,
        "trace.unattributed_ratio": self_s("lifecycle-retrain.run") / wall,
        "trace.overhead_ratio": common.median(traced_walls) / common.median(walls) - 1.0,
    })
    outcome.layer_table = table
    outcome.traced_wall_s = wall
