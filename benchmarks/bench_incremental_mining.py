"""Incremental mining engine: O(delta) retrains vs from-scratch refits.

Two measurements, each with a built-in bit-identity gate (the engine's whole
contract is "exactly the from-scratch result, cheaper" — a fast-but-different
fit would be a correctness bug, not a win):

- **Sliding-window retrain speedup** — a lifecycle-shaped scenario: the
  training window slides across the bench stream in chunk-sized steps (the
  stream's event mix drifts as it goes, so every step adds and evicts real
  transactions), and each step fits the same rule spec twice: from scratch
  (``spec.build().fit``, the mining engine filled from empty) and through
  the maintained :class:`~repro.evaluation.incremental.IncrementalFitter`.
  Gates: every step's learned state is byte-identical, and the
  **steady-state** median speedup (excluding the first incremental fit,
  which builds the maintained state from scratch) is at least
  :data:`MIN_SPEEDUP`.
- **spec.grid() fit reuse** — a ``prediction_window`` sweep runs twice,
  plain and incremental.  Every grid point shares one mining recipe, so the
  incremental run syncs one maintained miner across the whole grid x folds
  matrix.  Gates: fold metrics are identical, and the reuse counters show
  the maintained structure actually carried work across points (suffix
  partitions reused, every supported fit routed through the fitter).

The spec mines at ``min_support=0.01`` over a 2 h rule window — a deliberately
mining-heavy configuration (the paper's 0.04 cutoff on this bench log mines
in milliseconds, which would benchmark fixed overheads, not the engine).
Everything is seeded; reruns are bit-identical.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from benchmarks.conftest import report
from repro.core.serialize import learned_state_to_dict
from repro.evaluation.incremental import IncrementalFitter
from repro.evaluation.spec import PredictorSpec
from repro.evaluation.sweep import sweep
from repro.obs import get_registry
from repro.util.timeutil import MINUTE

#: Mining-heavy rule configuration (see module docstring).
RULE_WINDOW = 120 * MINUTE
MIN_SUPPORT = 0.01

#: Sliding scenario: window span and per-retrain slide, as stream fractions.
WINDOW_FRAC = 0.6
STEP_FRAC = 0.002
RETRAINS = 8

#: Acceptance gate: steady-state incremental retrains must be at least this
#: much faster than from-scratch refits of the same windows.
MIN_SPEEDUP = 5.0

#: Sweep-reuse scenario: predict-only axis, so one mining recipe spans it.
SWEEP_WINDOWS = [10 * MINUTE, 20 * MINUTE, 30 * MINUTE]
SWEEP_FOLDS = 3


def _spec() -> PredictorSpec:
    return PredictorSpec.rule(
        rule_window=RULE_WINDOW, min_support=MIN_SUPPORT
    )


def test_sliding_window_retrain_speedup(anl_bench_events):
    """Steady-state O(delta) retrains vs from-scratch, bit-identical."""
    events = anl_bench_events
    n = len(events)
    window_events = int(n * WINDOW_FRAC)
    step = max(1, int(n * STEP_FRAC))
    spec = _spec()
    fitter = IncrementalFitter()

    scratch_s: list[float] = []
    incremental_s: list[float] = []
    for i in range(RETRAINS):
        lo = i * step
        window = events.select(slice(lo, lo + window_events))

        t0 = perf_counter()
        direct = spec.build().fit(window)
        scratch_s.append(perf_counter() - t0)

        t0 = perf_counter()
        incremental = fitter.fit(spec, window)
        incremental_s.append(perf_counter() - t0)

        # The gate that makes the speedup meaningful: same learned state,
        # byte for byte, at every step of the schedule.
        assert learned_state_to_dict(incremental) == learned_state_to_dict(
            direct
        ), f"incremental fit diverged from scratch at step {i}"

    # Steady state: the first incremental fit builds the maintained state
    # from scratch and is expected to cost as much as a plain fit.
    scratch_med = statistics.median(scratch_s[1:])
    steady_med = statistics.median(incremental_s[1:])
    speedup = scratch_med / steady_med
    assert speedup >= MIN_SPEEDUP, (
        f"steady-state incremental retrain speedup {speedup:.1f}x below the "
        f"{MIN_SPEEDUP:.0f}x gate (scratch {scratch_med * 1e3:.1f} ms, "
        f"incremental {steady_med * 1e3:.1f} ms)"
    )

    obs = get_registry()
    counters = {
        key[0] if isinstance(key, tuple) else key: value
        for key, value in obs.counters.items()
    }
    report(
        "incremental mining: sliding-window retrains "
        f"(window {window_events} events, slide {step})",
        [
            ("retrains", RETRAINS),
            ("from-scratch fit (median)", f"{scratch_med * 1e3:.1f} ms"),
            ("incremental cold fit", f"{incremental_s[0] * 1e3:.1f} ms"),
            ("incremental steady fit (median)", f"{steady_med * 1e3:.1f} ms"),
            ("steady-state speedup", f"{speedup:.1f}x (gate >= {MIN_SPEEDUP:.0f}x)"),
            ("suffixes reused / re-mined",
             f"{counters.get('mining.incremental.suffix_reused', 0)} / "
             f"{counters.get('mining.incremental.suffix_mined', 0)}"),
            ("body-count cache hits",
             counters.get("mining.incremental.body_cache_hits", 0)),
        ],
    )
    obs.gauge("mining.bench_incremental_speedup", speedup)
    obs.gauge("mining.bench_scratch_fit_ms", scratch_med * 1e3)
    obs.gauge("mining.bench_incremental_fit_ms", steady_med * 1e3)


def test_spec_grid_sweep_fit_reuse(anl_bench_events):
    """A predict-only sweep shares one maintained miner across the grid."""
    events = anl_bench_events
    spec = _spec()

    t0 = perf_counter()
    plain = sweep(
        spec.grid("prediction_window", SWEEP_WINDOWS), events, k=SWEEP_FOLDS
    )
    plain_seconds = perf_counter() - t0

    t0 = perf_counter()
    fast = sweep(
        spec.grid("prediction_window", SWEEP_WINDOWS),
        events,
        k=SWEEP_FOLDS,
        incremental=True,
    )
    fast_seconds = perf_counter() - t0

    # Identical fold metrics: the reuse must be invisible in the results.
    assert [p.window for p in plain] == [p.window for p in fast]
    for a, b in zip(plain, fast):
        assert a.result.fold_metrics == b.result.fold_metrics

    obs = get_registry()
    counters = {
        key[0] if isinstance(key, tuple) else key: value
        for key, value in obs.counters.items()
    }
    tasks = len(SWEEP_WINDOWS) * SWEEP_FOLDS
    fits = counters.get("engine.incremental_fits", 0)
    reused = counters.get("mining.incremental.suffix_reused", 0)
    assert fits == tasks, (
        f"expected all {tasks} sweep fits through the fitter, saw {fits}"
    )
    assert reused > 0, "sweep reused no suffix partitions across grid points"

    report(
        "incremental mining: spec.grid() prediction_window sweep "
        f"({len(SWEEP_WINDOWS)} points x {SWEEP_FOLDS} folds)",
        [
            ("plain sweep", f"{plain_seconds:.2f} s"),
            ("incremental sweep", f"{fast_seconds:.2f} s"),
            ("speedup", f"{plain_seconds / fast_seconds:.2f}x"),
            ("fits through maintained miner", fits),
            ("zero-delta fits",
             counters.get("engine.incremental_zero_delta", 0)),
            ("suffixes reused / re-mined",
             f"{reused} / {counters.get('mining.incremental.suffix_mined', 0)}"),
            ("body-count cache hits",
             counters.get("mining.incremental.body_cache_hits", 0)),
        ],
    )
    obs.gauge("mining.bench_sweep_speedup", plain_seconds / fast_seconds)
