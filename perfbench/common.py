"""Shared helpers: paths, environment pinning, inputs, statistics, output."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch inputs of one run (log files, model files, registries).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: Where traced runs write their span files.
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

#: Environment switches that change which code path the program takes.
PINNED_ENV = ("REPRO_STORE_BACKEND", "REPRO_JOBS", "REPRO_INCREMENTAL", "REPRO_CACHE_DIR")

#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Median time of :func:`calibrate` on an idle 2-vCPU x86-64 VM (Python
#: 3.11).  End-to-end timings are reported at this machine speed.
CALIBRATION_NOMINAL_S = 0.015


def pin_environment() -> dict[str, str]:
    """Drop the path-selecting switches; returns the child environment."""
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def make_workdir(workload: str, seed: int) -> str:
    path = os.path.join(WORK_ROOT, f"{workload}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #


def generate_anl(seed: int, scale: float):
    """The ANL-profile generator output (raw records + ground truth)."""
    from repro.synth.generator import LogGenerator
    from repro.synth.profiles import anl_profile

    return LogGenerator(anl_profile(), scale=scale, seed=seed).generate()


def phase1(raw):
    """Phase 1 (classify, temporal and spatial compression) of a raw store."""
    from repro.preprocess.pipeline import PreprocessPipeline

    return PreprocessPipeline().run(raw)


def replicate(events, count: int) -> list:
    """``count`` events: the store repeated, each copy shifted past the last."""
    base = list(events)
    span = base[-1].time - base[0].time + 1
    out = []
    k = 0
    while len(out) < count:
        shift = k * span
        out.extend(ev.with_time(ev.time + shift) if shift else ev for ev in base)
        k += 1
    return out[:count]


# --------------------------------------------------------------------- #
# Timing and statistics
# --------------------------------------------------------------------- #


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop: the machine's current speed.

    On a shared host the speed of the same code drifts by a third within a
    minute.  Every timed sample is taken between two calls, and scaled by
    :func:`speed_factor`, so run-to-run drift cancels while a change to the
    program still moves the number.
    """
    t0 = perf_counter()
    table: dict[int, int] = {}
    for i in range(40_000):
        key = i % 1009
        table[key] = table.get(key, 0) + i
    sorted(str(i * 7919 % 100_003) for i in range(15_000))
    return perf_counter() - t0


def speed_factor(before: float, after: float) -> float:
    """Scale from this moment's machine speed to the nominal one."""
    return CALIBRATION_NOMINAL_S * 2.0 / (before + after)


def timed(fn, *args):
    """``(fn(*args), seconds it took)``."""
    t0 = perf_counter()
    result = fn(*args)
    return result, perf_counter() - t0


def calibrated(run):
    """``run()`` between two calibration loops; returns (result, factor)."""
    before = calibrate()
    result = run()
    return result, speed_factor(before, calibrate())


def percentile(values, p: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), p))


def tail(values, guaranteed: Optional[int] = None) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with >= 10 beyond.

    ``guaranteed`` is the sample count every run reaches; choosing the
    percentile from it keeps the reported percentile the same across runs
    that happen to collect more samples.
    """
    n = len(values) if guaranteed is None else min(guaranteed, len(values))
    chosen = None
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            chosen = p
    if chosen is None:
        return 100.0, float(max(values))
    return chosen, percentile(values, chosen)


def median(values) -> float:
    return float(statistics.median(values))


def per_unit_us(table: dict, name: str) -> float:
    """Self microseconds per unit of work of span ``name`` (0 if absent)."""
    row = table.get(name)
    if not row or not row["units"]:
        return 0.0
    return row["self_s"] / row["units"] * 1e6


def peak_rss_self_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# Outcome of one run
# --------------------------------------------------------------------- #


@dataclass
class Outcome:
    """What a workload measured and checked in one run."""

    workload: str
    attempted: int = 0
    failed: int = 0
    #: Check name -> [passed, failed, last detail].
    checks: dict[str, list] = field(default_factory=dict)
    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Span table of the traced run (name -> calls/units/total_s/self_s).
    layer_table: Optional[dict[str, dict[str, float]]] = None
    traced_wall_s: float = 0.0

    def check(self, name: str, ok: bool, detail: str = "", weight: int = 1) -> bool:
        """Record a correctness check; a failed one counts ``weight`` failures."""
        row = self.checks.setdefault(name, [0, 0, ""])
        row[0 if ok else 1] += 1
        row[2] = detail
        if not ok:
            self.failed += weight
        return bool(ok)

    def note(self, line: str) -> None:
        self.notes.append(line)


def load_contract() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def emit(outcome: Outcome, trace: bool) -> int:
    """Print the human report, then the one-line JSON result; exit code."""
    contract = load_contract()
    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    values = outcome.layers if trace else outcome.end_to_end
    if trace:
        values["fail_ratio"] = outcome.failed / max(outcome.attempted, 1)
    print(f"== {outcome.workload} ({'traced' if trace else 'untraced'}) ==")
    for line in outcome.notes:
        print(f"  {line}")
    if outcome.layer_table is not None:
        print_layer_table(outcome)
    for name, (passed, failed, detail) in outcome.checks.items():
        print(
            f"  check {'FAIL' if failed else 'ok  '} {name} "
            f"({passed} passed, {failed} failed)" + (f": {detail}" if detail else "")
        )
    metrics: dict[str, dict[str, Any]] = {}
    missing = []
    for spec in wanted:
        name = spec["name"]
        if name not in values:
            if trace:
                # A layer this workload never calls: no span, zero time.
                values[name] = 0.0
            else:
                missing.append(name)
                continue
        metrics[name] = {"value": float(values[name]), "unit": spec["unit"]}
        print(f"  {name:<40} {values[name]:>16.6f} {spec['unit']}")
    unknown = sorted(set(values) - {spec["name"] for spec in wanted})
    if missing or unknown:
        print(f"error: metrics not measured {missing}, not declared {unknown}", file=sys.stderr)
        return 1
    print(
        f"  attempted {outcome.attempted}  failed {outcome.failed}  "
        f"fail_ratio {outcome.failed / max(outcome.attempted, 1):.6f}"
    )
    correct = outcome.failed == 0 and not any(row[1] for row in outcome.checks.values())
    result = {
        "correct": correct,
        "attempted": int(max(outcome.attempted, 1)),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def print_layer_table(outcome: Outcome) -> None:
    """Per-span self time, and the reconciliation against traced wall."""
    table = outcome.layer_table or {}
    wall = outcome.traced_wall_s
    print(f"  {'span':<36} {'calls':>7} {'units':>9} {'self_s':>10} {'share':>7}")
    total = 0.0
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        total += row["self_s"]
        share = row["self_s"] / wall if wall else 0.0
        print(
            f"  {name:<36} {int(row['calls']):>7} {int(row['units']):>9} "
            f"{row['self_s']:>10.4f} {share:>7.1%}"
        )
    print(f"  {'sum of self times':<54} {total:>10.4f}   traced wall {wall:.4f}s")
