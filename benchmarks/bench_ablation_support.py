"""Ablation — support/confidence thresholds (paper §3.2.2 discussion).

"Lower value of support and confidence will generate larger amount of rules,
thereby requiring longer time and more memory ... Higher value ... reduces
the opportunities of capturing causal relationships."  We sweep min_support
and min_confidence around the paper's (0.04, 0.2) and measure rule counts,
mining time and prediction quality.
"""

import time


from benchmarks.conftest import report
from repro.evaluation.crossval import cross_validate
from repro.evaluation.spec import PredictorSpec
from repro.mining.rules import generate_rules
from repro.mining.transactions import build_event_sets
from repro.util.timeutil import MINUTE

SUPPORTS = (0.01, 0.02, 0.04, 0.08, 0.16)


def test_ablation_support_threshold(anl_bench_events, benchmark):
    def run():
        db = build_event_sets(anl_bench_events, rule_window=15 * MINUTE)
        out = {}
        for s in SUPPORTS:
            t0 = time.perf_counter()
            rs = generate_rules(db, min_support=s, min_confidence=0.2)
            out[s] = (len(rs), time.perf_counter() - t0)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("min_support", "rules", "mining time (s)")]
    for s in SUPPORTS:
        rows.append((s, out[s][0], round(out[s][1], 4)))
    report("Ablation — support threshold (ANL, G=15 min)", rows)

    counts = [out[s][0] for s in SUPPORTS]
    # Monotone: lower support -> at least as many rules.
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    # The paper's trade-off is real on this substrate: going below 0.04
    # multiplies the rule count (cost), going above it loses rules
    # (coverage).
    assert out[0.01][0] > out[0.04][0]
    assert out[0.16][0] < out[0.04][0]


def test_ablation_support_quality(anl_bench_events, benchmark):
    """Accuracy impact of the support threshold (10-fold CV)."""

    def run():
        out = {}
        for s in (0.02, 0.04, 0.16):
            out[s] = cross_validate(
                PredictorSpec.rule(
                    rule_window=15 * MINUTE,
                    prediction_window=30 * MINUTE,
                    min_support=s,
                ),
                anl_bench_events,
                k=10,
            )
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("min_support", "precision", "recall")]
    for s, cv in out.items():
        rows.append((s, round(cv.precision, 3), round(cv.recall, 3)))
    report("Ablation — support threshold vs accuracy (ANL)", rows)

    # A too-high threshold loses recall (rare strong rules not generated).
    assert out[0.16].recall < out[0.04].recall + 0.02


def test_ablation_confidence_threshold(anl_bench_events, benchmark):
    def run():
        db = build_event_sets(anl_bench_events, rule_window=15 * MINUTE)
        return {
            c: len(generate_rules(db, min_support=0.04, min_confidence=c))
            for c in (0.1, 0.2, 0.5, 0.8)
        }

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Ablation — confidence threshold (ANL)",
        [("min_confidence", "rules")] + [(c, n) for c, n in counts.items()],
    )
    assert counts[0.8] <= counts[0.2] <= counts[0.1]
