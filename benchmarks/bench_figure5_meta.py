"""Figure 5 — meta-learner vs prediction window (both logs).

Paper: with ANL, precision decreases 0.88 -> 0.65 while recall rises
0.64 -> 0.78 as the window grows 5 -> 60 min; with SDSC precision decreases
0.99 -> 0.89 with recall around 0.65.  Headline claim: "the combined
meta-learner has recall which is consistently more than [both bases] for all
prediction windows along with a consistently high value for precision".
"""

import pytest

from benchmarks.conftest import report
from repro.evaluation.paper import FIGURE5, RULE_GENERATION_WINDOW_MIN
from repro.evaluation.crossval import cross_validate
from repro.evaluation.spec import PredictorSpec
from repro.evaluation.sweep import sweep
from repro.util.timeutil import HOUR, MINUTE

WINDOWS = tuple(m * MINUTE for m in (5, 10, 15, 20, 30, 40, 50, 60))


@pytest.mark.parametrize("system", ["ANL", "SDSC"])
def test_figure5_meta_sweep(
    system, anl_bench_events, sdsc_bench_events, benchmark
):
    events = anl_bench_events if system == "ANL" else sdsc_bench_events
    rule_window = RULE_GENERATION_WINDOW_MIN[system] * MINUTE

    points = benchmark.pedantic(
        lambda: sweep(
            PredictorSpec.meta(rule_window=rule_window).grid(
                "prediction_window", WINDOWS
            ),
            events,
            k=10,
        ),
        rounds=1,
        iterations=1,
    )

    rows = [("window(min)", "precision", "recall")]
    for p in points:
        rows.append((int(p.window_minutes), round(p.precision, 3),
                     round(p.recall, 3)))
    paper = FIGURE5[system]
    rows.append(("paper @5min", paper["precision_at_5min"],
                 paper.get("recall_at_5min", paper.get("recall_floor"))))
    rows.append(("paper @60min", paper["precision_at_60min"],
                 paper.get("recall_at_60min", paper.get("recall_floor"))))
    report(f"Figure 5 — {system} meta-learner sweep", rows)

    first, last = points[0], points[-1]
    # Shapes: recall rises (or holds) with the window; precision stays high
    # and does not *increase* substantially as the window grows.
    assert last.recall >= first.recall - 0.02
    assert all(p.precision > 0.55 for p in points)
    assert all(p.recall > 0.3 for p in points)


@pytest.mark.parametrize("system", ["ANL", "SDSC"])
def test_figure5_meta_beats_both_bases(
    system, anl_bench_events, sdsc_bench_events, benchmark
):
    """The paper's headline: meta recall exceeds both bases at every window
    while precision stays between the rule method's and well above the
    statistical method's."""
    events = anl_bench_events if system == "ANL" else sdsc_bench_events
    G = RULE_GENERATION_WINDOW_MIN[system] * MINUTE

    def run(W):
        stat = cross_validate(
            PredictorSpec.statistical(
                window=HOUR, lead=5 * MINUTE, categories="NETWORK,IOSTREAM",
            ),
            events, k=10,
        )
        rule = cross_validate(
            PredictorSpec.rule(rule_window=G, prediction_window=W),
            events, k=10,
        )
        meta = cross_validate(
            PredictorSpec.meta(prediction_window=W, rule_window=G),
            events, k=10,
        )
        return stat, rule, meta

    stat, rule, meta = benchmark.pedantic(
        lambda: run(30 * MINUTE), rounds=1, iterations=1
    )
    from repro.evaluation.significance import (
        bootstrap_ci,
        paired_bootstrap_pvalue,
    )

    ci = bootstrap_ci(meta, "recall", seed=1)
    p_rule = paired_bootstrap_pvalue(meta, rule, "recall", seed=1)
    p_stat = paired_bootstrap_pvalue(meta, stat, "recall", seed=1)
    report(
        f"Figure 5 — {system} meta vs bases (W=30 min)",
        [
            ("statistical P/R", f"{stat.precision:.3f} / {stat.recall:.3f}"),
            ("rule        P/R", f"{rule.precision:.3f} / {rule.recall:.3f}"),
            ("meta        P/R", f"{meta.precision:.3f} / {meta.recall:.3f}"),
            ("meta recall 95% CI", f"[{ci.lower:.3f}, {ci.upper:.3f}]"),
            ("p(meta <= rule recall)", round(p_rule, 4)),
            ("p(meta <= statistical recall)", round(p_stat, 4)),
        ],
    )
    assert meta.recall >= max(stat.recall, rule.recall) - 0.02
    assert meta.precision > stat.precision
    # Paper: "improve failure accuracy by up to three times" (recall vs the
    # weaker base) — require a substantial boost, and require it to be
    # statistically solid, not a fold accident.
    assert meta.recall > 1.2 * min(stat.recall, rule.recall)
    assert p_rule < 0.05 and p_stat < 0.05
