"""Figure 4 — rule-based predictor vs prediction window (both logs).

Paper: precision in 0.7-0.9; recall between 0.22 and 0.55, improving with
the prediction window "without a substantial loss in precision".  Rule
generation windows: 15 min (ANL), 25 min (SDSC) — the Step-5 selections.
"""

import pytest

from benchmarks.conftest import report
from repro.evaluation.paper import FIGURE4_BANDS, RULE_GENERATION_WINDOW_MIN
from repro.evaluation.spec import PredictorSpec
from repro.evaluation.sweep import sweep
from repro.util.timeutil import MINUTE

WINDOWS = tuple(m * MINUTE for m in (5, 10, 15, 20, 30, 40, 50, 60))


@pytest.mark.parametrize("system", ["ANL", "SDSC"])
def test_figure4_rule_sweep(
    system, anl_bench_events, sdsc_bench_events, benchmark
):
    events = anl_bench_events if system == "ANL" else sdsc_bench_events
    rule_window = RULE_GENERATION_WINDOW_MIN[system] * MINUTE

    points = benchmark.pedantic(
        lambda: sweep(
            PredictorSpec.rule(rule_window=rule_window).grid(
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
    rows.append(("paper precision band", FIGURE4_BANDS["precision"], ""))
    rows.append(("paper recall band", FIGURE4_BANDS["recall"], ""))
    report(f"Figure 4 — {system} rule-based sweep (G={rule_window // 60} min)",
           rows)

    # Shape assertions.
    first, last = points[0], points[-1]
    assert last.recall > first.recall, "recall improves with the window"
    for p in points:
        assert 0.6 <= p.precision <= 1.0, "precision stays high"
        assert 0.1 <= p.recall <= 0.75
    # "without a substantial loss in precision"
    assert first.precision - last.precision < 0.2


def test_figure4_recall_ceiling_from_orphans(anl_bench_events, benchmark):
    """The rule method 'is limited by the proportion of fatal events without
    any precursor warnings': even at the largest window recall stays well
    below 1."""
    points = benchmark.pedantic(
        lambda: sweep(
            PredictorSpec.rule(rule_window=15 * MINUTE).grid(
                "prediction_window", [60 * MINUTE]
            ),
            anl_bench_events,
            k=10,
        ),
        rounds=1,
        iterations=1,
    )
    report(
        "Figure 4 — recall ceiling at 60 min (ANL)",
        [("measured", round(points[0].recall, 3)), ("paper", "<= 0.55")],
    )
    assert points[0].recall < 0.75
