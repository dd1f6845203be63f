"""Reproduce the paper's ANL study at laptop scale.

Walks through every experiment of the evaluation in order — Table 4
(compressed fatal distribution), Figure 2 (failure-gap CDF), Table 5
(statistical predictor), Figure 3 (mined rules), Figure 4 (rule-based
sweep) and Figure 5 (meta-learner sweep) — on a 15 %-scale ANL log, printing
measured values next to the paper's.

The benchmarks in ``benchmarks/`` run the same experiments with shape
assertions; this script is the narrative version.

Run:  python examples/reproduce_anl_study.py   (~1-2 minutes)
"""

import numpy as np

from repro import LogGenerator, ThreePhasePredictor, anl_profile
from repro.evaluation import PredictorSpec, cross_validate, sweep
from repro.evaluation.paper import TABLE4, TABLE5
from repro.evaluation.sweep import format_sweep
from repro.predictors.rulebased import RuleBasedPredictor
from repro.predictors.statistical import failure_gap_cdf
from repro.preprocess.summary import category_fatal_counts, format_table4
from repro.taxonomy.categories import MainCategory
from repro.util.timeutil import HOUR, MINUTE

SCALE = 0.15
WINDOWS = [m * MINUTE for m in (5, 15, 30, 60)]


def main() -> None:
    print(f"=== generating ANL log at scale {SCALE} ===")
    log = LogGenerator(anl_profile(), scale=SCALE, seed=11).generate()
    events = ThreePhasePredictor().preprocess(log.raw).events
    print(f"{log.n_raw:,} raw records -> {len(events):,} unique events, "
          f"{len(events.fatal_events())} failures\n")

    # ------------------------------------------------------------------ #
    print("=== Table 4 — compressed fatal events by category ===")
    counts = category_fatal_counts(events)
    paper_scaled = {
        cat: round(TABLE4["ANL"][cat] * SCALE) for cat in MainCategory
    }
    print(format_table4({"measured": counts, "paper(x0.15)": paper_scaled}))

    # ------------------------------------------------------------------ #
    print("\n=== Figure 2 — failure-gap CDF ===")
    grid = np.array([5 * MINUTE, 30 * MINUTE, HOUR, 6 * HOUR], dtype=float)
    _, cdf = failure_gap_cdf(events, grid)
    for g, c in zip(grid, cdf):
        print(f"  P(next failure within {int(g) // 60:>3} min) = {c:.3f}")

    # ------------------------------------------------------------------ #
    print("\n=== Table 5 — statistical predictor (10-fold CV) ===")
    cv = cross_validate(
        PredictorSpec.statistical(
            window=HOUR, lead=5 * MINUTE, categories="NETWORK,IOSTREAM",
        ),
        events, k=10,
    )
    print(f"  measured: P={cv.precision:.4f} R={cv.recall:.4f}")
    print(f"  paper:    P={TABLE5['ANL']['precision']} "
          f"R={TABLE5['ANL']['recall']}")

    # ------------------------------------------------------------------ #
    print("\n=== Figure 3 — mined association rules (G=15 min) ===")
    rb = RuleBasedPredictor(rule_window=15 * MINUTE).fit(events)
    print(rb.ruleset.format_rules(limit=10))
    print(f"  failures without precursors: {rb.no_precursor_fraction:.1%} "
          "(paper: 31-66 % across windows)")

    # ------------------------------------------------------------------ #
    print("\n=== Figure 4 — rule-based predictor vs prediction window ===")
    points = sweep(
        PredictorSpec.rule(rule_window=15 * MINUTE).grid(
            "prediction_window", WINDOWS
        ),
        events, k=10,
    )
    print(format_sweep(points))
    print("  paper: precision 0.7-0.9, recall rising 0.22 -> 0.55")

    # ------------------------------------------------------------------ #
    print("\n=== Figure 5 — meta-learner vs prediction window ===")
    points = sweep(
        PredictorSpec.meta(rule_window=15 * MINUTE).grid(
            "prediction_window", WINDOWS
        ),
        events, k=10,
    )
    print(format_sweep(points))
    print("  paper: precision 0.88 -> 0.65, recall 0.64 -> 0.78")
    print("\nheadline: the meta-learner's recall exceeds both base "
          "predictors at every window while precision stays rule-grade.")


if __name__ == "__main__":
    main()
