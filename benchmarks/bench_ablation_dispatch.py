"""Ablation — the meta-learner's dispatch policy.

The paper motivates coverage-based dispatch qualitatively; this bench makes
the choice measurable by comparing it against post-hoc combination policies
(union, intersection, confidence-max, single bases) on identical folds.

Expected ordering: the coverage-based meta matches union-level recall at
substantially better precision, and intersection trades nearly all recall
for precision.
"""


from benchmarks.conftest import report
from repro.evaluation.crossval import cross_validate
from repro.evaluation.spec import PredictorSpec
from repro.meta.ensembles import POLICIES
from repro.util.timeutil import MINUTE

W = 30 * MINUTE
G = 15 * MINUTE


def test_ablation_dispatch_policies(anl_bench_events, benchmark):
    def run():
        results = {}
        for policy in POLICIES:
            results[policy] = cross_validate(
                PredictorSpec.of("policy", policy=policy), anl_bench_events,
                k=10,
            )
        results["meta (paper)"] = cross_validate(
            PredictorSpec.meta(prediction_window=W, rule_window=G),
            anl_bench_events,
            k=10,
        )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [("policy", "precision", "recall", "f1")]
    for name, cv in results.items():
        p, r = cv.precision, cv.recall
        f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        rows.append((name, round(p, 3), round(r, 3), round(f1, 3)))
    report("Ablation — dispatch policy (ANL, W=30 min)", rows)

    meta = results["meta (paper)"]
    union = results["union"]
    inter = results["intersection"]
    rule_only = results["rule_only"]
    stat_only = results["statistical_only"]

    # Meta keeps (nearly) union recall at better precision.
    assert meta.recall >= union.recall - 0.12
    assert meta.precision > union.precision
    # Meta dominates both single bases on recall.
    assert meta.recall > rule_only.recall
    assert meta.recall > stat_only.recall
    # Intersection (mutual confirmation) keeps only mutually-confirmed
    # warnings: never more recall than union, and precision at union level
    # or better (within fold noise).
    assert inter.precision > union.precision - 0.03
    assert inter.recall <= union.recall
