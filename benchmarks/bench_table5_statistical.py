"""Table 5 — statistical predictor precision/recall (10-fold CV).

The paper's protocol: trigger categories network and I/O-stream, prediction
band 5 minutes to 1 hour after the trigger failure, 10-fold cross-validation.
Paper numbers: ANL P=0.5157 R=0.4872; SDSC P=0.2837 R=0.3117.
"""

import pytest

from benchmarks.conftest import report
from repro.evaluation.crossval import cross_validate
from repro.evaluation.paper import TABLE5
from repro.evaluation.spec import PredictorSpec
from repro.predictors.statistical import StatisticalPredictor
from repro.taxonomy.categories import MainCategory
from repro.util.timeutil import HOUR, MINUTE

SPEC = PredictorSpec.statistical(
    window=HOUR, lead=5 * MINUTE, categories="NETWORK,IOSTREAM"
)


@pytest.mark.parametrize("system", ["ANL", "SDSC"])
def test_table5_statistical_cv(
    system, anl_bench_events, sdsc_bench_events, benchmark
):
    events = anl_bench_events if system == "ANL" else sdsc_bench_events
    cv = benchmark.pedantic(
        lambda: cross_validate(SPEC, events, k=10), rounds=1, iterations=1
    )
    paper = TABLE5[system]
    report(
        f"Table 5 — {system} statistical predictor (10-fold CV)",
        [
            ("precision (measured)", round(cv.precision, 4)),
            ("precision (paper)", paper["precision"]),
            ("recall (measured)", round(cv.recall, 4)),
            ("recall (paper)", paper["recall"]),
        ],
    )
    assert cv.precision == pytest.approx(paper["precision"], abs=0.10)
    assert cv.recall == pytest.approx(paper["recall"], abs=0.10)


def test_table5_anl_dominates_sdsc(
    anl_bench_events, sdsc_bench_events, benchmark
):
    """The paper's cross-system observation: accuracy 'may vary
    significantly for different Blue Gene/L systems', with ANL higher."""

    def run():
        anl = cross_validate(SPEC, anl_bench_events, k=10)
        sdsc = cross_validate(SPEC, sdsc_bench_events, k=10)
        return anl, sdsc

    anl, sdsc = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Table 5 — cross-system ordering",
        [
            ("ANL  P/R", f"{anl.precision:.3f} / {anl.recall:.3f}"),
            ("SDSC P/R", f"{sdsc.precision:.3f} / {sdsc.recall:.3f}"),
        ],
    )
    assert anl.precision > sdsc.precision
    assert anl.recall > sdsc.recall


def test_table5_trigger_autoselection(anl_bench_events, benchmark):
    """Without forcing categories, training discovers network/iostream as
    the temporally-correlated triggers (paper §3.2.1's analysis step)."""
    sp = benchmark.pedantic(
        lambda: StatisticalPredictor(window=HOUR, lead=5 * MINUTE).fit(
            anl_bench_events
        ),
        rounds=1,
        iterations=1,
    )
    probs = {c.value: round(p, 3) for c, p in sp.follow_probability.items()}
    report(
        "Table 5 — learned follow-up probabilities (ANL)",
        sorted(probs.items(), key=lambda kv: -kv[1]),
    )
    assert MainCategory.NETWORK in sp.trigger_categories
    assert MainCategory.IOSTREAM in sp.trigger_categories
