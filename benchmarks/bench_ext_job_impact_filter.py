"""Extension — job-impacting failure filter (the paper's stated future work).

"Our future work will incorporate filtering out this ambiguity of failures
and analyze only those failures which will impact user jobs" (§3.1, citing
Oliner & Stearley).  The hook exists in Phase 1
(:func:`repro.preprocess.pipeline.job_impacting_filter`); this bench
measures its effect: how many fatal events are not attributable to any user
job, and how prediction metrics move when they are excluded from the
target set.
"""

from benchmarks.conftest import report
from repro.evaluation.crossval import cross_validate
from repro.evaluation.spec import PredictorSpec
from repro.preprocess.pipeline import PreprocessPipeline, job_impacting_filter
from repro.util.timeutil import MINUTE


def test_ext_job_impact_filter(anl_bench_log, benchmark):
    def run():
        plain = PreprocessPipeline().run(anl_bench_log.raw)
        filtered = PreprocessPipeline(
            event_filter=job_impacting_filter
        ).run(anl_bench_log.raw)
        return plain, filtered

    plain, filtered = benchmark.pedantic(run, rounds=1, iterations=1)
    n_plain = len(plain.events.fatal_events())
    n_filtered = len(filtered.events.fatal_events())
    report(
        "Extension — job-impacting failure filter (ANL)",
        [
            ("fatal events (all)", n_plain),
            ("fatal events (job-attributable)", n_filtered),
            ("ambiguous failures removed", n_plain - n_filtered),
            ("removed fraction", round(1 - n_filtered / n_plain, 3)),
        ],
    )
    # Hardware/service failures with no job context exist and are removed;
    # but job-attributable failures must dominate (the machine is busy).
    assert 0 < n_plain - n_filtered < 0.5 * n_plain


def test_ext_filter_effect_on_prediction(anl_bench_log, benchmark):
    def run():
        out = {}
        for name, flt in (("all failures", None),
                          ("job-impacting only", job_impacting_filter)):
            result = PreprocessPipeline(event_filter=flt).run(anl_bench_log.raw)
            out[name] = cross_validate(
                PredictorSpec.meta(
                    prediction_window=30 * MINUTE, rule_window=15 * MINUTE
                ),
                result.events,
                k=10,
            )
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("target set", "precision", "recall")]
    for name, cv in out.items():
        rows.append((name, round(cv.precision, 3), round(cv.recall, 3)))
    report("Extension — prediction on filtered targets (ANL, meta)", rows)

    # Restricting targets to job-impacting failures must not make the
    # predictor look worse on them (ambiguous failures are largely
    # signal-free for the application's perspective).
    assert out["job-impacting only"].recall >= out["all failures"].recall - 0.08
