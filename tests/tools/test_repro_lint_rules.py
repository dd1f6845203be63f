"""Per-rule unit tests for tools.repro_lint.

Each rule gets at least one true-positive fixture (the violation is caught,
with the expected code and line) and negative fixtures showing the idiomatic
compliant spelling is accepted.
"""

import textwrap

from tools.repro_lint import lint_source

LIB_PATH = "src/repro/somepkg/mod.py"  # a path inside the library scope


def lint(source, path=LIB_PATH, select=None):
    from tools.repro_lint.registry import all_rules

    rules = all_rules()
    if select:
        rules = [r for r in rules if r.code in select]
    return lint_source(textwrap.dedent(source), path=path, rules=rules)


def codes_and_lines(diags):
    return [(d.code, d.line) for d in diags]


# ---------------------------------------------------------------- RL001


def test_rl001_flags_np_random_calls():
    diags = lint(
        """\
        import numpy as np

        def jitter(xs):
            np.random.seed(0)
            return xs + np.random.random(xs.size)
        """
    )
    assert codes_and_lines(diags) == [("RL001", 4), ("RL001", 5)]


def test_rl001_flags_default_rng_and_stdlib_random():
    diags = lint(
        """\
        import random
        from numpy.random import default_rng

        def sample():
            rng = default_rng()
            return rng.random() + random.random()
        """
    )
    assert [d.code for d in diags] == ["RL001", "RL001"]
    assert "numpy.random.default_rng" in diags[0].message
    assert "random.random" in diags[1].message


def test_rl001_resolves_import_aliases():
    diags = lint(
        """\
        import numpy as xp

        def noise(n):
            return xp.random.normal(size=n)
        """
    )
    assert codes_and_lines(diags) == [("RL001", 4)]


def test_rl001_allows_threaded_generator_and_constructors():
    diags = lint(
        """\
        import numpy as np

        def noise(rng: np.random.Generator, n):
            assert isinstance(rng, np.random.Generator)
            seq = np.random.SeedSequence(42)
            return rng.normal(size=n), seq
        """
    )
    assert diags == []


def test_rl001_exempts_rng_module():
    source = """\
        import numpy as np

        def as_generator(seed=None):
            return np.random.default_rng(seed)
        """
    assert lint(source, path="src/repro/util/rng.py") == []
    assert [d.code for d in lint(source)] == ["RL001"]


def test_rl001_waivable_per_line():
    diags = lint(
        """\
        import numpy as np

        def reference_draw():
            return np.random.default_rng(0).random()  # repro-lint: disable=RL001
        """
    )
    assert diags == []


# ---------------------------------------------------------------- RL002


def test_rl002_flags_wall_clock_in_library():
    diags = lint(
        """\
        import time
        from datetime import datetime

        def stamp():
            return time.time(), datetime.now()
        """
    )
    assert codes_and_lines(diags) == [("RL002", 5), ("RL002", 5)]


def test_rl002_allows_monotonic_and_non_library_code():
    clocky = """\
        import time

        def elapsed():
            return time.time()
        """
    assert lint(clocky, path="scripts/bench.py") == []
    assert lint(clocky, path="benchmarks/bench_x.py") == []
    monotonic = """\
        import time

        def elapsed(t0):
            return time.monotonic() - t0
        """
    assert lint(monotonic) == []


# ---------------------------------------------------------------- RL003


def test_rl003_flags_unguarded_searchsorted_on_parameter():
    diags = lint(
        """\
        import numpy as np

        def lookup(times, t):
            return np.searchsorted(times, t)
        """
    )
    assert codes_and_lines(diags) == [("RL003", 4)]
    assert "lookup" in diags[0].message


def test_rl003_flags_method_form_and_window_slice():
    diags = lint(
        """\
        from repro.util.windows import window_slice

        def a(times, t):
            return times.searchsorted(t)

        def b(times, t0, t1):
            return window_slice(times, t0, t1)
        """
    )
    assert codes_and_lines(diags) == [("RL003", 4), ("RL003", 7)]


def test_rl003_guard_must_precede_sink():
    guarded = """\
        import numpy as np
        from repro.util.validation import check_sorted

        def lookup(times, t):
            times = check_sorted(np.asarray(times), "times")
            return np.searchsorted(times, t)
        """
    assert lint(guarded) == []
    guard_too_late = """\
        import numpy as np
        from repro.util.validation import check_sorted

        def lookup(times, t):
            i = np.searchsorted(times, t)
            check_sorted(times, "times")
            return i
        """
    assert [d.code for d in lint(guard_too_late)] == ["RL003"]


def test_rl003_ignores_derived_locals():
    diags = lint(
        """\
        import numpy as np

        def lookup(store, t):
            fatal_times = store.fatal_events().times
            return np.searchsorted(fatal_times, t)
        """
    )
    assert diags == []


def test_rl003_sorted_waiver_on_def_or_sink_line():
    on_def = """\
        import numpy as np

        def lookup(times, t):  # repro-lint: sorted
            return np.searchsorted(times, t)
        """
    assert lint(on_def) == []
    on_sink = """\
        import numpy as np

        def lookup(times, t):
            return np.searchsorted(times, t)  # repro-lint: sorted
        """
    assert lint(on_sink) == []


# ---------------------------------------------------------------- RL004


def test_rl004_flags_paper_minute_values_in_window_kwargs():
    diags = lint(
        """\
        def run(fit, count):
            fit(rule_window=15, prediction_window=25)
            fit(window=60)
            count(offset_lo=5, gap=60)
        """
    )
    assert [d.code for d in diags] == ["RL004"] * 5
    assert "seconds" in diags[0].message


def test_rl004_allows_second_counts_and_minute_arithmetic():
    diags = lint(
        """\
        MINUTE = 60

        def run(fit):
            fit(rule_window=15 * MINUTE, prediction_window=900)
            fit(window=1800.0, min_lead=60)
            fit(25, 5)  # positional values are out of scope
        """
    )
    assert diags == []


# ---------------------------------------------------------------- RL005


def test_rl005_flags_unvalidated_fraction_params():
    diags = lint(
        """\
        def mine(transactions, min_support=0.04, keep_prob=0.5):
            return [t for t in transactions]
        """
    )
    assert [d.code for d in diags] == ["RL005", "RL005"]
    assert {"min_support", "keep_prob"} == {
        d.message.split("'")[1] for d in diags
    }


def test_rl005_accepts_check_fraction_and_check_in_range():
    diags = lint(
        """\
        from repro.util.validation import check_fraction, check_in_range

        def mine(min_support=0.04, confidence=0.2):
            min_support = check_fraction(min_support, "min_support")
            check_in_range(confidence, 0, 1, "confidence")
            return min_support, confidence
        """
    )
    assert diags == []


def test_rl005_covers_public_constructors_only():
    diags = lint(
        """\
        from repro.util.validation import check_fraction

        class Predictor:
            def __init__(self, min_support=0.04):
                self.min_support = min_support

        class _Helper:
            def __init__(self, min_support=0.04):
                self.min_support = min_support

        def _private(min_support):
            return min_support
        """
    )
    assert codes_and_lines(diags) == [("RL005", 4)]


def test_rl005_scoped_to_library_code():
    source = """\
        def mine(min_support=0.04):
            return min_support
        """
    assert lint(source, path="benchmarks/bench_minsup.py") == []
    assert [d.code for d in lint(source)] == ["RL005"]


# ---------------------------------------------------------------- RL006


def test_rl006_flags_print_and_stream_writes():
    diags = lint(
        """\
        import sys

        def report(msg):
            print(msg)
            sys.stderr.write(msg)
            sys.stdout.writelines([msg])
        """
    )
    assert codes_and_lines(diags) == [
        ("RL006", 4),
        ("RL006", 5),
        ("RL006", 6),
    ]
    assert "print()" in diags[0].message
    assert "sys.stderr.write" in diags[1].message


def test_rl006_resolves_stream_import_aliases():
    diags = lint(
        """\
        from sys import stderr

        def report(msg):
            stderr.write(msg)
        """
    )
    assert codes_and_lines(diags) == [("RL006", 4)]


def test_rl006_exempts_cli_and_non_library_code():
    source = """\
        def report(msg):
            print(msg)
        """
    assert lint(source, path="src/repro/cli/main.py") == []
    assert lint(source, path="scripts/demo.py") == []
    assert lint(source, path="benchmarks/bench_x.py") == []
    assert [d.code for d in lint(source)] == ["RL006"]


def test_rl006_allows_obs_instrumentation_and_is_waivable():
    diags = lint(
        """\
        from repro.obs import get_registry

        def fit(events):
            get_registry().counter("predictor.fits")
            print("debug")  # repro-lint: disable=RL006
            return events
        """
    )
    assert diags == []


# ---------------------------------------------------------------- RL008

ONLINE_PATH = "src/repro/online/detector.py"


def test_rl008_flags_deque_rebuild_in_per_event_method():
    diags = lint(
        """\
        from collections import deque

        class Session:
            def _expire(self, now):
                self._pending = deque(
                    w for w in self._pending if w.horizon_end >= now
                )
        """,
        path=ONLINE_PATH,
    )
    assert codes_and_lines(diags) == [("RL008", 5)]
    assert "_expire" in diags[0].message


def test_rl008_flags_list_copy_and_aliased_deque():
    diags = lint(
        """\
        import collections as c

        class Session:
            def process(self, event):
                self._pending = list(self._pending)
                self._live = c.deque(self._live)
        """,
        path="src/repro/serve/pool.py",
    )
    assert codes_and_lines(diags) == [("RL008", 5), ("RL008", 6)]
    assert "list(...)" in diags[0].message
    assert "deque(...)" in diags[1].message


def test_rl008_accepts_batch_methods_and_empty_list():
    assert (
        lint(
            """\
            from collections import deque

            class Session:
                def __init__(self):
                    self._pending = deque()

                def process_store(self, store):
                    times = list(store.times)
                    return deque(times)

                def process(self, event):
                    out = list()
                    out.append(event)
                    return out
            """,
            path=ONLINE_PATH,
        )
        == []
    )


def test_rl008_scoped_to_online_and_serve_packages():
    source = """\
        from collections import deque

        class Thing:
            def process(self, event):
                self._items = deque(self._items)
        """
    assert [d.code for d in lint(source, path=ONLINE_PATH)] == ["RL008"]
    assert lint(source, path="src/repro/mining/rules.py") == []
    assert lint(source, path="tests/online/test_x.py") == []


def test_rl008_waivable_with_justification():
    diags = lint(
        """\
        from collections import deque

        class Session:
            def process(self, event):
                self._pending = deque(self._pending)  # repro-lint: disable=RL008
        """,
        path=ONLINE_PATH,
    )
    assert diags == []


# ---------------------------------------------------------------- RL009


def test_rl009_flags_pickle_of_anything_in_library_code():
    diags = lint(
        """\
        import pickle

        def stash(predictor, fh):
            pickle.dump(predictor, fh)
            return pickle.dumps({"x": 1})
        """
    )
    assert codes_and_lines(diags) == [("RL009", 4), ("RL009", 5)]
    assert "pickle.dump" in diags[0].message


def test_rl009_resolves_pickle_aliases_and_loads():
    diags = lint(
        """\
        import pickle as pkl
        from pickle import loads

        def restore(blob):
            return pkl.load(blob) or loads(blob)
        """
    )
    assert [d.code for d in diags] == ["RL009", "RL009"]


def test_rl009_flags_adhoc_json_dump_of_predictor_payloads():
    diags = lint(
        """\
        import json

        def export(model, meta, fh):
            json.dump(model.__dict__, fh)
            blob = json.dumps({"state": meta})
            return blob
        """
    )
    assert codes_and_lines(diags) == [("RL009", 4), ("RL009", 5)]


def test_rl009_allows_plain_json_and_blessed_modules():
    # Non-predictor JSON payloads are fine anywhere.
    assert (
        lint(
            """\
            import json

            def export(rows, fh):
                json.dump({"rows": rows}, fh)
            """
        )
        == []
    )
    # The serialization layer and the lifecycle registry are the two
    # blessed homes of model persistence.
    source = """\
        import json

        def save(model, fh):
            json.dump(model, fh)
        """
    assert lint(source, path="src/repro/core/serialize.py") == []
    assert lint(source, path="src/repro/lifecycle/registry.py") == []
    # Outside the library (tests, tools) the rule does not apply.
    assert lint(source, path="tests/core/test_serialize.py") == []


def test_rl009_waivable_with_justification():
    diags = lint(
        """\
        import pickle

        def debug_dump(predictor, fh):
            pickle.dump(predictor, fh)  # repro-lint: disable=RL009
        """
    )
    assert diags == []


# ------------------------------------------------------- engine/waivers


def test_unknown_directive_reported_as_rl000():
    diags = lint(
        """\
        x = 1  # repro-lint: sortd
        """
    )
    assert [d.code for d in diags] == ["RL000"]
    assert "sortd" in diags[0].message


def test_syntax_error_reported_as_rl999():
    diags = lint("def broken(:\n")
    assert [d.code for d in diags] == ["RL999"]


# ---------------------------------------------------------------- RL014


def test_rl014_flags_column_rebind_and_element_writes():
    diags = lint(
        """\
        def mutate(store, arr):
            store.times = arr
            store.severities[0] = 5
            store.subcat_ids[:] = -1
        """,
        select={"RL014"},
    )
    assert codes_and_lines(diags) == [
        ("RL014", 2),
        ("RL014", 3),
        ("RL014", 4),
    ]
    assert "rebind of .times" in diags[0].message
    assert "element write" in diags[1].message


def test_rl014_flags_augmented_assignment():
    diags = lint(
        """\
        def shift(store, dt):
            store.times += dt
        """,
        select={"RL014"},
    )
    assert codes_and_lines(diags) == [("RL014", 2)]


def test_rl014_allows_self_attributes_and_reads():
    diags = lint(
        """\
        class Window:
            def __init__(self, times):
                self.times = times
                self.times[0] = 0

        def span(store):
            t = store.times
            return t[-1] - t[0]
        """,
        select={"RL014"},
    )
    assert diags == []


def test_rl014_exempts_the_data_layer_and_tests():
    source = """\
        def rebuild(store, arr):
            store.times = arr
        """
    assert lint(source, path="src/repro/ras/store.py", select={"RL014"}) == []
    assert lint(source, path="tests/ras/test_store.py", select={"RL014"}) == []
    assert lint(source, path="src/repro/online/detector.py",
                select={"RL014"}) != []


def test_rl014_ignores_unrelated_attribute_names():
    diags = lint(
        """\
        def configure(obj):
            obj.timeout = 3
            obj.jobs_total = 7
        """,
        select={"RL014"},
    )
    assert diags == []


# ---------------------------------------------------------------- RL015

LIFECYCLE_PATH = "src/repro/lifecycle/retrain.py"


def test_rl015_flags_scratch_mining_in_lifecycle():
    diags = lint(
        """\
        from repro.mining import generate_rules
        from repro.mining.incremental import generate_rules as one_shot

        def refit(db, other):
            rules = generate_rules(db, 0.04)
            rules2 = one_shot(other)
            return generate_rules(db), rules, rules2
        """,
        path=LIFECYCLE_PATH,
        select={"RL015"},
    )
    assert codes_and_lines(diags) == [
        ("RL015", 5),
        ("RL015", 6),
        ("RL015", 7),
    ]


def test_rl015_sees_through_module_aliases():
    diags = lint(
        """\
        from repro.mining import incremental as mining_engine

        def refit(db):
            return mining_engine.generate_rules(db)
        """,
        path=LIFECYCLE_PATH,
        select={"RL015"},
    )
    assert codes_and_lines(diags) == [("RL015", 4)]


def test_rl015_only_applies_to_lifecycle():
    source = """\
        from repro.mining import generate_rules

        def mine(db):
            return generate_rules(db, 0.04)
        """
    assert lint(source, path="src/repro/mining/wrapper.py",
                select={"RL015"}) == []
    assert lint(source, path="src/repro/evaluation/engine.py",
                select={"RL015"}) == []
    assert lint(source, path="tests/lifecycle/test_retrain.py",
                select={"RL015"}) == []
    assert lint(source, path=LIFECYCLE_PATH, select={"RL015"}) != []


def test_rl015_ignores_unrelated_functions_with_same_name():
    diags = lint(
        """\
        from mypackage.stats import generate_rules

        def refit(transactions):
            return generate_rules(transactions)
        """,
        path=LIFECYCLE_PATH,
        select={"RL015"},
    )
    assert diags == []


def test_rl015_is_waivable():
    diags = lint(
        """\
        from repro.mining import generate_rules

        def diagnose(db):
            return generate_rules(db, 0.04)  # repro-lint: disable=RL015
        """,
        path=LIFECYCLE_PATH,
        select={"RL015"},
    )
    assert diags == []


def test_rl015_allows_spec_fit_path():
    diags = lint(
        """\
        def retrain(spec, window):
            return spec.build().fit(window)
        """,
        path=LIFECYCLE_PATH,
        select={"RL015"},
    )
    assert diags == []


# ---------------------------------------------------------------- RL016


def test_rl016_flags_cost_arithmetic_in_library():
    diags = lint(
        """\
        def overhead(policy, n):
            wasted = n * policy.checkpoint_cost
            wasted += policy.restart_cost
            return wasted
        """,
        select={"RL016"},
    )
    assert codes_and_lines(diags) == [("RL016", 2), ("RL016", 3)]


def test_rl016_flags_bare_names_and_benchmarks():
    source = """\
    def total(checkpoint_cost, k):
        return checkpoint_cost * k
    """
    assert codes_and_lines(lint(source, path="benchmarks/bench_x.py",
                                select={"RL016"})) == [("RL016", 2)]


def test_rl016_exempts_actions_tests_and_tools():
    source = """\
    def total(cm, k):
        return cm.checkpoint_cost * k
    """
    assert lint(source, path="src/repro/actions/cost.py",
                select={"RL016"}) == []
    assert lint(source, path="tests/actions/test_cost.py",
                select={"RL016"}) == []
    assert lint(source, path="tools/somewhere/mod.py",
                select={"RL016"}) == []
    assert lint(source, select={"RL016"}) != []


def test_rl016_allows_cost_keywords_and_reads():
    diags = lint(
        """\
        from repro.actions import CostModel

        def build(args):
            cm = CostModel(checkpoint_cost=args.checkpoint_cost)
            print(cm.restart_cost)
            return cm
        """,
        select={"RL016"},
    )
    assert diags == []


def test_rl016_is_waivable():
    diags = lint(
        """\
        def ratio(cm):
            return cm.migration_cost / cm.checkpoint_cost  # repro-lint: disable=RL016
        """,
        select={"RL016"},
    )
    assert diags == []
