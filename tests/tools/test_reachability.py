"""Reachability gate: every ``src/`` definition is reached from a real root.

The roots are the ``bgl-predict`` entry point, ``perfbench/``,
``benchmarks/``, ``examples/``, ``tools/`` and module-level code in
``src/`` (see :mod:`tools.repro_lint.reachability`).  Tests are not roots,
so a helper only a test calls fails here unless it is on :data:`TEST_ONLY`.
"""

import textwrap
from pathlib import Path

from tools.repro_lint.reachability import find_unreachable

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Definitions only tests reach, kept because tests use them as helpers or
#: oracles.  Key: dotted id; value: why the tests need it.
TEST_ONLY = {
    "repro.ras.store.EventStore.to_events":
        "row-object view the store, codec and replay tests compare against",
    "repro.ras.store.EventStore.location_of":
        "per-row accessor the CMCS simulator tests read locations through",
    "repro.ras.store.EventStore.entry_of":
        "per-row accessor the CMCS and store tests read ENTRY_DATA through",
    "repro.ras.store.EventStore.subcat_of":
        "per-row accessor the classifier and store tests read labels through",
    "repro.ras.logfile.parse_line":
        "per-line parser, the oracle for the chunked log reader",
    "repro.ras.columnar.ColumnarWriter.append_events":
        "writes hand-built events into segments for the columnar tests",
    "repro.lifecycle.retrain.Retrainer.window_size":
        "lets retrain and manager tests check the sliding window's length",
    "repro.core.serialize.registered_kinds":
        "parametrizes the codec round-trip tests over every registered kind",
}


def test_src_has_no_unreachable_definitions():
    found = [str(d) for d in find_unreachable(REPO_ROOT, keep=TEST_ONLY)]
    assert not found, (
        "src definitions no command, benchmark, example or tool reaches "
        "(delete them, or add a test-only helper to TEST_ONLY):\n"
        + "\n".join(found)
    )


def test_allow_list_holds_only_test_only_definitions():
    unreachable = {d.key for d in find_unreachable(REPO_ROOT)}
    stale = sorted(set(TEST_ONLY) - unreachable)
    assert not stale, f"reachable or missing, drop from TEST_ONLY: {stale}"


# ---------------------------------------------------------------- self-test


def _tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


def _keys(root: Path, **kwargs) -> set[str]:
    return {d.key for d in find_unreachable(root, **kwargs)}


def test_scan_classifies_a_synthetic_tree(tmp_path):
    root = _tree(tmp_path, {
        "pyproject.toml": """\
            [project.scripts]
            tool = "pkg.cli:main"
        """,
        "src/pkg/__init__.py": """\
            from pkg.core import dead, exported
            __all__ = ["dead", "exported"]
        """,
        "src/pkg/cli.py": """\
            from pkg.core import Engine

            def main():
                Engine().close()
        """,
        "src/pkg/core.py": """\
            HANDLERS = {}

            def register(name, fn):
                HANDLERS[name] = fn

            def dead():
                return helper_of_dead()

            def helper_of_dead():
                return 1

            def exported():
                return 2

            def by_registration():
                return 3

            def for_benchmarks():
                return 4

            class Engine:
                def close(self):
                    pass

                def __repr__(self):
                    return "Engine"

                def unused(self):
                    pass

            class Other:
                def close(self):
                    pass

            class Unused:
                def method(self):
                    pass

            register("x", by_registration)
            DEFAULT_ENGINE = Other
        """,
        "benchmarks/bench_core.py": """\
            from pkg.core import for_benchmarks

            def test_bench():
                for_benchmarks()
        """,
    })
    found = _keys(root)
    # A dead function is flagged, and so is the helper only it calls; an
    # ``__init__`` re-export and ``__all__`` entry do not make a use.
    assert {"pkg.core.dead", "pkg.core.helper_of_dead", "pkg.core.exported"} <= found
    # A module-level registration call reaches its argument.
    assert "pkg.core.by_registration" not in found
    # A benchmark is a root.
    assert "pkg.core.for_benchmarks" not in found
    # The entry point reaches main, which reaches Engine.close.
    assert "pkg.cli.main" not in found and "pkg.core.Engine" not in found
    # Name-level by design: nothing calls Other.close, but it shares its
    # name with the live Engine.close.
    assert "pkg.core.Other.close" not in found
    # Dunders of a live class are live; other uncalled methods are not.
    assert "pkg.core.Engine.__repr__" not in found
    assert "pkg.core.Engine.unused" in found
    # A dead class is reported once, without its methods.
    assert "pkg.core.Unused" in found and "pkg.core.Unused.method" not in found
    assert found == {
        "pkg.core.dead",
        "pkg.core.helper_of_dead",
        "pkg.core.exported",
        "pkg.core.Engine.unused",
        "pkg.core.Unused",
    }


def test_scan_keep_list_roots_what_tests_need(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/core.py": """\
            def oracle():
                return inner()

            def inner():
                return 1
        """,
    })
    assert _keys(root) == {"pkg.core.oracle", "pkg.core.inner"}
    assert _keys(root, keep=["pkg.core.oracle"]) == set()


def test_scan_reports_file_and_line(tmp_path):
    root = _tree(tmp_path, {"src/pkg/mod.py": "X = 1\n\n\ndef orphan():\n    pass\n"})
    (finding,) = find_unreachable(root)
    assert str(finding) == "src/pkg/mod.py:4: pkg.mod.orphan"
