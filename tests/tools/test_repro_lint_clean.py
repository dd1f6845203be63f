"""The invariant gate: the repository's own tree must lint clean.

This is the pytest integration the tentpole asks for — any PR that
introduces ambient randomness, wall-clock reads, unguarded binary searches,
minute-valued window literals, unvalidated fractions, upward package
imports, unseeded-entropy entry points, unpicklable pool submissions or
event-loop-blocking coroutines fails this test with the full diagnostic
listing in the assertion message.
"""

from pathlib import Path

from tools.repro_lint.engine import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
LINTED_TREES = ["src", "tests", "benchmarks", "tools"]


def test_repository_tree_is_lint_clean():
    result = run_lint([REPO_ROOT / tree for tree in LINTED_TREES])
    errors = [d for d in result.diagnostics if d.severity == "error"]
    listing = "\n".join(d.format() for d in errors)
    assert not errors, f"repro-lint found violations:\n{listing}"


def test_repository_tree_has_no_warn_debt():
    """Warn-tier findings must be fixed, waived, or parked in the baseline
    deliberately — not accumulate silently."""
    result = run_lint([REPO_ROOT / tree for tree in LINTED_TREES])
    warns = [d for d in result.diagnostics if d.severity != "error"]
    listing = "\n".join(d.format() for d in warns)
    assert not warns, (
        f"repro-lint warn/info findings (fix, waive, or baseline them):\n"
        f"{listing}"
    )
