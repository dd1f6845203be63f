"""Command-line front end: ``python -m tools.repro_lint [paths...]``.

Exit codes: 0 clean at the failing tier, 1 findings at/above ``--fail-on``
(default: error), 2 usage or I/O error.  ``--baseline`` filters previously
accepted findings so CI fails only on regressions; ``--update-baseline``
rewrites the baseline from the current findings instead of failing.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

import tools.repro_lint as pkg
from tools.repro_lint.baseline import DEFAULT_BASELINE_PATH, Baseline
from tools.repro_lint.diagnostics import SEVERITIES
from tools.repro_lint.engine import run_lint
from tools.repro_lint.registry import (
    all_rules,
    is_graph_rule,
    rule_severity,
)
from tools.repro_lint.sarif import to_sarif_json

DEFAULT_PATHS = ["src", "tests", "benchmarks", "tools"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.repro_lint",
        description=(
            "Two-pass whole-program invariant checker for the BG/L "
            "failure-predictor reproduction: per-file rules (RL001-RL009) "
            "plus import/call-graph rules (RL010-RL013) for layering, "
            "determinism taint, process-boundary safety and async blocking."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=DEFAULT_PATHS,
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text; json is one object per line)",
    )
    parser.add_argument(
        "--no-hints", action="store_true",
        help="omit fix hints from text output",
    )
    parser.add_argument(
        "--no-graph", action="store_true",
        help="skip the whole-program pass (file rules only)",
    )
    parser.add_argument(
        "--fail-on", choices=SEVERITIES, default="error", metavar="TIER",
        help=(
            "lowest severity tier that fails the run: error, warn or info "
            "(default: error)"
        ),
    )
    parser.add_argument(
        "--contract", metavar="FILE", type=Path, default=None,
        help="architecture contract TOML (default: tools/repro_lint/contracts.toml)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", type=Path, default=None,
        help=(
            "baseline JSON of accepted findings; matching findings no "
            f"longer fail the run (committed copy: {DEFAULT_BASELINE_PATH})"
        ),
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", type=Path, default=None,
        help="cache the pass-1 project model here, keyed on source content",
    )
    parser.add_argument(
        "--sarif-file", metavar="FILE", type=Path, default=None,
        help="additionally write SARIF 2.1.0 output to FILE",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print a run summary (files, graph size, build time, tiers)",
    )
    parser.add_argument(
        "--emit-metrics", metavar="FILE", type=Path, default=None,
        help="write the run summary as JSON to FILE",
    )
    parser.add_argument(
        "--statistics", action="store_true",
        help="print a per-rule finding count after the diagnostics",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _split_codes(raw: Optional[str]) -> Optional[list[str]]:
    if raw is None:
        return None
    return [c.strip() for c in raw.split(",") if c.strip()]


def _failing_tiers(fail_on: str) -> set[str]:
    """Severities at or above the threshold (error is the highest tier)."""
    return set(SEVERITIES[: SEVERITIES.index(fail_on) + 1])


def _run_summary(result, *, fresh: int, baselined: int) -> dict:
    return {
        "files_scanned": result.files_scanned,
        "parse_errors": result.parse_errors,
        "findings": fresh,
        "baselined": baselined,
        "severity_counts": result.severity_counts(),
        "graph": result.model_stats,
        "graph_build_seconds": round(result.graph_build_seconds, 4),
        "cache": result.cache_state,
    }


def _print_stats(summary: dict) -> None:
    print()
    print(f"files scanned:       {summary['files_scanned']}")
    if summary["graph"]:
        graph = summary["graph"]
        print(f"project model:       {graph['modules']} modules, "
              f"{graph['functions']} functions, "
              f"{graph['import_edges']} import edges, "
              f"{graph['call_edges']} call edges")
        print(f"graph build:         {summary['graph_build_seconds']:.3f}s "
              f"(cache: {summary['cache']})")
    tiers = ", ".join(
        f"{sev}={summary['severity_counts'].get(sev, 0)}" for sev in SEVERITIES
    )
    print(f"findings by tier:    {tiers}")
    if summary["baselined"]:
        print(f"baselined findings:  {summary['baselined']}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            scope = "graph" if is_graph_rule(rule) else "file"
            print(f"{rule.code}  [{scope}/{rule_severity(rule)}] "
                  f"{rule.name}: {rule.description}")
        return 0

    baseline: Optional[Baseline] = None
    if args.baseline is not None and not args.update_baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except FileNotFoundError:
            print(f"repro-lint: error: no baseline at {args.baseline} "
                  f"(create it with --update-baseline)", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"repro-lint: error: {exc}", file=sys.stderr)
            return 2

    try:
        result = run_lint(
            args.paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
            graph=not args.no_graph,
            contract_path=args.contract,
            baseline=baseline,
            cache_dir=args.cache_dir,
        )
    except FileNotFoundError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    diags = result.diagnostics

    if args.update_baseline:
        if args.baseline is None:
            print("repro-lint: error: --update-baseline requires --baseline",
                  file=sys.stderr)
            return 2
        Baseline.from_diagnostics(diags).save(args.baseline)
        print(f"repro-lint: baseline written: {args.baseline} "
              f"({len(diags)} finding{'s' if len(diags) != 1 else ''})")
        return 0

    selected = _split_codes(args.select)
    ignored = set(_split_codes(args.ignore) or ())
    rules_for_output = [
        r for r in all_rules()
        if (selected is None or r.code in selected) and r.code not in ignored
    ]

    if args.sarif_file is not None:
        args.sarif_file.parent.mkdir(parents=True, exist_ok=True)
        args.sarif_file.write_text(
            to_sarif_json(diags, rules_for_output, tool_version=pkg.__version__)
            + "\n",
            "utf-8",
        )

    if args.format == "sarif":
        print(to_sarif_json(diags, rules_for_output, tool_version=pkg.__version__))
    elif args.format == "json":
        for diag in diags:
            print(diag.to_json())
    else:
        for diag in diags:
            print(diag.format(show_hint=not args.no_hints))

    if args.statistics and diags:
        counts = Counter(d.code for d in diags)
        print()
        for code in sorted(counts):
            print(f"{code}: {counts[code]}")

    summary = _run_summary(
        result, fresh=len(diags), baselined=len(result.baselined)
    )
    if args.stats:
        _print_stats(summary)
    if args.emit_metrics is not None:
        args.emit_metrics.parent.mkdir(parents=True, exist_ok=True)
        args.emit_metrics.write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", "utf-8"
        )

    if args.format == "text":
        n = len(diags)
        tail = ""
        if result.baselined:
            tail = f" ({len(result.baselined)} baselined)"
        print(f"repro-lint: {n} finding{'s' if n != 1 else ''}{tail}"
              if n else f"repro-lint: clean{tail}")

    failing = _failing_tiers(args.fail_on)
    return 1 if any(d.severity in failing for d in diags) else 0
