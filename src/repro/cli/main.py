"""``bgl-predict`` entry point and subcommand implementations."""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

from repro.core.config import PredictorConfig
from repro.core.pipeline import ThreePhasePredictor
from repro.core.serialize import load_model, save_model
from repro.evaluation.crossval import cross_validate
from repro.evaluation.spec import PredictorSpec
from repro.obs import MetricsRegistry, get_registry, to_json, use
from repro.evaluation.sweep import format_sweep, sweep
from repro.predictors.rulebased import RuleBasedPredictor
from repro.preprocess.summary import (
    category_fatal_counts,
    format_table4,
    log_summary,
    severity_breakdown,
)
from repro.ras.columnar import is_columnar_dir, open_store
from repro.ras.logfile import LogDialect, iter_log_lines, read_log, write_log
from repro.synth.generator import LogGenerator
from repro.synth.profiles import profile_by_name
from repro.util.timeutil import MINUTE


class _CliError(Exception):
    """Operator-facing CLI error; caught in :func:`main` -> exit code 2."""


def _add_emit_metrics_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--emit-metrics", metavar="PATH", default=None,
        help="write the run's metrics/span JSON snapshot to PATH "
             "(see docs/observability.md)",
    )


def _add_common_predictor_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--rule-window", type=float, default=15.0,
        help="rule-generation window, minutes (default 15)",
    )
    p.add_argument(
        "--prediction-window", type=float, default=30.0,
        help="prediction window, minutes (default 30)",
    )
    p.add_argument("--min-support", type=float, default=0.04)
    p.add_argument("--min-confidence", type=float, default=0.2)
    p.add_argument("--folds", type=int, default=10, help="CV folds (default 10)")


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for fold evaluation "
             "(default: $REPRO_JOBS, else serial)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="content-addressed cache for fitted artifacts; repeat runs "
             "over the same log reuse mined rules "
             "(default: $REPRO_CACHE_DIR, else off)",
    )
    p.add_argument(
        "--incremental", action="store_true", default=None,
        help="maintain mining state across fits so overlapping training "
             "windows pay only the delta (serial backend; bit-identical "
             "results; default: $REPRO_INCREMENTAL, else off)",
    )


def _add_store_input_args(p: argparse.ArgumentParser) -> None:
    """Unified event-source flags: positional log file OR ``--store DIR``.

    The positional also auto-detects columnar store directories, so either
    spelling works; ``--store`` exists to make scripts explicit about what
    they expect (it refuses anything that is not a columnar store).
    """
    p.add_argument(
        "log", nargs="?", default=None,
        help="raw log file, or a columnar store directory (auto-detected)",
    )
    p.add_argument(
        "--store", metavar="DIR", default=None,
        help="columnar event-store directory to read instead of a log file",
    )
    p.add_argument(
        "--store-backend", choices=["memory", "columnar"], default=None,
        help="in-process store representation for loaded logs "
             "(default: $REPRO_STORE_BACKEND, else memory); columnar spills "
             "sorted stores to disk-backed memory maps",
    )


def _add_action_args(p: argparse.ArgumentParser) -> None:
    """Prediction-to-action flags shared by serve-replay and serve-daemon."""
    p.add_argument(
        "--policy", default=None,
        choices=["cost-aware", "checkpoint", "migrate", "quarantine", "never"],
        help="act on warnings through repro.actions and settle a ledger "
             "(default: off; see docs/actions.md for the policy catalog)",
    )
    p.add_argument(
        "--checkpoint-cost", type=float, default=120.0, metavar="SECONDS",
        help="seconds one proactive checkpoint stalls a job (default 120)",
    )
    p.add_argument(
        "--migration-cost", type=float, default=180.0, metavar="SECONDS",
        help="seconds migrating a job off a midplane costs (default 180)",
    )
    p.add_argument(
        "--restart-cost", type=float, default=300.0, metavar="SECONDS",
        help="seconds a failed job pays to restart (default 300)",
    )
    p.add_argument(
        "--action-seed", type=int, default=0, metavar="N",
        help="seed for stochastic action policies; stamped into the ledger "
             "(default 0)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgl-predict",
        description="Three-phase meta-learning failure predictor for Blue Gene/L",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a raw RAS log")
    g.add_argument("--profile", default="ANL", help="ANL or SDSC")
    g.add_argument("--scale", type=float, default=0.1)
    g.add_argument("--noise", type=float, default=1.0, help="noise multiplier")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", "-o", default=None, help="log file to write")
    g.add_argument(
        "--dialect", choices=["repro", "loghub"], default="repro",
        help="output line format",
    )
    g.add_argument(
        "--store", metavar="DIR", default=None,
        help="stream the log into a columnar store directory instead of "
             "a text file (out-of-core; combine with --segments)",
    )
    g.add_argument(
        "--segments", type=int, default=1, metavar="N",
        help="with --store: concatenate N independently-seeded generations, "
             "each time-shifted past the last; peak memory stays one "
             "segment (default 1)",
    )

    p = sub.add_parser("preprocess", help="run Phase 1 on a log file")
    _add_store_input_args(p)
    p.add_argument("--output", "-o", help="write the unique-event log here")
    p.add_argument("--threshold", type=float, default=300.0)

    m = sub.add_parser("mine", help="mine association rules")
    _add_store_input_args(m)
    m.add_argument("--rule-window", type=float, default=15.0, help="minutes")
    m.add_argument("--min-support", type=float, default=0.04)
    m.add_argument("--min-confidence", type=float, default=0.2)
    m.add_argument("--miner", choices=["apriori", "fpgrowth"], default="apriori")
    m.add_argument("--top", type=int, default=20, help="rules to print")

    e = sub.add_parser("evaluate", help="cross-validate a predictor")
    _add_store_input_args(e)
    e.add_argument(
        "--method", choices=["statistical", "rule", "meta"], default="meta"
    )
    _add_common_predictor_args(e)
    _add_engine_args(e)

    s = sub.add_parser("sweep", help="prediction-window sweep")
    _add_store_input_args(s)
    s.add_argument(
        "--method", choices=["statistical", "rule", "meta"], default="meta"
    )
    s.add_argument(
        "--windows", default="5,10,15,20,30,40,50,60",
        help="comma-separated minutes",
    )
    s.add_argument(
        "--sweep-param", choices=["prediction_window", "rule_window"],
        default="prediction_window",
        help="which window the grid varies (default prediction_window)",
    )
    _add_common_predictor_args(s)
    _add_engine_args(s)

    t = sub.add_parser(
        "train", help="train the three-phase predictor and save the model"
    )
    _add_store_input_args(t)
    t.add_argument("--model", "-m", required=True, help="model JSON to write")
    _add_common_predictor_args(t)

    w = sub.add_parser(
        "watch", help="stream a log through a trained model (online mode)"
    )
    _add_store_input_args(w)
    w.add_argument("--model", "-m", required=True, help="model JSON to load")
    w.add_argument(
        "--quiet", action="store_true",
        help="suppress per-warning lines; print the summary only",
    )

    v = sub.add_parser(
        "serve-replay",
        help="replay a log through the sharded serving engine (throughput mode)",
    )
    _add_store_input_args(v)
    v.add_argument(
        "--model", "-m", default=None,
        help="model JSON to load (or use --registry)",
    )
    v.add_argument(
        "--shards", type=int, default=4,
        help="detector shards in the pool (default 4)",
    )
    v.add_argument(
        "--key", choices=["midplane", "job"], default="midplane",
        help="stream partition key (default midplane)",
    )
    v.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for shard replay "
             "(default: $REPRO_JOBS, else serial)",
    )
    v.add_argument(
        "--incremental", action="store_true", default=None,
        help="lifecycle mode: maintain mining state across retrains so "
             "sliding windows pay only the delta (bit-identical snapshots; "
             "default: $REPRO_INCREMENTAL, else off)",
    )
    v.add_argument(
        "--registry", default=None, metavar="DIR",
        help="model registry directory; serves --model-ref instead of "
             "--model and receives retrained snapshots",
    )
    v.add_argument(
        "--model-ref", default="latest", metavar="REF",
        help="registry ref to serve: tag, snapshot id, or id prefix "
             "(default latest)",
    )
    v.add_argument(
        "--retrain-every", type=int, default=None, metavar="N",
        help="lifecycle mode: refit the model every N events "
             "(requires --registry)",
    )
    v.add_argument(
        "--drift-threshold", type=float, default=None, metavar="PSI",
        help="lifecycle mode: refit when the windowed subcategory PSI "
             "reaches this level (requires --registry; see docs/lifecycle.md)",
    )
    v.add_argument(
        "--drift-window", type=int, default=1024, metavar="N",
        help="drift monitor's live window in events; the stream's first "
             "window also seeds the reference histogram (default 1024)",
    )
    v.add_argument(
        "--retrain-window", type=int, default=50_000, metavar="N",
        help="sliding training window for refits, in events (default 50000)",
    )
    v.add_argument(
        "--chunk", type=int, default=2048, metavar="N",
        help="serving chunk in events: the hot-swap barrier granularity in "
             "lifecycle mode, and the streaming-replay chunk when the input "
             "is a columnar store (default 2048)",
    )
    _add_action_args(v)

    d = sub.add_parser(
        "serve-daemon",
        help="run the live ingestion daemon (NDJSON line protocol + "
             "/metrics and /health)",
    )
    d.add_argument(
        "--model", "-m", default=None,
        help="model JSON to load (or use --registry)",
    )
    d.add_argument("--host", default="127.0.0.1", help="bind address")
    d.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: OS-assigned, printed at startup)",
    )
    d.add_argument(
        "--queue-bound", type=int, default=4096, metavar="N",
        help="per-stream ingest queue bound; a full queue answers BUSY "
             "(default 4096)",
    )
    d.add_argument(
        "--shards", type=int, default=4,
        help="detector shards per stream pool (default 4)",
    )
    d.add_argument(
        "--key", choices=["midplane", "job"], default="midplane",
        help="shard partition key (default midplane)",
    )
    d.add_argument(
        "--chunk", type=int, default=512, metavar="N",
        help="worker feed chunk in events; in lifecycle mode also the "
             "hot-swap barrier granularity (default 512)",
    )
    d.add_argument(
        "--max-streams", type=int, default=64, metavar="N",
        help="refuse new stream ids beyond this count (default 64)",
    )
    d.add_argument(
        "--state", default=None, metavar="PATH",
        help="resolved-counter state file: restored at startup (if present) "
             "and rewritten after a clean drain — a kill/restart cycle "
             "loses no resolved warnings",
    )
    d.add_argument(
        "--registry", default=None, metavar="DIR",
        help="model registry directory; serves --model-ref instead of "
             "--model and receives retrained snapshots",
    )
    d.add_argument(
        "--model-ref", default="latest", metavar="REF",
        help="registry ref to serve (default latest)",
    )
    d.add_argument(
        "--retrain-every", type=int, default=None, metavar="N",
        help="lifecycle mode: refit each stream's model every N events "
             "(requires --registry)",
    )
    d.add_argument(
        "--drift-threshold", type=float, default=None, metavar="PSI",
        help="lifecycle mode: refit when the windowed subcategory PSI "
             "reaches this level (requires --registry)",
    )
    d.add_argument(
        "--drift-window", type=int, default=1024, metavar="N",
        help="drift monitor window in events; each stream's first window "
             "seeds its reference histogram (default 1024)",
    )
    d.add_argument(
        "--retrain-window", type=int, default=50_000, metavar="N",
        help="sliding training window for refits, in events (default 50000)",
    )
    d.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for lifecycle refits "
             "(default: $REPRO_JOBS, else serial)",
    )
    d.add_argument(
        "--incremental", action="store_true", default=None,
        help="maintain mining state across lifecycle retrains so sliding "
             "windows pay only the delta (bit-identical snapshots; "
             "default: $REPRO_INCREMENTAL, else off)",
    )
    d.add_argument(
        "--store", metavar="DIR", default=None,
        help="archive every accepted event to a columnar store directory "
             "(append-only; resumes across restarts; replayable with "
             "'serve-replay DIR')",
    )
    _add_action_args(d)

    em = sub.add_parser(
        "emit",
        help="drive a log at a running serve-daemon as synthetic load",
    )
    _add_store_input_args(em)
    em.add_argument("--host", default="127.0.0.1", help="daemon address")
    em.add_argument("--port", type=int, required=True, help="daemon port")
    em.add_argument(
        "--streams", type=int, default=3,
        help="concurrent stream ids to emit on (default 3)",
    )
    em.add_argument(
        "--batch", type=int, default=256, metavar="N",
        help="events per wire batch frame (default 256)",
    )
    em.add_argument(
        "--repeat", type=int, default=1, metavar="K",
        help="replay the log K times, each copy time-shifted past the "
             "last (default 1)",
    )
    em.add_argument(
        "--retry-delay", type=float, default=0.02, metavar="SEC",
        help="backoff before resending after BUSY (default 0.02)",
    )
    em.add_argument(
        "--max-retries", type=int, default=200, metavar="N",
        help="consecutive BUSY retries before giving up (default 200)",
    )
    em.add_argument(
        "--drain", action="store_true",
        help="ask the daemon to drain and exit once the load is delivered",
    )

    mo = sub.add_parser(
        "model", help="manage the versioned model registry (save/load/list)"
    )
    mo_sub = mo.add_subparsers(dest="model_command", required=True)
    ms = mo_sub.add_parser(
        "save", help="register a model JSON file as a snapshot"
    )
    ms.add_argument("model_json", help="model JSON written by 'train'")
    ms.add_argument("--registry", required=True, metavar="DIR")
    ms.add_argument(
        "--tag", action="append", default=[], metavar="NAME",
        help="named ref(s) to point at the snapshot (repeatable)",
    )
    ms.add_argument("--note", default="", help="free-form provenance note")
    ms.add_argument(
        "--parent", default=None, metavar="REF",
        help="lineage parent (tag, id, or prefix)",
    )
    ml = mo_sub.add_parser(
        "load", help="export a registry snapshot back to a model JSON file"
    )
    ml.add_argument("ref", help="tag, snapshot id, or unique id prefix")
    ml.add_argument("--registry", required=True, metavar="DIR")
    ml.add_argument("--output", "-o", required=True, help="model JSON to write")
    mls = mo_sub.add_parser("list", help="list snapshots, tags and lineage")
    mls.add_argument("--registry", required=True, metavar="DIR")

    st = sub.add_parser(
        "store", help="inspect and convert columnar event stores"
    )
    st_sub = st.add_subparsers(dest="store_command", required=True)
    si = st_sub.add_parser(
        "info", help="print a columnar store's manifest summary"
    )
    si.add_argument("path", help="columnar store directory")
    si.add_argument(
        "--fingerprint", action="store_true",
        help="also compute the content fingerprint (reads every column)",
    )
    sc = st_sub.add_parser(
        "convert",
        help="convert between text logs and columnar stores (streaming)",
    )
    sc.add_argument("src", help="source: log file or columnar store directory")
    sc.add_argument("dst", help="destination path")
    sc.add_argument(
        "--to", choices=["log", "columnar"], default=None,
        help="destination format (default: the opposite of the source; "
             "columnar->columnar re-compacts and re-sorts a store)",
    )
    sc.add_argument(
        "--chunk", type=int, default=65536, metavar="N",
        help="events per streamed write chunk (default 65536)",
    )
    sc.add_argument(
        "--dialect", choices=["repro", "loghub"], default="repro",
        help="line format when writing a log (default repro)",
    )

    r = sub.add_parser(
        "report", help="full study report: CDF, rules, sweeps, comparison"
    )
    _add_store_input_args(r)
    r.add_argument(
        "--windows", default="5,15,30,60", help="sweep minutes"
    )
    _add_common_predictor_args(r)
    _add_engine_args(r)

    x = sub.add_parser(
        "export", help="write experiment series (sweep/CDF/categories) as CSV"
    )
    _add_store_input_args(x)
    x.add_argument("--outdir", "-o", required=True, help="directory for CSVs")
    x.add_argument(
        "--method", choices=["statistical", "rule", "meta"], default="meta"
    )
    x.add_argument("--windows", default="5,10,15,20,30,40,50,60")
    _add_common_predictor_args(x)
    _add_engine_args(x)

    # Every subcommand can export its observability snapshot.
    for subparser in sub.choices.values():
        _add_emit_metrics_arg(subparser)
    return parser


def _input_path(args: argparse.Namespace) -> str:
    """The one event source named by ``LOG`` or ``--store`` (exactly one)."""
    log = getattr(args, "log", None)
    store = getattr(args, "store", None)
    if (log is None) == (store is None):
        raise _CliError("provide exactly one event source: LOG or --store DIR")
    if store is not None:
        if not is_columnar_dir(store):
            raise _CliError(f"--store {store} is not a columnar store directory")
        return store
    return log


def _load_raw(args: argparse.Namespace):
    """Open the command's event source as a raw :class:`EventStore`.

    Columnar store directories (from ``--store`` or auto-detected from the
    positional) open memory-mapped; anything else is parsed as a text log.
    """
    path = _input_path(args)
    if is_columnar_dir(path):
        from repro.ras.columnar import StoreDirError

        try:
            return open_store(path)
        except StoreDirError as exc:
            raise _CliError(f"cannot open store {path}: {exc}") from exc
    if not os.path.isfile(path):
        raise _CliError(f"no such log file or store directory: {path}")
    return read_log(path, errors="skip")


def _load_events(args: argparse.Namespace):
    raw = _load_raw(args)
    pipeline = ThreePhasePredictor(
        PredictorConfig(
            compression_threshold=getattr(args, "threshold", 300.0)
        )
    )
    result = pipeline.preprocess(raw)
    return raw, result


def _make_spec(
    method: str, args: argparse.Namespace, window_min: float
) -> PredictorSpec:
    """The declarative predictor spec the CLI flags describe."""
    rw = args.rule_window * MINUTE
    w = window_min * MINUTE
    if method == "statistical":
        return PredictorSpec.statistical(window=w, lead=0.0)
    if method == "rule":
        return PredictorSpec.rule(
            rule_window=rw,
            prediction_window=w,
            min_support=args.min_support,
            min_confidence=args.min_confidence,
        )
    return PredictorSpec.meta(
        prediction_window=w,
        rule_window=rw,
        min_support=args.min_support,
        min_confidence=args.min_confidence,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    profile = profile_by_name(args.profile)
    if (args.output is None) == (args.store is None):
        raise _CliError(
            "provide exactly one destination: --output FILE or --store DIR"
        )
    t0 = time.monotonic()
    if args.store is not None:
        from repro.synth.streaming import stream_generate

        summary = stream_generate(
            profile,
            args.store,
            segments=args.segments,
            scale=args.scale,
            noise_multiplier=args.noise,
            seed=args.seed,
        )
        print(
            f"{profile.name} scale={args.scale} x{summary.segments} "
            f"segment(s): {summary.rows} raw records streamed to "
            f"{summary.path} "
            f"(span {summary.span_seconds / 86_400:.1f} days, "
            f"{time.monotonic() - t0:.1f}s)"
        )
        return 0
    log = LogGenerator(
        profile, scale=args.scale, noise_multiplier=args.noise, seed=args.seed
    ).generate()
    dialect = LogDialect(args.dialect)
    n = write_log(log.raw, args.output, dialect=dialect)
    print(
        f"{profile.name} scale={args.scale}: {log.n_unique} unique events, "
        f"{n} raw records written to {args.output} "
        f"({time.monotonic() - t0:.1f}s)"
    )
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    raw, result = _load_events(args)
    print("raw log:")
    for k, v in log_summary(raw, _input_path(args)).items():
        print(f"  {k}: {v}")
    print("severities:", severity_breakdown(raw))
    print(
        f"temporal compression: {result.temporal_stats.input_records} -> "
        f"{result.temporal_stats.output_records} records"
    )
    print(
        f"spatial compression:  {result.spatial_stats.input_records} -> "
        f"{result.spatial_stats.output_records} records"
    )
    print(
        f"unique events: {result.unique_events} "
        f"(overall compression {result.overall_compression:.2%})"
    )
    counts = category_fatal_counts(result.events)
    print(format_table4({"log": counts}))
    if args.output:
        write_log(result.events, args.output)
        print(f"unique-event log written to {args.output}")
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    _, result = _load_events(args)
    predictor = RuleBasedPredictor(
        rule_window=args.rule_window * MINUTE,
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        miner=args.miner,
    ).fit(result.events)
    assert predictor.ruleset is not None
    print(
        f"{len(predictor.ruleset)} rules "
        f"(no-precursor fraction {predictor.no_precursor_fraction:.2%}):"
    )
    print(predictor.ruleset.format_rules(limit=args.top))
    return 0


def _print_metrics_section() -> None:
    """Compact observability summary appended to evaluation reports."""
    from repro.obs import summarize_histogram

    registry = get_registry()
    if not registry.enabled:
        return
    lines: list[str] = []
    samples = registry.histograms.get("crossval.fold_seconds")
    if samples:
        s = summarize_histogram(samples)
        lines.append(
            f"  per-fold wall time: mean={s['mean']:.3f}s "
            f"p90={s['p90']:.3f}s max={s['max']:.3f}s"
        )
    rule = registry.counters.get("meta.dispatch{method=rule}", 0)
    stat = registry.counters.get("meta.dispatch{method=statistical}", 0)
    if rule or stat:
        lines.append(f"  meta dispatch: rule={rule} statistical={stat}")
    compression = registry.gauges.get("preprocess.compression_ratio")
    if compression is not None:
        lines.append(f"  phase-1 compression: {compression:.2%}")
    kept = registry.counters.get("mining.rules_kept")
    if kept is not None:
        lines.append(f"  rules kept (across fits): {kept:g}")
    tasks = registry.counters.get("engine.tasks")
    if tasks:
        jobs = registry.gauges.get("engine.jobs", 1)
        lines.append(f"  engine: {tasks:g} fold tasks, jobs={jobs:g}")
    hits = registry.counters.get("engine.cache_hits", 0)
    cache_misses = registry.counters.get("engine.cache_misses", 0)
    if hits or cache_misses:
        lines.append(f"  artifact cache: {hits:g} hits / {cache_misses:g} misses")
    drift = registry.gauges.get("lifecycle.drift_score")
    if drift is not None:
        lines.append(f"  drift score (PSI): {drift:.4f}")
    precision = registry.gauges.get("lifecycle.live_precision")
    if precision is not None:
        lines.append(f"  live precision (window): {precision:.2f}")
    retrains = registry.counters.get("lifecycle.retrains")
    if retrains:
        lines.append(f"  retrains: {retrains:g}")
    swap_samples = registry.histograms.get("serve.swap_seconds")
    if swap_samples:
        s = summarize_histogram(swap_samples)
        lines.append(
            f"  hot swaps: {len(swap_samples)} "
            f"(mean={s['mean'] * 1000:.2f}ms max={s['max'] * 1000:.2f}ms)"
        )
    if lines:
        print("metrics:")
        print("\n".join(lines))


def cmd_evaluate(args: argparse.Namespace) -> int:
    _, result = _load_events(args)
    spec = _make_spec(args.method, args, args.prediction_window)
    cv = cross_validate(
        spec, result.events, k=args.folds,
        jobs=args.jobs, cache_dir=args.cache_dir,
        incremental=args.incremental,
    )
    s = cv.summary()
    print(
        f"{args.method} ({args.folds}-fold CV, W={args.prediction_window:g} min): "
        f"precision={s['precision']:.4f} recall={s['recall']:.4f} "
        f"({s['warnings']} warnings / {s['fatals']} failures)"
    )
    _print_metrics_section()
    return 0


def _sweep_grid(
    args: argparse.Namespace, windows: list[float]
) -> list[tuple[float, PredictorSpec]]:
    """(window, spec) grid for the CLI's sweep-style commands.

    The statistical predictor's only window *is* its prediction horizon, so
    for it the grid always varies ``window``; the other methods vary
    ``--sweep-param`` (prediction_window by default).
    """
    spec = _make_spec(args.method, args, args.prediction_window)
    if args.method == "statistical":
        param = "window"
    else:
        param = getattr(args, "sweep_param", "prediction_window")
    return spec.grid(param, windows)


def cmd_sweep(args: argparse.Namespace) -> int:
    _, result = _load_events(args)
    windows = [float(x) * MINUTE for x in args.windows.split(",")]
    points = sweep(
        _sweep_grid(args, windows),
        result.events,
        k=args.folds,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        incremental=args.incremental,
    )
    param = "window" if args.method == "statistical" else args.sweep_param
    print(format_sweep(points, title=f"{args.method} {param} sweep"))
    _print_metrics_section()
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    _, result = _load_events(args)
    predictor = ThreePhasePredictor(
        PredictorConfig(
            rule_window=args.rule_window * MINUTE,
            prediction_window=args.prediction_window * MINUTE,
            min_support=args.min_support,
            min_confidence=args.min_confidence,
        )
    )
    predictor.fit(result.events)
    save_model(predictor, args.model)
    print(
        f"model written to {args.model}: {predictor.report.rules_mined} rules, "
        f"triggers={list(predictor.report.trigger_categories)}"
    )
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    from repro.online.detector import OnlineSession
    from repro.util.timeutil import format_epoch

    model = load_model(args.model)
    meta = model.meta if isinstance(model, ThreePhasePredictor) else model
    _, result = _load_events(args)
    session = OnlineSession(meta)
    for w in session.process_store(result.events):
        if not args.quiet:
            print(
                f"[{format_epoch(w.issued_at)}] WARNING "
                f"conf={w.confidence:.2f} "
                f"horizon={(w.horizon_end - w.issued_at) // 60}min "
                f"| {w.detail[:60]}"
            )
    stats = session.finish()
    print(
        f"watch summary: {stats.events} events, {stats.failures} failures, "
        f"{stats.warnings} warnings "
        f"(precision {stats.precision_so_far:.2f}, "
        f"recall {stats.recall_so_far:.2f})"
    )
    return 0


def _fail(message: str) -> int:
    """Print a one-line operator-facing error (no traceback); exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _build_action_engine(args, *, ledger=None, labels=None, view=None):
    """One ActionEngine from the shared --policy/--*-cost flags.

    Raises ValueError on bad prices / an unknown policy name; callers
    convert that to the one-line CLI error.
    """
    from repro.actions import ActionEngine, CostModel, build_policy

    cost = CostModel(
        checkpoint_cost=args.checkpoint_cost,
        migration_cost=args.migration_cost,
        restart_cost=args.restart_cost,
    )
    return ActionEngine(
        build_policy(args.policy),
        cost,
        view=view,
        seed=args.action_seed,
        ledger=ledger,
        labels=labels,
    )


def _print_ledger(ledger, indent: str = "") -> None:
    """Operator-facing summary of one settled action ledger."""
    taken = " ".join(
        f"{kind}={ledger.taken.get(kind, 0)}"
        for kind in ("checkpoint", "migrate", "quarantine")
    )
    outcomes = " ".join(
        f"{o}={ledger.outcomes.get(o, 0)}"
        for o in ("hit", "false_alarm", "redundant", "late")
    )
    print(
        f"{indent}actions ({ledger.policy}, seed {ledger.seed}): {taken}\n"
        f"{indent}  settled: {outcomes}\n"
        f"{indent}  node-seconds: saved={ledger.saved_node_seconds:,.0f} "
        f"cost={ledger.cost_node_seconds:,.0f} "
        f"net={ledger.net_node_seconds:,.0f}\n"
        f"{indent}  reactive loss (no action): {ledger.reactive_loss:,.0f} "
        f"over {ledger.jobs_hit} job kill(s)"
    )


def cmd_serve_replay(args: argparse.Namespace) -> int:
    from repro.lifecycle import ModelRegistry, RegistryError
    from repro.serve import DetectorPool

    lifecycle_mode = (
        args.retrain_every is not None or args.drift_threshold is not None
    )
    if args.model is None and args.registry is None:
        return _fail("provide a model: --model FILE or --registry DIR")
    if lifecycle_mode and args.registry is None:
        return _fail(
            "--retrain-every/--drift-threshold need --registry "
            "(retrained snapshots must be registered somewhere)"
        )

    model_registry = None
    snapshot = None
    try:
        if args.registry is not None:
            model_registry = ModelRegistry(args.registry)
            snapshot = model_registry.get(args.model_ref)
            meta = model_registry.load_meta(args.model_ref)
        else:
            model = load_model(args.model)
            meta = model.meta if isinstance(model, ThreePhasePredictor) else model
    except (RegistryError, FileNotFoundError) as exc:
        return _fail(str(exc))

    raw, result = _load_events(args)
    if len(result.events) == 0:
        return _fail(
            f"no events parsed from {_input_path(args)}; nothing to replay "
            "(is the file empty or in an unrecognized dialect?)"
        )
    pool = DetectorPool(meta, shards=args.shards, key=args.key)
    engine = None
    if args.policy is not None:
        try:
            engine = _build_action_engine(args)
        except ValueError as exc:
            return _fail(str(exc))
    if lifecycle_mode:
        assert model_registry is not None and snapshot is not None
        return _serve_lifecycle(
            args, pool, model_registry, snapshot, result.events, engine
        )
    # Columnar input replays in bounded-memory chunks (serial; --jobs is a
    # whole-store optimization and is ignored on the streaming path).
    chunk = args.chunk if raw.backend_kind == "columnar" else None
    report = pool.replay(result.events, jobs=args.jobs, chunk_events=chunk)
    print(
        f"serve-replay: {report.events} events through {len(report.shards)} "
        f"active shard(s) (key={report.key}) in {report.seconds:.3f}s "
        f"-> {report.events_per_sec:,.0f} events/sec"
    )
    for shard in report.shards:
        s = shard.stats
        print(
            f"  shard {shard.shard}: {shard.events} events, "
            f"{s.failures} failures, {len(shard.warnings)} warnings "
            f"(precision {s.precision_so_far:.2f}, "
            f"recall {s.recall_so_far:.2f}, {shard.seconds:.3f}s)"
        )
    combined = report.combined
    print(
        f"combined: {combined.warnings} warnings / {combined.failures} failures "
        f"(precision {combined.precision_so_far:.2f}, "
        f"recall {combined.recall_so_far:.2f})"
    )
    if engine is not None:
        # One pass over the replayed store with every shard's warnings:
        # the engine re-sorts decisions internally, so shard interleaving
        # does not matter.
        engine.observe_store(
            result.events, [w for sh in report.shards for w in sh.warnings]
        )
        _print_ledger(engine.finalize())
    registry = get_registry()
    if registry.enabled:
        from repro.obs import summarize_histogram

        samples = registry.histograms.get("serve.feed_seconds")
        if samples:
            s = summarize_histogram(samples)
            print(
                f"metrics:\n  per-shard feed time: mean={s['mean']:.3f}s "
                f"p90={s['p90']:.3f}s max={s['max']:.3f}s"
            )
    return 0


def _serve_lifecycle(
    args, pool, model_registry, snapshot, events, action_engine=None
) -> int:
    """serve-replay's managed mode: drift-monitored, hot-swap retraining."""
    from repro.lifecycle import (
        DriftMonitor,
        LifecycleManager,
        Retrainer,
        RetrainPolicy,
    )

    # The stream's own head seeds the reference histogram: the monitor
    # compares "recently" against "when serving started", which is what an
    # operator without the original training store can actually deploy.
    head = min(max(args.drift_window, 1), len(events))
    monitor = DriftMonitor(
        events.select(slice(0, head)),
        window=args.drift_window,
        threshold=args.drift_threshold if args.drift_threshold else 0.25,
    )
    policy = RetrainPolicy(
        args.retrain_every,
        on_drift=args.drift_threshold is not None,
        cooldown_events=max(args.chunk, 1024),
    )
    spec = snapshot.spec if snapshot.spec is not None else PredictorSpec.meta()
    retrainer = Retrainer(
        spec,
        model_registry,
        window_events=args.retrain_window,
        jobs=args.jobs,
        seed=0,
        incremental=args.incremental,
    )
    manager = LifecycleManager(
        pool, monitor, policy, retrainer,
        serving_snapshot=snapshot.snapshot_id,
    )
    report = manager.run(
        events, chunk_events=args.chunk, action_sink=action_engine
    )
    stats = report.stats
    assert stats is not None
    print(
        f"serve-replay (lifecycle): {report.events} events in "
        f"{args.chunk}-event chunks, {report.warnings} warnings, "
        f"{report.retrains} retrain(s)"
    )
    for swap in report.swaps:
        print(
            f"  swap @event {swap.at_event}: {swap.reason} -> "
            f"{swap.snapshot_id[:12]} "
            f"(psi={swap.drift_score:.3f}, "
            f"sessions={swap.sessions_swapped})"
        )
    print(
        f"combined: {stats.warnings} warnings / {stats.failures} failures "
        f"(precision {stats.precision_so_far:.2f}, "
        f"recall {stats.recall_so_far:.2f})"
    )
    if action_engine is not None:
        _print_ledger(action_engine.finalize())
    print(f"serving snapshot: {manager.serving_snapshot[:12]}")
    _print_metrics_section()
    return 0


def _daemon_manager_factory(args, model_registry, snapshot):
    """Per-stream lifecycle factory the daemon hands to new channels.

    Built here — not in :mod:`repro.serve` — so the serve package never
    imports lifecycle (the layer DAG stays acyclic; lifecycle already
    imports ``serve.pool``).  Each stream gets its own monitor/policy/
    retrainer; the reference store is the stream's first drift window.
    """
    from repro.lifecycle import (
        DriftMonitor,
        LifecycleManager,
        Retrainer,
        RetrainPolicy,
    )

    spec = snapshot.spec if snapshot.spec is not None else PredictorSpec.meta()

    def factory(pool, reference_store):
        monitor = DriftMonitor(
            reference_store,
            window=args.drift_window,
            threshold=args.drift_threshold if args.drift_threshold else 0.25,
        )
        policy = RetrainPolicy(
            args.retrain_every,
            on_drift=args.drift_threshold is not None,
            cooldown_events=max(args.chunk, 1024),
        )
        retrainer = Retrainer(
            spec,
            model_registry,
            window_events=args.retrain_window,
            jobs=args.jobs,
            seed=0,
            incremental=args.incremental,
        )
        return LifecycleManager(
            pool, monitor, policy, retrainer,
            serving_snapshot=snapshot.snapshot_id,
        )

    return factory


def _daemon_action_factory(args, ledger_docs):
    """Per-stream action-engine factory the daemon hands to new channels.

    Built here — not in :mod:`repro.serve` — for the same layering reason
    as the lifecycle factory: serve talks to the engine only through the
    duck-typed ``ActionSink`` protocol.  A stream whose aggregate ledger
    counters were persisted by a previous drain resumes them in place, so
    the lifetime economics survive a kill/restart cycle.
    """
    from repro.actions import CostModel, Ledger, build_policy

    cost = CostModel(
        checkpoint_cost=args.checkpoint_cost,
        migration_cost=args.migration_cost,
        restart_cost=args.restart_cost,
    )
    build_policy(args.policy)  # validate the name eagerly, before binding

    def factory(stream_id):
        from repro.actions import ActionEngine

        restored = ledger_docs.get(stream_id)
        ledger = Ledger.from_dict(restored) if restored else None
        return ActionEngine(
            build_policy(args.policy),
            cost,
            seed=args.action_seed,
            ledger=ledger,
            labels={"stream": stream_id},
        )

    return factory


def cmd_serve_daemon(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.lifecycle import ModelRegistry, RegistryError
    from repro.online.resolution import SessionStats
    from repro.serve.daemon import (
        DaemonConfig,
        IngestDaemon,
        state_from_dict,
        state_to_dict,
    )

    lifecycle_mode = (
        args.retrain_every is not None or args.drift_threshold is not None
    )
    if args.model is None and args.registry is None:
        return _fail("provide a model: --model FILE or --registry DIR")
    if lifecycle_mode and args.registry is None:
        return _fail(
            "--retrain-every/--drift-threshold need --registry "
            "(retrained snapshots must be registered somewhere)"
        )

    model_registry = None
    snapshot = None
    try:
        if args.registry is not None:
            model_registry = ModelRegistry(args.registry)
            snapshot = model_registry.get(args.model_ref)
            meta = model_registry.load_meta(args.model_ref)
        else:
            model = load_model(args.model)
            meta = model.meta if isinstance(model, ThreePhasePredictor) else model
    except (RegistryError, FileNotFoundError) as exc:
        return _fail(str(exc))

    baseline: Optional[SessionStats] = None
    ledger_docs: dict = {}
    if args.state:
        try:
            with open(args.state, encoding="utf-8") as fh:
                state_doc = json.load(fh)
            baseline = state_from_dict(state_doc)
            ledger_docs = dict(state_doc.get("ledgers", {}))
            print(
                f"restored state from {args.state}: "
                f"{baseline.events} events, {baseline.warnings} warnings, "
                f"{baseline.hits} hits already resolved"
                + (f", {len(ledger_docs)} stream ledger(s)" if ledger_docs else "")
            )
        except FileNotFoundError:
            pass
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            return _fail(f"unreadable state file {args.state}: {exc}")

    manager_factory = None
    reference_events = 0
    if lifecycle_mode:
        manager_factory = _daemon_manager_factory(args, model_registry, snapshot)
        reference_events = args.drift_window
    action_factory = None
    if args.policy is not None:
        try:
            action_factory = _daemon_action_factory(args, ledger_docs)
        except ValueError as exc:
            return _fail(str(exc))

    try:
        config = DaemonConfig(
            host=args.host,
            port=args.port,
            queue_bound=args.queue_bound,
            shards=args.shards,
            key=args.key,
            chunk_events=args.chunk,
            max_streams=args.max_streams,
            store_dir=args.store,
        )
    except ValueError as exc:
        return _fail(str(exc))
    daemon = IngestDaemon(
        meta,
        config,
        manager_factory=manager_factory,
        reference_events=reference_events,
        action_factory=action_factory,
        baseline=baseline,
        registry=get_registry(),
    )

    async def _run():
        await daemon.start()
        print(
            f"serve-daemon listening on {args.host}:{daemon.port} "
            f"(queue_bound={config.queue_bound}, shards={config.shards}, "
            f"chunk={config.chunk_events}"
            + (", lifecycle on" if lifecycle_mode else "")
            + (f", archiving to {args.store}" if args.store else "")
            + ") — SIGTERM or GET /drain for a graceful drain",
            flush=True,
        )
        return await daemon.serve_until_drained()

    try:
        report = asyncio.run(_run())
    except OSError as exc:  # bind failure: port in use, bad host, ...
        return _fail(f"cannot bind {args.host}:{args.port}: {exc}")

    for sr in report.streams:
        s = sr.stats
        print(
            f"  stream {sr.stream_id}: {sr.processed} events, "
            f"{s.failures} failures, {sr.warnings} warnings "
            f"(precision {s.precision_so_far:.2f}, "
            f"recall {s.recall_so_far:.2f}, "
            f"busy_rejects={sr.dropped_busy}, "
            f"order_rejects={sr.rejected_order})"
        )
        if sr.ledger is not None:
            _print_ledger(sr.ledger, indent="  ")
    total = report.total()
    print(
        f"drained in {report.seconds:.3f}s: {report.combined.events} events "
        f"this run, lifetime {total.events} events / {total.warnings} warnings "
        f"(precision {total.precision_so_far:.2f}, "
        f"recall {total.recall_so_far:.2f})"
    )
    if args.state:
        doc = state_to_dict(report, carried_ledgers=ledger_docs)
        tmp = f"{args.state}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, args.state)
        print(f"state written to {args.state}")
    return 0


def cmd_emit(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.client import emit_events

    if args.streams < 1:
        return _fail("--streams must be >= 1")
    _, result = _load_events(args)
    events = list(result.events)
    if not events:
        return _fail(
            f"no events parsed from {_input_path(args)}; nothing to emit"
        )
    if args.repeat > 1:
        span = events[-1].time + 1
        base = list(events)
        for k in range(1, args.repeat):
            events.extend(ev.with_time(ev.time + k * span) for ev in base)
    stream_ids = [f"stream-{i}" for i in range(args.streams)]
    report = asyncio.run(
        emit_events(
            events,
            host=args.host,
            port=args.port,
            streams=stream_ids,
            batch=args.batch,
            retry_delay=args.retry_delay,
            max_retries=args.max_retries,
            drain_after=args.drain,
        )
    )
    print(
        f"emit: {report.sent}/{len(events)} events over "
        f"{len(stream_ids)} stream(s) in {report.seconds:.3f}s "
        f"-> {report.events_per_sec:,.0f} events/sec "
        f"({report.busy_retries} busy retries)"
    )
    for tally in report.tallies:
        line = f"  {tally.stream_id}: sent={tally.sent}"
        if tally.final_stats:
            counters = tally.final_stats.get("counters", {})
            session = tally.final_stats.get("session", {})
            line += (
                f" processed={counters.get('processed', '?')}"
                f" warnings={session.get('warnings', '?')}"
                f" pending={tally.final_stats.get('pending_warnings', '?')}"
            )
        print(line)
    if report.errors:
        for err in report.errors:
            print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def cmd_model(args: argparse.Namespace) -> int:
    from repro.core.serialize import SerializationError
    from repro.lifecycle import ModelRegistry, RegistryError

    model_registry = ModelRegistry(args.registry)
    try:
        if args.model_command == "save":
            predictor = load_model(args.model_json)
            snap = model_registry.save(
                predictor,
                parent=args.parent,
                note=args.note,
                tags=tuple(args.tag),
            )
            tags = " ".join(args.tag)
            print(
                f"registered {snap.snapshot_id[:12]} "
                f"(kind={snap.kind}, seq={snap.seq}"
                + (f", tags: {tags})" if tags else ")")
            )
        elif args.model_command == "load":
            model = model_registry.load(args.ref)
            save_model(model, args.output)
            print(
                f"snapshot {model_registry.resolve(args.ref)[:12]} "
                f"written to {args.output}"
            )
        else:  # list
            snapshots = model_registry.list()
            by_id: dict[str, list[str]] = {}
            for name, target in model_registry.tags().items():
                by_id.setdefault(target, []).append(name)
            if not snapshots:
                print("registry is empty")
                return 0
            for snap in snapshots:
                refs = ",".join(sorted(by_id.get(snap.snapshot_id, [])))
                parent = snap.parent[:12] if snap.parent else "-"
                trained = (
                    f"{snap.train_events}ev"
                    if snap.train_events is not None
                    else "?"
                )
                print(
                    f"  {snap.snapshot_id[:12]}  seq={snap.seq:<3d} "
                    f"kind={snap.kind:<12s} parent={parent:<12s} "
                    f"train={trained:<9s} "
                    + (f"[{refs}]" if refs else "")
                    + (f" {snap.note}" if snap.note else "")
                )
    except (RegistryError, SerializationError, FileNotFoundError) as exc:
        return _fail(str(exc))
    return 0


def _cmd_store_info(args: argparse.Namespace) -> int:
    from repro.ras.columnar import ColumnarBackend, StoreDirError

    try:
        backend = ColumnarBackend(args.path)
    except StoreDirError as exc:
        raise _CliError(f"cannot open store {args.path}: {exc}") from exc
    mib = backend.disk_bytes() / (1024 * 1024)
    print(f"columnar store {args.path}:")
    print(f"  rows: {len(backend)}")
    print(f"  time-sorted: {backend.time_sorted}")
    print(f"  segments: {len(backend.segments)}")
    print(f"  committed column bytes: {mib:.1f} MiB")
    if len(backend) and backend.time_sorted:
        times = backend.column("times")
        span = int(times[-1]) - int(times[0])
        print(f"  span: {span / 86_400:.1f} days "
              f"({int(times[0])} .. {int(times[-1])})")
    for name in ("locations", "entries", "subcats"):
        print(f"  {name}: {len(backend.table(name).strings)} interned strings")
    if args.fingerprint:
        from repro.cache import store_fingerprint
        from repro.ras.store import EventStore

        store = EventStore.from_backend(backend)
        print(f"  fingerprint: {store_fingerprint(store)}")
    return 0


def _cmd_store_convert(args: argparse.Namespace) -> int:
    from repro.ras.columnar import ColumnarWriter, StoreDirError, write_store

    src_columnar = is_columnar_dir(args.src)
    if not src_columnar and not os.path.isfile(args.src):
        raise _CliError(f"no such log file or store directory: {args.src}")
    to = args.to or ("log" if src_columnar else "columnar")
    if args.chunk < 1:
        raise _CliError(f"--chunk must be >= 1, got {args.chunk}")
    t0 = time.monotonic()
    try:
        if to == "columnar":
            if src_columnar:
                store = open_store(args.src)
                n = len(store)
                write_store(store, args.dst, chunk_events=args.chunk)
            else:
                # True streaming parse: the text log never materializes.
                n = 0
                with ColumnarWriter(args.dst) as writer:
                    buf: list = []
                    for ev in iter_log_lines(args.src, errors="skip"):
                        buf.append(ev)
                        if len(buf) >= args.chunk:
                            n += writer.append_events(buf)
                            buf.clear()
                    n += writer.append_events(buf)
        else:
            source = open_store(args.src) if src_columnar else read_log(
                args.src, errors="skip"
            )
            n = write_log(source, args.dst, dialect=LogDialect(args.dialect))
    except StoreDirError as exc:
        raise _CliError(f"cannot open store {args.src}: {exc}") from exc
    print(
        f"converted {args.src} -> {args.dst} ({to}): {n} events "
        f"({time.monotonic() - t0:.1f}s)"
    )
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    if args.store_command == "info":
        return _cmd_store_info(args)
    return _cmd_store_convert(args)


def cmd_report(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.evaluation.report import cdf_chart, comparison_table, sweep_chart
    from repro.predictors.statistical import failure_gap_cdf

    _, result = _load_events(args)
    events = result.events
    windows = [float(x) * MINUTE for x in args.windows.split(",")]
    rw = args.rule_window * MINUTE

    print(f"events: {len(events)}  failures: {len(events.fatal_events())}\n")

    grid = np.array([m * MINUTE for m in (5, 10, 15, 20, 30, 45, 60, 90, 120)],
                    dtype=float)
    _, cdf = failure_gap_cdf(events, grid)
    print(cdf_chart(grid, cdf, title="Failure-gap CDF (paper Figure 2)"))
    print()

    rb = RuleBasedPredictor(rule_window=rw).fit(events)
    print(f"Association rules (paper Figure 3), G={args.rule_window:g} min:")
    print(rb.ruleset.format_rules(limit=10))
    print(f"failures without precursors: {rb.no_precursor_fraction:.1%}\n")

    rows = {}
    for method in ("statistical", "rule", "meta"):
        cv = cross_validate(
            _make_spec(method, args, args.prediction_window),
            events, k=args.folds,
            jobs=args.jobs, cache_dir=args.cache_dir,
            incremental=args.incremental,
        )
        rows[method] = (cv.precision, cv.recall)
    print(comparison_table(
        rows, title=f"Method comparison, W={args.prediction_window:g} min "
                    f"({args.folds}-fold CV)"))
    print()

    meta_spec = _make_spec("meta", args, args.prediction_window)
    points = sweep(
        meta_spec.grid("prediction_window", windows),
        events, k=args.folds,
        jobs=args.jobs, cache_dir=args.cache_dir,
        incremental=args.incremental,
    )
    print(sweep_chart(points, title="Meta-learner sweep (paper Figure 5)"))
    print()
    _print_metrics_section()
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    import numpy as np

    from repro.evaluation.export import (
        write_category_csv,
        write_cdf_csv,
        write_sweep_csv,
    )
    from repro.predictors.statistical import failure_gap_cdf

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _, result = _load_events(args)
    events = result.events

    grid = np.array(
        [m * MINUTE for m in (5, 10, 15, 20, 30, 45, 60, 90, 120, 240, 360)],
        dtype=float,
    )
    _, cdf = failure_gap_cdf(events, grid)
    write_cdf_csv(grid, cdf, outdir / "figure2_cdf.csv")

    write_category_csv(
        {"log": category_fatal_counts(events)}, outdir / "table4_categories.csv"
    )

    windows = [float(x) * MINUTE for x in args.windows.split(",")]
    points = sweep(
        _sweep_grid(args, windows),
        events,
        k=args.folds,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        incremental=args.incremental,
    )
    write_sweep_csv(points, outdir / f"sweep_{args.method}.csv")
    print(
        f"wrote figure2_cdf.csv, table4_categories.csv, "
        f"sweep_{args.method}.csv to {outdir}"
    )
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "preprocess": cmd_preprocess,
    "mine": cmd_mine,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "train": cmd_train,
    "watch": cmd_watch,
    "serve-replay": cmd_serve_replay,
    "serve-daemon": cmd_serve_daemon,
    "emit": cmd_emit,
    "model": cmd_model,
    "store": cmd_store,
    "report": cmd_report,
    "export": cmd_export,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Every command runs under a live :class:`MetricsRegistry`, so commands
    can print a ``metrics`` section; ``--emit-metrics PATH`` additionally
    writes the full JSON snapshot when the command finishes.
    """
    args = _build_parser().parse_args(argv)
    backend = getattr(args, "store_backend", None)
    if backend:
        os.environ["REPRO_STORE_BACKEND"] = backend
    registry = MetricsRegistry()
    with use(registry):
        try:
            rc = _COMMANDS[args.command](args)
        except _CliError as exc:
            rc = _fail(str(exc))
    emit_path = getattr(args, "emit_metrics", None)
    if emit_path:
        with open(emit_path, "w", encoding="utf-8") as fh:
            fh.write(to_json(registry))
        print(f"metrics written to {emit_path}")
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
