"""``offline-anl``: the analyst's batch job, text log to settled ledger.

Set-up writes a REPRO-dialect text log of the ANL profile.  One job reads
it (``read_log``), runs Phase 1 (classify, temporal and spatial
compression), 10-fold cross-validates the meta spec, fits ``MetaLearner``
on the head, predicts the tail, replays the tail through a one-shard
``DetectorPool`` in small chunks and settles a cost-aware ``ActionEngine``
ledger.  The job repeats until the run's time is spent; ``wall_s`` is the
median job.

Correctness, every repetition: the parsed log fingerprints equal to the
generator's records; the benchmark's own Phase 1 equals
``PreprocessPipeline.run``; the chunked one-shard replay equals
``MetaLearner.predict`` element for element; every repetition settles the
same ledger digest.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from time import perf_counter

import common
from spans import OFF, Tracer


@dataclass(frozen=True)
class Config:
    #: Generator scale of the ANL log, and the records the log keeps (the
    #: earliest ones), so every seed parses the same amount of text.
    scale: float = 0.03
    rows: int = 64_000
    #: Folds of the cross-validation (the paper's 10-fold CV).
    folds: int = 10
    #: Replay chunk in events; its latency is the workload's latency sample.
    replay_chunk: int = 16
    #: The job runs at least this many times per run.
    min_repeats: int = 8


CONFIG = Config()
#: Self-test size: same path, a fraction of the data.
TINY = Config(scale=0.004, rows=8_000, folds=3, min_repeats=2)

#: Phase 1 threshold and key mode, as ``PreprocessPipeline`` defaults them.
THRESHOLD = 300.0
KEY_MODE = "job_location"


def setup(seed: int, workdir: str, cfg: Config) -> tuple[str, str, int]:
    """Generate and write the log; returns (path, reference fingerprint, rows)."""
    from repro.cache.fingerprint import store_fingerprint
    from repro.ras.logfile import write_log
    from repro.ras.store import EventStore

    raw = common.generate_anl(seed, cfg.scale).raw
    raw = raw.select(slice(0, min(cfg.rows, len(raw))))
    path = os.path.join(workdir, "anl.log")
    write_log(iter(raw), path)
    # Intern tables follow first appearance, so the reference re-interns
    # the generator's records in row order, as parsing the file does.
    reference = store_fingerprint(EventStore.from_events_in_memory(iter(raw)))
    return path, reference, len(raw)


def _same_warnings(a, b) -> bool:
    key = lambda w: (  # noqa: E731
        w.issued_at, w.horizon_start, w.horizon_end, w.source, w.detail, w.confidence
    )
    return len(a) == len(b) and all(key(x) == key(y) for x, y in zip(a, b))


def job(path: str, cfg: Config, t=OFF) -> dict:
    """One analyst job; returns its outputs and per-chunk latencies."""
    from repro.actions import ActionEngine, CostModel, build_policy
    from repro.evaluation.crossval import cross_validate
    from repro.evaluation.spec import PredictorSpec
    from repro.preprocess.compression import spatial_compress, temporal_compress
    from repro.ras.logfile import read_log
    from repro.serve import DetectorPool
    from repro.taxonomy.classifier import TaxonomyClassifier

    spec = PredictorSpec.meta()
    classifier = TaxonomyClassifier()
    t.wrap(classifier, "classify_store", "taxonomy.classify_store", len)
    sized = lambda s, *a, **k: len(s)  # noqa: E731
    latencies = []
    pending_max = 0
    with t.span("offline-anl.job"):
        t0 = perf_counter()
        raw = t.fn("ras.logfile.read_log", read_log)(path)
        labeled = classifier.classify_store(raw)
        compressed, _ = t.fn("preprocess.temporal_compress", temporal_compress, sized)(
            labeled, THRESHOLD, key_mode=KEY_MODE
        )
        events, _ = t.fn("preprocess.spatial_compress", spatial_compress, sized)(
            compressed, THRESHOLD
        )
        cv = t.fn("evaluation.cross_validate", cross_validate, lambda p, e, **k: len(e))(
            spec, events, k=cfg.folds, jobs=1, incremental=False
        )
        cut = len(events) // 2
        head = events.select(slice(0, cut))
        test = events.select(slice(cut, len(events)))
        meta = spec.build()
        t.wrap(meta, "fit", "meta.fit", len)
        t.wrap(meta, "predict", "meta.predict", len)
        meta.fit(head)
        predicted = meta.predict(test)
        pool = DetectorPool(meta, shards=1)
        engine = ActionEngine(build_policy("cost-aware"), CostModel())
        t.wrap(pool, "process_store", "serve.pool.process_store", len)
        t.wrap(pool, "finish", "serve.pool.finish")
        t.wrap(engine, "observe_store", "actions.observe_store", sized)
        t.wrap(engine, "finalize", "actions.finalize")
        select = t.fn("ras.store.select", test.select)
        replayed = []
        for lo in range(0, len(test), cfg.replay_chunk):
            c0 = perf_counter()
            chunk = select(slice(lo, lo + cfg.replay_chunk))
            warnings = pool.process_store(chunk)
            engine.observe_store(chunk, warnings)
            latencies.append(perf_counter() - c0)
            replayed.extend(warnings)
            if t.enabled:
                pending_max = max(pending_max, pool.pending_count)
        pool.finish()
        ledger = engine.finalize()
        wall = perf_counter() - t0
    return {
        "wall": wall,
        "raw": raw,
        "events": events,
        "cv": cv,
        "predicted": predicted,
        "replayed": replayed,
        "ledger": ledger,
        "latencies": latencies,
        "pending_max": pending_max,
    }


def verify(out: dict, reference_fp: str, outcome: common.Outcome, first: dict) -> None:
    """One repetition's correctness checks (outside the timed region)."""
    from repro.cache.fingerprint import store_fingerprint
    from repro.preprocess.pipeline import PreprocessPipeline

    fp = store_fingerprint(out["raw"])
    outcome.check("parsed log == generator records", fp == reference_fp, fp[:12])
    if "phase1" not in first:
        first["phase1"] = store_fingerprint(PreprocessPipeline().run(out["raw"]).events)
    outcome.check(
        "benchmark Phase 1 == PreprocessPipeline.run",
        store_fingerprint(out["events"]) == first["phase1"],
    )
    outcome.check(
        "one-shard replay == MetaLearner.predict",
        _same_warnings(out["replayed"], out["predicted"]),
        f"{len(out['replayed'])} warnings",
    )
    digest = out["ledger"].digest()
    first.setdefault("digest", digest)
    outcome.check("ledger digest repeats", digest == first["digest"], digest[:12])


def run(seed: int, seconds: float, trace: bool, corrupt: bool, cfg: Config = CONFIG, env=None) -> common.Outcome:
    outcome = common.Outcome("offline-anl")
    workdir = common.make_workdir("offline-anl", seed)
    setups, factors = [], []
    for _ in range(common.SETUP_REPEATS):
        ((path, reference_fp, rows), seconds_taken), k = common.calibrated(
            lambda: common.timed(setup, seed, workdir, cfg)
        )
        setups.append(seconds_taken * k)
    if corrupt:
        reference_fp = "corrupted-reference"

    tracer = Tracer(f"offline-anl-seed{seed}") if trace else None
    first: dict = {}
    walls, traced_walls, latencies = [], [], []
    pending_max = 0
    deadline = perf_counter() + seconds
    while len(walls) < cfg.min_repeats or perf_counter() < deadline:
        out, k = common.calibrated(lambda: job(path, cfg))
        factors.append(k)
        walls.append(out["wall"] * k)
        latencies.extend(x * k for x in out["latencies"])
        outcome.attempted += 1
        verify(out, reference_fp, outcome, first)
        if tracer is not None:
            # An identical traced job after each untraced one: the pairs
            # give the tracing overhead, the spans the per-layer table.
            traced, k = common.calibrated(lambda: job(path, cfg, tracer))
            traced_walls.append(traced["wall"] * k)
            pending_max = max(pending_max, traced["pending_max"])

    wall = common.median(walls)
    p, tail_value = common.tail(latencies, cfg.min_repeats * len(out["latencies"]))
    events = len(out["events"])
    outcome.note(
        f"log: {rows} raw records at scale {cfg.scale}, seed {seed}; "
        f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    outcome.note(
        f"{len(walls)} jobs, median {wall:.4f} s at nominal speed (machine speed "
        f"factor {common.median(factors):.3f}); {events} unique events; "
        f"CV precision {out['cv'].precision:.3f} recall {out['cv'].recall:.3f}"
    )
    outcome.note(
        f"latency: {len(latencies)} replay chunks of {cfg.replay_chunk} events; "
        f"tail is p{p:g}"
    )
    outcome.end_to_end.update(
        wall_s=wall,
        throughput_eps=rows / wall,
        latency_p50_ms=common.percentile(latencies, 50) * 1e3,
        latency_tail_ms=tail_value * 1e3,
        peak_rss_mib=common.peak_rss_self_mib(),
        setup_s=common.median(setups),
    )
    if tracer is not None:
        layers(outcome, tracer, rows, events, out["ledger"], pending_max, walls, traced_walls)
        tracer.write(os.path.join(common.OUT_ROOT, f"trace-offline-anl-seed{seed}.json"))
    shutil.rmtree(workdir, ignore_errors=True)
    return outcome


def layers(outcome, tracer, rows, events, ledger, pending_max, walls, traced_walls) -> None:
    """Per-layer metrics from the traced jobs (averaged per job)."""
    table = tracer.layer_table()
    jobs = len(traced_walls)
    wall = tracer.roots_wall()
    s = lambda name: table.get(name, {}).get("self_s", 0.0) / jobs  # noqa: E731
    per_unit = lambda name: common.per_unit_us(table, name)  # noqa: E731
    settled = ledger.settled
    outcome.layers.update({
        "ras.logfile.read_s": s("ras.logfile.read_log"),
        "taxonomy.classify_store_s": s("taxonomy.classify_store"),
        "taxonomy.classify_us_per_event": per_unit("taxonomy.classify_store"),
        "preprocess.temporal_s": s("preprocess.temporal_compress"),
        "preprocess.spatial_s": s("preprocess.spatial_compress"),
        "preprocess.kept_ratio": events / rows,
        "evaluation.cv_s": s("evaluation.cross_validate"),
        "meta.fit_s": s("meta.fit"),
        "meta.predict_us_per_event": per_unit("meta.predict"),
        "serve.pool.process_us_per_event": per_unit("serve.pool.process_store"),
        "serve.pool.replay_s": s("serve.pool.process_store") + s("serve.pool.finish"),
        "online.pending_max": float(pending_max),
        "actions.observe_us_per_event": per_unit("actions.observe_store"),
        "actions.finalize_ms": s("actions.finalize") * 1e3,
        "actions.hit_ratio": ledger.outcomes.get("hit", 0) / settled if settled else 0.0,
        "trace.unattributed_ratio": table["offline-anl.job"]["self_s"] / wall,
        "trace.overhead_ratio": common.median(traced_walls) / common.median(walls) - 1.0,
    })
    outcome.layer_table = table
    outcome.traced_wall_s = wall
