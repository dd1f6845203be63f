"""Out-of-core columnar store: bounded-memory phase 1 + replay at 10x seed scale.

The seed log (``generate --profile ANL --scale 0.02 --seed 7``) holds 60,453
raw events.  This bench stream-generates an 11-segment log at the same scale
(>= 10x the seed) straight to a columnar store, then runs the full pipeline —
Phase 1 compression, training, and chunked detector-pool replay — in a child
process that only ever memory-maps the store.  The gate is twofold, and the
correctness half comes first (bounded memory is worthless if the streamed
results drift): every result the streaming child reports must be
*bit-identical* to an in-RAM child that materializes the whole store, and the
streaming child's peak RSS must stay under a fixed ceiling regardless of how
large the raw log grows.

Measured here:

- streaming vs in-RAM equivalence: raw/event store fingerprints, unique-event
  counts, and the complete warning stream (SHA-256 over the ordered warning
  keys) must match exactly;
- peak RSS of the streaming child (``ru_maxrss``) against ``RSS_CEILING_MIB``;
- on-disk density of the columnar layout (bytes per row across all columns).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from benchmarks.conftest import report
from repro.synth.profiles import anl_profile
from repro.synth.streaming import stream_generate

#: Rows in the repo's seed log; the bench store must be at least 10x this.
SEED_ROWS = 60_453
SEGMENTS = 11
SCALE = 0.02
SEED = 7
#: Peak-RSS ceiling for the streaming child.  The interpreter plus NumPy
#: alone cost ~60 MiB; the ceiling buys headroom for the (small) unique-event
#: store and detector state while staying far below what materializing a
#: 10x-seed raw log plus batch-mode intermediates would need.
RSS_CEILING_MIB = 512
REPLAY_CHUNK = 4_096

_CHILD = """\
import hashlib
import json
import resource
import sys
from time import perf_counter

from repro.cache import store_fingerprint
from repro.core.pipeline import ThreePhasePredictor
from repro.ras.columnar import open_store
from repro.serve.pool import DetectorPool

path, mode, chunk = sys.argv[1], sys.argv[2], int(sys.argv[3])
raw = open_store(path)
if mode == "inram":
    raw = raw.materialized()
predictor = ThreePhasePredictor()
t0 = perf_counter()
events = predictor.preprocess(raw).events
phase1_s = perf_counter() - t0
predictor.fit(events)
pool = DetectorPool(predictor.meta, shards=4)
replay = pool.replay(events, chunk_events=chunk if mode == "stream" else None)
keys = [
    (w.issued_at, w.horizon_start, w.horizon_end, w.detail)
    for shard in replay.shards
    for w in shard.warnings
]
print(json.dumps({
    "rows": len(raw),
    "raw_fp": store_fingerprint(raw),
    "events_fp": store_fingerprint(events),
    "unique_events": len(events),
    "replayed": replay.events,
    "n_warnings": len(keys),
    "warnings_sha": hashlib.sha256(repr(keys).encode()).hexdigest(),
    "combined_warnings": replay.combined.warnings,
    "precision": replay.combined.precision_so_far,
    "failures": replay.combined.failures,
    "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "phase1_s": phase1_s,
}))
"""


@pytest.fixture(scope="module")
def big_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("columnar-bench") / "store"
    return stream_generate(
        anl_profile(),
        path,
        segments=SEGMENTS,
        scale=SCALE,
        seed=SEED,
        chunk_events=100_000,
    )


def _run_child(path: Path, mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    env.pop("REPRO_STORE_BACKEND", None)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(path), mode, str(REPLAY_CHUNK)],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_streaming_pipeline_matches_in_ram_within_rss_ceiling(big_store):
    assert big_store.rows >= 10 * SEED_ROWS

    stream = _run_child(big_store.path, "stream")
    inram = _run_child(big_store.path, "inram")

    # Correctness gate: the memory-mapped, chunked pipeline must be
    # indistinguishable from the materialized batch pipeline.
    for key in (
        "rows",
        "raw_fp",
        "events_fp",
        "unique_events",
        "replayed",
        "n_warnings",
        "warnings_sha",
        "combined_warnings",
        "precision",
        "failures",
    ):
        assert stream[key] == inram[key], key

    stream_mib = stream["maxrss_kib"] / 1024
    inram_mib = inram["maxrss_kib"] / 1024
    assert stream_mib <= RSS_CEILING_MIB, (
        f"streaming child peaked at {stream_mib:.0f} MiB "
        f"(ceiling {RSS_CEILING_MIB} MiB)"
    )

    report(
        "columnar store — 10x-seed streaming pipeline",
        [
            ("raw rows", f"{big_store.rows:,}", f"(seed {SEED_ROWS:,})"),
            ("unique events", f"{stream['unique_events']:,}", ""),
            ("warnings", stream["n_warnings"], "bit-identical"),
            ("precision", f"{stream['precision']:.4f}", "bit-identical"),
            ("stream peak RSS", f"{stream_mib:.0f} MiB", f"<= {RSS_CEILING_MIB} MiB"),
            ("in-RAM peak RSS", f"{inram_mib:.0f} MiB", ""),
            ("stream phase1_s", f"{stream['phase1_s']:.3f} s", "preprocess(raw)"),
            ("in-RAM phase1_s", f"{inram['phase1_s']:.3f} s", "preprocess(raw)"),
        ],
    )


def test_on_disk_layout_is_dense(big_store):
    manifest = json.loads((big_store.path / "manifest.json").read_text())
    column_bytes = sum(
        (big_store.path / "columns" / f"{name}.bin").stat().st_size
        for name in manifest["columns"]
    )
    per_row = column_bytes / manifest["rows"]
    # 2x int64 + 3x int32 + 2x int8 = 30 bytes per event, no padding.
    assert per_row <= 32.0
    assert manifest["rows"] == big_store.rows
    assert len(manifest["segments"]) == SEGMENTS

    report(
        "columnar store — on-disk layout",
        [
            ("rows", f"{manifest['rows']:,}", f"{len(manifest['segments'])} segments"),
            ("column bytes", f"{column_bytes:,}", f"{per_row:.1f} B/row"),
        ],
    )
