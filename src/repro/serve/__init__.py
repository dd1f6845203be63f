"""High-throughput serving engine for the fitted meta-learner.

The paper positions the meta-learner as cheap enough to run online; this
package is the deployment-shaped surface for doing that at installation
scale.  It layers four mechanisms, each individually tested for
equivalence with a per-event reference kept under ``tests/``:

- **Batched columnar feed** — :meth:`repro.online.detector.OnlineSession.process_store`
  pushes classified chunks through the one dispatch loop
  (:meth:`repro.meta.stacked.MetaStream.detect`) with hoisted lookups and
  no per-event object construction.
- **Heap-based warning resolution** — :class:`repro.online.resolution.WarningResolver`
  resolves warnings against failures in O(log P) amortized per event.
- **Sharded detector pool** — :class:`repro.serve.pool.DetectorPool` runs one
  independent detector per midplane/job shard, optionally across processes.
- **Live ingestion daemon** — :class:`repro.serve.daemon.IngestDaemon`
  accepts RAS events over an NDJSON line protocol, multiplexes independent
  stream ids onto per-stream pools through bounded queues with explicit
  backpressure, and drains losslessly on SIGTERM.

See ``docs/serving.md`` for the architecture and the equivalence
guarantees, and ``docs/operations.md`` for running the daemon.
"""

from repro.serve.client import EmitReport, StreamTally, emit_events
from repro.serve.daemon import (
    DaemonConfig,
    DrainReport,
    IngestDaemon,
    StreamReport,
)
from repro.serve.pool import DetectorPool, PoolReport, ShardReport
from repro.serve.sharding import SHARD_KEYS, midplane_of, shard_ids, shard_of_key
from repro.serve.streams import StreamChannel, StreamRouter, StreamStats

__all__ = [
    "DaemonConfig",
    "DetectorPool",
    "DrainReport",
    "EmitReport",
    "IngestDaemon",
    "PoolReport",
    "ShardReport",
    "StreamChannel",
    "StreamReport",
    "StreamRouter",
    "StreamStats",
    "StreamTally",
    "SHARD_KEYS",
    "emit_events",
    "midplane_of",
    "shard_ids",
    "shard_of_key",
]
