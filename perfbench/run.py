"""The repository benchmark: one workload per run, one JSON line of results.

Usage, from the repository root::

    python3 perfbench/run.py --workload offline-anl --seed 1 --seconds 20 --trace 0

Workloads are ``offline-anl`` (text log to settled ledger),
``daemon-ingest`` (open-loop wire load on a ``serve-daemon`` child) and
``lifecycle-retrain`` (``LifecycleManager.run`` with incremental retrains).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` re-runs the
workload's calls into each layer under a span recorder and prints the
per-layer metrics.  The last line of standard output is the JSON result;
``perfbench/README.md`` documents every metric.

``--tiny`` shrinks every input for a self-test, and ``--corrupt-reference``
replaces the workload's correctness reference with a wrong one, so the run
must report failures (see ``perfbench/selftest.py``).
"""

from __future__ import annotations

import argparse
import os
import sys

import common

WORKLOADS = ("offline-anl", "daemon-ingest", "lifecycle-retrain")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test input sizes")
    parser.add_argument(
        "--corrupt-reference", action="store_true",
        help="check against a wrong reference (self-test of fail accounting)",
    )
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"error: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    env = common.pin_environment()
    sys.path.insert(0, common.SRC)
    trace = bool(args.trace)

    if args.workload == "offline-anl":
        import offline_anl as workload
    elif args.workload == "daemon-ingest":
        import daemon_ingest as workload
    else:
        import lifecycle_retrain as workload
    cfg = workload.TINY if args.tiny else workload.CONFIG
    try:
        outcome = workload.run(
            args.seed, args.seconds, trace, args.corrupt_reference, cfg=cfg, env=env
        )
    finally:
        try:
            os.rmdir(common.WORK_ROOT)
        except OSError:
            pass
    return common.emit(outcome, trace)


if __name__ == "__main__":
    sys.exit(main())
