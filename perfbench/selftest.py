"""Self-test of the benchmark at a tiny scale.

Runs every workload untraced and traced with ``--tiny`` and checks that
each run is correct and prints exactly the metrics ``BENCHMARK.json``
names, each with its unit.  Then runs each workload against a corrupted
correctness reference and checks that the failures are counted, and runs
the benchmark from a directory holding only ``BENCHMARK.json`` and
``perfbench/``, where it must fail without printing a result.

Usage, from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import common
from run import WORKLOADS


def run(args: list[str], cwd: str = common.ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    contract = common.load_contract()
    problems = []
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "1", "--seconds", "2", "--tiny"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run(base + ["--trace", str(trace)])
            if code != 0:
                problems.append(f"{workload} trace={trace}: exit {code}")
                continue
            res = result(out)
            want = {m["name"]: m["unit"] for m in contract[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} trace={trace}: not correct ({res['failed']} failed)")
            print(f"ok   {workload} trace={trace}: {len(got)} metrics, attempted {res['attempted']}")
        code, out = run(base + ["--trace", "0", "--corrupt-reference"])
        res = result(out) if code == 0 else {}
        if res.get("failed", 0) == 0 or res.get("correct", True):
            problems.append(f"{workload}: corrupted reference not detected")
        else:
            print(f"ok   {workload} corrupted reference: fail_ratio "
                  f"{res['failed'] / res['attempted']:.4f}")

    bare = os.path.join(common.WORK_ROOT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(common.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
    code, out = run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(common.WORK_ROOT, ignore_errors=True)
    if code == 0 or out.strip():
        problems.append(f"bare directory: exit {code}, printed {out.strip()[:80]!r}")
    else:
        print(f"ok   bare directory: exit {code}, no result")

    for line in problems:
        print(f"FAIL {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
