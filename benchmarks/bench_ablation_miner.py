"""Ablation — Apriori vs the mining engine's one-shot fill.

The paper mines with Apriori and cites FP-growth [15] as an alternative.
The repo mines with one engine: a NumPy tid-list kernel that grows every
itemset from its largest item one level at a time, which a one-shot fit
fills from empty.  Apriori is kept as the test oracle
(``tests/oracles.py``).  This bench checks that both
mine identical itemsets on the real workload and compares their cost as the
support threshold drops, where Apriori's candidate generation blows up.
"""

import time

import pytest

from benchmarks.conftest import report
from repro.mining.incremental import IncrementalMiner
from repro.mining.transactions import build_event_sets
from repro.util.timeutil import MINUTE
from tests.oracles import apriori


def engine(transactions, min_support):
    """One-shot fit: the engine filled from empty."""
    miner = IncrementalMiner()
    miner.add(transactions)
    return miner.itemsets(min_support)


@pytest.fixture(scope="module")
def transactions(anl_bench_events):
    db = build_event_sets(anl_bench_events, rule_window=30 * MINUTE)
    return db.transactions()


@pytest.mark.parametrize("miner_name", ["apriori", "engine"])
@pytest.mark.parametrize("min_support", [0.04, 0.01])
def test_ablation_miner_cost(miner_name, min_support, transactions, benchmark):
    miner = apriori if miner_name == "apriori" else engine
    result = benchmark(lambda: miner(transactions, min_support))
    assert result  # something mined


def test_ablation_miners_identical_output(transactions, benchmark):
    def run():
        out = {}
        for s in (0.04, 0.02, 0.01):
            t0 = time.perf_counter()
            a = apriori(transactions, s)
            ta = time.perf_counter() - t0
            t0 = time.perf_counter()
            e = engine(transactions, s)
            te = time.perf_counter() - t0
            assert a == e, f"miner divergence at support {s}"
            out[s] = (len(a), ta, te)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("min_support", "itemsets", "apriori (s)", "engine (s)")]
    for s, (n, ta, te) in out.items():
        rows.append((s, n, round(ta, 4), round(te, 4)))
    report("Ablation — miner cost, identical outputs", rows)
