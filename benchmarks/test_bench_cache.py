"""Cache-policy benchmark: plain LRU vs cost-aware eviction, same workload.

Replays one deterministic skewed request stream -- a small hot set re-hit
every round plus a flood of one-shot "scan" problems sized to exceed the
cache capacity -- through two otherwise-identical ``QueryServer``s and
writes the numbers to ``.bench/BENCH_cache.json`` (see
``conftest.write_baseline``):

* ``lru`` -- the default eviction: every scan round flushes the hot set,
  so hot requests miss on every revisit;
* ``cost`` -- the cost x frequency scorer (``cache_policy="cost"``): scan
  one-offs self-evict as the lowest-scored entries and the hot set stays
  resident.

The assertions are the two policy-layer invariants, not wall-clock:

* the adaptive policy's serving hit rate is **strictly** higher than
  LRU's on this stream at equal capacity;
* every answer digest is **bitwise-identical** across the two legs
  (``answer_digest`` strips only the wall-clock ``solve_time``) -- the
  policy decides retention, never answers.

Per-leg p50/p95 request latency is recorded in the baseline for the perf
trajectory but not asserted (CI containers are noisy).
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np

from conftest import write_baseline

from repro.bench.reporting import ExperimentRecord, ascii_table
from repro.core.problem import RankingProblem
from repro.core.ranking import Ranking
from repro.data.relation import Relation
from repro.loadgen.report import answer_digest
from repro.service import QueryServer, QueryServerOptions

PARAMS = {
    "cell_size": 0.25,
    "max_iterations": 3,
    "solver_options": {
        "node_limit": 50,
        "verify": False,
        "warm_start_strategy": "none",
    },
}

CACHE_CAPACITY = 8
HOT_PROBLEMS = 6
ROUNDS = 4
SCANS_PER_ROUND = 8  # >= capacity: one scan round evicts LRU's whole hot set


def _problem(seed: int, n: int) -> RankingProblem:
    rng = np.random.default_rng(seed)
    relation = Relation.from_matrix(rng.uniform(size=(n, 3)))
    scores = relation.matrix() @ np.array([0.5, 0.3, 0.2])
    order = np.argsort(-scores)[:4]
    return RankingProblem(relation, Ranking.from_ordered_indices(order, n))


def _build_stream() -> list[tuple[str, RankingProblem]]:
    """(label, problem) ops: hot keys revisited twice per round, scans once.

    Hot problems are larger than scan problems, so their recorded recompute
    cost dominates; together with the doubled per-round frequency that keeps
    their eviction score above any fresh one-shot.
    """
    hot = [_problem(100 + index, n=16) for index in range(HOT_PROBLEMS)]
    stream: list[tuple[str, RankingProblem]] = []
    for round_index in range(ROUNDS):
        for index, problem in enumerate(hot):
            stream.append((f"r{round_index}-hot{index}-a", problem))
            stream.append((f"r{round_index}-hot{index}-b", problem))
        for index in range(SCANS_PER_ROUND):
            scan_seed = 1000 + round_index * SCANS_PER_ROUND + index
            stream.append((f"r{round_index}-scan{index}", _problem(scan_seed, n=10)))
    return stream


async def _replay(policy: str, stream) -> dict:
    options = QueryServerOptions(
        batch_window=0.0, cache_capacity=CACHE_CAPACITY, cache_policy=policy
    )
    latencies = []
    digests = {}
    started = time.perf_counter()
    async with QueryServer(options=options) as server:
        for label, problem in stream:
            t0 = time.perf_counter()
            response = await server.submit(problem, "symgd", PARAMS)
            latencies.append(time.perf_counter() - t0)
            digests[label] = answer_digest(response.result)
        cache = server.engine.stats()["cache"]
    wall = time.perf_counter() - started
    latencies.sort()

    def pct(q: float) -> float:
        return latencies[min(len(latencies) - 1, int(q * (len(latencies) - 1)))]

    lookups = cache["hits"] + cache["misses"]
    return {
        "policy": policy,
        "digests": digests,
        "cache": cache,
        "hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "p50": pct(0.50),
        "p95": pct(0.95),
        "wall": wall,
    }


def _record(leg: dict, operations: int) -> ExperimentRecord:
    return ExperimentRecord(
        experiment="cache_policy",
        dataset="skewed_replay",
        method=leg["policy"],
        params={
            "capacity": CACHE_CAPACITY,
            "hot_problems": HOT_PROBLEMS,
            "rounds": ROUNDS,
            "scans_per_round": SCANS_PER_ROUND,
            "operations": operations,
        },
        time_seconds=leg["wall"],
        extra={
            "hit_rate": round(leg["hit_rate"], 4),
            "hits": leg["cache"]["hits"],
            "misses": leg["cache"]["misses"],
            "evictions": leg["cache"]["evictions"],
            "p50_ms": round(leg["p50"] * 1e3, 3),
            "p95_ms": round(leg["p95"] * 1e3, 3),
        },
    )


def test_cache_policy_bench(benchmark):
    stream = _build_stream()

    def experiment():
        lru = asyncio.run(_replay("lru", stream))
        cost = asyncio.run(_replay("cost", stream))
        return lru, cost

    lru, cost = benchmark.pedantic(experiment, rounds=1, iterations=1)

    records = [_record(lru, len(stream)), _record(cost, len(stream))]
    print()
    print(
        ascii_table(
            records,
            title=f"Cache policy replay: {len(stream)} ops, "
            f"capacity {CACHE_CAPACITY}",
        )
    )
    path = write_baseline("cache", records)

    # -- answers are policy-independent, bitwise --------------------------
    assert set(lru["digests"]) == set(cost["digests"])
    mismatched = [
        label
        for label in lru["digests"]
        if lru["digests"][label] != cost["digests"][label]
    ]
    assert not mismatched, f"policy changed answers for {mismatched}"

    # -- the adaptive policy strictly wins on this stream -----------------
    # LRU's only hits are the immediate same-round revisits: every scan
    # round flushes the hot set, so each new round re-solves it.  The
    # scorer keeps the hot set resident across rounds.
    assert cost["hit_rate"] > lru["hit_rate"], (
        f"cost policy did not beat LRU: "
        f"{cost['hit_rate']:.3f} <= {lru['hit_rate']:.3f}"
    )
    assert cost["cache"]["misses"] < lru["cache"]["misses"]

    # -- the baseline file round-trips ------------------------------------
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert len(payload["records"]) == 2
