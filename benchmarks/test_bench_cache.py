"""Cache eviction benchmark: the cost x frequency rule against recency.

Replays one deterministic skewed request stream -- a small hot set re-hit
every round plus a flood of one-shot "scan" problems sized to exceed the
cache capacity -- through a capacity-8 ``QueryServer`` and writes the
numbers to ``.bench/BENCH_cache.json`` (see ``conftest.write_baseline``).
Two references run over the same stream:

* ``lru_reference`` -- :func:`repro.testing.simulate_lru` over the served
  fingerprints: plain recency, where every scan round flushes the hot set;
* ``no_eviction`` -- the same replay at a capacity no smaller than the
  stream, which never evicts.

The assertions are the eviction rule's two invariants, not wall-clock:

* the served hit rate is **strictly** higher than the recency reference's
  at equal capacity (scan one-offs evict themselves as the lowest-scored
  entries, so the hot set stays resident);
* every answer digest is **bitwise-identical** to the non-evicting replay
  (``answer_digest`` strips only the wall-clock ``solve_time``) -- eviction
  decides retention, never answers.

p50/p95 request latency is recorded in the baseline for the perf
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
from repro.obs.profile import ProfileRecord, WorkloadProfile
from repro.service import QueryServer, QueryServerOptions
from repro.testing import simulate_lru

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
SCANS_PER_ROUND = 8  # >= capacity: one scan round flushes a recency cache


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


async def _replay(capacity: int, stream) -> dict:
    options = QueryServerOptions(cache_capacity=capacity)
    latencies = []
    digests = {}
    fingerprints = []
    started = time.perf_counter()
    async with QueryServer(options=options) as server:
        for label, problem in stream:
            t0 = time.perf_counter()
            response = await server.submit(problem, "symgd", PARAMS)
            latencies.append(time.perf_counter() - t0)
            digests[label] = answer_digest(response.result)
            fingerprints.append(response.outcome.fingerprint)
        cache = server.engine.stats()["cache"]
    wall = time.perf_counter() - started
    latencies.sort()

    def pct(q: float) -> float:
        return latencies[min(len(latencies) - 1, int(q * (len(latencies) - 1)))]

    return {
        "capacity": capacity,
        "digests": digests,
        "fingerprints": fingerprints,
        "hits": cache["hits"],
        "misses": cache["misses"],
        "evictions": cache["evictions"],
        "p50": pct(0.50),
        "p95": pct(0.95),
        "wall": wall,
    }


def _lru_reference(fingerprints: list[str]) -> dict:
    profile = WorkloadProfile(
        [ProfileRecord(0.0, "", fingerprint, "symgd") for fingerprint in fingerprints]
    )
    hits = sum(simulate_lru(profile, CACHE_CAPACITY))
    return {
        "capacity": CACHE_CAPACITY,
        "hits": hits,
        "misses": len(fingerprints) - hits,
        "wall": 0.0,
    }


def _record(name: str, leg: dict, operations: int) -> ExperimentRecord:
    extra = {
        "hit_rate": round(leg["hits"] / operations, 4),
        "hits": leg["hits"],
        "misses": leg["misses"],
    }
    if "evictions" in leg:
        extra.update(
            evictions=leg["evictions"],
            p50_ms=round(leg["p50"] * 1e3, 3),
            p95_ms=round(leg["p95"] * 1e3, 3),
        )
    return ExperimentRecord(
        experiment="cache_eviction",
        dataset="skewed_replay",
        method=name,
        params={
            "capacity": leg["capacity"],
            "hot_problems": HOT_PROBLEMS,
            "rounds": ROUNDS,
            "scans_per_round": SCANS_PER_ROUND,
            "operations": operations,
        },
        time_seconds=leg["wall"],
        extra=extra,
    )


def test_cache_eviction_bench(benchmark):
    stream = _build_stream()

    def experiment():
        served = asyncio.run(_replay(CACHE_CAPACITY, stream))
        unbounded = asyncio.run(_replay(len(stream), stream))
        return served, unbounded

    served, unbounded = benchmark.pedantic(experiment, rounds=1, iterations=1)
    lru = _lru_reference(served["fingerprints"])

    operations = len(stream)
    records = [
        _record("served", served, operations),
        _record("lru_reference", lru, operations),
        _record("no_eviction", unbounded, operations),
    ]
    print()
    print(
        ascii_table(
            records,
            title=f"Cache eviction replay: {operations} ops, "
            f"capacity {CACHE_CAPACITY}",
        )
    )
    path = write_baseline("cache", records)

    # -- eviction never changes an answer, bitwise -------------------------
    assert unbounded["evictions"] == 0
    assert served["fingerprints"] == unbounded["fingerprints"]
    mismatched = [
        label
        for label in served["digests"]
        if served["digests"][label] != unbounded["digests"][label]
    ]
    assert not mismatched, f"eviction changed answers for {mismatched}"

    # -- the score strictly beats recency on this stream -------------------
    # The recency reference's only hits are the immediate same-round
    # revisits: every scan round flushes its hot set, so each new round
    # re-solves it.  The score keeps the hot set resident across rounds.
    assert served["evictions"] > 0
    assert served["hits"] > lru["hits"], (
        f"served {served['hits']}/{operations} hits, not above the "
        f"recency reference's {lru['hits']}/{operations}"
    )

    # -- the baseline file round-trips ------------------------------------
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert len(payload["records"]) == 3
