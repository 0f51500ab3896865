"""Serving benchmark: sharded cluster vs single server under a real load mix.

Drives one seeded workload plan -- stochastic query lanes over scenario
families plus a session edit chain, built by :mod:`repro.loadgen` -- through
three serving legs and writes the numbers to ``.bench/BENCH_service.json``
(see ``conftest.write_baseline``):

* ``single/closed`` -- one ``QueryServer``, closed loop: the correctness
  baseline every other leg is compared against;
* ``cluster/closed`` -- a 2-shard ``ClusterRouter`` (inproc transport),
  same plan, closed loop: **answers must be bitwise-identical** to the
  single-server baseline (``answer_digest`` strips only the wall-clock
  ``solve_time``);
* ``cluster/open`` -- the same cluster behind an open-loop firehose with a
  deliberately tiny admission queue: overload must be **shed, not queued**
  -- sheds are visible in the report and the per-shard pending depth never
  exceeds the admission bound.

Each leg records exact p50/p95/p99 latency, sustained QPS, hit rate, shed
count, and per-shard balance.  Wall-clock numbers are recorded but not
perf-asserted (CI containers are noisy); the assertions are the two
serving-semantics invariants above plus basic accounting.
"""

from __future__ import annotations

import asyncio
import json

from conftest import write_baseline

from repro.bench.reporting import ExperimentRecord, ascii_table
from repro.cluster import ClusterOptions, ClusterRouter
from repro.loadgen import (
    QueryMixUser,
    SessionEditUser,
    build_plan,
    build_report,
    run_closed_loop,
    run_open_loop,
)
from repro.service import QueryServer

FAST_PARAMS = {
    "cell_size": 0.2,
    "max_iterations": 4,
    "solver_options": {
        "node_limit": 60,
        "verify": False,
        "warm_start_strategy": "none",
    },
}

SEED = 7
NUM_SHARDS = 2
QUERY_LANES = 2
OPS_PER_LANE = 8
POOL_SIZE = 3
SESSION_EDITS = 3
OVERLOAD_QUEUE_LIMIT = 1
OVERLOAD_RATE = 400.0


def _users() -> list:
    users = [
        QueryMixUser(
            f"queries-{lane}",
            count=OPS_PER_LANE,
            pool_size=POOL_SIZE,
            params=dict(FAST_PARAMS),
            mean_gap=0.002,
            seed_index=lane * POOL_SIZE,
        )
        for lane in range(QUERY_LANES)
    ]
    users.append(
        SessionEditUser(
            "editor-0",
            family="tied_scores",
            index=0,
            edits=SESSION_EDITS,
            params=dict(FAST_PARAMS),
            mean_gap=0.002,
        )
    )
    return users


def _cluster_options(**overrides) -> ClusterOptions:
    return ClusterOptions(**{"num_shards": NUM_SHARDS, **overrides})


async def _leg_single_closed(plan):
    async with QueryServer() as server:
        results, wall = await run_closed_loop(server, plan)
    return build_report("closed", results, wall)


async def _leg_cluster_closed(plan):
    async with ClusterRouter(_cluster_options()) as cluster:
        results, wall = await run_closed_loop(cluster, plan)
        await cluster.drain()
        stats = await cluster.stats()
    return build_report("closed", results, wall, stats), stats


async def _leg_cluster_open(plan):
    options = _cluster_options(
        queue_limit=OVERLOAD_QUEUE_LIMIT, retry_after=0.01
    )
    async with ClusterRouter(options) as cluster:
        results, wall = await run_open_loop(cluster, plan, rate=OVERLOAD_RATE)
        await cluster.drain()
        stats = await cluster.stats()
    return build_report("open", results, wall, stats), stats


def _record(leg: str, report, stats=None) -> ExperimentRecord:
    extra = {
        "qps": round(report.qps, 2),
        "p50_ms": round(report.latency["p50"] * 1e3, 3),
        "p95_ms": round(report.latency["p95"] * 1e3, 3),
        "p99_ms": round(report.latency["p99"] * 1e3, 3),
        "hit_rate": round(report.hit_rate, 4),
        "shed": report.shed,
        "errors": report.errors,
        "retries": report.retries,
        "balance": "/".join(
            str(report.per_shard[key]) for key in sorted(report.per_shard)
        ),
    }
    if stats is not None:
        extra["peak_queue_depth"] = max(stats.peak_queue_depth)
    return ExperimentRecord(
        experiment="service_load",
        dataset="scenario_mix",
        method=leg,
        params={
            "seed": SEED,
            "shards": 1 if leg.startswith("single") else NUM_SHARDS,
            "operations": report.operations,
        },
        time_seconds=report.wall_time,
        extra=extra,
    )


def test_service_load_bench(benchmark):
    plan = build_plan(_users(), seed=SEED)
    n_operations = sum(len(ops) for ops in plan.values())

    def experiment():
        single = asyncio.run(_leg_single_closed(plan))
        clustered, closed_stats = asyncio.run(_leg_cluster_closed(plan))
        overload, open_stats = asyncio.run(_leg_cluster_open(plan))
        return single, clustered, closed_stats, overload, open_stats

    single, clustered, closed_stats, overload, open_stats = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    records = [
        _record("single/closed", single),
        _record("cluster/closed", clustered, closed_stats),
        _record("cluster/open-overload", overload, open_stats),
    ]
    print()
    print(
        ascii_table(
            records,
            title=f"Serving under load: {NUM_SHARDS}-shard cluster vs single "
            f"server ({n_operations} ops)",
        )
    )
    path = write_baseline("service", records)

    # -- every closed leg answered the whole plan -----------------------------
    for report in (single, clustered):
        assert report.operations == n_operations
        assert report.completed == n_operations
        assert report.errors == 0 and report.shed == 0
        assert report.qps > 0

    # -- (a) the cluster is bitwise-equal to the single server ----------------
    # Same plan, same seed: every solving operation's answer digest (result
    # JSON minus wall-clock solve_time) must match, operation for operation.
    assert set(clustered.digests) == set(single.digests)
    mismatched = [
        key
        for key in single.digests
        if clustered.digests[key] != single.digests[key]
    ]
    assert not mismatched, f"cluster answers diverged for {mismatched}"
    # And the work really was spread over both shards.
    assert len(clustered.per_shard) == NUM_SHARDS
    assert all(count > 0 for count in clustered.per_shard.values())

    # -- (b) open-loop overload sheds with bounded queue depth ----------------
    assert overload.shed > 0, "overload leg never tripped admission control"
    assert overload.retries == 0  # open loop drops, never retries
    assert overload.errors == 0  # sheds are explicit, not failures
    # The admission bound holds: per-shard pending depth never exceeded the
    # queue limit plus the one in-flight pinned session op that bypasses
    # admission (but still counts toward depth).
    assert max(open_stats.peak_queue_depth) <= OVERLOAD_QUEUE_LIMIT + 1
    assert open_stats.totals.shed == overload.shed
    # Sessions are pinned past admission: every session op still landed.
    session_ops = [k for k in single.digests if k.startswith("editor-")]
    assert all(key in overload.digests for key in session_ops)

    # -- the baseline file round-trips ----------------------------------------
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert len(payload["records"]) == 3
