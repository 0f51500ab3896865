"""Demo: load-test a sharded serving cluster and prove parity with one server.

Walks the whole :mod:`repro.cluster` + :mod:`repro.loadgen` loop:

1. build one seeded workload plan -- two stochastic query lanes over
   adversarial scenario families plus an interactive session-edit chain;
2. drive it closed-loop through a single :class:`~repro.service.QueryServer`
   (the correctness baseline);
3. drive the *same plan* through a 2-shard :class:`~repro.cluster.ClusterRouter`
   and check every answer digest matches the baseline bitwise;
4. drive it open-loop (scheduled arrivals, no retries) against a deliberately
   tiny admission queue to show overload being shed -- explicitly, with a
   retry-after signal -- instead of queued without bound;
5. print the merged cluster-wide Prometheus exposition tail.

Run with::

    PYTHONPATH=src python examples/cluster_loadtest.py
"""

from __future__ import annotations

import asyncio

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

SEED = 11
SYMGD_PARAMS = {
    "cell_size": 0.2,
    "max_iterations": 4,
    "solver_options": {
        "node_limit": 60,
        "verify": False,
        "warm_start_strategy": "none",
    },
}


def build_workload():
    users = [
        QueryMixUser(
            f"queries-{lane}",
            count=10,
            pool_size=4,
            params=dict(SYMGD_PARAMS),
            mean_gap=0.002,
            seed_index=lane * 4,
        )
        for lane in range(2)
    ]
    users.append(
        SessionEditUser(
            "editor-0",
            family="tied_scores",
            edits=4,
            params=dict(SYMGD_PARAMS),
            mean_gap=0.002,
        )
    )
    return build_plan(users, seed=SEED)


async def main() -> None:
    plan = build_workload()
    total = sum(len(ops) for ops in plan.values())
    print(f"Workload plan: {total} ops across {len(plan)} lanes (seed {SEED})")

    print("\n-- leg 1: single server, closed loop (baseline) --")
    async with QueryServer() as server:
        results, wall = await run_closed_loop(server, plan)
    baseline = build_report("closed", results, wall)
    print("  " + baseline.describe())

    print("\n-- leg 2: 2-shard cluster, closed loop (same plan) --")
    options = ClusterOptions(num_shards=2)
    async with ClusterRouter(options) as cluster:
        results, wall = await run_closed_loop(cluster, plan)
        await cluster.drain()
        stats = await cluster.stats()
        prometheus = await cluster.export_metrics_prometheus()
    clustered = build_report("closed", results, wall, stats)
    print("  " + clustered.describe())

    mismatched = [
        key
        for key, digest in baseline.digests.items()
        if clustered.digests.get(key) != digest
    ]
    if mismatched:
        raise SystemExit(f"PARITY FAILURE: answers diverged for {mismatched}")
    print(
        f"  parity: all {len(baseline.digests)} answer digests identical "
        "to the single server (solve_time excluded)"
    )

    print("\n-- leg 3: open-loop firehose against queue_limit=1 --")
    options = ClusterOptions(
        num_shards=2,
        queue_limit=1,
        retry_after=0.01,
    )
    async with ClusterRouter(options) as cluster:
        results, wall = await run_open_loop(cluster, plan, rate=400.0)
        await cluster.drain()
        stats = await cluster.stats()
    overload = build_report("open", results, wall, stats)
    print("  " + overload.describe())
    print(
        f"  shed {overload.shed}/{overload.operations} "
        f"(peak queue depth {max(stats.peak_queue_depth)}, "
        f"bound {options.queue_limit} + 1 pinned session op) -- "
        "overload is rejected with retry-after, never queued unbounded"
    )

    print("\n-- cluster-wide Prometheus exposition (router series) --")
    for line in prometheus.splitlines():
        if line.startswith("repro_cluster_") and "latency" not in line:
            print("  " + line)


if __name__ == "__main__":
    asyncio.run(main())
