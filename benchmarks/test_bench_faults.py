"""Fault-tolerance benchmark: crash recovery under load, warm vs cold.

Runs one seeded workload plan (two query lanes plus a session edit chain)
through three two-shard cluster legs and writes the numbers to
``.bench/BENCH_faults.json`` (see ``conftest.write_baseline``):

* ``warmup`` -- fault-free, with a shared disk cache tier and per-shard
  hot-set persistence; stops cleanly, leaving the tier populated and the
  hot sets saved.  Doubles as the parity reference.
* ``chaos/warm`` -- same plan, same directories, plus a fault plan that
  kills the session-owning shard mid-run.  The router restarts it; the
  fresh worker reloads its persisted hot set from the shared tier and the
  journal replays its session.
* ``chaos/cold`` -- the same fault plan with no disk tier and no hot set:
  the restarted shard comes back empty-handed.

Recorded per chaos leg: recovery time (abort -> serving again,
from the router's restart log), sessions replayed, failovers, retries, and
the restarted shard's post-restart cache hit rate -- the number that shows
what hot-set reload buys over a cold restart.  Wall-clock values are
recorded but not perf-asserted (CI containers are noisy); the asserted
invariants are zero lost operations and bitwise answer parity across all
three legs, plus warm post-restart hit rate >= cold.
"""

from __future__ import annotations

import asyncio
import json

from conftest import write_baseline

from repro.bench.reporting import ExperimentRecord, ascii_table
from repro.chaos import FaultPlan, FaultSpec
from repro.cluster import ClusterOptions, ClusterRouter
from repro.engine.engine import SolveRequest
from repro.loadgen import (
    QueryMixUser,
    SessionEditUser,
    build_plan,
    build_report,
    run_closed_loop,
)
from repro.service import QueryServerOptions, RetryPolicy

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
KILL_AT_OP = 13  # mid-plan (25 ops total)
RETRY = RetryPolicy(
    max_retries=1000, base_backoff=0.02, max_backoff=0.2, seed=SEED
)


def _users() -> list:
    users = [
        QueryMixUser(
            f"queries-{lane}",
            count=10,
            pool_size=4,
            params=dict(FAST_PARAMS),
            seed_index=lane * 4,
        )
        for lane in range(2)
    ]
    users.append(
        SessionEditUser(
            "editor-0",
            family="tied_scores",
            index=0,
            edits=4,
            params=dict(FAST_PARAMS),
        )
    )
    return users


def _options(cache_dir=None, hot_set_path=None) -> ClusterOptions:
    return ClusterOptions(
        num_shards=NUM_SHARDS,
        cache_dir=str(cache_dir) if cache_dir else None,
        server=QueryServerOptions(
            hot_set_path=str(hot_set_path) if hot_set_path else None,
        ),
    )


def _victim() -> int:
    """The session-owning shard, fixed by the plan before anything runs."""
    opening = build_plan(_users(), seed=SEED)["editor-0"][0]
    return ClusterRouter(_options()).shard_for(
        SolveRequest(
            opening.problem, opening.method, dict(opening.params)
        ).fingerprint
    )


async def _leg(options: ClusterOptions, chaos: FaultPlan | None):
    async with ClusterRouter(options, chaos=chaos) as cluster:
        results, wall = await run_closed_loop(
            cluster, build_plan(_users(), seed=SEED), retry=RETRY
        )
        await cluster.drain()
        stats = await cluster.stats()
    return build_report("closed", results, wall, stats), stats


def _shard_hit_rate(stats, shard: int) -> float:
    cache = stats.per_shard[shard].cache
    lookups = cache["hits"] + cache["misses"]
    return cache["hits"] / lookups if lookups else 0.0


def _record(leg: str, report, stats, victim: int) -> ExperimentRecord:
    extra = {
        "qps": round(report.qps, 2),
        "p95_ms": round(report.latency["p95"] * 1e3, 3),
        "hit_rate": round(report.hit_rate, 4),
        "errors": report.errors,
        "retries": report.retries,
        "backoff_s": round(report.backoff_time, 4),
        "failovers": report.failovers,
        "restarts": sum(stats.restarts),
        "restarted_shard_hit_rate": round(_shard_hit_rate(stats, victim), 4),
    }
    if stats.restart_log:
        entry = stats.restart_log[0]
        extra["recovery_s"] = round(entry["duration"], 4)
        extra["sessions_replayed"] = entry["sessions_replayed"]
    return ExperimentRecord(
        experiment="fault_tolerance",
        dataset="scenario_mix",
        method=leg,
        params={
            "seed": SEED,
            "shards": NUM_SHARDS,
            "operations": report.operations,
            "kill_at_op": None if leg == "warmup" else KILL_AT_OP,
            "victim_shard": victim,
        },
        time_seconds=report.wall_time,
        extra=extra,
    )


def test_fault_recovery_bench(benchmark, tmp_path):
    victim = _victim()
    chaos_plan = FaultPlan(
        [FaultSpec(kind="kill_shard", at_op=KILL_AT_OP, shard=victim)],
        seed=SEED,
    )
    warm_dir = tmp_path / "tier"
    warm_hot = tmp_path / "hotset.json"

    def experiment():
        # Warmup: fault-free, populates the shared tier and saves hot sets.
        warmup, warmup_stats = asyncio.run(
            _leg(_options(warm_dir, warm_hot), None)
        )
        # Warm chaos: the restarted shard reloads its hot set from the tier.
        warm, warm_stats = asyncio.run(
            _leg(
                _options(warm_dir, warm_hot),
                FaultPlan.from_dict(chaos_plan.to_dict()),
            )
        )
        # Cold chaos: same kill, nothing persisted to come back to.
        cold, cold_stats = asyncio.run(
            _leg(_options(), FaultPlan.from_dict(chaos_plan.to_dict()))
        )
        return warmup, warmup_stats, warm, warm_stats, cold, cold_stats

    warmup, warmup_stats, warm, warm_stats, cold, cold_stats = (
        benchmark.pedantic(experiment, rounds=1, iterations=1)
    )

    n_operations = sum(len(ops) for ops in build_plan(_users(), seed=SEED).values())
    records = [
        _record("warmup", warmup, warmup_stats, victim),
        _record("chaos/warm", warm, warm_stats, victim),
        _record("chaos/cold", cold, cold_stats, victim),
    ]
    print()
    print(
        ascii_table(
            records,
            title=f"Crash recovery under load: kill shard {victim} at op "
            f"{KILL_AT_OP} of {n_operations} (warm vs cold restart)",
        )
    )
    path = write_baseline("faults", records)

    # -- zero lost operations, every leg ---------------------------------------
    for report in (warmup, warm, cold):
        assert report.operations == n_operations
        assert report.completed == n_operations
        assert report.errors == 0 and report.shed == 0

    # -- bitwise parity: chaos changed nothing but timing ----------------------
    assert warm.digests == warmup.digests
    assert cold.digests == warmup.digests

    # -- the crash and recovery actually happened ------------------------------
    for stats in (warm_stats, cold_stats):
        assert stats.restarts[victim] == 1
        assert stats.restart_log[0]["sessions_replayed"] == 1
        assert stats.restart_log[0]["duration"] > 0
    assert warmup_stats.restarts == [0] * NUM_SHARDS

    # -- hot-set reload beats a cold restart on the recovered shard ------------
    assert _shard_hit_rate(warm_stats, victim) >= _shard_hit_rate(
        cold_stats, victim
    )

    # -- the baseline file round-trips -----------------------------------------
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert len(payload["records"]) == 3
