"""The headline fault-tolerance invariant: chaos changes nothing but timing.

A seeded load plan (query lanes + a session edit chain) runs twice through
identical two-shard clusters -- once fault-free, once with a fault plan
that kills the session-owning shard mid-run (plus pipe delay/drop faults).
The router restarts the victim, the journal replays its session, the
retry policy carries every lane through, and the bar is absolute: **zero
lost operations, every answer digest bitwise-equal to the fault-free run**.
"""

from __future__ import annotations

import asyncio

from repro.chaos import FaultPlan, FaultSpec
from repro.cluster import ClusterOptions, ClusterRouter
from repro.engine.engine import SolveRequest
from repro.loadgen import build_report
from repro.loadgen.runner import run_closed_loop
from repro.loadgen.users import QueryMixUser, SessionEditUser, build_plan
from repro.service import RetryPolicy

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
RETRY = RetryPolicy(max_retries=1000, base_backoff=0.02, max_backoff=0.2, seed=SEED)


def build_load_plan() -> dict:
    users = [
        QueryMixUser(
            "queries-0", count=8, pool_size=4, params=dict(FAST_PARAMS)
        ),
        QueryMixUser(
            "queries-1", count=8, pool_size=4, params=dict(FAST_PARAMS),
            seed_index=4,
        ),
        SessionEditUser("editor-0", edits=4, params=dict(FAST_PARAMS)),
    ]
    return build_plan(users, seed=SEED)


def make_options() -> ClusterOptions:
    return ClusterOptions(num_shards=2)


async def run_leg(chaos: FaultPlan | None):
    async with ClusterRouter(make_options(), chaos=chaos) as cluster:
        results, wall = await run_closed_loop(
            cluster, build_load_plan(), retry=RETRY
        )
        await cluster.drain()
        stats = await cluster.stats()
        summary = cluster.chaos.summary() if cluster.chaos else None
    return build_report("closed", results, wall, stats), stats, summary


def session_owner() -> int:
    """The shard the editor lane's session will pin to (plan-determined)."""
    plan = build_load_plan()
    opening = plan["editor-0"][0]
    router = ClusterRouter(make_options())
    return router.shard_for(
        SolveRequest(
            opening.problem, opening.method, dict(opening.params)
        ).fingerprint
    )


def test_mid_run_shard_kill_loses_nothing_and_preserves_digests():
    victim = session_owner()
    chaos = FaultPlan(
        [
            # Kill the session-owning shard mid-plan (23 ops total)...
            FaultSpec(kind="kill_shard", at_op=9, shard=victim),
            # ...and pile on pipe noise before and after.
            FaultSpec(kind="drop_message", at_op=4, shard=1 - victim),
            FaultSpec(
                kind="delay_pipe", at_op=14, shard=victim, seconds=0.01
            ),
        ],
        seed=SEED,
    )
    clean_report, clean_stats, _ = asyncio.run(run_leg(None))
    chaos_report, chaos_stats, summary = asyncio.run(run_leg(chaos))

    total_ops = sum(len(ops) for ops in build_load_plan().values())

    # Zero lost operations: every planned op completed in BOTH legs.
    assert clean_report.completed == total_ops
    assert chaos_report.completed == total_ops
    assert chaos_report.errors == 0 and chaos_report.shed == 0

    # Bitwise answer parity, operation by operation.
    assert set(chaos_report.digests) == set(clean_report.digests)
    assert chaos_report.digests == clean_report.digests

    # The faults really fired and the machinery really ran.
    fired = {record["kind"] for record in summary["fired"]}
    assert "kill_shard" in fired and "drop_message" in fired
    assert chaos_stats.restarts[victim] == 1
    assert chaos_stats.restart_log[0]["sessions_replayed"] == 1
    assert chaos_report.retries > 0
    assert chaos_report.backoff_time > 0
    # The clean leg, by contrast, saw none of it.
    assert clean_stats.restarts == [0, 0]
    assert clean_report.retries == 0


def test_solver_fault_and_cache_corruption_still_preserve_parity(tmp_path):
    chaos = FaultPlan(
        [
            FaultSpec(kind="solver_error", at_op=3),
            FaultSpec(kind="corrupt_cache", at_op=12),
        ],
        seed=SEED,
    )

    async def leg(plan, cache_dir):
        options = ClusterOptions(num_shards=2, cache_dir=str(cache_dir))
        async with ClusterRouter(options, chaos=plan) as cluster:
            results, wall = await run_closed_loop(
                cluster, build_load_plan(), retry=RETRY
            )
            await cluster.drain()
            stats = await cluster.stats()
            summary = cluster.chaos.summary() if cluster.chaos else None
        return build_report("closed", results, wall, stats), stats, summary

    clean_report, _, _ = asyncio.run(leg(None, tmp_path / "clean"))
    chaos_report, chaos_stats, summary = asyncio.run(
        leg(chaos, tmp_path / "chaos")
    )

    assert chaos_report.completed == clean_report.completed
    assert chaos_report.errors == 0
    assert chaos_report.digests == clean_report.digests
    fired = {record["kind"] for record in summary["fired"]}
    assert "solver_error" in fired
    assert "corrupt_cache" in fired
    # The quarantine counter is wired through cluster totals (a corrupted
    # entry is only *counted* when something re-reads it, so the exact
    # value is workload-dependent -- never negative, never an error).
    assert chaos_stats.totals.cache["quarantined"] >= 0
