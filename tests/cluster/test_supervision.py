"""Shard crashes: restart, failover, session replay, the restart budget."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.cluster import (
    ClusterOptions,
    ClusterRouter,
    ShardCrashedError,
)
from repro.core.delta import RescaleDelta
from repro.core.problem import RankingProblem
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_uniform
from repro.engine.engine import SolveRequest
from repro.loadgen import answer_digest

FAST_PARAMS = {
    "cell_size": 0.2,
    "max_iterations": 4,
    "solver_options": {
        "node_limit": 60,
        "verify": False,
        "warm_start_strategy": "none",
    },
}


def build_problem(k: int = 4, seed: int = 1) -> RankingProblem:
    relation = generate_uniform(30, 3, seed=seed)
    scores = relation.matrix() @ np.asarray([0.5, 0.3, 0.2])
    return RankingProblem(relation, ranking_from_scores(scores, k=k))


def make_options(**overrides) -> ClusterOptions:
    return ClusterOptions(**{"num_shards": 2, **overrides})


async def wait_until(predicate, timeout: float = 20.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.02)


def owner_of(cluster, problem) -> int:
    return cluster.shard_for(
        SolveRequest(problem, "symgd", dict(FAST_PARAMS)).fingerprint
    )


# -- restart + stateless failover ----------------------------------------------


def test_dead_shard_restarts_and_stateless_traffic_fails_over():
    problems = [build_problem(seed=s) for s in range(1, 7)]

    async def scenario():
        async with ClusterRouter(make_options()) as cluster:
            baseline = {}
            for problem in problems:
                response = await cluster.submit(problem, "symgd", FAST_PARAMS)
                baseline[owner_of(cluster, problem)] = None
                baseline[problem.fingerprint()] = answer_digest(response.result)
            victim = owner_of(cluster, problems[0])
            cluster.kill_shard(victim)
            # Traffic owned by the dead shard is served by the survivor --
            # same answer, flagged as a failover -- with no caller-visible
            # error.
            response = await cluster.submit(problems[0], "symgd", FAST_PARAMS)
            assert response.shard != victim
            assert response.failover
            assert (
                answer_digest(response.result)
                == baseline[problems[0].fingerprint()]
            )
            await wait_until(lambda: cluster._routable(victim))
            # Post-restart: the shard serves again, bitwise-identically.
            again = await cluster.submit(problems[0], "symgd", FAST_PARAMS)
            assert again.shard == victim
            assert not again.failover
            assert (
                answer_digest(again.result)
                == baseline[problems[0].fingerprint()]
            )
            stats = await cluster.stats()
            return victim, stats

    victim, stats = asyncio.run(scenario())
    assert stats.restarts[victim] == 1
    assert stats.failovers[victim] >= 1
    assert not stats.dead[victim]
    assert len(stats.restart_log) == 1
    entry = stats.restart_log[0]
    assert entry["shard"] == victim
    assert entry["duration"] > 0


# -- session journal replay ----------------------------------------------------


def test_pinned_session_survives_shard_crash_via_journal_replay():
    base = build_problem()
    deltas = [RescaleDelta(factor=2.0).to_dict()]
    more = [RescaleDelta(factor=0.5).to_dict()]

    async def reference():
        # The fault-free answer chain the recovered session must reproduce.
        async with ClusterRouter(make_options(num_shards=1)) as cluster:
            session_id = await cluster.open_session(base, "symgd", FAST_PARAMS)
            first = await cluster.submit_session(session_id, deltas=deltas)
            second = await cluster.submit_session(session_id, deltas=more)
            return answer_digest(first.result), answer_digest(second.result)

    async def scenario():
        async with ClusterRouter(make_options()) as cluster:
            session_id = await cluster.open_session(base, "symgd", FAST_PARAMS)
            shard = cluster.session_shard(session_id)
            first = await cluster.submit_session(session_id, deltas=deltas)
            cluster.kill_shard(shard)
            # While the owner restarts there is nowhere to fail a pinned
            # session over to: the error says so, and says to retry.
            with pytest.raises(ShardCrashedError) as excinfo:
                await cluster.submit_session(session_id, deltas=more)
            assert excinfo.value.retryable is True
            assert not excinfo.value.terminal
            await wait_until(lambda: cluster._routable(shard))
            # The journaled base + delta chain was replayed into the fresh
            # worker; the retried edit lands on the recovered head.
            second = await cluster.submit_session(session_id, deltas=more)
            assert cluster.session_shard(session_id) == shard
            info = await cluster.session_info(session_id)
            stats = await cluster.stats()
            return (
                answer_digest(first.result),
                answer_digest(second.result),
                info,
                stats,
            )

    ref_first, ref_second = asyncio.run(reference())
    got_first, got_second, info, stats = asyncio.run(scenario())
    assert got_first == ref_first
    assert got_second == ref_second
    assert info["edits"] == 2
    assert stats.restart_log[0]["sessions_replayed"] == 1


# -- calls in flight on a killed shard -----------------------------------------


def test_kill_under_in_flight_calls_loses_their_answers():
    base = build_problem()
    deltas = [RescaleDelta(factor=2.0).to_dict()]

    async def reference():
        async with ClusterRouter(make_options()) as cluster:
            response = await cluster.submit(base, "symgd", FAST_PARAMS)
            session_id = await cluster.open_session(base, "symgd", FAST_PARAMS)
            edited = await cluster.submit_session(session_id, deltas=deltas)
            return answer_digest(response.result), edited.fingerprint

    async def scenario():
        async with ClusterRouter(make_options()) as cluster:
            owner = owner_of(cluster, base)
            session_id = await cluster.open_session(base, "symgd", FAST_PARAMS)
            assert cluster.session_shard(session_id) == owner
            server = cluster.shards[owner]
            held, release = threading.Event(), threading.Event()
            solve_batch = server.engine.solve_batch

            def hold_first_batch(*args):
                if not held.is_set():
                    held.set()
                    release.wait(timeout=30)
                return solve_batch(*args)

            server.engine.solve_batch = hold_first_batch
            query = asyncio.create_task(
                cluster.submit(base, "symgd", FAST_PARAMS)
            )
            edit = asyncio.create_task(
                cluster.submit_session(session_id, deltas=deltas)
            )
            # Both calls are inside the owner, its first batch is solving.
            await wait_until(
                lambda: held.is_set() and len(server._inflight) == 2
            )
            cluster.kill_shard(owner)
            release.set()
            # The killed server still answers both, and the router drops
            # the answers: the query fails over, the edit fails retryably
            # without touching the journal.
            response = await query
            with pytest.raises(ShardCrashedError) as excinfo:
                await edit
            journaled = list(cluster._session_journal[session_id]["deltas"])
            await wait_until(lambda: cluster._routable(owner))
            retried = await cluster.submit_session(session_id, deltas=deltas)
            info = await cluster.session_info(session_id)
            return owner, response, excinfo.value, journaled, retried, info

    ref_digest, ref_head = asyncio.run(reference())
    owner, response, error, journaled, retried, info = asyncio.run(scenario())
    assert response.failover and response.shard != owner
    assert answer_digest(response.result) == ref_digest
    assert error.retryable is True and not error.terminal
    assert journaled == []
    assert retried.fingerprint == ref_head
    assert info["edits"] == 1


def test_kill_during_a_delayed_message_fails_the_query_over():
    problem = build_problem()
    victim = owner_of(ClusterRouter(make_options()), problem)
    delay = FaultSpec(kind="delay_pipe", at_op=1, shard=victim, seconds=0.2)

    async def scenario():
        plan = FaultPlan([delay])
        async with ClusterRouter(make_options(), chaos=plan) as cluster:
            query = asyncio.create_task(
                cluster.submit(problem, "symgd", FAST_PARAMS)
            )
            await asyncio.sleep(0.05)  # the query is waiting out its delay
            cluster.kill_shard(victim)
            return await query

    response = asyncio.run(scenario())
    assert response.failover and response.shard != victim


# -- restart budget ------------------------------------------------------------


def test_restart_budget_exhaustion_is_a_clean_terminal_error():
    problem = build_problem()

    async def scenario():
        async with ClusterRouter(make_options(num_shards=1)) as cluster:
            for _ in range(3):
                cluster.kill_shard(0)
                await wait_until(lambda: cluster._routable(0))
                await cluster.submit(problem, "symgd", FAST_PARAMS)
            # The fourth death finds the budget spent.
            cluster.kill_shard(0)
            with pytest.raises(ShardCrashedError):
                await cluster.submit(problem, "symgd", FAST_PARAMS)
            await wait_until(lambda: cluster._terminal[0])
            with pytest.raises(ShardCrashedError) as excinfo:
                await cluster.submit(problem, "symgd", FAST_PARAMS)
            # Terminal: the budget is spent, retrying cannot help, and the
            # error says so instead of promising recovery.
            assert excinfo.value.terminal
            assert excinfo.value.retryable is False
            stats = await cluster.stats()
            health = await cluster.health()
            return stats, health

    stats, health = asyncio.run(scenario())
    assert stats.restarts[0] == 3
    assert [entry["backoff"] for entry in stats.restart_log] == [0.05, 0.1, 0.2]
    assert stats.dead[0]
    probe = health["per_shard"][0]
    assert probe["ok"] is False and probe["terminal"]


def test_router_restarted_after_stop_revives_a_killed_shard():
    """start() builds fresh servers, so a shard killed before stop() serves."""
    problem = build_problem()

    async def scenario():
        cluster = ClusterRouter(make_options())
        await cluster.start()
        try:
            victim = owner_of(cluster, problem)
            cluster.kill_shard(victim)
            await cluster.stop()
            await cluster.start()
            routable = [cluster._routable(i) for i in range(2)]
            health = await cluster.health()
            response = await cluster.submit(problem, "symgd", FAST_PARAMS)
            return victim, routable, health, response
        finally:
            await cluster.stop()

    victim, routable, health, response = asyncio.run(scenario())
    assert routable == [True, True]
    assert health["per_shard"][victim]["ok"] is True
    assert health["per_shard"][victim]["restarts"] == 0
    assert response.shard == victim
    assert not response.failover


# -- restart observability -----------------------------------------------------


def test_restarts_and_failovers_surface_in_prometheus():
    from repro.obs.export import parse_prometheus

    problem = build_problem()

    async def scenario():
        async with ClusterRouter(make_options()) as cluster:
            victim = owner_of(cluster, problem)
            cluster.kill_shard(victim)
            await cluster.submit(problem, "symgd", FAST_PARAMS)  # failover
            await wait_until(lambda: cluster._routable(victim))
            samples = parse_prometheus(await cluster.export_metrics_prometheus())
            return victim, samples

    victim, samples = asyncio.run(scenario())
    restarts = ("repro_cluster_restarts_total", (("shard", str(victim)),))
    failovers = ("repro_cluster_failovers_total", (("shard", str(victim)),))
    dead = ("repro_cluster_shards_dead", ())
    assert samples[restarts] == 1.0
    assert samples[failovers] >= 1.0
    assert samples[dead] == 0.0
