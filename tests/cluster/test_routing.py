"""Cluster semantics: routing, parity, session pinning, backpressure."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api.registry import get_method
from repro.cluster import ClusterOptions, ClusterRouter, ShardBusyError
from repro.core.delta import RescaleDelta
from repro.core.problem import RankingProblem
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_uniform
from repro.engine.engine import SolveRequest
from repro.loadgen import answer_digest
from repro.scenarios import scenario_problem
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


def build_problem(k: int = 4, seed: int = 1) -> RankingProblem:
    relation = generate_uniform(30, 3, seed=seed)
    scores = relation.matrix() @ np.asarray([0.5, 0.3, 0.2])
    return RankingProblem(relation, ranking_from_scores(scores, k=k))


def make_options(**overrides) -> ClusterOptions:
    return ClusterOptions(**{"num_shards": 2, **overrides})


def test_routing_is_deterministic_and_stable():
    problems = [scenario_problem("tied_scores", i, seed=3) for i in range(8)]
    fingerprints = [
        SolveRequest(p, "symgd", dict(FAST_PARAMS)).fingerprint for p in problems
    ]
    router_a = ClusterRouter(make_options())
    router_b = ClusterRouter(make_options())
    shards_a = [router_a.shard_for(fp) for fp in fingerprints]
    shards_b = [router_b.shard_for(fp) for fp in fingerprints]
    # Same mapping on every router instance (stateless, content-addressed)...
    assert shards_a == shards_b
    # ...repeatable per fingerprint...
    assert shards_a == [router_a.shard_for(fp) for fp in fingerprints]
    # ...and pure arithmetic on the fingerprint, so it survives restarts.
    assert shards_a == [int(fp[:16], 16) % 2 for fp in fingerprints]
    # The mix actually spreads over both shards for this workload.
    assert set(shards_a) == {0, 1}


def test_sharded_answers_match_single_server_bitwise():
    problems = [scenario_problem("heavy_tail", i, seed=5) for i in range(5)]
    stream = [problems[i % len(problems)] for i in range(12)]

    async def run_cluster():
        async with ClusterRouter(make_options()) as cluster:
            responses = [
                await cluster.submit(p, "symgd", FAST_PARAMS) for p in stream
            ]
            stats = await cluster.stats()
        return responses, stats

    async def run_single():
        async with QueryServer() as server:
            return [await server.submit(p, "symgd", FAST_PARAMS) for p in stream]

    cluster_responses, stats = asyncio.run(run_cluster())
    single_responses = asyncio.run(run_single())
    # Bitwise-identical answers (wall-clock solve_time is the one field a
    # digest ignores), same fingerprints, in the same stream order.
    for clustered, single in zip(cluster_responses, single_responses):
        assert clustered.fingerprint == single.outcome.fingerprint
        assert answer_digest(clustered.result) == answer_digest(single.result)
    # Both shards served work and the totals add up to the stream.
    assert stats.totals.requests == len(stream)
    assert sum(stats.routed) == len(stream)
    assert all(count > 0 for count in stats.routed)


def test_session_pinning_survives_full_shard_queue():
    base = build_problem()

    async def scenario():
        async with ClusterRouter(make_options(queue_limit=2)) as cluster:
            session_id = await cluster.open_session(base, "symgd", FAST_PARAMS)
            shard = cluster.session_shard(session_id)
            assert session_id.startswith(f"s{shard}-")
            first = await cluster.submit_session(session_id)
            # Saturate the pinned shard's admission queue.
            cluster._pending[shard] = cluster.options.queue_limit
            fingerprint = SolveRequest(
                base, "symgd", dict(FAST_PARAMS)
            ).fingerprint
            assert cluster.shard_for(fingerprint) == shard
            with pytest.raises(ShardBusyError) as excinfo:
                await cluster.submit(base, "symgd", FAST_PARAMS)
            assert excinfo.value.shard == shard
            assert excinfo.value.retry_after == cluster.options.retry_after
            # The pinned session still gets through -- and to the SAME shard.
            pinned = await cluster.submit_session(session_id)
            cluster._pending[shard] = 0
            stats = await cluster.stats()
            return first, pinned, shard, stats

    first, pinned, shard, stats = asyncio.run(scenario())
    assert pinned.shard == shard
    assert pinned.cache_hit  # no edits: the head is already solved there
    assert answer_digest(pinned.result) == answer_digest(first.result)
    assert stats.sessions_pinned == 1


def test_backpressure_sheds_are_visible_in_stats_and_metrics():
    problem = build_problem()

    async def scenario():
        from repro.obs.export import parse_prometheus

        async with ClusterRouter(make_options(queue_limit=1)) as cluster:
            await cluster.submit(problem, "symgd", FAST_PARAMS)
            fingerprint = SolveRequest(
                problem, "symgd", dict(FAST_PARAMS)
            ).fingerprint
            shard = cluster.shard_for(fingerprint)
            cluster._pending[shard] = 1
            for _ in range(3):
                with pytest.raises(ShardBusyError):
                    await cluster.submit(problem, "symgd", FAST_PARAMS)
            cluster._pending[shard] = 0
            stats = await cluster.stats()
            samples = parse_prometheus(await cluster.export_metrics_prometheus())
            return shard, stats, samples

    shard, stats, samples = asyncio.run(scenario())
    assert stats.totals.shed == 3
    assert stats.shed[shard] == 3
    assert stats.totals.requests == 1  # sheds never reached a shard
    shed_key = ("repro_cluster_shed_total", (("shard", str(shard)),))
    assert samples[shed_key] == 3.0
    retry_key = ("repro_cluster_retry_after_seconds", ())
    assert samples[retry_key] == pytest.approx(0.05)


def test_session_lifecycle_export_resume_and_close():
    base = build_problem()
    deltas = None

    async def scenario():
        async with ClusterRouter(make_options()) as cluster:
            session_id = await cluster.open_session(base, "symgd", FAST_PARAMS)
            await cluster.submit_session(session_id, deltas=deltas)
            exported = await cluster.export_session(session_id)
            info = await cluster.session_info(session_id)
            await cluster.close_session(session_id)
            with pytest.raises(ValueError):
                cluster.session_shard(session_id)
            resumed = await cluster.resume_session(exported)
            # Re-pinned by base fingerprint: same shard as the original.
            assert cluster.session_shard(resumed) == int(
                session_id[1 : session_id.index("-")]
            )
            response = await cluster.submit_session(resumed)
            return info, response

    info, response = asyncio.run(scenario())
    assert info["solves"] == 1
    assert response.cache_hit  # the resumed head was solved before


def test_failed_session_solve_commits_nothing(monkeypatch):
    """A solve that raises leaves shard and journal without the edit."""
    base = build_problem()
    delta = RescaleDelta(factor=2.0).to_dict()
    adapter = get_method("symgd")
    synthesize = adapter.synthesize_resolved
    failures = []

    def raise_once(*args, **kwargs):
        if not failures:
            failures.append(True)
            raise RuntimeError("injected solver failure")
        return synthesize(*args, **kwargs)

    async def scenario(fail: bool):
        async with ClusterRouter(make_options()) as cluster:
            session_id = await cluster.open_session(base, "symgd", FAST_PARAMS)
            shard = cluster.shards[cluster.session_shard(session_id)]
            committed = None
            if fail:
                monkeypatch.setattr(adapter, "synthesize_resolved", raise_once)
                with pytest.raises(RuntimeError, match="injected"):
                    await cluster.submit_session(session_id, deltas=[delta])
                committed = (
                    shard.session_info(session_id)["edits"],
                    len(cluster._session_journal[session_id]["deltas"]),
                )
            # The client's retry re-sends the same deltas.
            response = await cluster.submit_session(session_id, deltas=[delta])
            return committed, response, shard.session_info(session_id)

    committed, retried, retried_info = asyncio.run(scenario(fail=True))
    assert failures == [True]
    assert committed == (0, 0)
    _, clean, clean_info = asyncio.run(scenario(fail=False))
    assert retried_info["edits"] == clean_info["edits"] == 1
    assert retried_info["fingerprint"] == clean_info["fingerprint"]
    assert retried.fingerprint == clean.fingerprint
    assert answer_digest(retried.result) == answer_digest(clean.result)
