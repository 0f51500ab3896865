"""QueryServer: coalescing, micro-batching, caching, stats, lifecycle."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.problem import RankingProblem
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_uniform
from repro.engine import SolveEngine
from repro.loadgen.report import answer_digest
from repro.service import QueryServer, QueryServerOptions

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


def test_duplicate_inflight_queries_are_coalesced():
    problem = build_problem()

    async def scenario():
        async with QueryServer() as server:
            responses = await asyncio.gather(
                *[server.submit(problem, "symgd", FAST_PARAMS) for _ in range(6)]
            )
            return server.engine.solver_invocations, server.stats(), responses

    invocations, stats, responses = asyncio.run(scenario())
    assert invocations == 1  # six identical queries, one solve
    assert stats.requests == 6
    assert stats.coalesced == 5
    errors = {response.result.error for response in responses}
    assert len(errors) == 1


def test_distinct_queries_share_a_batch():
    problems = [build_problem(k=k) for k in (3, 4, 5)]

    async def scenario():
        async with QueryServer() as server:
            responses = await asyncio.gather(
                *[server.submit(p, "symgd", FAST_PARAMS) for p in problems]
            )
            return server.stats(), responses

    stats, responses = asyncio.run(scenario())
    assert stats.requests == 3
    assert stats.coalesced == 0
    assert stats.solver_invocations == 3
    # All three queued before the batch loop woke up: one batch.
    assert stats.batches == 1
    assert all(response.batch_size == 3 for response in responses)


def test_repeated_query_served_from_cache_without_solver():
    problem = build_problem()

    async def scenario():
        async with QueryServer() as server:
            first = await server.submit(problem, "symgd", FAST_PARAMS)
            second = await server.submit(problem, "symgd", FAST_PARAMS)
            return server.engine.solver_invocations, first, second

    invocations, first, second = asyncio.run(scenario())
    assert invocations == 1
    assert not first.cache_hit
    assert second.cache_hit and not second.coalesced
    assert second.result.error == first.result.error


def test_shared_engine_is_not_closed_and_cache_spans_servers():
    problem = build_problem()
    engine = SolveEngine(backend="serial")

    async def run_once():
        async with QueryServer(engine=engine) as server:
            return await server.submit(problem, "symgd", FAST_PARAMS)

    first = asyncio.run(run_once())
    second = asyncio.run(run_once())
    assert not first.cache_hit
    assert second.cache_hit
    assert engine.solver_invocations == 1
    engine.close()


def test_coalesced_responses_do_not_alias_each_other():
    problem = build_problem()

    async def scenario():
        async with QueryServer() as server:
            return await asyncio.gather(
                *[server.submit(problem, "symgd", FAST_PARAMS) for _ in range(3)]
            )

    responses = asyncio.run(scenario())
    responses[0].result.weights[:] = -1.0
    for response in responses[1:]:
        assert np.all(response.result.weights >= 0.0)


def test_submit_racing_stop_is_answered_not_hung():
    problems = [build_problem(k=k) for k in (3, 4, 5)]

    async def scenario():
        server = QueryServer()
        await server.start()
        loop = asyncio.get_running_loop()
        submits = [
            loop.create_task(server.submit(p, "ordinal_regression"))
            for p in problems
        ]
        stop_task = loop.create_task(server.stop())
        # Every query enqueued before stop() flipped the closing flag must
        # still resolve (the loop drains the queue past the sentinel).
        responses = await asyncio.wait_for(asyncio.gather(*submits), timeout=60)
        await stop_task
        # Once stopped, new submissions are rejected instead of hanging.
        with pytest.raises(RuntimeError):
            await server.submit(problems[0], "ordinal_regression")
        return responses

    responses = asyncio.run(scenario())
    assert len(responses) == 3
    assert all(response.result.error >= 0 for response in responses)


def test_submit_requires_started_server():
    server = QueryServer()

    async def scenario():
        with pytest.raises(RuntimeError):
            await server.submit(build_problem(), "symgd", FAST_PARAMS)

    asyncio.run(scenario())


def test_stats_shape_and_wire_format():
    problem = build_problem()

    async def scenario():
        async with QueryServer() as server:
            response = await server.submit(problem, "symgd", FAST_PARAMS)
            return server.stats(), response

    stats, response = asyncio.run(scenario())
    assert stats.requests == 1
    assert stats.wall_time >= 0.0
    assert stats.throughput > 0.0
    assert "hit_rate" in stats.cache
    assert "requests in" in stats.describe()

    wire = response.to_dict()
    assert wire["request_id"] == response.request_id
    assert wire["result"]["error"] == response.result.error
    import json

    json.dumps(wire)  # the whole response must be JSON-clean


def test_any_registered_method_is_served_and_cached():
    """The service front door serves baselines through the same cache path."""
    problem = build_problem()

    async def scenario():
        async with QueryServer() as server:
            first = await server.submit(problem, "linear_regression")
            second = await server.submit(problem, "linear_regression")
            other = await server.submit(problem, "adarank", {"num_rounds": 5})
            return first, second, other

    first, second, other = asyncio.run(scenario())
    assert first.result.method == "linear_regression"
    assert not first.cache_hit
    assert second.cache_hit
    assert other.result.method == "adarank"


def test_allowed_methods_restricts_the_endpoint():
    problem = build_problem()

    async def scenario():
        options = QueryServerOptions(
            allowed_methods=("symgd", "linear_regression")
        )
        async with QueryServer(options=options) as server:
            response = await server.submit(problem, "linear_regression")
            with pytest.raises(ValueError, match="not served"):
                await server.submit(problem, "sampling")
            return response

    response = asyncio.run(scenario())
    assert response.result.method == "linear_regression"


def test_allowed_methods_typo_fails_at_construction():
    with pytest.raises(ValueError, match="registered methods"):
        QueryServer(options=QueryServerOptions(allowed_methods=("symgdd",)))


def test_hot_set_survives_a_restart(tmp_path):
    hot_path = tmp_path / "hot.json"
    options = QueryServerOptions(
        cache_dir=str(tmp_path / "cache"),
        hot_set_path=str(hot_path),
    )

    async def first_run():
        async with QueryServer(options=options) as server:
            session_id = await server.open_session(
                build_problem(), "symgd", FAST_PARAMS
            )
            response = await server.submit_session(session_id)
            assert not response.cache_hit
            return answer_digest(response.result)

    async def second_run():
        async with QueryServer(options=options) as server:
            # stop() on the first server saved the scored hot set; startup
            # promoted it back into memory without touching hit/miss stats.
            assert server._hot_set_loaded >= 1
            assert server.engine.cache.stats.promotions >= 1
            assert server.engine.cache.stats.hits == 0
            session_id = await server.open_session(
                build_problem(), "symgd", FAST_PARAMS
            )
            response = await server.submit_session(session_id)
            assert response.outcome.cache_hit
            return answer_digest(response.result)

    digest_cold = asyncio.run(first_run())
    assert hot_path.exists()
    assert asyncio.run(second_run()) == digest_cold
