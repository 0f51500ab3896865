"""Graceful shutdown: drain(), waiter-drop regression, profile flushing."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.problem import RankingProblem
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_uniform
from repro.obs import MetricsRegistry, Observability, WorkloadRecorder
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


def test_drain_waits_for_inflight_and_keeps_serving():
    problems = [build_problem(k=k) for k in (3, 4, 5)]

    async def scenario():
        async with QueryServer() as server:
            tasks = [
                asyncio.ensure_future(server.submit(p, "symgd", FAST_PARAMS))
                for p in problems
            ]
            await asyncio.sleep(0)  # let the submissions enqueue
            await server.drain()
            # Drain means *answered*: every submit future is already done.
            assert all(task.done() for task in tasks)
            assert not server._inflight
            # And unlike stop(), the server still serves afterwards.
            response = await server.submit(problems[0], "symgd", FAST_PARAMS)
            return [await task for task in tasks], response

    responses, extra = asyncio.run(scenario())
    assert len(responses) == 3
    assert extra.cache_hit

    # Idempotent on an idle server.
    async def idle():
        async with QueryServer(options=QueryServerOptions()) as server:
            await server.drain()
            await server.drain()

    asyncio.run(idle())


def test_cancelled_batch_loop_fails_waiters_instead_of_hanging():
    """Regression: a dying batch loop used to drop coalesced waiters forever."""

    async def scenario():
        server = QueryServer(options=QueryServerOptions())
        await server.start()
        await asyncio.sleep(0)  # let the loop task reach its queue await
        loop = asyncio.get_running_loop()
        waiter = loop.create_future()
        server._inflight["deadbeef"] = waiter
        server._loop_task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await server._loop_task
        # The waiter resolved loudly (RuntimeError), not silently dropped.
        assert waiter.done()
        with pytest.raises(RuntimeError, match="batch loop terminated"):
            waiter.result()
        server._loop_task = None
        await server.stop()

    asyncio.run(scenario())


def test_stop_fails_stale_waiters():
    async def scenario():
        server = QueryServer(options=QueryServerOptions())
        await server.start()
        loop = asyncio.get_running_loop()
        stale = loop.create_future()
        # A waiter that no batch will ever resolve (e.g. orphaned by a
        # crashed session task) must still get an answer on stop().
        server._inflight["cafef00d"] = stale
        await server.stop()
        assert stale.done()
        with pytest.raises(RuntimeError, match="QueryServer stopped"):
            stale.result()

    asyncio.run(scenario())


def test_drain_flushes_profile_jsonl(tmp_path):
    profile_path = tmp_path / "workload.jsonl"
    problem = build_problem()

    async def scenario():
        obs = Observability(
            metrics=MetricsRegistry(),
            profile=WorkloadRecorder(path=profile_path),
        )
        server = QueryServer(options=QueryServerOptions(), obs=obs)
        await server.start()
        await server.submit(problem, "symgd", FAST_PARAMS)
        await server.drain()
        # Flushed mid-lifetime: the line is on disk while the server runs.
        lines = profile_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        await server.submit(problem, "symgd", FAST_PARAMS)
        await server.stop()
        obs.close()

    asyncio.run(scenario())
    # Complete after stop: both requests present, every line valid JSON.
    records = [
        json.loads(line)
        for line in profile_path.read_text(encoding="utf-8").splitlines()
    ]
    assert len(records) == 2
    assert records[1]["cache_hit"] is True
