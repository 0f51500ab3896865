"""Request deadlines: pre-solve shedding, queue-expiry, iteration budgets."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.core.delta import RescaleDelta
from repro.core.problem import RankingProblem
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_uniform
from repro.obs.export import parse_prometheus
from repro.service import DeadlineExceededError, QueryServer

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


def hold_first_batch(server: QueryServer) -> threading.Event:
    """Make the engine's first batch wait until the returned event is set.

    The batch loop solves on a worker thread, so a held batch keeps the
    loop busy while later requests queue up behind it.
    """
    release = threading.Event()
    solve_batch = server.engine.solve_batch
    calls = []

    def held(requests, contexts=None):
        calls.append(len(requests))
        if len(calls) == 1:
            release.wait(timeout=30)
        return solve_batch(requests, contexts)

    server.engine.solve_batch = held
    return release


async def until_solving(server: QueryServer) -> None:
    """Wait until the batch loop has taken everything queued so far."""
    while not server._queue.empty() or not server._inflight:
        await asyncio.sleep(0.001)


def test_expired_deadline_is_shed_before_solving():
    problem = build_problem()

    async def scenario():
        async with QueryServer() as server:
            with pytest.raises(DeadlineExceededError) as excinfo:
                await server.submit(problem, "symgd", FAST_PARAMS, deadline=0.0)
            assert excinfo.value.retryable is True
            stats = server.stats()
            metrics = parse_prometheus(server.export_metrics_prometheus())
            return server.engine.solver_invocations, stats, metrics

    invocations, stats, metrics = asyncio.run(scenario())
    assert invocations == 0  # the solver never ran
    assert stats.deadline_exceeded == 1
    assert stats.requests == 0  # shed at intake, never admitted
    key = ("repro_service_deadline_exceeded_total", ())
    assert metrics[key] == 1.0


def test_generous_deadline_does_not_change_the_answer():
    problem = build_problem()

    async def scenario():
        async with QueryServer() as server:
            free = await server.submit(problem, "symgd", FAST_PARAMS)
            bounded = await server.submit(
                problem, "symgd", FAST_PARAMS, deadline=30.0
            )
            return free, bounded, server.stats()

    free, bounded, stats = asyncio.run(scenario())
    # Same fingerprint (the deadline is serving metadata, not request
    # identity) and the bounded call is served from cache -- bitwise parity.
    assert bounded.outcome.fingerprint == free.outcome.fingerprint
    assert bounded.cache_hit
    assert stats.deadline_exceeded == 0


def test_deadline_expires_while_queued_behind_a_solving_batch():
    blocker, problem = build_problem(seed=1), build_problem(seed=2)

    async def scenario():
        async with QueryServer() as server:
            release = hold_first_batch(server)
            first = asyncio.ensure_future(
                server.submit(blocker, "symgd", FAST_PARAMS)
            )
            await until_solving(server)
            doomed = asyncio.ensure_future(
                server.submit(problem, "symgd", FAST_PARAMS, deadline=0.01)
            )
            # The deadline lapses while the request waits for the loop.
            await asyncio.sleep(0.05)
            release.set()
            with pytest.raises(DeadlineExceededError):
                await doomed
            await first
            return server.stats()

    stats = asyncio.run(scenario())
    assert stats.deadline_exceeded == 1
    assert stats.solver_invocations == 1  # only the blocker was solved


def test_session_edit_is_answered_after_its_deadline_lapses_in_the_queue():
    """Committed edits are never shed: the queue has no session deadline."""
    blocker, problem = build_problem(seed=1), build_problem(seed=2)

    async def scenario():
        async with QueryServer() as server:
            session_id = await server.open_session(problem, "symgd", FAST_PARAMS)
            release = hold_first_batch(server)
            first = asyncio.ensure_future(
                server.submit(blocker, "symgd", FAST_PARAMS)
            )
            await until_solving(server)
            edit = asyncio.ensure_future(
                server.submit_session(
                    session_id,
                    deltas=[RescaleDelta(factor=2.0).to_dict()],
                    deadline=0.01,
                )
            )
            await asyncio.sleep(0.05)
            release.set()
            response = await edit
            await first
            return response, server.session_info(session_id), server.stats()

    response, info, stats = asyncio.run(scenario())
    assert response.result is not None
    assert info["edits"] == 1
    assert stats.deadline_exceeded == 0


def test_session_deadline_sheds_before_committing_deltas():
    problem = build_problem()

    async def scenario():
        async with QueryServer() as server:
            session_id = await server.open_session(problem, "symgd", FAST_PARAMS)
            delta = RescaleDelta(factor=2.0).to_dict()
            with pytest.raises(DeadlineExceededError):
                await server.submit_session(
                    session_id, deltas=[delta], deadline=0.0
                )
            info = server.session_info(session_id)
            # The expired call never touched the session: a retry with a
            # fresh budget applies the edit exactly once.
            response = await server.submit_session(
                session_id, deltas=[delta], deadline=30.0
            )
            return info, response, server.stats()

    info, response, stats = asyncio.run(scenario())
    assert info["edits"] == 0
    assert stats.deadline_exceeded == 1
    assert response.result is not None
