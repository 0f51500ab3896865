"""Tests for QueryServer's stateful sessions: eviction, coalescing, resume."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.delta import RescaleDelta, ToleranceDelta
from repro.core.problem import RankingProblem
from repro.core.ranking import Ranking
from repro.data.relation import Relation
from repro.service.server import QueryServer, QueryServerOptions

FAST = {
    "cell_size": 0.25,
    "max_iterations": 4,
    "solver_options": {"node_limit": 40, "verify": False, "warm_start_strategy": "none"},
}


def make_problem(seed: int = 3, n: int = 12) -> RankingProblem:
    rng = np.random.default_rng(seed)
    relation = Relation.from_matrix(rng.uniform(size=(n, 3)))
    scores = relation.matrix() @ np.array([0.5, 0.3, 0.2])
    order = np.argsort(-scores)[:4]
    return RankingProblem(relation, Ranking.from_ordered_indices(order, n))


def tighten(problem: RankingProblem) -> dict:
    t = problem.tolerances
    return ToleranceDelta(
        tie_eps=t.tie_eps / 2, eps1=t.eps1 / 2, eps2=t.eps2 / 2
    ).to_dict()


def run(coro):
    return asyncio.run(coro)


# -- lifecycle / eviction -----------------------------------------------------------


def test_sessions_evict_least_recently_used():
    async def scenario():
        problem = make_problem()
        options = QueryServerOptions(max_sessions=2)
        async with QueryServer(options=options) as server:
            first = await server.open_session(problem, "symgd", FAST)
            second = await server.open_session(problem, "linear_regression")
            # Touch `first` so `second` becomes the LRU victim.
            await server.submit_session(first)
            third = await server.open_session(problem, "adarank")
            assert server.open_sessions == [first, third]
            stats = server.stats()
            assert stats.sessions_evicted == 1
            assert stats.sessions_opened == 3
            with pytest.raises(ValueError, match="unknown"):
                await server.submit_session(second)
            # Closed sessions also become unknown.
            server.close_session(third)
            with pytest.raises(ValueError):
                server.session_info(third)

    run(scenario())


def test_open_session_validates_method_and_allowlist():
    async def scenario():
        problem = make_problem()
        options = QueryServerOptions(allowed_methods=("linear_regression",))
        async with QueryServer(options=options) as server:
            with pytest.raises(ValueError, match="not served"):
                await server.open_session(problem, "symgd", FAST)
            session_id = await server.open_session(problem, "linear_regression")
            with pytest.raises(ValueError, match="not served"):
                await server.submit_session(session_id, method="tree")
            response = await server.submit_session(session_id)
            assert response.result.error >= 0

    run(scenario())


# -- concurrent edits ---------------------------------------------------------------


def test_concurrent_identical_solves_coalesce():
    async def scenario():
        problem = make_problem()
        async with QueryServer() as server:
            session_id = await server.open_session(problem, "symgd", FAST)
            responses = await asyncio.gather(
                *(server.submit_session(session_id) for _ in range(4))
            )
            coalesced = [r.coalesced for r in responses]
            assert sum(coalesced) == 3, coalesced
            errors = {r.result.error for r in responses}
            assert len(errors) == 1
            # One underlying solve, private result copies per waiter.
            assert server.engine.solver_invocations == 1
            results = [r.result for r in responses]
            assert len({id(r) for r in results}) == len(results)

    run(scenario())


def test_concurrent_edits_serialize_in_arrival_order():
    async def scenario():
        problem = make_problem()
        async with QueryServer() as server:
            session_id = await server.open_session(problem, "symgd", FAST)
            first, second = await asyncio.gather(
                server.submit_session(session_id, deltas=[tighten(problem)]),
                server.submit_session(
                    session_id, deltas=[RescaleDelta(factor=2.0).to_dict()]
                ),
            )
            info = server.session_info(session_id)
            assert info["edits"] == 2
            assert info["solves"] == 2
            # Both edits applied, in order: the head is tighten-then-rescale.
            expected = problem.apply_delta(
                [
                    ToleranceDelta(
                        tie_eps=problem.tolerances.tie_eps / 2,
                        eps1=problem.tolerances.eps1 / 2,
                        eps2=problem.tolerances.eps2 / 2,
                    ),
                    RescaleDelta(factor=2.0),
                ]
            )
            assert info["fingerprint"] == expected.fingerprint()
            assert first.result.error >= 0 and second.result.error >= 0

    run(scenario())


def test_coalescing_still_correct_when_edits_collide():
    """Two racers submitting the same *resulting* state share one solve."""

    async def scenario():
        problem = make_problem()
        async with QueryServer() as server:
            a = await server.open_session(problem, "symgd", FAST)
            b = await server.open_session(problem, "symgd", FAST)
            delta = tighten(problem)
            first, second = await asyncio.gather(
                server.submit_session(a, deltas=[delta]),
                server.submit_session(b, deltas=[delta]),
            )
            # Same base, same delta chain -> composed fingerprints collide
            # across sessions, so the second submit coalesced onto the first.
            assert first.outcome.fingerprint == second.outcome.fingerprint
            assert sum((first.coalesced, second.coalesced)) == 1
            assert server.engine.solver_invocations == 1
            assert np.array_equal(first.result.weights, second.result.weights)

    run(scenario())


# -- serialization / resume ---------------------------------------------------------


def test_session_resume_after_serialization_of_delta_chain():
    async def scenario():
        problem = make_problem()
        async with QueryServer() as server:
            session_id = await server.open_session(problem, "symgd", FAST)
            await server.submit_session(session_id, deltas=[tighten(problem)])
            solved = await server.submit_session(
                session_id, deltas=[RescaleDelta(factor=2.0).to_dict()]
            )
            exported = server.export_session(session_id)
            server.close_session(session_id)

            # The exported form is plain JSON types (wire-safe).
            import json

            exported = json.loads(json.dumps(exported))
            # A key an older export carried (and this version does not
            # read) must not stop the resume.
            exported["retired_flag"] = True

            resumed = await server.resume_session(exported, session_id="back")
            info = server.session_info(resumed)
            assert info["edits"] == 2
            replay = await server.submit_session(resumed)
            # The replayed chain composes the same fingerprints, so the
            # resume is answered from the cache without a new solve.
            assert replay.cache_hit and not replay.coalesced
            assert np.array_equal(replay.result.weights, solved.result.weights)

    run(scenario())


def test_resume_on_fresh_server_solves_cold_but_identically():
    async def scenario():
        problem = make_problem()
        async with QueryServer() as server:
            session_id = await server.open_session(problem, "symgd", FAST)
            solved = await server.submit_session(session_id, deltas=[tighten(problem)])
            exported = server.export_session(session_id)
        async with QueryServer() as fresh:
            resumed = await fresh.resume_session(exported)
            replay = await fresh.submit_session(resumed)
            assert not replay.cache_hit and not replay.coalesced
            assert np.array_equal(replay.result.weights, solved.result.weights)

    run(scenario())


def test_session_stats_reported():
    async def scenario():
        problem = make_problem()
        async with QueryServer() as server:
            session_id = await server.open_session(problem, "symgd", FAST)
            await server.submit_session(session_id)
            await server.submit_session(session_id, deltas=[tighten(problem)])
            stats = server.stats()
            assert stats.sessions_open == 1
            assert (stats.cache["hits"], stats.cache["misses"]) == (0, 2)
            assert stats.solver_invocations == 2
            assert stats.requests == 2

    run(scenario())


def test_query_and_session_edit_share_one_engine_batch():
    """Queries and session edits take one path: the same engine batch."""

    async def scenario():
        problem = make_problem()
        other = make_problem(seed=4)
        async with QueryServer() as server:
            session_id = await server.open_session(other, "symgd", FAST)
            query, edit = await asyncio.gather(
                server.submit(problem, "symgd", dict(FAST)),
                server.submit_session(session_id, deltas=[tighten(other)]),
            )
            return query, edit, server.stats()

    query, edit, stats = run(scenario())
    assert query.outcome.fingerprint != edit.outcome.fingerprint
    assert stats.batches == 1
    assert (query.batch_size, edit.batch_size) == (2, 2)
    assert not query.coalesced and not edit.coalesced


def test_session_edit_and_query_of_one_problem_coalesce():
    """An in-flight equal request is joined whichever path submitted it."""

    async def scenario():
        problem = make_problem()
        async with QueryServer() as server:
            session_id = await server.open_session(problem, "symgd", FAST)
            query, edit = await asyncio.gather(
                server.submit(problem, "symgd", dict(FAST)),
                server.submit_session(session_id),
            )
            return query, edit, server.engine.solver_invocations

    query, edit, invocations = run(scenario())
    assert (query.coalesced, edit.coalesced) == (False, True)
    assert invocations == 1
    assert np.array_equal(query.result.weights, edit.result.weights)


def test_failed_submit_does_not_advance_the_session():
    """Bad per-call params fail BEFORE the delta chain is committed."""

    async def scenario():
        problem = make_problem()
        async with QueryServer() as server:
            session_id = await server.open_session(problem, "symgd", FAST)
            with pytest.raises(ValueError, match="unknown parameter"):
                await server.submit_session(
                    session_id, deltas=[tighten(problem)], params={"bogus": 1}
                )
            info = server.session_info(session_id)
            assert info["edits"] == 0
            assert info["fingerprint"] == problem.fingerprint()
            # A retry with good params applies the edit exactly once.
            await server.submit_session(session_id, deltas=[tighten(problem)])
            assert server.session_info(session_id)["edits"] == 1

    run(scenario())
