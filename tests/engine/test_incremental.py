"""Tests for the engine's incremental path: exact cache hit, else cold."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delta import ToleranceDelta
from repro.core.problem import RankingProblem
from repro.core.ranking import Ranking
from repro.data.relation import Relation
from repro.engine.engine import SolveEngine, SolveRequest

SYMGD_OPTS = {
    "cell_size": 0.25,
    "max_iterations": 4,
    "solver_options": {"node_limit": 40, "verify": False, "warm_start_strategy": "none"},
}


@pytest.fixture
def problem() -> RankingProblem:
    rng = np.random.default_rng(5)
    relation = Relation.from_matrix(rng.uniform(size=(14, 3)))
    scores = relation.matrix() @ np.array([0.5, 0.3, 0.2])
    order = np.argsort(-scores)[:4]
    return RankingProblem(relation, Ranking.from_ordered_indices(order, 14))


def tighten(problem: RankingProblem) -> ToleranceDelta:
    t = problem.tolerances
    return ToleranceDelta(tie_eps=t.tie_eps / 2, eps1=t.eps1 / 2, eps2=t.eps2 / 2)


def test_fallback_chain_exact_cold(problem):
    with SolveEngine() as engine:
        request = SolveRequest(problem, "symgd", dict(SYMGD_OPTS))
        first = engine.solve_incremental(request)
        assert first.served == "cold" and not first.cache_hit

        child = SolveRequest(
            problem.apply_delta(tighten(problem)), "symgd", dict(SYMGD_OPTS)
        )
        second = engine.solve_incremental(child)
        assert second.served == "cold" and not second.cache_hit

        repeat = engine.solve_incremental(child)
        assert repeat.served == "exact" and repeat.cache_hit
        assert repeat.result.error == second.result.error

        stats = engine.stats()["incremental"]
        assert stats == {"exact_hits": 1, "cold_solves": 2}


def test_incremental_results_match_batch_path_bitwise(problem):
    """Incremental solves equal the stateless path."""
    child = problem.apply_delta(tighten(problem))
    with SolveEngine() as incremental_engine, SolveEngine() as batch_engine:
        one = incremental_engine.solve_incremental(
            SolveRequest(problem, "symgd", dict(SYMGD_OPTS))
        )
        two = incremental_engine.solve_incremental(
            SolveRequest(child, "symgd", dict(SYMGD_OPTS))
        )
        cold_one = batch_engine.solve(problem, "symgd", dict(SYMGD_OPTS))
        cold_two = batch_engine.solve(child, "symgd", dict(SYMGD_OPTS))
    assert np.array_equal(one.result.weights, cold_one.result.weights)
    assert np.array_equal(two.result.weights, cold_two.result.weights)
    assert one.result.error == cold_one.result.error
    assert two.result.error == cold_two.result.error
