"""Edit chains through the engine: a revisited head is a cache hit, else cold."""

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
        first = engine.solve_batch([request])[0]
        assert not first.cache_hit

        child = SolveRequest(
            problem.apply_delta(tighten(problem)), "symgd", dict(SYMGD_OPTS)
        )
        second = engine.solve_batch([child])[0]
        assert not second.cache_hit

        # A rebuilt edit chain composes the same fingerprint: a cache hit.
        again = SolveRequest(
            problem.apply_delta(tighten(problem)), "symgd", dict(SYMGD_OPTS)
        )
        repeat = engine.solve_batch([again])[0]
        assert repeat.cache_hit
        assert repeat.fingerprint == second.fingerprint
        assert repeat.result.error == second.result.error

        cache = engine.stats()["cache"]
        assert (cache["hits"], cache["misses"]) == (1, 2)
        assert engine.stats()["solver_invocations"] == 2


def test_incremental_results_match_batch_path_bitwise(problem):
    """A delta-built head solves bitwise like the same problem built from data."""
    child = problem.apply_delta(tighten(problem))
    rebuilt = RankingProblem.from_dict(child.to_dict())
    with SolveEngine() as edit_engine, SolveEngine() as fresh_engine:
        one = edit_engine.solve(problem, "symgd", dict(SYMGD_OPTS))
        two = edit_engine.solve(child, "symgd", dict(SYMGD_OPTS))
        cold_one = fresh_engine.solve(problem, "symgd", dict(SYMGD_OPTS))
        cold_two = fresh_engine.solve(rebuilt, "symgd", dict(SYMGD_OPTS))
    assert np.array_equal(one.result.weights, cold_one.result.weights)
    assert np.array_equal(two.result.weights, cold_two.result.weights)
    assert one.result.error == cold_one.result.error
    assert two.result.error == cold_two.result.error
