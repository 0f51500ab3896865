"""Tests for the engine's delta-aware incremental path and artifact store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cells import CellBoundEvaluator, grid_cells
from repro.core.delta import (
    AddTuplesDelta,
    DropTuplesDelta,
    ReweightDelta,
    ToleranceDelta,
)
from repro.core.problem import RankingProblem
from repro.core.ranking import Ranking
from repro.data.relation import Relation
from repro.engine.context import SolveArtifacts, SolveContext
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


def test_fallback_chain_exact_warm_cold(problem):
    with SolveEngine() as engine:
        request = SolveRequest(problem, "symgd", dict(SYMGD_OPTS))
        first = engine.solve_incremental(request)
        assert first.served == "cold" and not first.cache_hit

        child = problem.apply_delta(tighten(problem))
        second = engine.solve_incremental(
            SolveRequest(child, "symgd", dict(SYMGD_OPTS)),
            parent_fingerprint=request.fingerprint,
        )
        assert second.served == "warm" and not second.cache_hit

        repeat = engine.solve_incremental(
            SolveRequest(child, "symgd", dict(SYMGD_OPTS)),
            parent_fingerprint=request.fingerprint,
        )
        assert repeat.served == "exact" and repeat.cache_hit
        assert repeat.result.error == second.result.error

        stats = engine.stats()["incremental"]
        assert stats == {"exact_hits": 1, "parent_hits": 1, "cold_solves": 1}


def test_incremental_results_match_batch_path_bitwise(problem):
    """Default (exact-parity) incremental solves equal the stateless path."""
    child = problem.apply_delta(tighten(problem))
    with SolveEngine() as incremental_engine, SolveEngine() as batch_engine:
        request = SolveRequest(problem, "symgd", dict(SYMGD_OPTS))
        one = incremental_engine.solve_incremental(request)
        two = incremental_engine.solve_incremental(
            SolveRequest(child, "symgd", dict(SYMGD_OPTS)),
            parent_fingerprint=request.fingerprint,
        )
        cold_one = batch_engine.solve(problem, "symgd", dict(SYMGD_OPTS))
        cold_two = batch_engine.solve(child, "symgd", dict(SYMGD_OPTS))
    assert np.array_equal(one.result.weights, cold_one.result.weights)
    assert np.array_equal(two.result.weights, cold_two.result.weights)
    assert one.result.error == cold_one.result.error
    assert two.result.error == cold_two.result.error


def test_solve_delta_convenience(problem):
    with SolveEngine() as engine:
        base = engine.solve_incremental(SolveRequest(problem, "symgd", dict(SYMGD_OPTS)))
        outcome = engine.solve_delta(
            problem, [tighten(problem)], method="symgd", params=dict(SYMGD_OPTS)
        )
        assert outcome.served == "warm"
        assert outcome.fingerprint != base.fingerprint


def test_artifact_store_is_lru_bounded(problem):
    with SolveEngine() as engine:
        engine._artifact_capacity = 2
        for index in range(4):
            engine.store_artifacts(SolveArtifacts(request_fingerprint=f"fp{index}"))
        assert engine.artifacts_for("fp0") is None
        assert engine.artifacts_for("fp1") is None
        assert engine.artifacts_for("fp3") is not None
        # A hit refreshes recency.
        engine.artifacts_for("fp2")
        engine.store_artifacts(SolveArtifacts(request_fingerprint="fp4"))
        assert engine.artifacts_for("fp2") is not None
        assert engine.artifacts_for("fp3") is None


# -- cell evaluator reuse / incremental row update ----------------------------------


def _bounds_equal(a, b):
    return list(a) == list(b)


def test_evaluator_updated_for_tolerance_change_shares_matrices(problem):
    child = problem.apply_delta(tighten(problem))
    parent = CellBoundEvaluator(problem)
    updated = parent.updated_for(child)
    assert updated is not None
    assert updated._positive is parent._positive
    cells = grid_cells(3, 0.5)
    assert _bounds_equal(updated.bounds_many(cells), CellBoundEvaluator(child).bounds_many(cells))


def test_evaluator_updated_for_appended_tuples_is_bit_identical(problem):
    rows = {"A1": [0.15, 0.85], "A2": [0.4, 0.6], "A3": [0.9, 0.05]}
    child = problem.apply_delta(AddTuplesDelta(columns=rows))
    parent = CellBoundEvaluator(problem)
    updated = parent.updated_for(child)
    assert updated is not None
    fresh = CellBoundEvaluator(child)
    assert np.array_equal(updated._positive, fresh._positive)
    assert np.array_equal(updated._negative, fresh._negative)
    assert np.array_equal(updated._simplex_low, fresh._simplex_low)
    assert np.array_equal(updated._simplex_high, fresh._simplex_high)
    assert np.array_equal(updated._self_index, fresh._self_index)
    cells = grid_cells(3, 0.34)
    assert _bounds_equal(updated.bounds_many(cells), fresh.bounds_many(cells))


def test_evaluator_updated_for_dropped_tuples_is_bit_identical(problem):
    unranked = problem.ranking.unranked_indices()
    child = problem.apply_delta(DropTuplesDelta(indices=tuple(unranked[:3])))
    parent = CellBoundEvaluator(problem)
    updated = parent.updated_for(child)
    assert updated is not None
    fresh = CellBoundEvaluator(child)
    assert np.array_equal(updated._positive, fresh._positive)
    assert np.array_equal(updated._simplex_high, fresh._simplex_high)
    cells = grid_cells(3, 0.34)
    assert _bounds_equal(updated.bounds_many(cells), fresh.bounds_many(cells))


def test_evaluator_update_rejects_structural_edits(problem):
    jitter = ReweightDelta(
        columns={"A1": np.linspace(0.0, 1.0, problem.num_tuples)}
    )
    child = problem.apply_delta(jitter)
    assert CellBoundEvaluator(problem).updated_for(child) is None
    # Dropping a RANKED tuple is not an incremental shape either.
    ranked = problem.top_k_indices()
    relation = problem.relation.without_rows([int(ranked[0])])
    positions = np.delete(problem.ranking.positions, int(ranked[0]))
    positions = np.where(positions > 0, np.maximum(positions - 1, 1), 0)
    shrunk = RankingProblem(relation, Ranking(positions, validate=False))
    assert CellBoundEvaluator(problem).updated_for(shrunk) is None


def test_engine_cell_error_bounds_with_context(problem):
    cells = grid_cells(3, 0.5)
    with SolveEngine() as engine:
        context = SolveContext()
        bounds = engine.cell_error_bounds(problem, cells, context=context)
        assert bounds == CellBoundEvaluator(problem).bounds_many(cells)
        assert context.captured.cell_evaluator is not None
        # Second call with the captured evaluator as warm state reuses it.
        context2 = SolveContext(
            warm=SolveArtifacts(
                problem_fingerprint=problem.fingerprint(),
                cell_evaluator=context.captured.cell_evaluator,
            )
        )
        bounds2 = engine.cell_error_bounds(problem, cells, context=context2)
        assert bounds2 == bounds
        assert context2.captured.cell_evaluator is context.captured.cell_evaluator


def test_solve_chain_carries_cell_evaluator_forward(problem):
    """A solve between two cell_error_bounds calls must not sever the chain."""
    with SolveEngine() as engine:
        request = SolveRequest(problem, "symgd", dict(SYMGD_OPTS))
        engine.solve_incremental(request)
        first = engine.artifacts_for(request.fingerprint)
        assert first is not None and first.cell_evaluator is None
        # Attach an evaluator (as session.cell_error_bounds would).
        first.cell_evaluator = CellBoundEvaluator(problem)

        child = problem.apply_delta(tighten(problem))
        child_request = SolveRequest(child, "symgd", dict(SYMGD_OPTS))
        engine.solve_incremental(
            child_request, parent_fingerprint=request.fingerprint
        )
        carried = engine.artifacts_for(child_request.fingerprint)
        assert carried is not None
        assert carried.cell_evaluator is not None
        # Tolerance-only edit: the stacked pair matrices were shared, not
        # rebuilt, and the evaluator now answers for the child problem.
        assert carried.cell_evaluator._positive is first.cell_evaluator._positive
        assert carried.cell_evaluator.problem is child
