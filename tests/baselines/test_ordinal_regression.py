"""Tests for the ORDINALREGRESSION competitor (Srinivasan LP + extensions)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.baselines.ordinal_regression import (
    OrdinalRegressionBaseline,
    OrdinalRegressionOptions,
)
from repro.bench.harness import synthetic_problem
from repro.core.constraints import ConstraintSet, min_weight
from repro.core.problem import RankingProblem
from repro.core.ranking import UNRANKED, Ranking
from repro.core.seeds import ordinal_regression_seed
from repro.data.rankings import ranking_from_scores
from repro.data.relation import Relation
from repro.data.synthetic import generate_uniform
from repro.scenarios.generator import scenario_problem
from repro.solvers.lp import LinearProgram


def test_recovers_linearly_representable_ranking(linear_problem):
    result = OrdinalRegressionBaseline().solve(linear_problem)
    assert result.method == "ordinal_regression"
    assert result.error == 0
    assert result.objective == pytest.approx(0.0, abs=1e-6)
    assert result.weights.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(result.weights >= -1e-9)


def test_score_penalty_positive_when_ranking_not_representable(nonlinear_problem):
    result = OrdinalRegressionBaseline().solve(nonlinear_problem)
    assert result.error >= 0
    assert result.diagnostics["score_penalty"] >= 0.0


def test_tie_support_extension():
    relation = Relation.from_rows(
        [(0.9, 0.1), (0.1, 0.9), (0.2, 0.2)], ["A1", "A2"]
    )
    ranking = Ranking([1, 1, 3])  # the top two are tied
    problem = RankingProblem(relation, ranking)
    with_ties = OrdinalRegressionBaseline(
        OrdinalRegressionOptions(support_ties=True)
    ).solve(problem)
    without_ties = OrdinalRegressionBaseline(
        OrdinalRegressionOptions(support_ties=False)
    ).solve(problem)
    assert with_ties.diagnostics["tied_pairs"] == 1
    # Tie constraints push the two tied tuples' scores together.
    scores = problem.scores(with_ties.weights)
    assert abs(scores[0] - scores[1]) <= abs(
        problem.scores(without_ties.weights)[0]
        - problem.scores(without_ties.weights)[1]
    ) + 1e-9


def test_margin_override_mimics_or_minus():
    relation = generate_uniform(20, 3, seed=6)
    scores = relation.matrix() @ np.array([0.6, 0.3, 0.1])
    problem = RankingProblem(relation, ranking_from_scores(scores, k=4))
    plus = OrdinalRegressionBaseline(
        OrdinalRegressionOptions(separation_margin=None)
    ).solve(problem)
    minus = OrdinalRegressionBaseline(
        OrdinalRegressionOptions(separation_margin=1e-10)
    ).solve(problem)
    assert plus.diagnostics["margin"] == problem.tolerances.eps1
    assert minus.diagnostics["margin"] == 1e-10


def test_respects_problem_weight_constraints(linear_problem):
    constrained = linear_problem.with_constraints(
        ConstraintSet().add(min_weight("A4", 0.4))
    )
    result = OrdinalRegressionBaseline().solve(constrained)
    assert result.weights[3] >= 0.4 - 1e-6
    ignored = OrdinalRegressionBaseline(
        OrdinalRegressionOptions(apply_weight_constraints=False)
    ).solve(constrained)
    assert ignored.weights[3] < 0.4


def test_include_unranked_option_changes_constraint_count(nonlinear_problem):
    with_unranked = OrdinalRegressionBaseline(
        OrdinalRegressionOptions(include_unranked=True)
    ).solve(nonlinear_problem)
    without_unranked = OrdinalRegressionBaseline(
        OrdinalRegressionOptions(include_unranked=False)
    ).solve(nonlinear_problem)
    assert (
        with_unranked.diagnostics["ordered_pairs"]
        > without_unranked.diagnostics["ordered_pairs"]
    )


def test_infeasible_constraints_fall_back_to_uniform():
    relation = generate_uniform(10, 2, seed=2)
    ranking = ranking_from_scores(relation.matrix()[:, 0], k=2)
    constraints = ConstraintSet().add(min_weight("A1", 0.9)).add(min_weight("A2", 0.9))
    problem = RankingProblem(relation, ranking, constraints=constraints)
    result = OrdinalRegressionBaseline().solve(problem)
    assert result.weights == pytest.approx([0.5, 0.5])
    assert result.objective == float("inf")


def _per_row_lp(problem: RankingProblem) -> LinearProgram:
    """The default-options LP built with one ``add_constraint`` call per row."""
    matrix, positions, m = problem.matrix, problem.ranking.positions, problem.num_attributes
    ranked = [int(r) for r in problem.top_k_indices()]
    ordered, tied = [], []
    for a, b in zip(ranked, ranked[1:]):
        (tied if positions[a] == positions[b] else ordered).append((a, b))
    ordered += [(ranked[-1], int(s)) for s in np.where(positions == UNRANKED)[0]]
    total = m + len(ordered) + 2 * len(tied)
    lp = LinearProgram(total)
    lp.add_constraint(np.r_[np.ones(m), np.zeros(total - m)], "==", 1.0)
    slack = m
    for better, worse in ordered:
        row = np.zeros(total)
        row[:m] = matrix[better] - matrix[worse]
        row[slack] = 1.0
        lp.add_constraint(row, ">=", problem.tolerances.eps1)
        slack += 1
    tie_eps = problem.tolerances.tie_eps
    for a, b in tied:
        for sign, sense, rhs in ((-1.0, "<=", tie_eps), (1.0, ">=", -tie_eps)):
            row = np.zeros(total)
            row[:m] = matrix[a] - matrix[b]
            row[slack] = sign
            lp.add_constraint(row, sense, rhs)
            slack += 1
    return lp


@pytest.mark.parametrize("family", ["tied_scores", "heavy_tail"])
def test_block_built_lp_matches_per_row_build(family):
    problem = scenario_problem(family, 0, seed=0)
    lp, pairs = OrdinalRegressionBaseline().build_lp(problem)
    assert (pairs["tied_pairs"] > 0) == (family == "tied_scores")
    expected = _per_row_lp(problem)
    assert lp.num_vars == expected.num_vars
    for ours, theirs in zip(lp.constraint_rows(), expected.constraint_rows()):
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


def test_seed_lp_memory_follows_its_nonzeros():
    """The seed LP of the 20,000-tuple SYM-GD scaling relation stays sparse.

    One ordered pair per unranked tuple gives ~20,000 rows over ~20,000
    slack columns: a dense row block would ask for ~3 GB, the sparse rows
    take a few MB (HiGHS's own memory is not traced).
    """
    problem = synthetic_problem(
        distribution="correlated", num_tuples=20_000, num_attributes=5, k=15, exponent=3.0
    )
    tracemalloc.start()
    try:
        weights = ordinal_regression_seed(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    assert weights.shape == (5,) and weights.sum() == pytest.approx(1.0)
