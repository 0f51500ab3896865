"""Tests for the Equation (2) MILP formulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.constraints import ConstraintSet, PositionRangeConstraint, PrecedenceConstraint, min_weight
from repro.core.formulation import RankHowFormulation
from repro.core.problem import RankingProblem, ToleranceSettings
from repro.core.ranking import Ranking
from repro.data.rankings import ranking_from_scores
from repro.data.relation import Relation
from repro.core.result import SynthesisResult
from repro.data.synthetic import generate_uniform
from repro.scenarios import generate_one
from repro.testing import check_formulation_parity


def _plain_rows(formulation: RankHowFormulation) -> int:
    """Number of unconditional (non-indicator) rows in the model."""
    return int((~formulation.model.rows.is_indicator).sum())


def test_variable_counts_without_elimination(tiny_problem):
    formulation = RankHowFormulation(tiny_problem, eliminate_dominated=False)
    k, n, m = tiny_problem.k, tiny_problem.num_tuples, tiny_problem.num_attributes
    assert formulation.num_indicator_variables == k * (n - 1)
    assert len(formulation.error_vars) == k
    assert len(formulation.weight_vars) == m
    # Two indicator constraints per indicator variable.
    assert int(formulation.model.rows.is_indicator.sum()) == 2 * k * (n - 1)


def test_dominance_elimination_reduces_indicators(tiny_problem):
    eliminated = RankHowFormulation(tiny_problem, eliminate_dominated=True)
    kept = RankHowFormulation(tiny_problem, eliminate_dominated=False)
    assert eliminated.num_indicator_variables <= kept.num_indicator_variables
    total = (
        eliminated.num_indicator_variables + eliminated.num_eliminated_indicators
    )
    assert total == kept.num_indicator_variables


def test_dominated_pair_is_fixed_correctly():
    # Tuple 1 strictly dominates tuple 0 by more than eps1 in every attribute.
    relation = Relation.from_rows([(0.1, 0.1), (0.9, 0.9), (0.5, 0.2)], ["A1", "A2"])
    ranking = Ranking([1, 2, 0])
    problem = RankingProblem(
        relation, ranking, tolerances=ToleranceSettings(eps1=1e-4, eps2=0.0)
    )
    formulation = RankHowFormulation(problem)
    fixed = dict(zip(map(tuple, formulation.fixed_pairs.tolist()), formulation.fixed_values))
    assert fixed[(1, 0)] == 1
    assert fixed[(0, 1)] == 0


def test_objective_matches_true_error_for_feasible_weights(linear_problem):
    formulation = RankHowFormulation(linear_problem)
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    assignment = formulation.indicator_assignment_for(weights, strict=False)
    full = formulation.assemble_solution(weights, assignment)
    assert formulation.model.check_feasible(full)
    milp_error = formulation.objective_error(full)
    assert milp_error == pytest.approx(linear_problem.error_of(weights))


def test_incumbent_round_trip(linear_problem):
    formulation = RankHowFormulation(linear_problem)
    weights = np.array([0.25, 0.25, 0.25, 0.25])
    incumbent = formulation.incumbent_from_weights(weights)
    assert incumbent is not None
    recovered = formulation.weights_from(incumbent)
    assert recovered == pytest.approx(weights)
    assert formulation.model.check_feasible(incumbent)


def test_strict_assignment_rejects_gap_pairs():
    relation = Relation.from_rows([(0.5, 0.5), (0.5 + 1e-9, 0.5 + 1e-9)], ["A1", "A2"])
    ranking = Ranking([1, 2])
    problem = RankingProblem(
        relation, ranking, tolerances=ToleranceSettings(eps1=1e-4, eps2=0.0)
    )
    formulation = RankHowFormulation(problem, eliminate_dominated=False)
    weights = np.array([0.5, 0.5])
    # The score difference (1e-9) falls inside the (eps2, eps1) gap.
    assert formulation.indicator_assignment_for(weights, strict=True) is None
    assert formulation.indicator_assignment_for(weights, strict=False) is not None


def test_weight_constraints_become_model_rows(linear_problem):
    constrained = linear_problem.with_constraints(
        ConstraintSet().add(min_weight("A1", 0.3))
    )
    formulation = RankHowFormulation(constrained)
    # The simplex row plus the user constraint are both plain rows; feasibility
    # of a violating assignment must fail.
    weights = np.array([0.1, 0.3, 0.3, 0.3])
    incumbent = formulation.incumbent_from_weights(weights)
    assert incumbent is not None
    assert not formulation.model.check_feasible(incumbent)


def test_precedence_constraint_is_a_weight_row():
    relation = generate_uniform(10, 3, seed=1)
    scores = relation.matrix() @ np.array([0.6, 0.3, 0.1])
    ranking = ranking_from_scores(scores, k=3)
    ranked = ranking.ranked_indices()
    constraints = ConstraintSet().add(
        PrecedenceConstraint(above=int(ranked[1]), below=int(ranked[0]))
    )
    problem = RankingProblem(relation, ranking, constraints=constraints)
    baseline = RankHowFormulation(problem.with_constraints(ConstraintSet()))
    constrained = RankHowFormulation(problem)
    assert _plain_rows(constrained) == _plain_rows(baseline) + 1


def test_position_range_constraints_add_rows(linear_problem):
    top = int(linear_problem.top_k_indices()[0])
    constrained = linear_problem.with_constraints(
        ConstraintSet().add(PositionRangeConstraint(top, 1, 1))
    )
    formulation = RankHowFormulation(constrained)
    plain = RankHowFormulation(linear_problem)
    assert _plain_rows(formulation) >= _plain_rows(plain) + 1


def test_cell_bounds_fix_more_indicators(nonlinear_problem):
    full = RankHowFormulation(nonlinear_problem)
    m = nonlinear_problem.num_attributes
    center = np.full(m, 1.0 / m)
    cell = RankHowFormulation(
        nonlinear_problem,
        cell_bounds=(np.clip(center - 0.01, 0, 1), np.clip(center + 0.01, 0, 1)),
    )
    assert cell.num_indicator_variables < full.num_indicator_variables


def test_cell_bounds_validation(nonlinear_problem):
    with pytest.raises(ValueError):
        RankHowFormulation(nonlinear_problem, cell_bounds=(np.zeros(2), np.ones(2)))
    with pytest.raises(ValueError):
        RankHowFormulation(
            nonlinear_problem,
            cell_bounds=(np.full(4, 0.8), np.full(4, 0.2)),
        )


def test_error_weights_scale_the_objective(linear_problem):
    ranked = linear_problem.top_k_indices()
    weights = {int(r): 1.0 / (index + 1) for index, r in enumerate(ranked)}
    formulation = RankHowFormulation(linear_problem, error_weights=weights)
    objective = formulation.model.objective_vector()
    error_indices = list(formulation.error_vars.values())
    assert objective[error_indices[0]] == pytest.approx(1.0)
    assert objective[error_indices[-1]] == pytest.approx(1.0 / len(ranked))


@pytest.mark.parametrize("index", [1, 2, 3])
def test_formulation_parity_on_wide_problems(index):
    """m >= 8: the one-pass build matches the per-pair reference, with big-Ms
    allowed to differ only by the rounding of numpy's 8-way unrolled sums."""
    problem = generate_one("wide", index, 20260730).problem
    assert problem.num_attributes >= 8
    rng = np.random.default_rng(index)
    results = {}
    for draw, weights in enumerate(rng.dirichlet(np.ones(problem.num_attributes), 3)):
        results[f"draw{draw}"] = SynthesisResult(
            weights=weights,
            attributes=list(problem.attributes),
            error=problem.error_of(weights),
            objective=0.0,
            optimal=False,
            method="draw",
        )
    check = check_formulation_parity(problem, results)
    assert check.passed, check.details
