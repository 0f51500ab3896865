"""Tests for the exact RankHow solver."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.constraints import (
    ConstraintSet,
    PositionRangeConstraint,
    PrecedenceConstraint,
    min_weight,
)
from repro.core.problem import RankingProblem, ToleranceSettings
from repro.core.ranking import Ranking
from repro.core.rankhow import RankHow, RankHowOptions
from repro.data.rankings import ranking_from_scores
from repro.data.relation import Relation
from repro.data.synthetic import generate_uniform

_FAST = RankHowOptions(node_limit=300, warm_start_strategy="ordinal_regression")


def test_example_4_has_zero_error(tiny_problem):
    result = RankHow(_FAST).solve(tiny_problem)
    assert result.error == 0
    assert result.optimal
    assert result.verified is True
    assert result.method == "rankhow"
    # The returned weights reproduce the ranking r > s > t exactly.
    assert tiny_problem.error_of(result.weights) == 0


def test_recovers_hidden_linear_ranking(linear_problem):
    result = RankHow(_FAST).solve(linear_problem)
    assert result.error == 0
    assert result.optimal
    assert result.weights.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(result.weights >= -1e-9)


def test_example_3_from_the_paper():
    """R = {(1,10000), (2,1000), (5,1), (4,10), (3,100)} with ranking [1..5].

    A linear function exists that reproduces the ranking perfectly (the paper
    reports 0.99*A1 + 0.01*A2), while plain least squares fails.
    """
    relation = Relation.from_rows(
        [(1, 10000), (2, 1000), (5, 1), (4, 10), (3, 100)], ["A1", "A2"]
    )
    ranking = Ranking([1, 2, 3, 4, 5])
    problem = RankingProblem(relation.normalized(), ranking)
    result = RankHow(_FAST).solve(problem)
    assert result.error == 0
    assert result.optimal


def test_matches_brute_force_grid_on_two_attributes():
    """For m=2 the optimum can be verified by scanning the weight segment."""
    relation = generate_uniform(25, 2, seed=13)
    scores = np.sum(relation.matrix() ** 2, axis=1)
    problem = RankingProblem(relation, ranking_from_scores(scores, k=4))
    result = RankHow(_FAST).solve(problem)
    grid_errors = []
    for w1 in np.linspace(0.0, 1.0, 2001):
        grid_errors.append(problem.error_of(np.array([w1, 1.0 - w1])))
    assert result.error <= min(grid_errors)


def test_weight_constraints_are_respected(linear_problem):
    constrained = linear_problem.with_constraints(
        ConstraintSet().add(min_weight("A4", 0.3))
    )
    result = RankHow(_FAST).solve(constrained)
    assert result.weights[3] >= 0.3 - 1e-6
    # The constrained optimum cannot be better than the unconstrained one.
    unconstrained = RankHow(_FAST).solve(linear_problem)
    assert result.error >= unconstrained.error


def test_constraint_exploration_example_1_style(linear_problem):
    """Adding a minimum-weight constraint still yields a valid, evaluable result."""
    constrained = linear_problem.with_constraints(
        ConstraintSet().add(min_weight("A1", 0.1)).add(min_weight("A2", 0.1))
    )
    result = RankHow(_FAST).solve(constrained)
    assert result.error >= 0
    assert constrained.weights_feasible(result.weights)


def test_infeasible_constraints_reported():
    relation = generate_uniform(10, 2, seed=2)
    ranking = ranking_from_scores(relation.matrix()[:, 0], k=2)
    constraints = ConstraintSet().add(min_weight("A1", 0.8)).add(min_weight("A2", 0.8))
    problem = RankingProblem(relation, ranking, constraints=constraints)
    result = RankHow(RankHowOptions(node_limit=50, warm_start_strategy="none")).solve(problem)
    assert result.error == -1
    assert not result.optimal
    assert result.diagnostics["status"] in ("infeasible", "no_solution")
    # An infeasible warm start is no answer either.
    warm = RankHow(RankHowOptions(node_limit=50)).solve(problem, warm_start=np.array([0.5, 0.5]))
    assert warm.error == -1


def test_never_worse_than_baselines_on_small_instances(nonlinear_problem):
    from repro.baselines.linear_regression import LinearRegressionBaseline
    from repro.baselines.ordinal_regression import OrdinalRegressionBaseline

    rankhow = RankHow(_FAST).solve(nonlinear_problem)
    for baseline in (LinearRegressionBaseline(), OrdinalRegressionBaseline()):
        assert rankhow.error <= baseline.solve(nonlinear_problem).error


def test_adding_attributes_never_increases_error():
    """The paper's guarantee: more ranking attributes can only help RankHow."""
    relation = generate_uniform(30, 4, seed=21)
    scores = np.sum(relation.matrix() ** 2, axis=1)
    ranking = ranking_from_scores(scores, k=4)
    errors = []
    for m in (2, 3, 4):
        problem = RankingProblem(
            relation, ranking, attributes=[f"A{j + 1}" for j in range(m)]
        )
        errors.append(RankHow(_FAST).solve(problem).error)
    assert errors[0] >= errors[1] >= errors[2]


def test_node_limit_still_returns_a_solution(nonlinear_problem):
    options = RankHowOptions(node_limit=1, warm_start_strategy="ordinal_regression", verify=False)
    result = RankHow(options).solve(nonlinear_problem)
    assert result.error >= 0
    assert result.nodes <= 1


def test_cell_bounds_restrict_the_search(linear_problem):
    center = np.array([0.4, 0.3, 0.2, 0.1])
    cell = (np.clip(center - 0.05, 0, 1), np.clip(center + 0.05, 0, 1))
    result = RankHow(_FAST).solve(linear_problem, cell_bounds=cell)
    assert result.error == 0
    assert np.all(result.weights >= cell[0] - 1e-6)
    assert np.all(result.weights <= cell[1] + 1e-6)


def test_warm_start_is_used_as_incumbent(nonlinear_problem):
    warm = np.full(4, 0.25)
    options = RankHowOptions(node_limit=0, warm_start_strategy="none", verify=False)
    result = RankHow(options).solve(nonlinear_problem, warm_start=warm)
    assert result.error <= nonlinear_problem.error_of(warm)


def test_diagnostics_contents(linear_problem):
    result = RankHow(_FAST).solve(linear_problem)
    for key in ("status", "best_bound", "k", "indicators", "eliminated"):
        assert key in result.diagnostics
    assert result.diagnostics["k"] == linear_problem.k


@pytest.mark.parametrize("name", ["bogus", "symgd"])
def test_unknown_warm_start_strategy_raises(name):
    with pytest.raises(ValueError, match=rf"{name!r}.*'ordinal_regression'.*'none'"):
        RankHowOptions(warm_start_strategy=name)
    with pytest.raises(ValueError, match=repr(name)):
        RankHowOptions.from_dict({"warm_start_strategy": name})


@pytest.mark.parametrize("name", ["grid", "dirichlet"])
def test_every_seed_strategy_is_a_warm_start(name, linear_problem):
    options = RankHowOptions(node_limit=0, verify=False, warm_start_strategy=name)
    assert RankHow(options).solve(linear_problem).error >= 0


def test_a_failed_check_never_returns_optimal():
    """The branch-and-bound proves objective 0 for weights whose error is 1:
    the family's eps1 - eps2 band is narrower than the feasibility
    tolerances."""
    from repro.scenarios.generator import scenario_problem

    problem = scenario_problem("near_infeasible_tolerance", 2, seed=1)
    m = problem.num_attributes
    options = RankHowOptions(node_limit=120, time_limit=5.0)
    result = RankHow(options).solve(problem, cell_bounds=(np.zeros(m), np.ones(m)))
    assert result.diagnostics["status"] == "optimal"
    assert result.error == problem.error_of(result.weights) == 1
    assert round(result.objective) == 0
    assert result.verified is False
    assert not result.optimal


def test_no_solution_falls_back_to_the_warm_start(nonlinear_problem, monkeypatch):
    from repro.solvers.highs_milp import HighsMILPSolver
    from repro.solvers.milp import MILPSolution, MILPStatus

    monkeypatch.setattr(
        HighsMILPSolver,
        "solve",
        lambda self, model: MILPSolution(MILPStatus.NO_SOLUTION, np.zeros(0), float("inf")),
    )
    warm = np.full(4, 0.25)
    result = RankHow(RankHowOptions(verify=False)).solve(nonlinear_problem, warm_start=warm)
    assert np.array_equal(result.weights, warm)
    assert result.error == nonlinear_problem.error_of(warm)
    assert not result.optimal
    assert result.diagnostics["status"] == "no_solution"
    assert RankHow(RankHowOptions(verify=False)).solve(nonlinear_problem).error == -1


@pytest.mark.parametrize(
    "constraint",
    [PrecedenceConstraint(above=2, below=36), PositionRangeConstraint(36, 3, 5)],
    ids=["precedence", "position"],
)
@pytest.mark.parametrize("cell", [False, True], ids=["simplex", "cell"])
def test_a_warm_start_the_milp_rejects_is_no_answer(constraint, cell, linear_problem):
    """The hidden weights rank tuple 36 first, which the constraint forbids,
    so they are never the answer, though their error is 0.  With no node to
    search, neither solver has an answer to return; with nodes, what it
    returns keeps the constraint."""
    problem = linear_problem.with_constraints(ConstraintSet().add(constraint))
    hidden = np.array([0.4, 0.3, 0.2, 0.1])
    assert problem.ranking.position_of(36) == 1
    cell_bounds = (np.zeros(4), np.ones(4)) if cell else None
    for node_limit in (0, 1, 50):
        options = RankHowOptions(node_limit=node_limit, verify=False)
        result = RankHow(options).solve(problem, cell_bounds=cell_bounds, warm_start=hidden)
        if node_limit == 0:
            assert result.diagnostics["status"] == "no_solution"
            assert result.error == -1
        if result.error == -1:
            continue
        positions = problem.induced_positions(result.weights)
        if isinstance(constraint, PrecedenceConstraint):
            assert positions[2] < positions[36]
            if not cell:
                # HiGHS proves the constrained optimum.
                assert result.error == 2 and result.optimal
        else:
            assert 3 <= positions[36] <= 5
