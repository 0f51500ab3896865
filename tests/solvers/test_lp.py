"""Tests for the general LP model (HiGHS backend)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import RankHow, RankHowOptions, SymGD, SymGDOptions
from repro.scenarios.families import list_families
from repro.scenarios.generator import scenario_problem
from repro.solvers.lp import LinearProgram, LPStatus


def _basic_lp() -> LinearProgram:
    lp = LinearProgram(2)
    lp.set_objective([1.0, 2.0])
    lp.add_constraint([1.0, 1.0], ">=", 1.0)
    lp.set_bounds(0, lower=0.0, upper=1.0)
    lp.set_bounds(1, lower=0.0, upper=1.0)
    return lp


def test_basic_minimization():
    solution = _basic_lp().solve()
    assert solution.is_optimal
    assert solution.objective == pytest.approx(1.0)
    assert solution.x[0] == pytest.approx(1.0)


def test_infeasible():
    lp = LinearProgram(1)
    lp.add_constraint([1.0], ">=", 2.0)
    lp.set_bounds(0, lower=0.0, upper=1.0)
    assert lp.solve().status is LPStatus.INFEASIBLE


def test_unbounded():
    lp = LinearProgram(1)
    lp.set_objective([-1.0])
    lp.set_bounds(0, lower=0.0, upper=float("inf"))
    assert lp.solve().status is LPStatus.UNBOUNDED


def test_equality_constraint():
    lp = LinearProgram(3)
    lp.set_objective([1.0, 2.0, 3.0])
    lp.add_constraint([1.0, 1.0, 1.0], "==", 1.0)
    solution = lp.solve()
    assert solution.is_optimal
    assert solution.objective == pytest.approx(1.0)
    assert solution.x[0] == pytest.approx(1.0)


def test_free_variable():
    # min x with x free and x >= -3 via a constraint -> optimum -3.
    lp = LinearProgram(1)
    lp.set_objective([1.0])
    lp.set_bounds(0, lower=-float("inf"), upper=float("inf"))
    lp.add_constraint([1.0], ">=", -3.0)
    solution = lp.solve()
    assert solution.is_optimal
    assert solution.objective == pytest.approx(-3.0)


def test_negative_lower_bound():
    lp = LinearProgram(2)
    lp.set_objective([1.0, 1.0])
    lp.set_all_bounds(np.array([-2.0, -1.0]), np.array([5.0, 5.0]))
    lp.add_constraint([1.0, 1.0], ">=", -2.5)
    solution = lp.solve()
    assert solution.is_optimal
    assert solution.objective == pytest.approx(-2.5)


def test_upper_bound_only_variable():
    # Variable with bounds (-inf, 2]: minimize -x -> optimum at x = 2.
    lp = LinearProgram(1)
    lp.set_objective([-1.0])
    lp.set_bounds(0, lower=-float("inf"), upper=2.0)
    solution = lp.solve()
    assert solution.is_optimal
    assert solution.x[0] == pytest.approx(2.0)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        LinearProgram(0)
    lp = LinearProgram(2)
    with pytest.raises(ValueError):
        lp.set_objective([1.0])
    with pytest.raises(ValueError):
        lp.add_constraint([1.0], "<=", 0.0)
    with pytest.raises(ValueError):
        lp.add_constraint([1.0, 2.0], "<<", 0.0)
    with pytest.raises(IndexError):
        lp.set_bounds(5, lower=0.0)


def test_matrix_views():
    lp = LinearProgram(2)
    lp.add_constraint([1.0, 0.0], "<=", 3.0)
    lp.add_constraint([0.0, 1.0], ">=", 1.0)
    lp.add_constraint([1.0, 1.0], "==", 2.0)
    a_ub, b_ub = lp.inequality_matrix()
    a_eq, b_eq = lp.equality_matrix()
    assert a_ub.shape == (2, 2)
    # The >= row is flipped into a <= row.
    assert b_ub.tolist() == [3.0, -1.0]
    assert a_eq.shape == (1, 2)
    assert b_eq.tolist() == [2.0]


@pytest.mark.parametrize("family", list_families())
def test_no_solve_path_densifies_the_lp(family, monkeypatch):
    """SYM-GD's cells, an adaptive descent grown to the full box and a
    whole-simplex RankHow keep every LP's rows sparse: none of them reaches
    the dense views (``inequality_matrix`` and ``equality_matrix`` build on
    ``constraint_rows``)."""

    def densify(self):
        raise AssertionError("a solve path densified the LP rows")

    monkeypatch.setattr(LinearProgram, "constraint_rows", densify)
    problem = scenario_problem(family, 0, seed=0)
    cell_options = RankHowOptions(node_limit=20, verify=False, warm_start_strategy="none")
    cells = SymGD(
        SymGDOptions(cell_size=0.2, max_iterations=2, solver_options=cell_options)
    ).solve(problem)
    grown = SymGD(
        SymGDOptions(
            cell_size=1.0,
            adaptive=True,
            max_iterations=20,
            solver_options=RankHowOptions(node_limit=2, verify=False),
        )
    ).solve(problem)
    simplex = RankHow(RankHowOptions(node_limit=20)).solve(problem)
    assert min(cells.error, grown.error, simplex.error) >= 0
    # A descent that cannot reach error 0 doubles its cell up to the box.
    assert grown.error == 0 or grown.diagnostics["final_cell_size"] == 1.9


def test_copy_is_independent():
    lp = _basic_lp()
    clone = lp.copy()
    clone.set_bounds(0, lower=0.5)
    clone.add_constraint([1.0, 0.0], "<=", 0.75)
    assert lp.lower_bounds[0] == 0.0
    assert lp.num_constraints == 1
    assert clone.num_constraints == 2


def test_simplex_weight_vector_problem():
    """The archetypal RankHow sub-problem: weights on a simplex."""
    lp = LinearProgram(3)
    lp.set_objective([0.0, 0.0, 1.0])
    lp.set_all_bounds(np.zeros(3), np.ones(3))
    lp.add_constraint([1.0, 1.0, 1.0], "==", 1.0)
    lp.add_constraint([1.0, -1.0, 0.0], ">=", 0.2)
    solution = lp.solve()
    assert solution.is_optimal
    assert solution.x[2] == pytest.approx(0.0, abs=1e-8)
    assert solution.x.sum() == pytest.approx(1.0)
    assert solution.x[0] - solution.x[1] >= 0.2 - 1e-8
