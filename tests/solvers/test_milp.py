"""Tests for the MILP model, big-M encoding and feasibility checking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.solvers.branch_and_bound import BranchAndBoundSolver
from repro.solvers.lp import LPStatus
from repro.solvers.milp import MILPModel


def _indicator_model(big_m: float | None = None) -> MILPModel:
    """delta = 1 => x >= 0.6 ; delta = 0 => x <= 0.4 ; minimize x + 0.1*delta."""
    model = MILPModel()
    x = model.add_continuous(lower=0.0, upper=1.0, objective=1.0, name="x")
    delta = model.add_binary(objective=0.1, name="delta")
    model.add_indicator(delta, 1, {x: 1.0}, ">=", 0.6, big_m=big_m)
    model.add_indicator(delta, 0, {x: 1.0}, "<=", 0.4, big_m=big_m)
    return model


def test_variable_bookkeeping():
    model = MILPModel()
    x = model.add_continuous(lower=-1.0, upper=2.0, name="x")
    d = model.add_binary(name="d")
    assert model.num_vars == 2
    assert model.binary_indices == [d]
    assert model.name_of(x) == "x"
    lower, upper = model.bounds()
    assert lower.tolist() == [-1.0, 0.0]
    assert upper.tolist() == [2.0, 1.0]


def test_invalid_variable_and_constraint_arguments():
    model = MILPModel()
    x = model.add_continuous()
    with pytest.raises(ValueError):
        model.add_continuous(lower=2.0, upper=1.0)
    with pytest.raises(ValueError):
        model.add_constraint({x: 1.0}, "<<", 1.0)
    with pytest.raises(ValueError):
        model.add_indicator(x, 1, {x: 1.0}, ">=", 0.0)  # x is not binary
    d = model.add_binary()
    with pytest.raises(ValueError):
        model.add_indicator(d, 2, {x: 1.0}, ">=", 0.0)
    with pytest.raises(ValueError):
        model.add_indicator(d, 1, {x: 1.0}, "==", 0.0)


def test_dense_and_sparse_rows_equivalent():
    model = MILPModel()
    x = model.add_continuous(upper=1.0)
    y = model.add_continuous(upper=1.0)
    model.add_constraint({x: 1.0, y: 2.0}, "<=", 1.5)
    model.add_constraint(np.array([1.0, 2.0]), "<=", 1.5)
    dense, _, _ = model.build_relaxation().constraint_rows()
    assert np.array_equal(dense[0], dense[1])


def test_padded_row_extends_older_constraints():
    model = MILPModel()
    x = model.add_continuous(upper=1.0)
    model.add_constraint({x: 1.0}, "<=", 0.5)
    model.add_continuous(upper=1.0)  # added after the constraint
    # The relaxation must build without shape errors.
    relaxation = model.build_relaxation()
    assert relaxation.num_vars == 2
    padded = relaxation.constraint_rows()[0][0]
    assert padded.shape[0] == 2
    assert padded[1] == 0.0


def test_big_m_derivation_from_bounds():
    model = _indicator_model(big_m=None)
    relaxation = model.build_relaxation()
    solution = relaxation.solve()
    assert solution.status is LPStatus.OPTIMAL
    # With delta free in [0,1] the relaxation can do better than any integral
    # solution, but it must remain feasible and bounded.
    assert np.isfinite(solution.objective)


def test_check_feasible_enforces_indicators():
    model = _indicator_model(big_m=1.0)
    # delta = 1 with x = 0.7 satisfies the active arm.
    assert model.check_feasible(np.array([0.7, 1.0]))
    # delta = 1 with x = 0.2 violates it.
    assert not model.check_feasible(np.array([0.2, 1.0]))
    # delta = 0 with x = 0.2 is fine; with x = 0.7 it is not.
    assert model.check_feasible(np.array([0.2, 0.0]))
    assert not model.check_feasible(np.array([0.7, 0.0]))


def test_check_feasible_enforces_bounds_integrality_and_rows():
    model = MILPModel()
    x = model.add_continuous(lower=0.0, upper=1.0)
    d = model.add_binary()
    model.add_constraint({x: 1.0, d: 1.0}, "<=", 1.2)
    assert model.check_feasible(np.array([0.2, 1.0]))
    assert not model.check_feasible(np.array([1.5, 0.0]))  # bound violated
    assert not model.check_feasible(np.array([0.2, 0.5]))  # fractional binary
    assert not model.check_feasible(np.array([0.9, 1.0]))  # row violated


def test_evaluate_objective():
    model = _indicator_model(big_m=1.0)
    assert model.evaluate_objective(np.array([0.5, 1.0])) == pytest.approx(0.6)


def test_solve_convenience_wrapper_returns_optimum():
    model = _indicator_model(big_m=1.0)
    solution = BranchAndBoundSolver().solve(model)
    assert solution.has_solution
    # Optimum: delta = 0, x = 0 with objective 0.
    assert solution.objective == pytest.approx(0.0, abs=1e-7)


def test_equality_constraints_respected_in_relaxation():
    model = MILPModel()
    x = model.add_continuous(upper=1.0, objective=1.0)
    y = model.add_continuous(upper=1.0, objective=1.0)
    model.add_constraint({x: 1.0, y: 1.0}, "==", 1.0)
    relaxation = model.build_relaxation()
    solution = relaxation.solve()
    assert solution.is_optimal
    assert solution.x[0] + solution.x[1] == pytest.approx(1.0)


def test_big_m_derivation_rejects_unbounded_rows():
    model = MILPModel()
    x = model.add_continuous(lower=0.0, upper=float("inf"))
    d = model.add_binary()
    model.add_indicator(d, 1, {x: -1.0}, ">=", 0.0)
    with pytest.raises(ValueError):
        model.build_relaxation()
