"""Tests for the presolve reductions and the per-node bound tightener."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.solvers.branch_and_bound import BranchAndBoundSolver
from repro.solvers.milp import MILPModel, MILPStatus
from repro.solvers.presolve import BoundTightener, presolve


def test_always_satisfied_indicator_is_removed():
    model = MILPModel()
    x = model.add_continuous(lower=0.5, upper=1.0)
    d = model.add_binary()
    # x >= 0.1 holds for every point in the box -> implication is vacuous.
    model.add_indicator(d, 1, {x: 1.0}, ">=", 0.1)
    report = presolve(model)
    assert report.removed_indicators == 1
    assert len(model.indicators) == 0


def test_never_satisfied_indicator_fixes_binary():
    model = MILPModel()
    x = model.add_continuous(lower=0.0, upper=0.3)
    d = model.add_binary()
    model.add_indicator(d, 1, {x: 1.0}, ">=", 0.9)  # impossible
    model.add_indicator(d, 0, {x: 1.0}, "<=", 0.5)  # always possible
    report = presolve(model)
    assert report.fixed_binaries == 1
    lower, upper = model.bounds()
    assert lower[d] == upper[d] == 0.0


def test_fixed_binary_turns_indicator_into_row():
    model = MILPModel()
    x = model.add_continuous(lower=0.0, upper=1.0)
    d = model.add_binary()
    model.add_indicator(d, 1, {x: 1.0}, ">=", 0.6)
    model.fix_binary(d, 1)
    rows_before = len(model.constraints)
    report = presolve(model)
    assert report.removed_indicators == 1
    assert len(model.constraints) == rows_before + 1


def test_big_m_tightening_reported():
    model = MILPModel()
    x = model.add_continuous(lower=0.0, upper=0.5)
    d = model.add_binary()
    model.add_indicator(d, 1, {x: 1.0}, ">=", 0.4, big_m=100.0)
    model.add_indicator(d, 0, {x: 1.0}, "<=", 0.1, big_m=100.0)
    report = presolve(model)
    assert report.tightened_big_ms == 2
    for ind in model.indicators:
        assert ind.big_m <= 0.5


def test_presolve_preserves_optimum():
    def build() -> MILPModel:
        model = MILPModel()
        x = model.add_continuous(upper=1.0, objective=1.0)
        d1 = model.add_binary(objective=0.5)
        d2 = model.add_binary(objective=0.25)
        model.add_indicator(d1, 1, {x: 1.0}, ">=", 0.6, big_m=10.0)
        model.add_indicator(d1, 0, {x: 1.0}, "<=", 0.4, big_m=10.0)
        model.add_indicator(d2, 1, {x: 1.0}, ">=", 2.0, big_m=10.0)  # impossible
        model.add_indicator(d2, 0, {x: 1.0}, "<=", 1.0, big_m=10.0)  # trivial
        model.add_constraint({x: 1.0, d1: 0.2}, ">=", 0.5)
        return model

    plain = BranchAndBoundSolver().solve(build())
    reduced_model = build()
    presolve(reduced_model)
    reduced = BranchAndBoundSolver().solve(reduced_model)
    assert plain.has_solution and reduced.has_solution
    assert plain.objective == pytest.approx(reduced.objective, abs=1e-6)


def test_presolve_handles_interleaved_variable_creation():
    model = MILPModel()
    x = model.add_continuous(lower=0.2, upper=0.8)
    d = model.add_binary()
    model.add_indicator(d, 1, {x: 1.0}, ">=", 0.1)
    model.add_continuous(lower=0.0, upper=1.0)  # widens the variable space
    report = presolve(model)
    assert report.removed_indicators == 1
    assert isinstance(report.fixed_binaries, int)


def test_presolve_keeps_undecidable_indicators():
    model = MILPModel()
    x = model.add_continuous(lower=0.0, upper=1.0)
    d = model.add_binary()
    model.add_indicator(d, 1, {x: 1.0}, ">=", 0.6)
    model.add_indicator(d, 0, {x: 1.0}, "<=", 0.4)
    report = presolve(model)
    assert report.fixed_binaries == 0
    assert len(model.indicators) == 2
    assert np.all([ind.big_m is not None for ind in model.indicators])


# -- edge cases ---------------------------------------------------------------------


def test_presolve_on_empty_model_is_a_noop():
    model = MILPModel()
    report = presolve(model)
    assert (report.fixed_binaries, report.tightened_big_ms, report.removed_indicators) == (0, 0, 0)
    assert len(model.indicators) == 0
    assert len(model.constraints) == 0


def test_presolve_without_indicators_leaves_constraints_alone():
    model = MILPModel()
    x = model.add_continuous(lower=0.0, upper=1.0, objective=1.0)
    model.add_constraint({x: 1.0}, ">=", 0.5)
    rows_before = len(model.constraints)
    report = presolve(model)
    assert report.removed_indicators == 0
    assert len(model.constraints) == rows_before
    solution = BranchAndBoundSolver().solve(model)
    assert solution.has_solution
    assert solution.objective == pytest.approx(0.5, abs=1e-6)


def test_presolve_keeps_binary_free_when_both_arms_are_impossible():
    # Both arms violate the box: fixing either way would be wrong, so the
    # indicator must survive and infeasibility is left to the solver.
    model = MILPModel()
    x = model.add_continuous(lower=0.0, upper=0.1)
    d = model.add_binary()
    model.add_indicator(d, 1, {x: 1.0}, ">=", 0.9)
    model.add_indicator(d, 0, {x: 1.0}, ">=", 0.5)
    report = presolve(model)
    assert report.fixed_binaries == 0
    assert len(model.indicators) == 2
    solution = BranchAndBoundSolver().solve(model)
    assert not solution.has_solution


def test_presolve_preserves_infeasibility():
    def build() -> MILPModel:
        model = MILPModel()
        x = model.add_continuous(lower=0.0, upper=1.0)
        model.add_constraint({x: 1.0}, ">=", 0.8)
        model.add_constraint({x: 1.0}, "<=", 0.2)
        d = model.add_binary()
        model.add_indicator(d, 1, {x: 1.0}, ">=", 0.5)
        model.add_indicator(d, 0, {x: 1.0}, "<=", 0.5)
        return model

    plain = BranchAndBoundSolver().solve(build())
    reduced_model = build()
    presolve(reduced_model)
    reduced = BranchAndBoundSolver().solve(reduced_model)
    assert not plain.has_solution
    assert not reduced.has_solution


class TestBoundTightener:
    def test_fixes_binary_from_row(self):
        # x0 + x1 <= 1 with x0 fixed to 1 forces the binary x1 to 0.
        rows = np.array([[1.0, 1.0]])
        tightener = BoundTightener(
            rows, ["<="], np.array([1.0]), candidates=np.array([1]), integral=True
        )
        lower = np.array([1.0, 0.0])
        upper = np.array([1.0, 1.0])
        lower, upper, feasible = tightener.tighten(lower, upper)
        assert feasible
        assert upper[1] == 0.0

    def test_detects_infeasible_box(self):
        rows = np.array([[1.0, 1.0]])
        tightener = BoundTightener(
            rows, [">="], np.array([3.0]), candidates=np.array([0, 1]), integral=True
        )
        lower = np.zeros(2)
        upper = np.ones(2)
        _, _, feasible = tightener.tighten(lower, upper)
        assert not feasible

    def test_objective_cutoff_prunes(self):
        rows = np.zeros((0, 2))
        tightener = BoundTightener(
            rows,
            [],
            np.zeros(0),
            candidates=np.array([0, 1]),
            integral=True,
            objective_row=np.array([1.0, 1.0]),
        )
        lower = np.array([1.0, 1.0])
        upper = np.array([1.0, 1.0])
        _, _, feasible = tightener.tighten(lower, upper, cutoff=1.5)
        assert not feasible
        lower = np.array([0.0, 0.0])
        upper = np.array([1.0, 1.0])
        lower, upper, feasible = tightener.tighten(lower, upper, cutoff=0.5)
        assert feasible
        assert np.all(upper == 0.0)  # integral rounding fixed both binaries


def _covering_knapsack(seed: int, items: int = 8) -> MILPModel:
    """A small min-cost covering knapsack with genuinely fractional LPs."""
    rng = np.random.default_rng(seed)
    model = MILPModel()
    costs = rng.uniform(1.0, 3.0, size=items)
    for i in range(items):
        model.add_binary(objective=float(costs[i]), name=f"b{i}")
    weights = rng.uniform(0.5, 2.0, size=items)
    model.add_constraint(
        {i: float(weights[i]) for i in range(items)}, ">=", float(weights.sum() / 3)
    )
    model.add_constraint({i: 1.0 for i in range(items)}, "<=", float(items // 2))
    return model


def _indicator_model(seed: int) -> MILPModel:
    """Continuous weights on a simplex, binaries switching big-M rows."""
    rng = np.random.default_rng(seed)
    model = MILPModel()
    w = [model.add_continuous(upper=1.0) for _ in range(3)]
    model.add_constraint({i: 1.0 for i in w}, "==", 1.0)
    for _ in range(5):
        diff = rng.uniform(-1.0, 1.0, size=3)
        d = model.add_binary(objective=float(rng.uniform(0.5, 2.0)))
        # d == 0 forces the weighted difference above a margin.
        model.add_indicator(d, 0, {i: float(diff[i]) for i in w}, ">=", 0.05)
    return model


def _brute_force_optimum(model: MILPModel) -> float:
    """Best objective over every binary assignment (one LP per assignment)."""
    binaries = model.binary_indices
    relaxation = model.build_relaxation()
    lower, upper = relaxation.lower_bounds.copy(), relaxation.upper_bounds.copy()
    best = float("inf")
    for values in itertools.product((0.0, 1.0), repeat=len(binaries)):
        fixed_lower, fixed_upper = lower.copy(), upper.copy()
        fixed_lower[binaries] = fixed_upper[binaries] = values
        relaxation.set_all_bounds(fixed_lower, fixed_upper)
        solution = relaxation.solve()
        if solution.is_optimal:
            best = min(best, solution.objective)
    return best


def test_bound_tightening_preserves_the_optimum():
    """Branch-and-bound (which tightens every node) matches enumeration."""
    models = [_covering_knapsack(seed) for seed in range(3)]
    models += [_indicator_model(seed) for seed in range(2)]
    for index, model in enumerate(models):
        expected = _brute_force_optimum(model)
        solution = BranchAndBoundSolver().solve(model)
        assert solution.status is MILPStatus.OPTIMAL, index
        assert solution.objective == pytest.approx(expected, abs=1e-7), index
