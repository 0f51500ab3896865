"""Tests for the per-node bound tightener."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.solvers.branch_and_bound import BoundTightener, BranchAndBoundSolver
from repro.solvers.milp import MILPModel, MILPStatus


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
