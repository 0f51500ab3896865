"""Tests for the branch-and-bound MILP solver."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.solvers.branch_and_bound import (
    BranchAndBoundSolver,
    SolverOptions,
    _branch_variable,
)
from repro.solvers.lp import LinearProgram, LPSolution, LPStatus
from repro.solvers.milp import MILPModel, MILPStatus


def _knapsack(values, weights, capacity) -> MILPModel:
    """0/1 knapsack as a minimization MILP (negated values)."""
    model = MILPModel()
    items = [model.add_binary(objective=-float(v), name=f"item{i}") for i, v in enumerate(values)]
    model.add_constraint(
        {item: float(w) for item, w in zip(items, weights)}, "<=", float(capacity)
    )
    return model


def test_knapsack_optimum():
    model = _knapsack(values=[10, 13, 7, 8], weights=[3, 4, 2, 3], capacity=6)
    solution = BranchAndBoundSolver().solve(model)
    assert solution.status is MILPStatus.OPTIMAL
    # Best subset: items 1 and 2 (value 20) beats 0+3 (18) and 0+2 (17).
    assert solution.objective == pytest.approx(-20.0)


def test_all_binary_equality():
    # Exactly two of three binaries must be one; minimize x0 + 2 x1 + 3 x2.
    model = MILPModel()
    b = [model.add_binary(objective=float(i + 1)) for i in range(3)]
    model.add_constraint({var: 1.0 for var in b}, "==", 2.0)
    solution = BranchAndBoundSolver().solve(model)
    assert solution.status is MILPStatus.OPTIMAL
    assert solution.objective == pytest.approx(3.0)
    assert round(solution.x[b[2]]) == 0


def test_mixed_integer_continuous():
    # min -x - 10 d  s.t.  x <= 0.7 + 0.3 d, x in [0,1], d binary.
    model = MILPModel()
    x = model.add_continuous(upper=1.0, objective=-1.0)
    d = model.add_binary(objective=-10.0)
    model.add_constraint({x: 1.0, d: -0.3}, "<=", 0.7)
    solution = BranchAndBoundSolver().solve(model)
    assert solution.status is MILPStatus.OPTIMAL
    assert solution.objective == pytest.approx(-11.0)
    assert solution.x[x] == pytest.approx(1.0)


def test_infeasible_model():
    model = MILPModel()
    d = model.add_binary()
    model.add_constraint({d: 1.0}, ">=", 2.0)
    solution = BranchAndBoundSolver().solve(model)
    assert solution.status is MILPStatus.INFEASIBLE
    assert not solution.has_solution


def test_indicator_constraints_respected():
    # delta = 1 => x >= 0.6, delta = 0 => x <= 0.4; maximize x (min -x) while
    # forcing delta = 0 through a constraint: the optimum is x = 0.4.
    model = MILPModel()
    x = model.add_continuous(upper=1.0, objective=-1.0)
    d = model.add_binary()
    model.add_indicator(d, 1, {x: 1.0}, ">=", 0.6, big_m=1.0)
    model.add_indicator(d, 0, {x: 1.0}, "<=", 0.4, big_m=1.0)
    model.add_constraint({d: 1.0}, "<=", 0.0)
    solution = BranchAndBoundSolver().solve(model)
    assert solution.status is MILPStatus.OPTIMAL
    assert solution.objective == pytest.approx(-0.4)


def test_node_limit_reports_feasible_or_no_solution():
    model = _knapsack(values=list(range(1, 11)), weights=[1] * 10, capacity=5)
    options = SolverOptions(node_limit=1)
    solution = BranchAndBoundSolver(options).solve(model)
    assert solution.status in (
        MILPStatus.FEASIBLE,
        MILPStatus.OPTIMAL,
        MILPStatus.NO_SOLUTION,
    )
    assert solution.nodes <= 1


def test_initial_incumbent_is_used():
    model = _knapsack(values=[5, 4], weights=[1, 1], capacity=1)
    incumbent = np.array([1.0, 0.0])  # value 5 - already optimal
    options = SolverOptions(initial_incumbent=incumbent, node_limit=0)
    solution = BranchAndBoundSolver(options).solve(model)
    assert solution.has_solution
    assert solution.objective == pytest.approx(-5.0)


def test_incumbent_callback_is_honoured():
    calls = {"count": 0}

    def callback(x_relax, model):
        calls["count"] += 1
        candidate = np.zeros(model.num_vars)
        candidate[0] = 1.0  # item 0 alone is feasible
        return candidate

    model = _knapsack(values=[5, 4, 3], weights=[2, 2, 2], capacity=3)
    options = SolverOptions(incumbent_callback=callback)
    solution = BranchAndBoundSolver(options).solve(model)
    assert calls["count"] >= 1
    assert solution.has_solution
    assert solution.objective <= -5.0 + 1e-9


def test_gap_tolerance_allows_early_proof_for_integer_objectives():
    model = _knapsack(values=[6, 5, 4], weights=[3, 2, 2], capacity=4)
    options = SolverOptions(gap_tolerance=1.0 - 1e-6)
    solution = BranchAndBoundSolver(options).solve(model)
    assert solution.status is MILPStatus.OPTIMAL
    assert solution.objective == pytest.approx(-9.0)


def test_time_limit_zero_terminates_quickly():
    model = _knapsack(values=list(range(1, 13)), weights=[1] * 12, capacity=6)
    options = SolverOptions(time_limit=0.0)
    solution = BranchAndBoundSolver(options).solve(model)
    assert solution.nodes <= 1


def test_lp_errors_do_not_count_as_pruned(monkeypatch):
    """A node whose LP keeps failing leaves its parent bound standing."""
    real_solve = LinearProgram.solve
    objectives: list[float] = []
    failing: list[tuple] = []

    def flaky_solve(self, *args, **kwargs):
        key = (tuple(self.lower_bounds), tuple(self.upper_bounds))
        if len(objectives) == 1 and not failing:
            failing.append(key)  # the first node after the root
        if key in failing:
            return LPSolution(LPStatus.ERROR, np.zeros(0), float("nan"))
        solution = real_solve(self, *args, **kwargs)
        objectives.append(solution.objective)
        return solution

    monkeypatch.setattr(LinearProgram, "solve", flaky_solve)
    model = _knapsack(values=[10, 13, 7, 8], weights=[3, 4, 2, 3], capacity=6)
    solution = BranchAndBoundSolver().solve(model)
    assert failing, "the search never reached a second node"
    root_bound = objectives[0]  # the failing node's parent bound
    assert root_bound < -20.0  # fractional root: the subtree could matter
    assert solution.status is not MILPStatus.OPTIMAL
    assert solution.has_solution
    assert solution.best_bound <= root_bound + 1e-9


def test_lp_iterations_count_infeasible_nodes(monkeypatch):
    """``lp_iterations`` totals every node solve, infeasible nodes included."""
    from repro.core.formulation import RankHowFormulation
    from repro.scenarios.generator import scenario_problem

    real_solve = LinearProgram.solve
    solves: list[LPSolution] = []

    def counting_solve(self):
        solves.append(real_solve(self))
        return solves[-1]

    monkeypatch.setattr(LinearProgram, "solve", counting_solve)
    model = RankHowFormulation(scenario_problem("duplicate_tuples", 0, seed=0)).model
    solution = BranchAndBoundSolver(SolverOptions(node_limit=40)).solve(model)
    infeasible = [s.iterations for s in solves if s.status is LPStatus.INFEASIBLE]
    assert sum(infeasible) > 0
    assert solution.lp_iterations == sum(s.iterations for s in solves)


def test_branch_variable_matches_the_per_binary_loop():
    """The array form picks the binary the per-binary loop it replaced did."""
    binaries = np.array([0, 2, 3, 5, 6])
    rng = np.random.default_rng(0)
    cases = [rng.uniform(-0.2, 1.2, 8) for _ in range(300)]
    cases += [
        np.array([0.25, 9.0, 0.75, 0.5, 0.5, 9.0, -0.0, 0.4]),  # ties: first wins
        np.array([0.0, 9.0, 1e-7, 1.0 - 1e-7, -2e-7, 9.0, 2.5, 0.0]),
        np.array([1.0, 9.0, 0.0, -0.0, 1.0, 9.0, 1.0, 0.5]),  # all integral
        np.array([2e-6, 9.0, 1.0 - 2e-6, 1.0, 0.0, 9.0, 1.0, 0.5]),
    ]
    for x in cases:
        fractional = [i for i in binaries.tolist() if abs(x[i] - round(x[i])) > 1e-6]
        expected = min(fractional, key=lambda i: abs(x[i] - 0.5)) if fractional else None
        chosen = _branch_variable(x, binaries, 1e-6)
        assert chosen == expected and type(chosen) is type(expected)


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


def test_branch_and_bound_matches_enumeration():
    """Branch-and-bound proves the optimum enumeration finds."""
    models = [_covering_knapsack(seed) for seed in range(3)]
    models += [_indicator_model(seed) for seed in range(2)]
    for index, model in enumerate(models):
        expected = _brute_force_optimum(model)
        solution = BranchAndBoundSolver().solve(model)
        assert solution.status is MILPStatus.OPTIMAL, index
        assert solution.objective == pytest.approx(expected, abs=1e-7), index
