"""HiGHS's branch-and-cut (:mod:`repro.solvers.highs_milp`) next to the
in-repo branch-and-bound.

The small models are the solver-agnostic cases of
``test_branch_and_bound.py``, which runs them on the branch-and-bound; here
they run on HiGHS.  The scenario families run the whole-simplex RankHow
path, which hands its MILP to HiGHS, against the branch-and-bound on a
full-box cell: every ``optimal`` answer passes every check, HiGHS answers
bit-identically run to run, and where both solvers prove optimality their
errors agree.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.rankhow import RankHow, RankHowOptions
from repro.scenarios import list_families
from repro.scenarios.generator import scenario_problem
from repro.solvers.branch_and_bound import SolverOptions
from repro.solvers.highs_milp import HighsMILPSolver
from repro.solvers.milp import MILPModel, MILPStatus

CASES = [(family, index) for family in list_families() for index in (0, 1)]


def _knapsack(values, weights, capacity) -> MILPModel:
    """0/1 knapsack as a minimization MILP (negated values)."""
    model = MILPModel()
    items = [model.add_binary(objective=-float(v)) for v in values]
    model.add_constraint(
        {item: float(w) for item, w in zip(items, weights)}, "<=", float(capacity)
    )
    return model


def test_knapsack_optimum():
    solution = HighsMILPSolver().solve(_knapsack([10, 13, 7, 8], [3, 4, 2, 3], 6))
    assert solution.status is MILPStatus.OPTIMAL
    assert solution.objective == pytest.approx(-20.0)
    assert solution.best_bound == pytest.approx(-20.0)
    assert solution.gap == pytest.approx(0.0)


def test_all_binary_equality():
    model = MILPModel()
    b = [model.add_binary(objective=float(i + 1)) for i in range(3)]
    model.add_constraint({var: 1.0 for var in b}, "==", 2.0)
    solution = HighsMILPSolver().solve(model)
    assert solution.status is MILPStatus.OPTIMAL
    assert solution.objective == pytest.approx(3.0)
    assert round(solution.x[b[2]]) == 0


def test_mixed_integer_continuous():
    model = MILPModel()
    x = model.add_continuous(upper=1.0, objective=-1.0)
    d = model.add_binary(objective=-10.0)
    model.add_constraint({x: 1.0, d: -0.3}, "<=", 0.7)
    solution = HighsMILPSolver().solve(model)
    assert solution.status is MILPStatus.OPTIMAL
    assert solution.objective == pytest.approx(-11.0)
    assert solution.x[x] == pytest.approx(1.0)


def test_infeasible_model():
    model = MILPModel()
    d = model.add_binary()
    model.add_constraint({d: 1.0}, ">=", 2.0)
    solution = HighsMILPSolver().solve(model)
    assert solution.status is MILPStatus.INFEASIBLE
    assert not solution.has_solution


def test_indicator_constraints_respected():
    model = MILPModel()
    x = model.add_continuous(upper=1.0, objective=-1.0)
    d = model.add_binary()
    model.add_indicator(d, 1, {x: 1.0}, ">=", 0.6, big_m=1.0)
    model.add_indicator(d, 0, {x: 1.0}, "<=", 0.4, big_m=1.0)
    model.add_constraint({d: 1.0}, "<=", 0.0)
    solution = HighsMILPSolver().solve(model)
    assert solution.status is MILPStatus.OPTIMAL
    assert solution.objective == pytest.approx(-0.4)


def test_node_limit_reports_feasible_or_no_solution():
    model = _knapsack(list(range(1, 11)), [1] * 10, 5)
    solution = HighsMILPSolver(SolverOptions(node_limit=1)).solve(model)
    assert solution.status in (
        MILPStatus.FEASIBLE,
        MILPStatus.OPTIMAL,
        MILPStatus.NO_SOLUTION,
    )
    assert solution.nodes <= 1


def test_initial_incumbent_is_used():
    model = _knapsack([5, 4], [1, 1], 1)
    options = SolverOptions(initial_incumbent=np.array([1.0, 0.0]), node_limit=0)
    solution = HighsMILPSolver(options).solve(model)
    assert solution.has_solution
    assert solution.objective == pytest.approx(-5.0)


def test_time_limit_zero_terminates_quickly():
    model = _knapsack(list(range(1, 13)), [1] * 12, 6)
    solution = HighsMILPSolver(SolverOptions(time_limit=0.0)).solve(model)
    assert solution.nodes <= 1


@pytest.mark.parametrize(
    "options", [{"node_limit": -1}, {"time_limit": -1.0}], ids=["node_limit", "time_limit"]
)
def test_out_of_range_limits_raise(options):
    with pytest.raises(ValueError, match="HiGHS rejected"):
        HighsMILPSolver(SolverOptions(**options)).solve(_knapsack([5, 4], [1, 1], 1))


def test_continuous_model_is_its_own_bound():
    """Without a binary HiGHS runs an LP: its optimum is the bound, 0 nodes."""
    model = MILPModel()
    x = model.add_continuous(upper=5.0, objective=1.0)
    model.add_constraint({x: 1.0}, ">=", 2.5)
    solution = HighsMILPSolver().solve(model)
    assert solution.status is MILPStatus.OPTIMAL
    assert solution.objective == solution.best_bound == pytest.approx(2.5)
    assert solution.nodes == 0
    assert solution.gap == 0.0


def test_solution_reads_the_binding_info(monkeypatch):
    """``best_bound``, ``nodes`` and ``lp_iterations`` are HiGHS's own
    counters, and the gap computed like the branch-and-bound's equals
    HiGHS's ``mip_gap`` once the objective is at least 1."""
    from scipy.optimize._highspy import _core as highs

    runs = []

    class Recording(highs._Highs):
        def run(self):
            status = super().run()
            runs.append(self)
            return status

    monkeypatch.setattr(highs, "_Highs", Recording)
    problem = scenario_problem("heavy_tail", 1, seed=0)
    result = RankHow(RankHowOptions(node_limit=2, verify=False)).solve(problem)
    [run] = runs
    info = run.getInfo()
    assert result.diagnostics["status"] == "feasible"
    assert result.diagnostics["best_bound"] == info.mip_dual_bound
    assert result.nodes == info.mip_node_count == 2
    assert result.diagnostics["lp_iterations"] == info.simplex_iteration_count > 0
    assert abs(result.objective) >= 1.0
    assert result.diagnostics["gap"] == pytest.approx(info.mip_gap)


@pytest.mark.parametrize("family,index", CASES, ids=[f"{f}-{i}" for f, i in CASES])
def test_whole_simplex_answers_are_proven_and_repeatable(family, index):
    problem = scenario_problem(family, index, seed=0)
    m = problem.num_attributes
    first, second = (RankHow().solve(problem) for _ in range(2))
    for result in (first, second):
        diagnostics = result.diagnostics
        assert result.optimal, (family, index, diagnostics)
        assert diagnostics["status"] == "optimal"
        assert result.error == problem.error_of(result.weights)
        assert result.error == round(result.objective)
        assert result.error == math.ceil(diagnostics["best_bound"] - 1e-6)
        assert result.verified is not False
    assert first.weights.tobytes() == second.weights.tobytes()
    assert first.error == second.error
    cell = RankHow(RankHowOptions(node_limit=2000)).solve(
        problem, cell_bounds=(np.zeros(m), np.ones(m))
    )
    if cell.optimal:
        assert cell.error == first.error, (family, index)


def test_a_zero_error_seed_proves_at_the_root():
    problem = scenario_problem("large_k", 0, seed=0)
    options = RankHowOptions(warm_start_strategy="ordinal_regression")
    result = RankHow(options).solve(problem)
    assert result.error == 0
    assert result.optimal
    assert result.nodes == 0
