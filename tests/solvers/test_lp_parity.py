"""LP backend parity: ``LinearProgram.solve`` against the ``linprog`` reference.

``LinearProgram.solve`` hands each relaxation to HiGHS through SciPy's
bundled binding; :func:`repro.testing.lp_reference` is the
``scipy.optimize.linprog(method="highs")`` call it replaced.  Every LP the
solvers produce -- branch-and-bound nodes on every scenario family, TREE
regions, the ordinal-regression seed -- must come back bit for bit the same
from both: status, ``x``, objective and iteration count.  The binding is a
private SciPy module, so this file is also the alarm for a SciPy release
that moves it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.ordinal_regression import OrdinalRegressionBaseline
from repro.core.cells import cell_around
from repro.core.formulation import RankHowFormulation
from repro.core.tree import TreeOptions, TreeSolver
from repro.scenarios.families import list_families
from repro.scenarios.generator import scenario_problem
from repro.solvers.branch_and_bound import BranchAndBoundSolver, SolverOptions
from repro.solvers.lp import LinearProgram, LPStatus
from repro.testing import lp_differences, lp_reference


@pytest.fixture
def parity(monkeypatch):
    """Solve every LP through both paths; record the solves and any mismatch."""
    log = {"solves": 0, "mismatches": []}
    direct = LinearProgram.solve

    def both(lp):
        ours = direct(lp)
        problems = lp_differences(ours, lp_reference(lp))
        log["solves"] += 1
        if problems:
            log["mismatches"].append((log["solves"], problems))
        return ours

    monkeypatch.setattr(LinearProgram, "solve", both)
    return log


def _assert_parity(log, minimum_solves=1):
    assert log["solves"] >= minimum_solves
    assert not log["mismatches"], log["mismatches"][:5]


@pytest.mark.parametrize("family", list_families())
def test_branch_and_bound_node_lps_match_reference(family, parity):
    problem = scenario_problem(family, 0, seed=0)
    m = problem.num_attributes
    cell = cell_around(np.full(m, 1.0 / m), 0.4)
    for box in (None, (cell.lower, cell.upper)):
        formulation = RankHowFormulation(problem, cell_bounds=box)
        options = SolverOptions(
            node_limit=40, incumbent_callback=formulation.incumbent_callback
        )
        BranchAndBoundSolver(options).solve(formulation.model)
    _assert_parity(parity)


@pytest.mark.parametrize("family", ["rank_reversal", "tolerance_boundary"])
def test_tree_region_lps_match_reference(family, parity):
    TreeSolver(TreeOptions(node_limit=60)).solve(scenario_problem(family, 0, seed=0))
    _assert_parity(parity, minimum_solves=10)


def test_ordinal_regression_seed_lp_matches_reference(parity):
    for family in list_families():
        OrdinalRegressionBaseline().solve(scenario_problem(family, 0, seed=0))
    _assert_parity(parity, minimum_solves=len(list_families()))


# -- edge cases ---------------------------------------------------------------


def _assert_same(lp: LinearProgram, status: LPStatus | None = None):
    ours = lp.solve()
    assert lp_differences(ours, lp_reference(lp)) == []
    if status is not None:
        assert ours.status is status
    return ours


def _covering_lp() -> LinearProgram:
    lp = LinearProgram(2)
    lp.set_objective([1.0, 2.0])
    lp.add_constraint([1.0, 1.0], ">=", 0.5)
    lp.set_all_bounds(np.zeros(2), np.ones(2))
    return lp


def test_crossed_bounds_within_tolerance_are_optimal():
    lp = _covering_lp()
    lp.set_all_bounds(np.array([0.5 + 1e-12, 0.0]), np.array([0.5, 1.0]))
    _assert_same(lp, LPStatus.OPTIMAL)


def test_crossed_bounds_beyond_tolerance_are_infeasible():
    lp = _covering_lp()
    lp.set_all_bounds(np.array([1.5, 0.0]), np.array([0.5, 1.0]))
    _assert_same(lp, LPStatus.INFEASIBLE)


def test_unbounded_lps():
    lp = LinearProgram(2)
    lp.set_objective([-1.0, 0.0])
    lp.add_constraint([1.0, -1.0], ">=", 0.0)
    _assert_same(lp, LPStatus.UNBOUNDED)
    free = LinearProgram(2)
    free.set_objective([1.0, 1.0])
    free.set_all_bounds(np.full(2, -np.inf), np.full(2, np.inf))
    free.add_constraint([1.0, -1.0], "==", 0.25)
    _assert_same(free, LPStatus.UNBOUNDED)


def test_lp_without_rows():
    lp = LinearProgram(3)
    lp.set_objective([1.0, -1.0, 0.0])
    lp.set_all_bounds(np.zeros(3), np.ones(3))
    assert _assert_same(lp, LPStatus.OPTIMAL).objective == -1.0
    lp.set_all_bounds(np.zeros(3), np.full(3, np.inf))
    _assert_same(lp, LPStatus.UNBOUNDED)


def test_equality_only_lp():
    lp = LinearProgram(3)
    lp.set_objective([3.0, 1.0, 2.0])
    lp.add_constraints(np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]), ["==", "=="], [1.0, 0.2])
    _assert_same(lp, LPStatus.OPTIMAL)


def test_infeasible_lp_reports_its_iterations():
    # Presolve cannot settle this one: HiGHS iterates before proving it
    # infeasible, and those iterations are counted like an optimum's.
    lp = LinearProgram(3)
    lp.set_objective([0.3, 0.2, 0.5])
    lp.set_all_bounds(np.zeros(3), np.ones(3))
    lp.add_constraint(np.ones(3), "==", 1.0)
    lp.add_constraints(
        np.array(
            [[0.9, -0.3, 0.1], [-0.4, 0.2, -0.3], [-0.2, 0.8, -0.5], [0.2, -0.8, 0.7]]
        ),
        [">="] * 4,
        [0.19, -0.08, 0.24, -0.17],
    )
    solution = _assert_same(lp, LPStatus.INFEASIBLE)
    assert solution.iterations > 0


@pytest.mark.parametrize("where", ["c", "A_ub", "b_ub", "A_eq", "b_eq"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_like_the_reference(where, value):
    lp = LinearProgram(2)
    lp.set_objective([1.0, 1.0])
    lp.add_constraint([1.0, 1.0], ">=", 0.5)
    lp.add_constraint([1.0, -1.0], "==", 0.0)
    if where == "c":
        lp.objective[0] = value
    else:
        row = 0 if where.endswith("ub") else 1
        if where.startswith("A"):
            lp._row_blocks[row][0, 1] = value
        else:
            lp._rhs[row] = value
    with pytest.raises(ValueError, match=f"{where} must"):
        lp_reference(lp)
    with pytest.raises(ValueError, match=f"{where} must"):
        lp.solve()


def test_objective_assignment_after_a_solve_is_honoured():
    lp = _covering_lp()
    first = _assert_same(lp, LPStatus.OPTIMAL)
    lp.objective = np.array([2.0, 1.0])
    second = _assert_same(lp, LPStatus.OPTIMAL)
    assert first.x.tolist() == [0.5, 0.0] and second.x.tolist() == [0.0, 0.5]


def test_row_added_after_a_solve_is_honoured():
    lp = _covering_lp()
    _assert_same(lp, LPStatus.OPTIMAL)
    lp.add_constraint([0.0, 1.0], ">=", 0.25)
    assert _assert_same(lp, LPStatus.OPTIMAL).x.tolist() == [0.25, 0.25]
    lp.add_constraint([1.0, 0.0], "<=", -1.0)
    _assert_same(lp, LPStatus.INFEASIBLE)
