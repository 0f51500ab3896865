"""LP backend parity: ``LinearProgram.solve`` against the ``linprog`` reference.

``LinearProgram.solve`` hands each relaxation to HiGHS through SciPy's
bundled binding; :func:`repro.testing.lp_reference` is the
``scipy.optimize.linprog(method="highs")`` call it replaced.  The model
hands HiGHS a column-wise matrix it builds from its sparse rows, and keeps
one HiGHS instance per relaxation: ``passModel`` and a cold ``run`` on the
first solve, then ``changeColsCost``, ``changeColsBounds`` and a ``run``
warm from the previous basis per re-solve.  Every LP the solvers produce --
branch-and-bound nodes on every scenario family, TREE regions, the
ordinal-regression seed -- is checked against the reference: a cold solve
bit for bit (status, ``x``, objective and iteration count), a warm re-solve
to the contract of :func:`repro.testing.lp_resolve_differences` (same
status, objective within 1e-9 relative, ``x`` within the bounds and rows).
This file also checks HiGHS's arrays against SciPy's own conversion of the
dense rows, that repeated branch-and-bound runs repeat their warm
sequences bit for bit, and when an instance is reused or dropped.  The
binding is a private SciPy module, so this file is also the alarm for a
SciPy release that moves it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csc_array

from repro.baselines.ordinal_regression import OrdinalRegressionBaseline
from repro.core.cells import cell_around
from repro.core.formulation import RankHowFormulation
from repro.core.tree import TreeOptions, TreeSolver
from repro.scenarios.families import list_families
from repro.scenarios.generator import scenario_problem
from repro.solvers.branch_and_bound import BranchAndBoundSolver, SolverOptions
from repro.solvers.lp import LinearProgram, LPSolution, LPStatus
from repro.testing import (
    lp_differences,
    lp_reference,
    lp_resolve_differences,
    recorded_lps,
)


@pytest.fixture
def parity():
    """Record every LP solve made in the test."""
    with recorded_lps() as records:
        yield records


def _assert_parity(records, minimum_solves=1):
    """Each recorded solve against the reference: a cold one bit for bit, a
    warm one to the re-solve contract."""
    assert len(records) >= minimum_solves
    mismatches = []
    for number, (lp, objective, lower, upper, warm, ours) in enumerate(records, 1):
        lp.objective, lp.lower_bounds, lp.upper_bounds = objective, lower, upper
        reference = lp_reference(lp)
        if warm:
            problems = lp_resolve_differences(lp, ours, reference)
        else:
            problems = lp_differences(ours, reference)
        if problems:
            mismatches.append((number, problems))
    assert not mismatches, mismatches[:5]


def _node_lp_runs(family):
    """The formulations of one problem per box: the whole simplex and a 0.4
    cell, with the branch-and-bound options the node-LP tests run."""
    problem = scenario_problem(family, 0, seed=0)
    m = problem.num_attributes
    cell = cell_around(np.full(m, 1.0 / m), 0.4)
    for box in (None, (cell.lower, cell.upper)):
        formulation = RankHowFormulation(problem, cell_bounds=box)
        options = SolverOptions(node_limit=40, incumbent_callback=formulation.incumbent_callback)
        yield formulation.model, options


@pytest.mark.parametrize("family", list_families())
def test_branch_and_bound_node_lps_match_reference(family, parity):
    for model, options in _node_lp_runs(family):
        BranchAndBoundSolver(options).solve(model)
    # Each of the two relaxations is solved cold first, and nothing here
    # drops one, so every later solve is warm.
    assert [warm for *_, warm, _ in parity].count(False) == 2
    _assert_parity(parity)


@pytest.mark.parametrize("family", list_families())
def test_branch_and_bound_repeats_its_warm_sequence(family):
    """Each solve builds its own relaxation, and best-first search fixes the
    order of its node LPs, so a second solve repeats every node LP (status,
    ``x``, objective, iterations) and the answer bit for bit."""
    for model, options in _node_lp_runs(family):
        runs = []
        for _ in range(2):
            with recorded_lps() as records:
                answer = BranchAndBoundSolver(options).solve(model)
            runs.append(([record[-1] for record in records], answer))
        (first_lps, first), (second_lps, second) = runs
        assert len(first_lps) == len(second_lps) > 0
        assert all(not lp_differences(a, b) for a, b in zip(first_lps, second_lps))
        assert first.status is second.status and first.x.tobytes() == second.x.tobytes()
        for field in ("objective", "best_bound", "gap", "nodes", "lp_iterations"):
            assert repr(getattr(first, field)) == repr(getattr(second, field)), field


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
    inputs = {"c": [1.0, 1.0], "A_ub": [1.0, 1.0], "b_ub": 0.5, "A_eq": [1.0, -1.0], "b_eq": 0.0}
    if where == "c":
        inputs["c"] = [value, 1.0]
    elif where.startswith("A"):
        inputs[where] = [inputs[where][0], value]
    else:
        inputs[where] = value
    lp = LinearProgram(2)
    lp.set_objective(inputs["c"])
    lp.add_constraint(inputs["A_ub"], ">=", inputs["b_ub"])
    lp.add_constraint(inputs["A_eq"], "==", inputs["b_eq"])
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


# -- the column-wise matrix handed to HiGHS ------------------------------------


def _assert_highs_gets_the_dense_rows(lp: LinearProgram):
    a_ub, _ = lp.inequality_matrix()
    a_eq, _ = lp.equality_matrix()
    expected = csc_array(np.vstack((a_ub, a_eq)))
    matrix = lp._prepared()[0].a_matrix_
    for handed, wanted in (
        (matrix.start_, expected.indptr),
        (matrix.index_, expected.indices),
        (matrix.value_, expected.data),
    ):
        handed = np.asarray(handed, dtype=wanted.dtype)
        assert handed.shape == wanted.shape and handed.tobytes() == wanted.tobytes()


@pytest.mark.parametrize("family", list_families())
def test_highs_matrix_is_the_csc_of_the_dense_rows(family):
    problem = scenario_problem(family, 0, seed=0)
    m = problem.num_attributes
    cell = cell_around(np.full(m, 1.0 / m), 0.4)
    for box in (None, (cell.lower, cell.upper)):
        model = RankHowFormulation(problem, cell_bounds=box).model
        _assert_highs_gets_the_dense_rows(model.build_relaxation())
    _assert_highs_gets_the_dense_rows(OrdinalRegressionBaseline().build_lp(problem)[0])


def test_repeated_and_zero_entries_reach_highs_like_the_dense_rows():
    lp = LinearProgram(3)
    # Row 0 repeats column 1 and stores explicit zeros; row 1's column-2
    # entries cancel; the >= row 2 is negated on the way.
    lp.add_rows(
        [0, 5, 7, 9],
        [1, 0, 1, 2, 0, 2, 2, 1, 0],
        [0.1, 0.0, 0.2, 1.0, -0.0, 1.0, -1.0, 0.3, 0.7],
        ["<=", "==", ">="],
        [1.0, 0.0, 0.5],
    )
    dense, senses, rhs = lp.constraint_rows()
    assert dense[0].tolist() == [0.0, 0.1 + 0.2, 1.0] and dense[1, 2] == 0.0
    _assert_highs_gets_the_dense_rows(lp)
    _assert_same(lp)


# -- one HiGHS instance per relaxation ----------------------------------------


def _iterating_lp() -> LinearProgram:
    """An LP that HiGHS still needs simplex iterations for after presolve."""
    lp = LinearProgram(4)
    lp.set_objective([0.74, 0.67, 0.68, 0.46])
    lp.add_constraint(np.ones(4), "==", 1.0)
    lp.add_constraints(
        np.array(
            [
                [-0.59, -0.35, 0.61, -0.37],
                [-0.7, 0.4, -0.1, 0.6],
                [-0.53, -0.36, 0.6, 0.01],
                [0.01, -0.53, -0.97, 0.87],
                [-0.83, 0.69, -0.26, 0.9],
                [-0.2, 0.87, 0.11, -0.52],
            ]
        ),
        [">="] * 6,
        [-0.22, -0.08, -0.26, -0.06, -0.08, -0.17],
    )
    return lp


def _instance(lp: LinearProgram):
    return lp._matrix_cache.get("solver")


def _assert_fresh_and_reference(
    lp: LinearProgram, status: LPStatus, warm: bool = False
) -> LPSolution:
    """Solve ``lp`` and hold the answer against a fresh instance's and the
    reference's: bit for bit when the solve is cold, to the re-solve
    contract when it is warm."""
    ours = lp.solve()
    assert ours.status is status
    for cold in (lp.copy().solve(), lp_reference(lp)):
        if warm:
            assert lp_resolve_differences(lp, ours, cold) == []
        else:
            assert lp_differences(ours, cold) == []
    return ours


def _assert_resolve_stays_put(lp: LinearProgram, answer: LPSolution) -> None:
    """Re-solving an unchanged model starts at its optimum: the same answer,
    with no iteration."""
    again = lp.solve()
    assert again.iterations == 0
    assert lp_differences(again, replace(answer, iterations=0)) == []


def test_reused_instance_matches_a_fresh_one():
    lp = _iterating_lp()
    nan = np.nan
    steps = [
        (LPStatus.OPTIMAL, lambda: lp.set_all_bounds(np.zeros(4), np.ones(4))),
        # Crossed bounds: within HiGHS's tolerance, then beyond it.
        (LPStatus.OPTIMAL, lambda: lp.set_all_bounds([1e-12, 0, 0, 0], [0, 1, 1, 1])),
        (LPStatus.INFEASIBLE, lambda: lp.set_all_bounds([0.5, 0, 0, 0], [0.25, 1, 1, 1])),
        # A box whose weights cannot sum to 1.
        (LPStatus.INFEASIBLE, lambda: lp.set_all_bounds(np.zeros(4), np.full(4, 0.2))),
        (LPStatus.OPTIMAL, lambda: lp.set_all_bounds([nan, 0, 0, 0], [1, nan, 1, 1])),
        (LPStatus.OPTIMAL, lambda: lp.set_objective([0.2, 0.9, 0.1, 0.8])),
    ]
    loaded = None
    for status, change in steps:
        change()
        last = _assert_fresh_and_reference(lp, status, warm=loaded is not None)
        assert loaded is None or _instance(lp) is loaded
        loaded = _instance(lp)
    assert last.iterations > 0
    _assert_resolve_stays_put(lp, last)
    # A new row drops the instance; the next solve loads a new one, cold.
    lp.add_constraint([0.0, 1.0, -1.0, 0.0], ">=", 0.1)
    assert _instance(lp) is None
    _assert_fresh_and_reference(lp, LPStatus.OPTIMAL)
    assert _instance(lp) not in (None, loaded)


def test_unbounded_solve_drops_the_instance():
    lp = _iterating_lp()
    lp.set_all_bounds(np.zeros(4), np.ones(4))
    first = _assert_fresh_and_reference(lp, LPStatus.OPTIMAL)
    assert first.iterations > 0
    lp.set_all_bounds(np.full(4, -np.inf), np.full(4, np.inf))
    _assert_fresh_and_reference(lp, LPStatus.UNBOUNDED, warm=True)
    assert _instance(lp) is None
    # The next solve loads the model afresh: cold, bit for bit.
    lp.set_all_bounds(np.zeros(4), np.ones(4))
    assert lp_differences(_assert_fresh_and_reference(lp, LPStatus.OPTIMAL), first) == []
    assert _instance(lp) is not None


def test_load_error_drops_the_instance():
    lp = _iterating_lp()
    lp.set_all_bounds(np.zeros(4), np.ones(4))
    first = lp.solve()
    # HiGHS rejects a +inf lower bound when the bounds are written.
    lp.set_all_bounds([np.inf, 0, 0, 0], [np.inf, 1, 1, 1])
    _assert_fresh_and_reference(lp, LPStatus.INFEASIBLE)
    assert _instance(lp) is None
    lp.set_all_bounds(np.zeros(4), np.ones(4))
    assert lp_differences(lp.solve(), first) == []


def test_copy_loads_its_own_instance():
    lp = _iterating_lp()
    lp.set_all_bounds(np.zeros(4), np.ones(4))
    first = lp.solve()
    original = _instance(lp)
    clone = lp.copy()
    assert _instance(clone) is None
    clone.set_objective([0.2, 0.9, 0.1, 0.8])
    clone.set_all_bounds(np.zeros(4), np.full(4, 0.5))
    cloned = clone.solve()
    assert lp_differences(cloned, lp_reference(clone)) == []
    assert _instance(clone) is not original and _instance(lp) is original
    # Each side still solves its own model on its own instance.
    _assert_resolve_stays_put(lp, first)
    _assert_resolve_stays_put(clone, cloned)
    assert _instance(lp) is original
