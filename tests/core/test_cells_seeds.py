"""Tests for weight-space cells, error bounds, and seed strategies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import Cell, cell_around, cell_error_bounds, grid_cells
from repro.core.problem import RankingProblem
from repro.core.seeds import (
    get_seed_strategy,
    grid_seed,
    linear_regression_seed,
    ordinal_regression_seed,
    uniform_seed,
)
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_uniform


def test_cell_construction_and_properties():
    cell = Cell(np.array([0.1, 0.2]), np.array([0.4, 0.6]))
    assert cell.dimension == 2
    assert cell.center.tolist() == [0.25, 0.4]
    assert cell.contains(np.array([0.2, 0.3]))
    assert not cell.contains(np.array([0.5, 0.3]))
    lower, upper = cell.bounds()
    assert lower.tolist() == [0.1, 0.2]
    assert upper.tolist() == [0.4, 0.6]
    with pytest.raises(ValueError):
        Cell(np.array([0.5]), np.array([0.1]))
    with pytest.raises(ValueError):
        Cell(np.array([[0.5]]), np.array([[0.6]]))


def test_cell_simplex_intersection():
    assert Cell(np.array([0.4, 0.4]), np.array([0.6, 0.6])).intersects_simplex()
    assert not Cell(np.array([0.0, 0.0]), np.array([0.3, 0.3])).intersects_simplex()
    assert not Cell(np.array([0.8, 0.8]), np.array([1.0, 1.0])).intersects_simplex()


def test_cell_around_matches_paper_formula():
    center = np.array([0.05, 0.95])
    cell = cell_around(center, 0.2)
    assert cell.lower.tolist() == [0.0, 0.85]
    assert cell.upper == pytest.approx([0.15, 1.0])
    with pytest.raises(ValueError):
        cell_around(center, 0.0)
    with pytest.raises(ValueError):
        cell_around(center, 2.5)


def test_grid_cells_cover_the_simplex():
    cells = grid_cells(2, 0.25)
    assert all(cell.intersects_simplex() for cell in cells)
    # Every point of the simplex lies in some cell: check a sample.
    for t in np.linspace(0.0, 1.0, 11):
        point = np.array([t, 1.0 - t])
        assert any(cell.contains(point) for cell in cells)
    with pytest.raises(ValueError):
        grid_cells(2, 0.0)


def test_grid_cells_respects_max_cells():
    cells = grid_cells(4, 0.2, max_cells=10)
    assert len(cells) <= 10


def test_cell_error_bounds_bracket_the_true_error(nonlinear_problem):
    m = nonlinear_problem.num_attributes
    center = np.full(m, 1.0 / m)
    cell = cell_around(center, 0.05)
    lower, upper = cell_error_bounds(nonlinear_problem, cell)
    true_error = nonlinear_problem.error_of(center)
    assert lower <= true_error <= upper
    with pytest.raises(ValueError):
        cell_error_bounds(nonlinear_problem, Cell(np.zeros(2), np.ones(2)))


def test_cell_error_bounds_tighten_as_cells_shrink(nonlinear_problem):
    m = nonlinear_problem.num_attributes
    center = np.full(m, 1.0 / m)
    small_lower, small_upper = cell_error_bounds(
        nonlinear_problem, cell_around(center, 0.01)
    )
    large_lower, large_upper = cell_error_bounds(
        nonlinear_problem, cell_around(center, 0.8)
    )
    assert small_upper - small_lower <= large_upper - large_lower


@pytest.mark.parametrize(
    "strategy",
    [uniform_seed, linear_regression_seed, ordinal_regression_seed, grid_seed],
)
def test_seed_strategies_return_simplex_points(strategy, nonlinear_problem):
    seed = strategy(nonlinear_problem)
    assert seed.shape == (nonlinear_problem.num_attributes,)
    assert np.all(seed >= 0.0)
    assert seed.sum() == pytest.approx(1.0)


def test_get_seed_strategy_lookup(nonlinear_problem):
    for name in ("uniform", "linear_regression", "ordinal_regression", "grid"):
        seed = get_seed_strategy(name)(nonlinear_problem)
        assert seed.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        get_seed_strategy("simulated_annealing")


def test_ordinal_regression_seed_is_better_than_uniform_on_linear_data(linear_problem):
    uniform_error = linear_problem.error_of(uniform_seed(linear_problem))
    ordinal_error = linear_problem.error_of(ordinal_regression_seed(linear_problem))
    assert ordinal_error <= uniform_error


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_cell_error_lower_bound_is_sound(seed):
    """The lower bound never exceeds the error of any weight vector in the cell."""
    rng = np.random.default_rng(seed)
    relation = generate_uniform(15, 3, seed=seed)
    scores = np.sum(relation.matrix() ** 2, axis=1)
    problem = RankingProblem(relation, ranking_from_scores(scores, k=3))
    center = rng.dirichlet(np.ones(3))
    cell = cell_around(center, float(rng.uniform(0.05, 0.5)))
    lower, upper = cell_error_bounds(problem, cell)
    # Sample points inside the cell (projected to the simplex by construction).
    for _ in range(5):
        point = np.clip(center + rng.uniform(-0.01, 0.01, size=3), 0.0, 1.0)
        point = point / point.sum()
        if cell.contains(point):
            error = problem.error_of(point)
            assert lower <= error <= max(upper, error)


def test_batched_cell_bounds_match_reference(nonlinear_problem):
    from repro.core.cells import CellBoundEvaluator, cell_error_bounds_many
    from repro.testing import cell_error_bounds_reference

    cells = grid_cells(nonlinear_problem.num_attributes, 0.5)
    rng = np.random.default_rng(11)
    for _ in range(5):
        center = rng.dirichlet(np.ones(nonlinear_problem.num_attributes))
        cells.append(cell_around(center, 0.3))
    reference = [cell_error_bounds_reference(nonlinear_problem, c) for c in cells]
    assert cell_error_bounds_many(nonlinear_problem, cells) == reference
    evaluator = CellBoundEvaluator(nonlinear_problem)
    assert evaluator.bounds(cells[0]) == reference[0]
    assert evaluator.bounds_many([]) == []


def test_batched_cell_bounds_dimension_mismatch(nonlinear_problem):
    from repro.core.cells import CellBoundEvaluator

    wrong = Cell(np.zeros(nonlinear_problem.num_attributes + 1),
                 np.ones(nonlinear_problem.num_attributes + 1))
    with pytest.raises(ValueError):
        CellBoundEvaluator(nonlinear_problem).bounds(wrong)
