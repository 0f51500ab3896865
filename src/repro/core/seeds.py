"""Seed-point strategies for SYM-GD (Section IV-B).

Two strategies from the paper plus a neutral fallback:

* ``ordinal_regression`` (default) -- run the fast Srinivasan-style ordinal
  regression baseline; its loss is not position-based but is correlated with
  it, so the resulting weight vector is usually a good neighbourhood to start
  the symbolic descent in.
* ``grid`` -- partition the weight space into cells of a given size, compute
  the position-error *lower bound* of each cell via interval arithmetic over
  the indicator hyperplanes, and start from the center of the most promising
  cell.
* ``uniform`` -- the center of the simplex (equal weights); useful as a
  constraint-free, deterministic fallback and for ablations.
* ``dirichlet`` -- a random point of the simplex from an explicit seed (an
  int or a shared ``np.random.Generator``, see :mod:`repro.data.rng`); used
  by multi-restart sweeps and the scenario workload generator, which thread
  one generator through every draw so identical master seeds reproduce
  byte-identically.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.cells import cell_error_bounds_many, grid_cells
from repro.core.problem import RankingProblem
from repro.data.rng import as_generator

__all__ = [
    "uniform_seed",
    "linear_regression_seed",
    "ordinal_regression_seed",
    "grid_seed",
    "dirichlet_seed",
    "get_seed_strategy",
]

SeedStrategy = Callable[[RankingProblem], np.ndarray]


def uniform_seed(problem: RankingProblem) -> np.ndarray:
    """Equal weights (the center of the simplex)."""
    m = problem.num_attributes
    return np.full(m, 1.0 / m)


def linear_regression_seed(problem: RankingProblem) -> np.ndarray:
    """Seed from non-negative least squares on the rank labels."""
    from repro.baselines.linear_regression import LinearRegressionBaseline

    result = LinearRegressionBaseline(non_negative=True).solve(problem)
    return _sanitize(result.weights, problem)


def ordinal_regression_seed(problem: RankingProblem) -> np.ndarray:
    """Seed from the ordinal-regression baseline (the paper's default)."""
    from repro.baselines.ordinal_regression import OrdinalRegressionBaseline

    result = OrdinalRegressionBaseline().solve(problem)
    return _sanitize(result.weights, problem)


def grid_seed(
    problem: RankingProblem,
    cell_size: float = 0.25,
    max_cells: int = 2048,
) -> np.ndarray:
    """Center of the grid cell with the smallest position-error lower bound.

    All cells' bounds come from one batched sweep
    (:func:`~repro.core.cells.cell_error_bounds_many`).  Ties between cells
    break towards the first cell in grid order.
    """
    cells = grid_cells(problem.num_attributes, cell_size, max_cells=max_cells)
    if not cells:
        return uniform_seed(problem)
    bounds = cell_error_bounds_many(problem, cells)
    best_index = min(range(len(cells)), key=lambda i: (bounds[i][0], i))
    return _sanitize(cells[best_index].center, problem)


def dirichlet_seed(
    problem: RankingProblem,
    seed=0,
    concentration: float = 1.0,
) -> np.ndarray:
    """A random simplex point from an explicit seed (int or shared Generator).

    Drawing from a passed-in ``np.random.Generator`` advances the caller's
    stream, so a pipeline that threads one generator through many seeds gets
    distinct, fully seed-determined points with no module-level RNG state.
    """
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    rng = as_generator(seed)
    draw = rng.dirichlet(np.full(problem.num_attributes, float(concentration)))
    return _sanitize(draw, problem)


def _sanitize(weights: np.ndarray, problem: RankingProblem) -> np.ndarray:
    """Project a candidate seed onto the simplex; fall back to uniform."""
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.shape[0] != problem.num_attributes or not np.all(np.isfinite(weights)):
        return uniform_seed(problem)
    weights = np.clip(weights, 0.0, None)
    total = float(weights.sum())
    if total <= 0:
        return uniform_seed(problem)
    return weights / total


def get_seed_strategy(name: str, **kwargs) -> SeedStrategy:
    """Look up a seed strategy by name.

    Args:
        name: ``"ordinal_regression"``, ``"linear_regression"``, ``"grid"``,
            ``"dirichlet"`` or ``"uniform"``; any other name raises
            ``ValueError``.
        **kwargs: Extra parameters forwarded to the strategy (e.g.
            ``cell_size`` for the grid strategy).
    """
    if name == "uniform":
        return uniform_seed
    if name == "linear_regression":
        return linear_regression_seed
    if name == "ordinal_regression":
        return ordinal_regression_seed
    if name == "grid":
        return lambda problem: grid_seed(problem, **kwargs)
    if name == "dirichlet":
        return lambda problem: dirichlet_seed(problem, **kwargs)
    raise ValueError(
        f"unknown seed strategy {name!r}; expected 'ordinal_regression', "
        "'linear_regression', 'grid', 'dirichlet' or 'uniform'"
    )
