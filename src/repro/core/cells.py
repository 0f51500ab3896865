"""Weight-space cells and per-cell error bounds (Section IV-B).

A *cell* is an axis-aligned box in weight space, intersected with the simplex
``w >= 0, sum w = 1``.  SYM-GD restricts the MILP to a cell around the seed
point; the grid seeding strategy evaluates a lower bound of the position error
achievable inside each cell and starts from the most promising one.

The bound follows the paper's insight: for a cell ``C`` and an indicator
hyperplane ``w . (s - r) = eps``, either the cell lies entirely on one side
(the indicator is constant over the cell) or the hyperplane crosses it (the
indicator is free).  Counting constant-1, constant-0 and free indicators per
ranked tuple gives an interval for its induced rank and therefore a lower and
an upper bound on its position error.

A sweep over many cells is one in-process matrix program
(:class:`CellBoundEvaluator`): it takes milliseconds, less than handing its
chunks to a process pool would cost.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core import chunking
from repro.core.problem import RankingProblem

__all__ = [
    "Cell",
    "cell_around",
    "grid_cells",
    "cell_error_bounds",
    "cell_error_bounds_many",
    "CellBoundEvaluator",
]


@dataclass(frozen=True)
class Cell:
    """An axis-aligned box ``[lower, upper]`` in weight space."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("cell bounds must be 1-D arrays of equal length")
        if np.any(lower > upper + 1e-12):
            raise ValueError("cell lower bound exceeds upper bound")
        object.__setattr__(self, "lower", np.clip(lower, 0.0, 1.0))
        object.__setattr__(self, "upper", np.clip(upper, 0.0, 1.0))

    @property
    def dimension(self) -> int:
        return int(self.lower.shape[0])

    @property
    def center(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0

    def contains(self, weights: np.ndarray, tol: float = 1e-9) -> bool:
        weights = np.asarray(weights, dtype=float)
        return bool(
            np.all(weights >= self.lower - tol) and np.all(weights <= self.upper + tol)
        )

    def intersects_simplex(self, tol: float = 1e-9) -> bool:
        """Does the box contain any point with ``sum w = 1``?"""
        return (
            float(self.lower.sum()) <= 1.0 + tol
            and float(self.upper.sum()) >= 1.0 - tol
        )

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lower.copy(), self.upper.copy()

    def to_dict(self) -> dict:
        """JSON-serializable representation (inverse: :meth:`from_dict`)."""
        return {
            "lower": [float(v) for v in self.lower],
            "upper": [float(v) for v in self.upper],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Cell":
        return cls(
            np.asarray(data["lower"], dtype=float),
            np.asarray(data["upper"], dtype=float),
        )


def cell_around(center: np.ndarray, size: float) -> Cell:
    """The cell of side ``size`` centered at a weight vector (clipped to [0,1]).

    Matches the paper's ``solve(W, c)`` constraint
    ``max(w_i - c/2, 0) <= w_i <= min(w_i + c/2, 1)``.
    """
    if not 0.0 < size < 2.0:
        raise ValueError("cell size must lie in (0, 2)")
    center = np.asarray(center, dtype=float).ravel()
    half = size / 2.0
    return Cell(np.clip(center - half, 0.0, 1.0), np.clip(center + half, 0.0, 1.0))


def grid_cells(
    num_attributes: int,
    cell_size: float,
    max_cells: int = 4096,
) -> list[Cell]:
    """Axis-aligned grid of cells covering the weight simplex.

    The full grid has ``(1/c)^m`` cells; only cells that intersect the simplex
    are returned, and enumeration stops after ``max_cells`` to keep the seeding
    strategy tractable for larger ``m`` (the paper notes the same practical
    concern, which is why ordinal-regression seeding is the default).
    """
    if not 0.0 < cell_size <= 1.0:
        raise ValueError("cell_size must lie in (0, 1]")
    steps = int(np.ceil(1.0 / cell_size))
    cells: list[Cell] = []
    for combo in itertools.product(range(steps), repeat=num_attributes):
        lower = np.asarray(combo, dtype=float) * cell_size
        upper = np.minimum(lower + cell_size, 1.0)
        cell = Cell(lower, upper)
        if cell.intersects_simplex():
            cells.append(cell)
            if len(cells) >= max_cells:
                return cells
    return cells


def cell_error_bounds(problem: RankingProblem, cell: Cell) -> tuple[int, int]:
    """Lower and upper bound of the position error over a cell.

    For every ranked tuple ``r`` and every other tuple ``s``, the score
    difference ``w . (s - r)`` over the cell (intersected with the simplex) is
    bounded by interval arithmetic; comparing the interval with ``eps1`` /
    ``eps2`` classifies the indicator as certainly 1, certainly 0, or free.
    The induced rank of ``r`` then lies in ``[1 + certain_ones,
    1 + certain_ones + free]`` and its error contribution in the distance
    between that interval and the given position.

    Builds a :class:`CellBoundEvaluator` for the one cell; reuse an
    evaluator (or :func:`cell_error_bounds_many`) when classifying many cells
    against the same problem.
    """
    return CellBoundEvaluator(problem).bounds(cell)


class CellBoundEvaluator:
    """Batched cell-error bounds for one problem.

    The indicator-hyperplane data -- the ``(n_pairs, m)`` stacked difference
    matrix ``s - r`` over every (ranked tuple, other tuple) pair, split into
    positive and negative parts, plus the simplex interval per pair -- is
    precomputed once per problem.  Classifying cells then costs two matmuls
    of the stacked pair matrix against the stacked ``(n_cells, m)`` corner
    matrices plus vectorized comparisons, instead of a Python loop over
    cells and ranked tuples that rebuilds the difference matrix every time.

    For million-row problems the precomputed ``(n_pairs, m)`` pair matrices
    themselves are the memory blowup, so the evaluator has a **streaming**
    mode (``streaming=True``, or auto when the precomputation would exceed
    the data-plane memory budget of :mod:`repro.core.chunking`): nothing is
    precomputed, and each classification pass re-derives pair blocks of
    bounded size, accumulating the integer certain-one / free counts per
    (ranked tuple, cell).  Counts are exact integers and every per-pair
    classification runs the same elementwise formula, so streaming bounds
    are bitwise-equal to the precomputed ones (asserted by the
    ``streaming_parity`` oracle invariant).
    """

    def __init__(
        self, problem: RankingProblem, streaming: bool | None = None
    ) -> None:
        self.problem = problem
        matrix = problem.matrix
        ranked = problem.top_k_indices()
        n = problem.num_tuples
        m = problem.num_attributes
        self._num_ranked = ranked.shape[0]
        self._num_tuples = n
        self._eps1 = problem.tolerances.eps1
        self._eps2 = problem.tolerances.eps2
        self._given = problem.ranking.positions[ranked].astype(int)
        if streaming is None:
            # positive + negative pair matrices, plus the two simplex vectors.
            precompute_bytes = self._num_ranked * n * (
                2 * m * matrix.itemsize + 2 * 8
            )
            streaming = precompute_bytes > chunking.memory_budget_bytes()
        self.streaming = bool(streaming)
        if self.streaming:
            self._ranked = np.asarray(ranked)
            self._positive = None
            self._negative = None
            self._simplex_low = None
            self._simplex_high = None
            self._self_index = None
            return
        # diffs[r_idx, s, :] = matrix[s] - matrix[ranked[r_idx]]
        diffs = matrix[None, :, :] - matrix[ranked][:, None, :]
        pairs = diffs.reshape(self._num_ranked * n, problem.num_attributes)
        self._positive = np.clip(pairs, 0.0, None)
        self._negative = np.clip(pairs, None, 0.0)
        self._simplex_low = pairs.min(axis=1)
        self._simplex_high = pairs.max(axis=1)
        # Flat index of the (r, r) self-pair per ranked tuple: a tuple never
        # beats itself.
        self._self_index = np.arange(self._num_ranked) * n + np.asarray(ranked)

    def bounds_many(self, cells: Sequence[Cell]) -> list[tuple[int, int]]:
        """Bounds for many cells in one (chunked) matrix program."""
        cells = list(cells)
        if not cells:
            return []
        lowers = np.stack([cell.lower for cell in cells])
        uppers = np.stack([cell.upper for cell in cells])
        if lowers.shape[1] != self.problem.num_attributes:
            raise ValueError("cell dimension does not match the number of attributes")
        if self.streaming:
            return self._bounds_streaming(lowers, uppers)
        # Bound the transient (n_pairs, chunk) matrices to a few MB.
        n_pairs = max(self._positive.shape[0], 1)
        chunk = max(1, int(2_000_000 // n_pairs))
        results: list[tuple[int, int]] = []
        for start in range(0, len(cells), chunk):
            results.extend(
                self._bounds_chunk(
                    lowers[start : start + chunk], uppers[start : start + chunk]
                )
            )
        return results

    def bounds(self, cell: Cell) -> tuple[int, int]:
        """Bounds for a single cell (batched kernel, batch size one)."""
        return self.bounds_many([cell])[0]

    def _bounds_chunk(
        self, lowers: np.ndarray, uppers: np.ndarray
    ) -> list[tuple[int, int]]:
        # Interval of w . diff over each box, intersected with the simplex
        # interval: one matmul per corner matrix covers every (pair, cell).
        box_low = self._positive @ lowers.T + self._negative @ uppers.T
        box_high = self._positive @ uppers.T + self._negative @ lowers.T
        low = np.maximum(box_low, self._simplex_low[:, None])
        high = np.minimum(box_high, self._simplex_high[:, None])

        certain_one = low >= self._eps1
        certain_zero = high <= self._eps2
        certain_one[self._self_index, :] = False
        certain_zero[self._self_index, :] = True
        free = ~(certain_one | certain_zero)

        shape = (self._num_ranked, self._num_tuples, lowers.shape[0])
        min_rank = 1 + certain_one.reshape(shape).sum(axis=1)
        max_rank = min_rank + free.reshape(shape).sum(axis=1)
        return self._fold_rank_intervals(min_rank, max_rank)

    def _bounds_streaming(
        self, lowers: np.ndarray, uppers: np.ndarray
    ) -> list[tuple[int, int]]:
        """Streaming classification: pair blocks re-derived, counts folded.

        Per tuple block, the same diff / clip / matmul / threshold pipeline
        as the precomputed kernel runs over a ``(k * block, m)`` slice, and
        only the integer certain-one / free counts per (ranked tuple, cell)
        survive the block.  Integer accumulation is associative, so the
        block size never changes the result.
        """
        problem = self.problem
        matrix = problem.matrix
        ranked = self._ranked
        k = self._num_ranked
        n = self._num_tuples
        m = problem.num_attributes
        n_cells = lowers.shape[0]
        ranked_rows = matrix[ranked]
        # Per tuple row: k pair rows of diffs/positive/negative plus the
        # simplex vectors and the (pair, cell) classification transients.
        row_bytes = k * (3 * m * matrix.itemsize + 2 * 8 + 6 * n_cells * 8)
        rows = chunking.chunk_rows_for(row_bytes, n, None)
        chunking.record_chunked_eval(rows * row_bytes)
        ones_count = np.zeros((k, n_cells), dtype=np.int64)
        free_count = np.zeros((k, n_cells), dtype=np.int64)
        for start in range(0, n, rows):
            sub = matrix[start : start + rows]
            block = sub.shape[0]
            diffs = sub[None, :, :] - ranked_rows[:, None, :]
            pairs = diffs.reshape(k * block, m)
            positive = np.clip(pairs, 0.0, None)
            negative = np.clip(pairs, None, 0.0)
            box_low = positive @ lowers.T + negative @ uppers.T
            box_high = positive @ uppers.T + negative @ lowers.T
            low = np.maximum(box_low, pairs.min(axis=1)[:, None])
            high = np.minimum(box_high, pairs.max(axis=1)[:, None])
            certain_one = low >= self._eps1
            certain_zero = high <= self._eps2
            # Self-pairs landing in this block: a tuple never beats itself.
            in_block = (ranked >= start) & (ranked < start + block)
            for r_idx in np.where(in_block)[0]:
                flat = r_idx * block + (int(ranked[r_idx]) - start)
                certain_one[flat, :] = False
                certain_zero[flat, :] = True
            free = ~(certain_one | certain_zero)
            shape = (k, block, n_cells)
            ones_count += certain_one.reshape(shape).sum(axis=1)
            free_count += free.reshape(shape).sum(axis=1)
        min_rank = 1 + ones_count
        max_rank = min_rank + free_count
        return self._fold_rank_intervals(min_rank, max_rank)

    def _fold_rank_intervals(
        self, min_rank: np.ndarray, max_rank: np.ndarray
    ) -> list[tuple[int, int]]:
        """Per-cell error bounds from the (ranked, cell) rank intervals."""
        given = self._given[:, None]

        below = given < min_rank
        above = given > max_rank
        lower_contrib = np.where(
            below, min_rank - given, np.where(above, given - max_rank, 0)
        )
        inside = np.maximum(np.abs(given - min_rank), np.abs(max_rank - given))
        upper_contrib = np.where(
            below, max_rank - given, np.where(above, given - min_rank, inside)
        )
        lower_totals = lower_contrib.sum(axis=0)
        upper_totals = upper_contrib.sum(axis=0)
        return [
            (int(lo), int(hi)) for lo, hi in zip(lower_totals, upper_totals)
        ]


def cell_error_bounds_many(
    problem: RankingProblem, cells: Sequence[Cell]
) -> list[tuple[int, int]]:
    """Error bounds for many cells, in the order given.

    All cells are classified against all indicator hyperplanes as one matrix
    program (:class:`CellBoundEvaluator`).
    """
    return CellBoundEvaluator(problem).bounds_many(list(cells))
