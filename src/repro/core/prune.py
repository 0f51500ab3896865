"""Rank-dominance tuple pruning for the million-row data plane.

OPT's MILP cost scales with ``k * (n - 1)`` indicator pairs, but on large
relations the vast majority of tuples are nowhere near the top-``k`` band:
they are componentwise so far below every ranked tuple that no weight vector
on the simplex can ever score them into contention.  This module removes
those tuples *before* the formulation is built.

Soundness.  A tuple ``s`` is pruned only when it is unranked, referenced by
no position/precedence constraint, and satisfies

    s_j <= min_{ranked r} r_j + thr_eff      for every attribute j,

where ``thr = min(eps2, tie_eps)`` and ``thr_eff = thr - margin`` with a
float-safety margin of ``64 * m * spacing(scale)`` (``scale`` the matrix's
absolute maximum, spacing evaluated in the matrix dtype).  Over the weight
simplex (and therefore over any SYM-GD cell, which is a subset) the score
difference ``w . (s - r)`` is bounded by ``max_j (s_j - r_j)``, so for every
ranked ``r``:

* ``w . (s - r) <= thr_eff <= eps2``: the Section V-B dominance analysis
  would fix the indicator ``delta[s, r]`` to 0, so with the default
  ``eliminate_dominated=True`` the pruned MILP is *identical* (same
  variables in the same order, same constraints, same coefficients) to the
  full MILP once the error-variable bound is pinned via
  ``_error_bound_override`` -- solver trajectories, not just optima, match.
* ``w . (s - r) <= thr_eff <= tie_eps``: ``s`` never beats any ranked tuple
  under the tie-tolerant ranking, so every ranked tuple's induced rank --
  and therefore the position error of *any* weight vector -- is unchanged
  by dropping ``s``.

The margin absorbs the worst-case accumulated rounding of the ``m``-term
dot products on both sides of the comparison; it errs toward *keeping*
borderline tuples, which only costs performance, never correctness.

Where it runs: :class:`~repro.core.rankhow.RankHow` prunes every problem it
solves, after it has computed its warm start, and builds only the MILP on
the pruned problem; seeds, warm starts, reported errors and exact
verification all read the caller's problem.  With the default dominance
elimination the pruned MILP is the full MILP, so every RankHow answer --
and every SYM-GD answer, whose cell solves are RankHow solves -- is
bit-identical to an unpruned solve.  With the elimination off the pruned
MILP is smaller (``k`` indicator pairs fewer per pruned tuple) and its
optimum error is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import chunking
from repro.core.problem import RankingProblem
from repro.core.ranking import UNRANKED

__all__ = ["PruneInfo", "prune_problem", "prune_threshold"]

#: Per-attribute ulp multiplier of the float-safety margin.  64 covers the
#: worst-case error of an m-term dot product plus the subtraction, with a
#: generous factor for BLAS reassociation, for every realistic m.
_MARGIN_ULPS = 64


@dataclass(frozen=True)
class PruneInfo:
    """Outcome of one pruning pass over a problem instance.

    Attributes:
        problem: The pruned problem (``is original_problem`` when nothing
            was pruned).
        kept: Original indices of the surviving tuples.
        pruned: Original indices of the dropped tuples (sorted).
        original_n: Tuple count before pruning.
        threshold: The effective componentwise threshold ``thr_eff``.
    """

    problem: RankingProblem
    kept: np.ndarray
    pruned: np.ndarray
    original_n: int
    threshold: float = field(default=0.0)

    @property
    def num_pruned(self) -> int:
        return int(self.pruned.shape[0])

    @property
    def ratio(self) -> float:
        """Fraction of tuples removed (0.0 when nothing was prunable)."""
        if self.original_n == 0:
            return 0.0
        return self.num_pruned / self.original_n

    def reindex(self, by_tuple: dict[int, float]) -> dict[int, float]:
        """Renumber a mapping keyed by original tuple index onto the kept tuples.

        Entries of pruned tuples are dropped: a pruned tuple is unranked, so
        the objective never reads its weight.
        """
        if not self.num_pruned:
            return by_tuple
        new_index = dict(zip(self.kept.tolist(), range(len(self.kept))))
        return {new_index[i]: v for i, v in by_tuple.items() if i in new_index}


def prune_threshold(problem: RankingProblem) -> float:
    """The effective componentwise threshold ``thr_eff`` for a problem.

    ``min(eps2, tie_eps)`` minus the float-safety margin; see the module
    docstring for the derivation.
    """
    matrix = problem.matrix
    thr = min(problem.tolerances.eps2, problem.tolerances.tie_eps)
    scale = _matrix_scale(matrix)
    margin = float(
        _MARGIN_ULPS
        * problem.num_attributes
        * np.spacing(np.asarray(scale, dtype=matrix.dtype))
    )
    return thr - margin


def _matrix_scale(matrix: np.ndarray) -> float:
    """Absolute maximum of the matrix, streamed in budgeted row blocks."""
    n = matrix.shape[0]
    if n == 0:
        return 1.0
    row_bytes = max(matrix.shape[1] * matrix.itemsize, 1)
    rows = chunking.chunk_rows_for(row_bytes, n, None)
    scale = 0.0
    for start in range(0, n, rows):
        block = matrix[start : start + rows]
        scale = max(scale, float(np.max(np.abs(block))))
    return max(scale, 1.0)


def prune_problem(problem: RankingProblem) -> PruneInfo:
    """Drop tuples that provably cannot affect any solver's reported error.

    Scans the problem on every call and keeps nothing on it: RankHow prunes
    once per solve, and the pruned copy lives only as long as that solve.
    """
    n = problem.num_tuples
    positions = problem.ranking.positions
    ranked = np.where(positions != UNRANKED)[0]
    no_op = PruneInfo(
        problem=problem,
        kept=np.arange(n),
        pruned=np.zeros(0, dtype=int),
        original_n=n,
        threshold=0.0,
    )
    if ranked.size == 0 or ranked.size >= n:
        return no_op

    matrix = problem.matrix
    thr_eff = prune_threshold(problem)
    # Componentwise ceiling: a tuple at or below every ranked tuple in every
    # attribute (within thr_eff) can never out-score any of them.
    ceiling = matrix[ranked].min(axis=0) + np.asarray(thr_eff, dtype=matrix.dtype)

    protected = np.zeros(n, dtype=bool)
    protected[ranked] = True
    constraints = problem.constraints
    for constraint in constraints.position_constraints:
        protected[constraint.tuple_index] = True
    for constraint in constraints.precedence_constraints:
        protected[constraint.above] = True
        protected[constraint.below] = True

    row_bytes = max(matrix.shape[1] * matrix.itemsize + 2, 1)
    rows = chunking.chunk_rows_for(row_bytes, n, None)
    if rows < n:
        chunking.record_chunked_eval(rows * row_bytes)
    prunable = np.zeros(n, dtype=bool)
    for start in range(0, n, rows):
        block = matrix[start : start + rows]
        prunable[start : start + rows] = np.all(block <= ceiling, axis=1)
    prunable &= ~protected
    if not np.any(prunable):
        return no_op

    pruned_indices = np.where(prunable)[0]
    kept = np.where(~prunable)[0]
    pruned_problem = _build_pruned(problem, kept)
    # Pin the MILP error-variable bound to the original tuple count so the
    # pruned formulation is bitwise-identical to the full one under the
    # default dominance elimination (see RankHowFormulation).
    pruned_problem._error_bound_override = float(n)
    return PruneInfo(
        problem=pruned_problem,
        kept=kept,
        pruned=pruned_indices,
        original_n=n,
        threshold=thr_eff,
    )


def _build_pruned(problem: RankingProblem, kept: np.ndarray) -> RankingProblem:
    """The surviving-tuple subproblem, with constraints reindexed.

    Mirrors :class:`~repro.core.delta.DropTuplesDelta` (vectorized -- the
    delta's Python-level keep loop is too slow at a million rows, and its
    payload fingerprint over the dropped-index list is pure overhead here:
    pruned problems are internal solver artifacts, never cache keys).
    Constraint-referenced tuples are excluded from pruning, so only the
    index *shift* applies; no constraint is ever dropped.
    """
    from repro.core.constraints import (
        ConstraintSet,
        PositionRangeConstraint,
        PrecedenceConstraint,
    )
    from repro.core.ranking import Ranking

    shift = np.zeros(problem.num_tuples, dtype=int)
    shift[kept] = np.arange(kept.shape[0])
    constraints = problem.constraints
    new_constraints = ConstraintSet(
        list(constraints.weight_constraints),
        [
            PositionRangeConstraint(
                int(shift[c.tuple_index]), c.min_position, c.max_position
            )
            for c in constraints.position_constraints
        ],
        [
            PrecedenceConstraint(int(shift[c.above]), int(shift[c.below]))
            for c in constraints.precedence_constraints
        ],
    )
    return RankingProblem(
        problem.relation.take(kept),
        Ranking(problem.ranking.positions[kept]),
        attributes=problem.attributes,
        constraints=new_constraints,
        tolerances=problem.tolerances,
    )
