"""The OPT problem instance (Definition 4).

A :class:`RankingProblem` bundles everything a synthesis run needs:

* the relation and the ranking attributes to use,
* the given ranking ``pi`` (a validated :class:`~repro.core.ranking.Ranking`),
* the constraint set on the weights / positions,
* the tie tolerance ``eps`` and the derived solver thresholds ``eps1`` /
  ``eps2`` (Section V-A).

The class also offers the evaluation primitives every algorithm shares:
scoring a weight vector, computing its induced ranking, and its
position-based error.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.constraints import ConstraintSet
from repro.core.ranking import UNRANKED, Ranking
from repro.core.scoring import LinearScoringFunction, induced_ranks
from repro.data.relation import Relation

__all__ = ["ToleranceSettings", "RankingProblem"]


@dataclass(frozen=True)
class ToleranceSettings:
    """Numerical tolerances of Section V-A.

    The defaults follow the paper's synthetic-data setting (``eps = 5e-6``,
    ``eps1 = 1e-5``, ``eps2 = 0``), which assumes attribute values on the
    order of [0, 1]; they keep boundary solutions (weight vectors sitting
    exactly on an indicator hyperplane) interpreted consistently by the solver
    and by the tie-tolerant induced ranking.  Use
    :meth:`ToleranceSettings.from_precision` to derive settings for other
    scales.

    Attributes:
        tie_eps: ``eps`` from Definition 2 -- scores within this distance are
            tied in the induced ranking.
        eps1: Score difference at or above which an indicator must be 1.
        eps2: Score difference at or below which an indicator must be 0.
    """

    tie_eps: float = 5e-6
    eps1: float = 1e-5
    eps2: float = 0.0

    def __post_init__(self) -> None:
        if self.tie_eps < 0:
            raise ValueError("tie_eps must be non-negative")
        if self.eps1 <= self.eps2:
            raise ValueError("eps1 must be strictly greater than eps2")

    @classmethod
    def from_precision(
        cls, tie_eps: float, tau: float, tau_plus: float | None = None
    ) -> "ToleranceSettings":
        """Apply the paper's recipe: ``eps2 = eps - tau``, ``eps1 = eps + tau+``."""
        if tau < 0:
            raise ValueError("tau must be non-negative")
        if tau_plus is None:
            tau_plus = tau * (1.0 + 1e-6) + 1e-12
        if tau_plus <= tau:
            raise ValueError("tau_plus must exceed tau")
        return cls(tie_eps=tie_eps, eps1=tie_eps + tau_plus, eps2=tie_eps - tau)

    def to_dict(self) -> dict:
        return {
            "tie_eps": float(self.tie_eps),
            "eps1": float(self.eps1),
            "eps2": float(self.eps2),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ToleranceSettings":
        return cls(
            tie_eps=float(data["tie_eps"]),
            eps1=float(data["eps1"]),
            eps2=float(data["eps2"]),
        )


class RankingProblem:
    """An instance of OPT: relation + given ranking + constraints + tolerances."""

    def __init__(
        self,
        relation: Relation,
        ranking: Ranking,
        attributes: Sequence[str] | None = None,
        constraints: ConstraintSet | None = None,
        tolerances: ToleranceSettings | None = None,
    ) -> None:
        """Create a problem instance.

        Args:
            relation: The input relation ``R``.
            ranking: The given ranking ``pi`` over the tuples of ``relation``.
            attributes: Ranking attributes ``A1..Am``; defaults to every
                numeric attribute of the relation.
            constraints: Constraints on the weights / positions (defaults to
                only the implicit simplex constraints ``w >= 0``, ``sum w = 1``).
            tolerances: Tie and indicator thresholds; defaults keep ties off
                and use a small separation gap.
        """
        if ranking.num_tuples != relation.num_tuples:
            raise ValueError(
                "ranking and relation disagree on the number of tuples "
                f"({ranking.num_tuples} vs {relation.num_tuples})"
            )
        self.relation = relation
        self.ranking = ranking
        self.attributes = list(
            attributes if attributes is not None else relation.numeric_attribute_names()
        )
        if not self.attributes:
            raise ValueError("the problem needs at least one ranking attribute")
        self.constraints = constraints if constraints is not None else ConstraintSet()
        self.tolerances = tolerances if tolerances is not None else ToleranceSettings()
        # The stacked attribute matrix is materialized lazily (the relation
        # memoizes it per attribute tuple, read-only); validate the names
        # eagerly so a bad attribute still fails at construction time.
        for name in self.attributes:
            column = relation.column(name)
            if not np.issubdtype(column.dtype, np.number):
                raise TypeError(f"attribute {name!r} is not numeric")
        self._matrix_memo: np.ndarray | None = None
        # SHA-256 content digest, memoized by fingerprint() on first use and
        # never invalidated -- problems are enforced-immutable (every
        # "mutation" returns a new instance; see apply_delta()).
        self._fingerprint: str | None = None
        self._validate_constraints()

    def _validate_constraints(self) -> None:
        for constraint in self.constraints.weight_constraints:
            for attribute in constraint.coefficients:
                if attribute not in self.attributes:
                    raise KeyError(
                        f"weight constraint references unknown attribute {attribute!r}"
                    )
        positions = self.ranking.positions
        for constraint in self.constraints.position_constraints:
            index = constraint.tuple_index
            if not 0 <= index < self.relation.num_tuples:
                raise IndexError(f"position constraint on unknown tuple {index}")
            if positions[index] == UNRANKED:
                raise ValueError(
                    "position constraints are only supported for tuples ranked "
                    f"in the given ranking (tuple {index} is unranked)"
                )
        for constraint in self.constraints.precedence_constraints:
            for index in (constraint.above, constraint.below):
                if not 0 <= index < self.relation.num_tuples:
                    raise IndexError(f"precedence constraint on unknown tuple {index}")

    # -- basic properties ---------------------------------------------------------

    @property
    def num_tuples(self) -> int:
        return self.relation.num_tuples

    @property
    def num_attributes(self) -> int:
        return len(self.attributes)

    @property
    def k(self) -> int:
        return self.ranking.k

    @property
    def matrix(self) -> np.ndarray:
        """The ``(n, m)`` ranking-attribute matrix (cached, read-only).

        Frozen alongside the relation's columns: :meth:`fingerprint`
        memoizes a content digest of this matrix, so an in-place write must
        raise instead of silently invalidating cache entries keyed on the
        digest.
        """
        memo = self._matrix_memo
        if memo is None:
            memo = self.relation.matrix(self.attributes)
            if memo.flags.writeable:
                memo.flags.writeable = False
            self._matrix_memo = memo
        return memo

    def _eval_weights(self, weights: np.ndarray) -> np.ndarray:
        """Weights cast to the matrix's evaluation dtype.

        Default float64 relations evaluate exactly as before; opt-in
        float32 relations score in float32 so the big ``(.., n)`` score
        transients (and the matmul itself) stay in the narrow dtype
        instead of silently upcasting a full copy of the matrix.
        """
        dtype = self.matrix.dtype
        if dtype != np.float64:
            return weights.astype(dtype)
        return weights

    def top_k_indices(self) -> np.ndarray:
        """Indices of the ranked tuples, ordered by given position."""
        return self.ranking.ranked_indices()

    # -- evaluation ----------------------------------------------------------------

    def scoring_function(self, weights: np.ndarray) -> LinearScoringFunction:
        """Wrap a weight vector as a scoring function over this problem's attributes."""
        return LinearScoringFunction(weights, self.attributes, normalize=False)

    def scores(self, weights: np.ndarray) -> np.ndarray:
        """Scores of every tuple under a weight vector (no rescaling applied).

        Baselines such as linear regression may produce negative or
        unnormalized weights; scores are evaluated exactly as given because
        rescaling would change which score differences exceed the tie
        tolerance.
        """
        weights = np.asarray(weights, dtype=float).ravel()
        if weights.shape[0] != self.num_attributes:
            raise ValueError("weight vector length does not match attribute count")
        return self.matrix @ self._eval_weights(weights)

    def induced_positions(self, weights: np.ndarray) -> np.ndarray:
        """Ranks of every tuple under the weight vector (tie tolerance applied)."""
        return induced_ranks(self.scores(weights), self.tolerances.tie_eps)

    def error_of(self, weights: np.ndarray) -> int:
        """Position-based error of a weight vector (Definition 3).

        The error reads only the k ranked tuples' ranks, so only those are
        computed: one sort of the float64 scores (cast as
        :func:`~repro.core.scoring.induced_ranks` casts them), then its
        ``searchsorted`` count for each ranked score.  Each rank goes through
        the same formula, so the error equals
        ``position_error(ranking, induced_positions(weights))`` bit for bit.
        """
        scores = np.asarray(self.scores(weights), dtype=float)
        positions = self.ranking.positions
        ranked = np.where(positions != UNRANKED)[0]
        beats = scores.shape[0] - np.searchsorted(
            np.sort(scores), scores[ranked] + self.tolerances.tie_eps, side="right"
        )
        return int(np.sum(np.abs(beats + 1 - positions[ranked])))

    def fingerprint(self) -> str:
        """Memoized SHA-256 content digest of this problem instance.

        Computed once per object (the matrix hash dominates the cost of a
        cache lookup otherwise) and never invalidated: the instance is
        immutable by convention.  Two independently built, semantically
        identical problems share the same digest -- see
        :func:`repro.engine.fingerprint.fingerprint_problem`, which this
        memoizes.
        """
        if self._fingerprint is None:
            from repro.engine.fingerprint import compute_problem_digest

            self._fingerprint = compute_problem_digest(self)
        return self._fingerprint

    def weights_feasible(self, weights: np.ndarray, tol: float = 1e-7) -> bool:
        """Check the weight constraints (simplex constraints included)."""
        weights = np.asarray(weights, dtype=float).ravel()
        if weights.shape[0] != self.num_attributes:
            return False
        if np.any(weights < -tol) or abs(float(weights.sum()) - 1.0) > max(tol, 1e-6):
            return False
        return self.constraints.weights_satisfied(weights, self.attributes, tol)

    def apply_delta(self, deltas) -> "RankingProblem":
        """Apply one edit (or a chain of edits) and return the new problem.

        ``deltas`` is a single :class:`~repro.core.delta.ProblemDelta` or a
        sequence of them, applied in order.  Two things make this cheaper
        than rebuilding from scratch:

        * **Composed fingerprints** -- the child's memoized digest is
          ``compose(parent_digest, delta_digest)`` instead of a re-hash of
          the full attribute matrix, so fingerprinting an edit is O(edit)
          and equal edit chains applied to equal parents dedupe in the
          engine's content-addressed cache.
        * **Preserved memos** -- a delta that cannot touch the attribute
          matrix (tolerance, constraint, and ranking edits) aliases the
          parent's frozen matrix onto the child, so the chain holds one
          canonical array per distinct matrix (downstream consumers -- the
          engine's cell-evaluator reuse, identity-keyed caches -- see the
          same object, and the duplicate built during construction is
          dropped immediately).

        An empty sequence returns ``self`` unchanged.
        """
        from repro.core.delta import ProblemDelta, compose_fingerprints

        if isinstance(deltas, ProblemDelta):
            deltas = [deltas]
        problem = self
        for delta in deltas:
            if not isinstance(delta, ProblemDelta):
                raise TypeError(
                    f"apply_delta expects ProblemDelta objects, got {delta!r}"
                )
            child = delta.apply(problem)
            if child is problem:  # defensive: a no-op edit keeps the memo as-is
                continue
            if delta.preserves_matrix and child.attributes == problem.attributes:
                child._matrix_memo = problem._matrix_memo
            child._fingerprint = compose_fingerprints(
                problem.fingerprint(), delta.fingerprint()
            )
            problem = child
        return problem

    def with_constraints(self, constraints: ConstraintSet) -> "RankingProblem":
        """A copy of this problem with a different constraint set."""
        return RankingProblem(
            self.relation,
            self.ranking,
            self.attributes,
            constraints,
            self.tolerances,
        )

    def with_tolerances(self, tolerances: ToleranceSettings) -> "RankingProblem":
        """A copy of this problem with different tolerance settings."""
        return RankingProblem(
            self.relation,
            self.ranking,
            self.attributes,
            self.constraints,
            tolerances,
        )

    def restricted_to_positions(self, low: int, high: int) -> "RankingProblem":
        """Fit only the tuples ranked at positions ``low..high``.

        Implements the paper's "university ranked 50th" use case: the ranked
        prefix is re-based so that position ``low`` becomes position 1, and
        tuples outside the window become ``⊥``.
        """
        if low < 1 or high < low:
            raise ValueError("invalid position window")
        positions = self.ranking.positions
        in_window = (positions >= low) & (positions <= high) & (positions != UNRANKED)
        if not np.any(in_window):
            raise ValueError(f"no tuple is ranked in positions [{low}, {high}]")
        window_positions = positions[in_window]
        new_positions = np.full_like(positions, UNRANKED)
        # Re-base as competition ranks within the window so ties stay intact
        # and no "excessive gaps" appear when a tie group straddles `low`.
        for index in np.where(in_window)[0]:
            new_positions[index] = int(np.sum(window_positions < positions[index])) + 1
        return RankingProblem(
            self.relation,
            Ranking(new_positions),
            self.attributes,
            self.constraints,
            self.tolerances,
        )

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation of the full problem instance.

        This is the wire format used by the result cache and the query
        service: every field (relation columns, given positions, constraints,
        tolerances) becomes a plain JSON type.
        """
        return {
            "relation": self.relation.to_dict(),
            "positions": [int(p) for p in self.ranking.positions],
            "attributes": list(self.attributes),
            "constraints": self.constraints.to_dict(),
            "tolerances": self.tolerances.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RankingProblem":
        """Inverse of :meth:`to_dict`."""
        return cls(
            Relation.from_dict(data["relation"]),
            Ranking(np.asarray(data["positions"], dtype=int)),
            attributes=data["attributes"],
            constraints=ConstraintSet.from_dict(data.get("constraints", {})),
            tolerances=ToleranceSettings.from_dict(data["tolerances"]),
        )

    def __repr__(self) -> str:
        return (
            f"RankingProblem(n={self.num_tuples}, m={self.num_attributes}, "
            f"k={self.k}, constraints={len(self.constraints)})"
        )
