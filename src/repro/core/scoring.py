"""Linear scoring functions and the rankings they induce (Definition 2).

A linear scoring function is a weight vector ``W = (w_1, ..., w_m)`` with
``w_i >= 0`` and ``sum w_i = 1`` over ranking attributes ``A_1..A_m``.  The
*induced ranking* ``rho_W`` assigns tuple ``r`` the rank ``1 + |{s :
f_W(s) - f_W(r) > eps}|`` where ``eps`` is the tie tolerance: scores within
``eps`` of each other are considered tied, which makes the ranking robust to
floating-point imprecision (Section II).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "LinearScoringFunction",
    "induced_ranks",
    "normalize_weights",
]


def normalize_weights(weights: Sequence[float] | np.ndarray) -> np.ndarray:
    """Clip tiny negatives to zero and rescale so the weights sum to one."""
    w = np.asarray(weights, dtype=float).ravel().copy()
    w[w < 0] = 0.0
    total = float(w.sum())
    if total <= 0:
        raise ValueError("weights must contain at least one positive entry")
    return w / total


def induced_ranks(scores: np.ndarray, tie_eps: float = 0.0) -> np.ndarray:
    """Rank of every tuple under Definition 2 (competition ranking with eps).

    ``rank(r) = 1 + |{s : score(s) - score(r) > tie_eps}|``.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    n = scores.shape[0]
    if tie_eps < 0:
        raise ValueError("tie_eps must be non-negative")
    if n == 0:
        return np.zeros(0, dtype=int)
    beats = n - np.searchsorted(np.sort(scores), scores + tie_eps, side="right")
    return beats.astype(int) + 1


class LinearScoringFunction:
    """``f_W(x) = sum_i w_i * x_i`` over named ranking attributes."""

    def __init__(
        self,
        weights: Sequence[float] | np.ndarray,
        attributes: Sequence[str],
        normalize: bool = True,
    ) -> None:
        """Create a scoring function.

        Args:
            weights: Non-negative weights, one per attribute.
            attributes: Ranking attribute names, aligned with ``weights``.
            normalize: Rescale the weights to sum to one (the paper's
                convention); set to ``False`` to keep raw weights.
        """
        weights = np.asarray(weights, dtype=float).ravel()
        if len(attributes) != weights.shape[0]:
            raise ValueError("weights and attributes must have the same length")
        if normalize:
            if np.any(weights < -1e-9):
                raise ValueError(
                    "normalized scoring functions require non-negative weights; "
                    "pass normalize=False for arbitrary linear functions"
                )
            self._weights = normalize_weights(weights)
        else:
            self._weights = weights.copy()
        self._attributes = list(attributes)

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    @property
    def attributes(self) -> list[str]:
        return list(self._attributes)

    @property
    def num_attributes(self) -> int:
        return len(self._attributes)

    def weight_of(self, attribute: str) -> float:
        """Weight assigned to a named attribute."""
        try:
            index = self._attributes.index(attribute)
        except ValueError as exc:
            raise KeyError(f"unknown attribute {attribute!r}") from exc
        return float(self._weights[index])

    def scores(self, matrix: np.ndarray) -> np.ndarray:
        """Scores of every row of an ``(n, m)`` attribute matrix."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != self.num_attributes:
            raise ValueError(
                f"matrix must have shape (n, {self.num_attributes}), got {matrix.shape}"
            )
        return matrix @ self._weights

    def score_relation(self, relation) -> np.ndarray:
        """Scores of every tuple of a relation (by attribute name)."""
        return self.scores(relation.matrix(self._attributes))

    def induced_positions(
        self, matrix: np.ndarray, tie_eps: float = 0.0
    ) -> np.ndarray:
        """Rank of every row under this function (Definition 2)."""
        return induced_ranks(self.scores(matrix), tie_eps)

    def top_k_indices(
        self, matrix: np.ndarray, k: int, tie_eps: float = 0.0
    ) -> np.ndarray:
        """Indices of the top-``k`` rows, ties broken by row index."""
        ranks = self.induced_positions(matrix, tie_eps)
        order = np.lexsort((np.arange(len(ranks)), ranks))
        return order[:k]

    def describe(self, precision: int = 3, threshold: float = 5e-4) -> str:
        """Human-readable form such as ``0.02*REB + 0.14*AST + 0.84*BLK``."""
        terms = [
            f"{weight:.{precision}f}*{name}"
            for weight, name in zip(self._weights, self._attributes)
            if abs(weight) > threshold
        ]
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"LinearScoringFunction({self.describe()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearScoringFunction):
            return NotImplemented
        return (
            self._attributes == other._attributes
            and np.allclose(self._weights, other._weights)
        )
