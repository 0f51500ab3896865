"""General linear-program model solved by SciPy's HiGHS.

:class:`LinearProgram` accepts the usual general form::

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                lb <= x <= ub        (entries may be -inf / +inf)

and solves it with ``scipy.optimize.linprog(method="highs")``.  The RankHow
pipelines solve thousands of small LPs (one per branch-and-bound node, one
per TREE region), so the model caches its stacked constraint matrices
between solves that change only the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = ["LPStatus", "LPSolution", "LinearProgram"]

_INF = float("inf")


class LPStatus(Enum):
    """Termination status of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass
class LPSolution:
    """Result of solving a :class:`LinearProgram`.

    Attributes:
        status: Termination status.
        x: Primal solution vector (empty when not optimal).
        objective: Optimal objective value (``nan`` when not optimal).
        iterations: HiGHS iteration count.
    """

    status: LPStatus
    x: np.ndarray
    objective: float
    iterations: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status is LPStatus.OPTIMAL

    @property
    def is_feasible(self) -> bool:
        return self.status is LPStatus.OPTIMAL


@dataclass
class LinearProgram:
    """A small, explicit LP model builder.

    Example:
        >>> lp = LinearProgram(num_vars=2)
        >>> lp.set_objective([1.0, 2.0])
        >>> lp.add_constraint([1.0, 1.0], ">=", 1.0)
        >>> lp.set_bounds(0, lower=0.0, upper=1.0)
        >>> solution = lp.solve()
        >>> solution.is_optimal
        True
    """

    num_vars: int
    objective: np.ndarray = field(default=None)  # type: ignore[assignment]
    lower_bounds: np.ndarray = field(default=None)  # type: ignore[assignment]
    upper_bounds: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.num_vars <= 0:
            raise ValueError("num_vars must be positive")
        if self.objective is None:
            self.objective = np.zeros(self.num_vars)
        if self.lower_bounds is None:
            self.lower_bounds = np.zeros(self.num_vars)
        if self.upper_bounds is None:
            self.upper_bounds = np.full(self.num_vars, _INF)
        # Constraints in insertion order: row blocks plus flat senses / rhs.
        self._row_blocks: list[np.ndarray] = []
        self._senses: list[str] = []
        self._rhs: list[float] = []
        self._matrix_cache: dict[str, tuple[np.ndarray, ...]] = {}

    # -- model construction -------------------------------------------------

    def set_objective(self, coefficients: np.ndarray | list[float]) -> None:
        """Set the minimization objective ``c``."""
        c = np.asarray(coefficients, dtype=float).ravel()
        if c.shape[0] != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        self.objective = c

    def set_bounds(
        self,
        index: int,
        lower: float | None = None,
        upper: float | None = None,
    ) -> None:
        """Set bounds of a single variable; ``None`` keeps the current value."""
        if not 0 <= index < self.num_vars:
            raise IndexError(f"variable index {index} out of range")
        if lower is not None:
            self.lower_bounds[index] = lower
        if upper is not None:
            self.upper_bounds[index] = upper

    def set_all_bounds(self, lower: np.ndarray, upper: np.ndarray) -> None:
        """Set bounds for every variable at once."""
        lower = np.asarray(lower, dtype=float).ravel()
        upper = np.asarray(upper, dtype=float).ravel()
        if lower.shape[0] != self.num_vars or upper.shape[0] != self.num_vars:
            raise ValueError("bound arrays must have num_vars entries")
        self.lower_bounds = lower.copy()
        self.upper_bounds = upper.copy()

    def add_constraint(
        self,
        coefficients: np.ndarray | list[float],
        sense: str,
        rhs: float,
    ) -> int:
        """Add a linear constraint and return its row index.

        Args:
            coefficients: Row of the constraint matrix.
            sense: One of ``"<="``, ``">="``, ``"=="``.
            rhs: Right-hand side constant.
        """
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unsupported constraint sense: {sense!r}")
        row = np.array(coefficients, dtype=float).ravel()
        if row.shape[0] != self.num_vars:
            raise ValueError("constraint length does not match num_vars")
        self._row_blocks.append(row[None, :])
        self._senses.append(sense)
        self._rhs.append(float(rhs))
        self._matrix_cache.clear()
        return len(self._senses) - 1

    def add_constraints(
        self,
        rows: np.ndarray,
        senses: np.ndarray | list[str],
        rhs: np.ndarray | list[float],
    ) -> None:
        """Add a block of constraints: ``rows`` is ``(count, num_vars)``."""
        if not set(senses) <= {"<=", ">=", "=="}:
            raise ValueError(f"unsupported constraint sense in {list(senses)!r}")
        rows = np.array(rows, dtype=float, ndmin=2)
        if rows.shape[1] != self.num_vars:
            raise ValueError("constraint length does not match num_vars")
        self._row_blocks.append(rows)
        self._senses.extend(senses)
        self._rhs.extend(map(float, rhs))
        self._matrix_cache.clear()

    @property
    def num_constraints(self) -> int:
        return len(self._senses)

    def copy(self) -> "LinearProgram":
        """Deep-copy the model."""
        clone = LinearProgram(self.num_vars)
        clone.objective = self.objective.copy()
        clone.lower_bounds = self.lower_bounds.copy()
        clone.upper_bounds = self.upper_bounds.copy()
        clone._row_blocks = [block.copy() for block in self._row_blocks]
        clone._senses = list(self._senses)
        clone._rhs = list(self._rhs)
        return clone

    # -- matrix views --------------------------------------------------------

    def _stacked(self) -> dict[str, tuple[np.ndarray, ...]]:
        """Stacked constraint matrices, cached until the next added row:
        branch-and-bound re-solves the same program once per node, and
        re-stacking hundreds of rows per node is pure overhead."""
        if not self._matrix_cache:
            rows = np.concatenate([np.zeros((0, self.num_vars)), *self._row_blocks])
            senses = np.asarray(self._senses, dtype="<U2")
            rhs = np.asarray(self._rhs, dtype=float)
            ub, eq = senses != "==", senses == "=="
            sign = np.where(senses[ub] == ">=", -1.0, 1.0)
            a_ub = rows[ub]
            a_ub *= sign[:, None]
            self._matrix_cache = {
                "all": (rows, senses, rhs),
                "ub": (a_ub, rhs[ub] * sign),
                "eq": (rows[eq], rhs[eq]),
            }
        return self._matrix_cache

    def constraint_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every constraint in insertion order: ``(rows, senses, rhs)``."""
        return self._stacked()["all"]

    def inequality_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(A_ub, b_ub)`` with all inequalities as ``<=`` rows."""
        return self._stacked()["ub"]

    def equality_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(A_eq, b_eq)``."""
        return self._stacked()["eq"]

    # -- solving -------------------------------------------------------------

    def solve(self) -> LPSolution:
        """Solve the LP with HiGHS."""
        from scipy.optimize import linprog

        a_ub, b_ub = self.inequality_matrix()
        a_eq, b_eq = self.equality_matrix()
        bounds = [
            (
                None if self.lower_bounds[i] == -_INF else self.lower_bounds[i],
                None if self.upper_bounds[i] == _INF else self.upper_bounds[i],
            )
            for i in range(self.num_vars)
        ]
        result = linprog(
            c=self.objective,
            A_ub=a_ub if a_ub.shape[0] else None,
            b_ub=b_ub if a_ub.shape[0] else None,
            A_eq=a_eq if a_eq.shape[0] else None,
            b_eq=b_eq if a_eq.shape[0] else None,
            bounds=bounds,
            method="highs",
        )
        if result.status == 0:
            return LPSolution(
                LPStatus.OPTIMAL,
                np.asarray(result.x, dtype=float),
                float(result.fun),
                iterations=int(getattr(result, "nit", 0) or 0),
            )
        status = {2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}.get(
            result.status, LPStatus.ERROR
        )
        return LPSolution(status, np.zeros(0), float("nan"))
