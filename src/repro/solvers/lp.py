"""General linear-program model solved by SciPy's HiGHS.

:class:`LinearProgram` accepts the usual general form::

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                lb <= x <= ub        (entries may be -inf / +inf)

and solves it with HiGHS through SciPy's bundled binding
(``scipy.optimize._highspy``).  The RankHow pipelines solve thousands of
small LPs (one per branch-and-bound node, one per TREE region), so the model
prepares its HiGHS model -- stacked CSC matrix and row bounds -- once per
row change, and a solve that changes only the objective or the bounds writes
just those into it.  Every solve still runs on a fresh HiGHS instance, from
a cold start.
"""

from __future__ import annotations

import functools
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

    def _prepared(self) -> tuple:
        """The HiGHS model of the current rows, built by the first solve
        after a row change: rows validated, ``A_ub`` stacked over ``A_eq``
        in CSC form, row bounds set.  Each solve then writes only the
        objective and the column bounds into it."""
        prepared = self._matrix_cache.get("highs")
        if prepared is None:
            from scipy.optimize._highspy import _core as highs
            from scipy.sparse import csc_array

            a_ub, b_ub = self.inequality_matrix()
            a_eq, b_eq = self.equality_matrix()
            for name, values in (("A_ub", a_ub), ("b_ub", b_ub), ("A_eq", a_eq), ("b_eq", b_eq)):
                _check_finite(name, values)
            matrix = csc_array(np.vstack((a_ub, a_eq)))
            model = highs.HighsLp()
            model.num_col_ = model.a_matrix_.num_col_ = self.num_vars
            model.num_row_ = model.a_matrix_.num_row_ = matrix.shape[0]
            model.a_matrix_.format_ = highs.MatrixFormat.kColwise
            model.a_matrix_.start_ = matrix.indptr
            model.a_matrix_.index_ = matrix.indices
            model.a_matrix_.value_ = matrix.data
            model.row_lower_ = np.concatenate((np.full(len(b_ub), -_INF), b_eq))
            model.row_upper_ = row_upper = np.concatenate((b_ub, b_eq))
            prepared = self._matrix_cache["highs"] = (model, row_upper, len(b_ub))
        return prepared

    def solve(self) -> LPSolution:
        """Solve the LP with HiGHS, every call from a cold start.

        Statuses follow the HiGHS model status: a load error or a proven
        infeasibility is ``INFEASIBLE``, a proven unboundedness
        ``UNBOUNDED``, an optimum ``OPTIMAL`` only when its primal residuals
        are within ``sqrt(1e-9) * 10`` (else ``ERROR``), anything else
        ``ERROR``.  ``iterations`` is the HiGHS simplex (or, failing that,
        interior-point) iteration count on every status.
        """
        from scipy.optimize._highspy import _core as highs

        c = np.asarray(self.objective, dtype=float).ravel()
        if c.shape[0] != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        _check_finite("c", c)
        model, row_upper, num_ub = self._prepared()
        lower = np.asarray(self.lower_bounds, dtype=float).ravel()
        upper = np.asarray(self.upper_bounds, dtype=float).ravel()
        if lower.shape[0] != self.num_vars or upper.shape[0] != self.num_vars:
            raise ValueError("bound arrays must have num_vars entries")
        lower = np.where(np.isnan(lower), -_INF, lower)
        upper = np.where(np.isnan(upper), _INF, upper)
        model.col_cost_ = c
        model.col_lower_ = lower
        model.col_upper_ = upper

        solver = highs._Highs()
        solver.passOptions(_highs_options())
        if solver.passModel(model) == highs.HighsStatus.kError:
            return _failure(highs.HighsModelStatus.kModelError, 0)
        if solver.run() == highs.HighsStatus.kError:
            return _failure(solver.getModelStatus(), 0)
        status = solver.getModelStatus()
        info = solver.getInfo()
        iterations = info.simplex_iteration_count or info.ipm_iteration_count
        if status != highs.HighsModelStatus.kOptimal:
            return _failure(status, iterations)
        solution = solver.getSolution()
        x = np.array(solution.col_value)
        objective = info.objective_function_value
        slack = row_upper - np.array(solution.row_value)
        tol = _RESIDUAL_TOLERANCE
        feasible = not (
            np.isnan(x).any()
            or np.isnan(objective)
            or np.isnan(slack).any()
            or not np.all((x >= lower - tol) & (x <= upper + tol))
            or (slack[:num_ub] < -tol).any()
            or (np.abs(slack[num_ub:]) > tol).any()
        )
        if not feasible:
            return LPSolution(LPStatus.ERROR, np.zeros(0), float("nan"), iterations)
        return LPSolution(LPStatus.OPTIMAL, x, float(objective), iterations)


#: Largest primal residual (bounds and rows) an optimum may carry.
_RESIDUAL_TOLERANCE = np.sqrt(1e-9) * 10


def _check_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"invalid LP input: {name} must not contain inf or nan")


@functools.cache
def _highs_options():
    """Presolve on, dual simplex, no output."""
    from scipy.optimize._highspy import _core as highs

    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = False
    options.log_to_console = False
    return options


def _failure(status, iterations: int) -> LPSolution:
    """The solution of a solve that ended without an accepted optimum."""
    from scipy.optimize._highspy import _core as highs

    mapped = {
        highs.HighsModelStatus.kInfeasible: LPStatus.INFEASIBLE,
        highs.HighsModelStatus.kModelError: LPStatus.INFEASIBLE,
        highs.HighsModelStatus.kUnbounded: LPStatus.UNBOUNDED,
    }.get(status, LPStatus.ERROR)
    return LPSolution(mapped, np.zeros(0), float("nan"), iterations)
