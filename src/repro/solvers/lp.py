"""General linear-program model solved by SciPy's HiGHS.

:class:`LinearProgram` accepts the usual general form::

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                lb <= x <= ub        (entries may be -inf / +inf)

and solves it with HiGHS through SciPy's bundled binding
(``scipy.optimize._highspy``).  The RankHow pipelines solve thousands of
small LPs (one per branch-and-bound node, one per TREE region) and one large
one (the ordinal-regression seed, a row per ordered pair), so rows stay
sparse from the caller to HiGHS: the model stores them as CSR arrays and
builds HiGHS's column-wise matrix from them with numpy, once per row change.
Each relaxation is loaded into one HiGHS instance.  Its first solve is cold
(presolve, then dual simplex) and gives ``linprog``'s answer bit for bit; a
later solve writes only the objective and the column bounds into it and runs
the dual simplex from the basis the previous solve ended at, as an LP-based
branch-and-bound re-optimises its nodes.
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
        # Row blocks in insertion order: (entries per row, column indices,
        # values, senses, rhs); merged into one block on first use.
        self._blocks: list[tuple[np.ndarray, ...]] = []
        self._num_rows = 0
        self._matrix_cache: dict[str, object] = {}
        self.add_rows([0], [], [], [], [])

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
            coefficients: Dense row of the constraint matrix; only its
                nonzeros (``nan`` and ``inf`` included) are stored.
            sense: One of ``"<="``, ``">="``, ``"=="``.
            rhs: Right-hand side constant.
        """
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unsupported constraint sense: {sense!r}")
        row = np.asarray(coefficients, dtype=float).ravel()
        if row.shape[0] != self.num_vars:
            raise ValueError("constraint length does not match num_vars")
        columns = np.flatnonzero(row)
        self.add_rows([0, len(columns)], columns, row[columns], [sense], [rhs])
        return self._num_rows - 1

    def add_constraints(
        self,
        rows: np.ndarray,
        senses: np.ndarray | list[str],
        rhs: np.ndarray | list[float],
    ) -> None:
        """Add a block of dense constraints: ``rows`` is ``(count, num_vars)``;
        only their nonzeros are stored."""
        rows = np.array(rows, dtype=float, ndmin=2)
        if rows.shape[1] != self.num_vars:
            raise ValueError("constraint length does not match num_vars")
        row_index, columns = np.nonzero(rows)
        counts = np.bincount(row_index, minlength=rows.shape[0])
        indptr = np.concatenate(([0], np.cumsum(counts)))
        self.add_rows(indptr, columns, rows[row_index, columns], senses, rhs)

    def add_rows(
        self,
        indptr: np.ndarray | list[int],
        indices: np.ndarray | list[int],
        data: np.ndarray | list[float],
        senses: np.ndarray | list[str],
        rhs: np.ndarray | list[float],
    ) -> None:
        """Append a block of rows given as CSR arrays (``indptr`` starts at 0).

        Row ``i`` is ``data[p] @ x[indices[p]] senses[i] rhs[i]`` over
        ``p in indptr[i]:indptr[i+1]``; a column may repeat within a row, and
        its values then add up.
        """
        counts = np.diff(np.asarray(indptr, dtype=np.int64))
        senses = np.asarray(senses, dtype=str).ravel()
        if not np.all((senses == "<=") | (senses == ">=") | (senses == "==")):
            raise ValueError(
                f"unsupported constraint sense in {sorted(set(senses.tolist()))!r}"
            )
        senses = senses.astype("<U2")
        indices = np.array(indices, dtype=np.int64).ravel()
        data = np.array(data, dtype=float).ravel()
        rhs = np.array(rhs, dtype=float).ravel()
        if not counts.shape[0] == senses.shape[0] == rhs.shape[0]:
            raise ValueError("indptr, senses and rhs disagree on the row count")
        if indices.shape[0] != data.shape[0] or indices.shape[0] != counts.sum():
            raise ValueError("indices and data must hold indptr[-1] entries")
        if indices.shape[0] and not 0 <= indices.min() <= indices.max() < self.num_vars:
            raise ValueError("constraint column index out of range")
        self._blocks.append((counts, indices, data, senses, rhs))
        self._num_rows += counts.shape[0]
        self._matrix_cache.clear()

    @property
    def num_constraints(self) -> int:
        return self._num_rows

    def copy(self) -> "LinearProgram":
        """Deep-copy the model.  The clone loads its own HiGHS instance."""
        clone = LinearProgram(self.num_vars)
        clone.objective = self.objective.copy()
        clone.lower_bounds = self.lower_bounds.copy()
        clone.upper_bounds = self.upper_bounds.copy()
        clone._blocks = [tuple(part.copy() for part in self._rows())]
        clone._num_rows = self._num_rows
        return clone

    # -- row views -----------------------------------------------------------

    def _rows(self) -> tuple[np.ndarray, ...]:
        """Every row in insertion order: ``(entries per row, column indices,
        values, senses, rhs)``."""
        if len(self._blocks) > 1:
            self._blocks = [tuple(np.concatenate(part) for part in zip(*self._blocks))]
        return self._blocks[0]

    def constraint_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every constraint in insertion order: ``(rows, senses, rhs)``, with
        the rows densified on each call.

        Only checks call it and the two views below -- the ``linprog``
        reference (:func:`repro.testing.invariants.lp_reference`) and the
        re-solve contract of :mod:`repro.testing` -- so no solve path pays
        for a dense matrix."""
        counts, indices, data, senses, rhs = self._rows()
        matrix = np.zeros((rhs.shape[0], self.num_vars))
        np.add.at(matrix, (np.repeat(np.arange(rhs.shape[0]), counts), indices), data)
        return matrix, senses, rhs

    def inequality_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Return dense ``(A_ub, b_ub)`` with all inequalities as ``<=`` rows."""
        rows, senses, rhs = self.constraint_rows()
        ub = senses != "=="
        sign = np.where(senses[ub] == ">=", -1.0, 1.0)
        return rows[ub] * sign[:, None], rhs[ub] * sign

    def equality_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Return dense ``(A_eq, b_eq)``."""
        rows, senses, rhs = self.constraint_rows()
        eq = senses == "=="
        return rows[eq], rhs[eq]

    # -- solving -------------------------------------------------------------

    def _prepared(self) -> tuple:
        """The HiGHS model of the current rows, built by the first solve
        after a row change: the inequality rows in insertion order (``>=``
        rows negated), then the equality rows, as a column-wise matrix."""
        prepared = self._matrix_cache.get("highs")
        if prepared is None:
            from scipy.optimize._highspy import _core as highs

            counts, indices, data, senses, rhs = self._rows()
            ub = senses != "=="
            entry_ub = np.repeat(ub, counts)
            for name, values in (
                ("A_ub", data[entry_ub]),
                ("b_ub", rhs[ub]),
                ("A_eq", data[~entry_ub]),
                ("b_eq", rhs[~ub]),
            ):
                _check_finite(name, values)
            num_ub = int(ub.sum())
            highs_row = np.empty(rhs.shape[0], dtype=np.int64)
            highs_row[ub] = np.arange(num_ub)
            highs_row[~ub] = np.arange(num_ub, rhs.shape[0])
            sign = np.where(senses == ">=", -1.0, 1.0)
            start, index, value = _column_wise(
                np.repeat(highs_row, counts),
                indices,
                data * np.repeat(sign, counts),
                rhs.shape[0],
                self.num_vars,
            )
            model = highs.HighsLp()
            model.num_col_ = model.a_matrix_.num_col_ = self.num_vars
            model.num_row_ = model.a_matrix_.num_row_ = rhs.shape[0]
            model.a_matrix_.format_ = highs.MatrixFormat.kColwise
            model.a_matrix_.start_ = start
            model.a_matrix_.index_ = index
            model.a_matrix_.value_ = value
            b_ub = rhs[ub] * sign[ub]
            model.row_lower_ = np.concatenate((np.full(num_ub, -_INF), rhs[~ub]))
            model.row_upper_ = row_upper = np.concatenate((b_ub, rhs[~ub]))
            columns = np.arange(self.num_vars, dtype=np.int32)
            prepared = self._matrix_cache["highs"] = (model, row_upper, num_ub, columns)
        return prepared

    def solve(self) -> LPSolution:
        """Solve the LP with HiGHS.

        The first solve after a row change loads the model into a new HiGHS
        instance and starts cold, so its answer is the one ``linprog``
        gives.  A later solve writes only the objective and the column
        bounds into the instance and re-solves from the basis the previous
        solve ended at; HiGHS skips presolve then.  A re-solve reaches the
        same status and, up to rounding, the same objective as a cold solve,
        but a degenerate LP may land on another optimal vertex.  The
        sequence of answers is deterministic given the sequence of solves.
        A failed write, a run that errs, or a model status other than
        optimal or infeasible drops the instance, so the next solve is cold.

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
        model, row_upper, num_ub, columns = self._prepared()
        lower = np.asarray(self.lower_bounds, dtype=float).ravel()
        upper = np.asarray(self.upper_bounds, dtype=float).ravel()
        if lower.shape[0] != self.num_vars or upper.shape[0] != self.num_vars:
            raise ValueError("bound arrays must have num_vars entries")
        lower = np.where(np.isnan(lower), -_INF, lower)
        upper = np.where(np.isnan(upper), _INF, upper)

        # The instance stays cached only while its writes succeed and its
        # runs end optimal or infeasible; otherwise the next solve is cold.
        solver = self._matrix_cache.pop("solver", None)
        if solver is None:
            model.col_cost_ = c
            model.col_lower_ = lower
            model.col_upper_ = upper
            solver = highs._Highs()
            solver.passOptions(_highs_options())
            written = [solver.passModel(model)]
        else:
            written = [
                solver.changeColsCost(self.num_vars, columns, c),
                solver.changeColsBounds(self.num_vars, columns, lower, upper),
            ]
        if highs.HighsStatus.kError in written:
            return _failure(highs.HighsModelStatus.kModelError, 0)
        if solver.run() == highs.HighsStatus.kError:
            return _failure(solver.getModelStatus(), 0)
        status = solver.getModelStatus()
        info = solver.getInfo()
        iterations = info.simplex_iteration_count or info.ipm_iteration_count
        if status in (highs.HighsModelStatus.kOptimal, highs.HighsModelStatus.kInfeasible):
            self._matrix_cache["solver"] = solver
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


def _column_wise(
    rows: np.ndarray, columns: np.ndarray, values: np.ndarray, num_rows: int, num_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC ``(start, index, value)`` arrays of the entries ``(rows, columns,
    values)``, listed row by row: ordered by (column, row), repeated entries
    summed in entry order, zeros dropped -- byte for byte what ``csc_array``
    makes of the dense matrix the entries add up to."""
    order = np.argsort(columns * num_rows + rows, kind="stable")
    rows, columns, values = rows[order], columns[order], values[order]
    repeated = (rows[1:] == rows[:-1]) & (columns[1:] == columns[:-1])
    if repeated.any():
        first = np.concatenate(([True], ~repeated))
        summed = np.zeros(int(first.sum()))
        np.add.at(summed, np.cumsum(first) - 1, values)
        rows, columns, values = rows[first], columns[first], summed
    nonzero = values != 0.0
    start = np.zeros(num_cols + 1, dtype=np.int32)
    np.cumsum(np.bincount(columns[nonzero], minlength=num_cols), out=start[1:])
    return start, rows[nonzero].astype(np.int32), values[nonzero]


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
