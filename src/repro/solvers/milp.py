"""Mixed-integer linear model with indicator constraints.

The RankHow formulation (Equation 2 of the paper) uses *indicator
constraints*: a binary variable `delta` implies a linear inequality over the
continuous weight variables.  Commercial solvers support these natively; here
they are encoded through big-M rows, with the big-M value either supplied by
the caller (the formulation layer knows tight pair-specific values) or derived
from variable bounds.

The model keeps binaries and continuous variables in a single indexed variable
space so that branch-and-bound can treat the relaxation as an ordinary
:class:`~repro.solvers.lp.LinearProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.solvers.lp import LinearProgram

__all__ = ["MILPStatus", "MILPSolution", "IndicatorConstraint", "MILPModel"]

_INF = float("inf")


class MILPStatus(Enum):
    """Termination status of a MILP solve."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # stopped early (node/time limit) with an incumbent
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NO_SOLUTION = "no_solution"  # stopped early without an incumbent


@dataclass
class MILPSolution:
    """Result of a MILP solve.

    Attributes:
        status: Termination status.
        x: Values for every variable in model order (empty if none found).
        objective: Objective of the returned solution.
        best_bound: Best proven lower bound on the optimum.
        nodes: Number of branch-and-bound nodes processed.
        gap: Relative optimality gap ``(objective - best_bound) / max(1, |objective|)``.
        lp_iterations: Total HiGHS iterations summed over every node solve.
    """

    status: MILPStatus
    x: np.ndarray
    objective: float
    best_bound: float = float("-inf")
    nodes: int = 0
    gap: float = float("inf")
    lp_iterations: int = 0

    @property
    def has_solution(self) -> bool:
        return self.status in (MILPStatus.OPTIMAL, MILPStatus.FEASIBLE)


@dataclass
class IndicatorConstraint:
    """``binary == active_value  =>  coefficients @ x  <sense>  rhs``.

    Attributes:
        binary: Index of the binary variable.
        active_value: 0 or 1; the value of the binary that activates the row.
        coefficients: Row over *all* model variables (binaries included).
        sense: ``"<="`` or ``">="``.
        rhs: Right-hand side.
        big_m: Slack added when the indicator is inactive.  When ``None`` a
            valid value is derived from the variable bounds.
    """

    binary: int
    active_value: int
    coefficients: np.ndarray
    sense: str
    rhs: float
    big_m: float | None = None


@dataclass
class _LinearRow:
    coefficients: np.ndarray
    sense: str
    rhs: float


class MILPModel:
    """A minimization MILP with binary and continuous variables."""

    def __init__(self) -> None:
        self._num_vars = 0
        self._objective: list[float] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._is_binary: list[bool] = []
        self._names: list[str] = []
        self._rows: list[_LinearRow] = []
        self._indicators: list[IndicatorConstraint] = []

    # -- variables -----------------------------------------------------------

    def add_continuous(
        self,
        lower: float = 0.0,
        upper: float = _INF,
        objective: float = 0.0,
        name: str = "",
    ) -> int:
        """Add a continuous variable and return its index."""
        return self._add_var(lower, upper, objective, False, name)

    def add_binary(self, objective: float = 0.0, name: str = "") -> int:
        """Add a binary (0/1) variable and return its index."""
        return self._add_var(0.0, 1.0, objective, True, name)

    def _add_var(
        self, lower: float, upper: float, objective: float, binary: bool, name: str
    ) -> int:
        if lower > upper:
            raise ValueError(f"variable lower bound {lower} exceeds upper {upper}")
        index = self._num_vars
        self._num_vars += 1
        self._lower.append(lower)
        self._upper.append(upper)
        self._objective.append(objective)
        self._is_binary.append(binary)
        self._names.append(name or f"x{index}")
        return index

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def binary_indices(self) -> list[int]:
        return [i for i, b in enumerate(self._is_binary) if b]

    @property
    def variable_names(self) -> list[str]:
        return list(self._names)

    def name_of(self, index: int) -> str:
        return self._names[index]

    def objective_vector(self) -> np.ndarray:
        return np.asarray(self._objective, dtype=float)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(self._lower, dtype=float),
            np.asarray(self._upper, dtype=float),
        )

    def set_objective_coefficient(self, index: int, value: float) -> None:
        self._objective[index] = float(value)

    def fix_binary(self, index: int, value: int) -> None:
        """Fix a binary variable to a constant (used by presolve)."""
        if not self._is_binary[index]:
            raise ValueError(f"variable {index} is not binary")
        if value not in (0, 1):
            raise ValueError("binary value must be 0 or 1")
        self._lower[index] = float(value)
        self._upper[index] = float(value)

    # -- constraints ----------------------------------------------------------

    def add_constraint(
        self,
        coefficients: dict[int, float] | np.ndarray,
        sense: str,
        rhs: float,
    ) -> None:
        """Add an ordinary linear constraint.

        ``coefficients`` may be a dense vector over all variables or a sparse
        ``{index: value}`` mapping.
        """
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unsupported sense {sense!r}")
        row = self._dense_row(coefficients)
        self._rows.append(_LinearRow(row, sense, float(rhs)))

    def add_indicator(
        self,
        binary: int,
        active_value: int,
        coefficients: dict[int, float] | np.ndarray,
        sense: str,
        rhs: float,
        big_m: float | None = None,
    ) -> None:
        """Add an indicator constraint ``binary == active_value => row sense rhs``."""
        if not self._is_binary[binary]:
            raise ValueError(f"variable {binary} is not binary")
        if active_value not in (0, 1):
            raise ValueError("active_value must be 0 or 1")
        if sense not in ("<=", ">="):
            raise ValueError("indicator constraints support only <= and >=")
        row = self._dense_row(coefficients)
        self._indicators.append(
            IndicatorConstraint(binary, active_value, row, sense, float(rhs), big_m)
        )

    def _dense_row(self, coefficients: dict[int, float] | np.ndarray) -> np.ndarray:
        if isinstance(coefficients, dict):
            row = np.zeros(self._num_vars)
            for idx, value in coefficients.items():
                row[idx] = value
            return row
        row = np.asarray(coefficients, dtype=float).ravel()
        if row.shape[0] != self._num_vars:
            raise ValueError("constraint length does not match number of variables")
        return row.copy()

    def padded_row(self, row: np.ndarray) -> np.ndarray:
        """Pad a constraint row added before later variables existed.

        Constraints may be added interleaved with variable creation; rows are
        stored at their creation-time width and variables added later have an
        implicit coefficient of zero.
        """
        if row.shape[0] == self._num_vars:
            return row
        padded = np.zeros(self._num_vars)
        padded[: row.shape[0]] = row
        return padded

    @property
    def constraints(self) -> list[_LinearRow]:
        return self._rows

    @property
    def indicators(self) -> list[IndicatorConstraint]:
        return self._indicators

    # -- relaxation ------------------------------------------------------------

    def _derive_big_m(self, indicator: IndicatorConstraint) -> float:
        """Compute a valid big-M from variable bounds for one indicator row.

        For a ``>=`` row we need ``row @ x >= rhs - M`` to be vacuous, i.e.
        ``M >= rhs - min(row @ x)``; for ``<=`` analogously with the max.
        """
        lower = np.asarray(self._lower)
        upper = np.asarray(self._upper)
        row = self.padded_row(indicator.coefficients)
        pos = row > 0
        neg = row < 0
        if indicator.sense == ">=":
            worst = float(np.sum(row[pos] * lower[pos]) + np.sum(row[neg] * upper[neg]))
            if not np.isfinite(worst):
                raise ValueError(
                    "cannot derive a finite big-M: unbounded variable in indicator row"
                )
            return max(indicator.rhs - worst, 0.0)
        worst = float(np.sum(row[pos] * upper[pos]) + np.sum(row[neg] * lower[neg]))
        if not np.isfinite(worst):
            raise ValueError(
                "cannot derive a finite big-M: unbounded variable in indicator row"
            )
        return max(worst - indicator.rhs, 0.0)

    def build_relaxation(self) -> LinearProgram:
        """Build the LP relaxation with indicators expanded into big-M rows."""
        lp = LinearProgram(self._num_vars)
        lp.set_objective(self._objective)
        lp.set_all_bounds(np.asarray(self._lower), np.asarray(self._upper))
        for row in self._rows:
            lp.add_constraint(self.padded_row(row.coefficients), row.sense, row.rhs)
        for ind in self._indicators:
            big_m = ind.big_m if ind.big_m is not None else self._derive_big_m(ind)
            coeffs = self.padded_row(ind.coefficients).copy()
            rhs = ind.rhs
            if ind.sense == ">=":
                # row >= rhs - M * (1 - delta)   when active_value == 1
                # row >= rhs - M * delta         when active_value == 0
                if ind.active_value == 1:
                    coeffs[ind.binary] += -big_m
                    rhs -= big_m
                else:
                    coeffs[ind.binary] += big_m
            else:
                # row <= rhs + M * (1 - delta)   when active_value == 1
                # row <= rhs + M * delta         when active_value == 0
                if ind.active_value == 1:
                    coeffs[ind.binary] += big_m
                    rhs += big_m
                else:
                    coeffs[ind.binary] += -big_m
            lp.add_constraint(coeffs, ind.sense, rhs)
        return lp

    # -- verification -----------------------------------------------------------

    def check_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Check whether ``x`` satisfies every constraint (incl. indicators)."""
        x = np.asarray(x, dtype=float)
        lower, upper = self.bounds()
        if np.any(x < lower - tol) or np.any(x > upper + tol):
            return False
        for i in self.binary_indices:
            if abs(x[i] - round(x[i])) > tol:
                return False
        for row in self._rows:
            value = float(self.padded_row(row.coefficients) @ x)
            if row.sense == "<=" and value > row.rhs + tol:
                return False
            if row.sense == ">=" and value < row.rhs - tol:
                return False
            if row.sense == "==" and abs(value - row.rhs) > tol:
                return False
        for ind in self._indicators:
            if round(x[ind.binary]) != ind.active_value:
                continue
            value = float(self.padded_row(ind.coefficients) @ x)
            if ind.sense == ">=" and value < ind.rhs - tol:
                return False
            if ind.sense == "<=" and value > ind.rhs + tol:
                return False
        return True

    def evaluate_objective(self, x: np.ndarray) -> float:
        """Objective value of an assignment."""
        return float(self.objective_vector() @ np.asarray(x, dtype=float))

    def solve(self, options=None) -> MILPSolution:
        """Solve with the default branch-and-bound solver.

        Convenience wrapper so that callers holding only a model do not need
        to import :class:`~repro.solvers.branch_and_bound.BranchAndBoundSolver`.
        """
        from repro.solvers.branch_and_bound import BranchAndBoundSolver

        return BranchAndBoundSolver(options).solve(self)

