"""Mixed-integer linear model with indicator constraints.

The RankHow formulation (Equation 2 of the paper) uses *indicator
constraints*: a binary variable `delta` implies a linear inequality over the
continuous weight variables.  Commercial solvers support these natively; here
they are encoded through big-M rows, with the big-M value either supplied by
the caller (the formulation layer knows tight pair-specific values) or derived
from variable bounds.

Rows are stored sparse.  Every ``add_*`` call appends COO triplets plus
per-row metadata, and the model assembles them into one CSR matrix
(:class:`ModelRows`) on first use: a RankHow row has a handful of nonzeros,
so the model's memory grows with its nonzeros, not with rows x variables.

The model keeps binaries and continuous variables in a single indexed variable
space so that branch-and-bound can treat the relaxation as an ordinary
:class:`~repro.solvers.lp.LinearProgram`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.solvers.lp import LinearProgram

__all__ = ["MILPStatus", "MILPSolution", "ModelRows", "MILPModel"]

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


@dataclass(frozen=True, eq=False)
class ModelRows:
    """Every row of a :class:`MILPModel`: one CSR matrix plus per-row arrays.

    Row ``i`` is ``data[k] @ x[indices[k]] sense[i] rhs[i]`` over
    ``k in indptr[i]:indptr[i+1]``, with entries in insertion order.  It holds
    unconditionally when ``binary[i] < 0``; otherwise only while
    ``x[binary[i]] == active_value[i]``, relaxed by ``big_m[i]`` (``nan``:
    derived from the variable bounds).
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray
    binary: np.ndarray
    active_value: np.ndarray
    big_m: np.ndarray

    def __len__(self) -> int:
        return int(self.rhs.shape[0])

    @property
    def is_indicator(self) -> np.ndarray:
        return self.binary >= 0

    def entry_rows(self) -> np.ndarray:
        """Row index of every stored entry (the COO row array)."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def activity(self, x: np.ndarray) -> np.ndarray:
        """``row @ x`` for every row."""
        products = self.data * x[self.indices]
        return np.bincount(self.entry_rows(), weights=products, minlength=len(self))


class MILPModel:
    """A minimization MILP with binary and continuous variables."""

    def __init__(self) -> None:
        self._num_vars = 0
        self._objective: list[float] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._is_binary: list[bool] = []
        self._names: list[str] = []
        # Row blocks as appended: (entries per row, indices, data, sense, rhs,
        # binary, active value, big-M); assembled into ``rows`` on demand.
        self._blocks: list[tuple[np.ndarray, ...]] = []
        self.add_rows([0], [], [], [], [])

    # -- variables -----------------------------------------------------------

    def add_continuous(
        self,
        lower: float = 0.0,
        upper: float = _INF,
        objective: float = 0.0,
        name: str = "",
    ) -> int:
        """Add a continuous variable and return its index."""
        if lower > upper:
            raise ValueError(f"variable lower bound {lower} exceeds upper {upper}")
        return int(self._add_vars(lower, upper, objective, False, [name])[0])

    def add_binary(self, objective: float = 0.0, name: str = "") -> int:
        """Add a binary (0/1) variable and return its index."""
        return int(self._add_vars(0.0, 1.0, objective, True, [name])[0])

    def add_binaries(self, names: Sequence[str]) -> np.ndarray:
        """Add one zero-objective binary per name; returns their indices."""
        return self._add_vars(0.0, 1.0, 0.0, True, names)

    def _add_vars(
        self,
        lower: float,
        upper: float,
        objective: float,
        binary: bool,
        names: Sequence[str],
    ) -> np.ndarray:
        first, count = self._num_vars, len(names)
        self._num_vars += count
        self._lower += [lower] * count
        self._upper += [upper] * count
        self._objective += [objective] * count
        self._is_binary += [binary] * count
        self._names += [name or f"x{first + i}" for i, name in enumerate(names)]
        return np.arange(first, self._num_vars)

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

    def binary_mask(self) -> np.ndarray:
        return np.asarray(self._is_binary, dtype=bool)

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
        indices, data = self._sparse_row(coefficients)
        self.add_rows([0, len(indices)], indices, data, [sense], [rhs])

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
        indices, data = self._sparse_row(coefficients)
        self.add_rows(
            [0, len(indices)],
            indices,
            data,
            [sense],
            [rhs],
            binary=[binary],
            active_value=[active_value],
            big_m=[np.nan if big_m is None else big_m],
        )

    def add_rows(
        self,
        indptr: Sequence[int] | np.ndarray,
        indices: Sequence[int] | np.ndarray,
        data: Sequence[float] | np.ndarray,
        sense: Sequence[str] | np.ndarray,
        rhs: Sequence[float] | np.ndarray,
        binary: Sequence[int] | np.ndarray | None = None,
        active_value: Sequence[int] | np.ndarray | None = None,
        big_m: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        """Append a block of rows given as CSR arrays (``indptr`` starts at 0).

        Without ``binary`` the rows are unconditional; with it, row ``i`` is
        the indicator ``x[binary[i]] == active_value[i] => row sense rhs``
        with slack ``big_m[i]`` (``nan``: derived from the bounds).
        """
        counts = np.diff(np.asarray(indptr, dtype=np.int64))
        sense = np.asarray(sense, dtype="<U2")
        if not np.all((sense == "<=") | (sense == ">=") | (sense == "==")):
            raise ValueError(f"unsupported sense in {sorted(set(sense.tolist()))!r}")
        if binary is None:
            binary, active_value, big_m = -1, -1, np.nan
        else:
            binary, active_value = np.asarray(binary), np.asarray(active_value)
            if not all(self._is_binary[index] for index in binary.tolist()):
                raise ValueError("indicator variables must be binary")
            if not np.all((active_value == 0) | (active_value == 1)):
                raise ValueError("active_value must be 0 or 1")
            if np.any(sense == "=="):
                raise ValueError("indicator constraints support only <= and >=")
        per_row = (
            np.broadcast_to(np.asarray(values, dtype=dtype), counts.shape)
            for values, dtype in (
                (rhs, float),
                (binary, np.int64),
                (active_value, np.int8),
                (big_m, float),
            )
        )
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=float)
        self._blocks.append((counts, indices, data, sense, *per_row))
        self._rows = None

    def _sparse_row(
        self, coefficients: dict[int, float] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(coefficients, dict):
            indices = np.fromiter(coefficients.keys(), dtype=np.int64)
            return indices, np.fromiter(coefficients.values(), dtype=float)
        row = np.asarray(coefficients, dtype=float).ravel()
        if row.shape[0] != self._num_vars:
            raise ValueError("constraint length does not match number of variables")
        indices = np.flatnonzero(row)
        return indices, row[indices]

    @property
    def rows(self) -> ModelRows:
        """All rows in insertion order.  Rows added before a variable existed
        simply have no entry for it (an implicit zero)."""
        if self._rows is None:
            counts, *columns = (np.concatenate(part) for part in zip(*self._blocks))
            self._rows = ModelRows(np.concatenate(([0], np.cumsum(counts))), *columns)
            self._blocks = [(counts, *columns)]
        return self._rows

    # -- relaxation ------------------------------------------------------------

    def _big_m_values(self, rows: ModelRows) -> np.ndarray:
        """Big-M per row; missing values derived from the variable bounds.

        A ``>=`` row needs ``row @ x >= rhs - M`` to be vacuous, i.e.
        ``M >= rhs - min(row @ x)``; a ``<=`` row analogously uses the max.
        """
        big_m = rows.big_m.copy()
        derive = rows.is_indicator & np.isnan(big_m)
        if not derive.any():
            return big_m
        lower, upper = self.bounds()
        data, indices = rows.data, rows.indices
        geq = np.repeat(rows.sense == ">=", np.diff(rows.indptr))
        # The bound that makes each term smallest (>= rows) or largest (<=).
        bound = np.where((data > 0) == geq, lower[indices], upper[indices])
        with np.errstate(invalid="ignore"):
            terms = np.where(data != 0.0, data * bound, 0.0)
        worst = np.bincount(rows.entry_rows(), weights=terms, minlength=len(rows))
        if not np.all(np.isfinite(worst[derive])):
            raise ValueError(
                "cannot derive a finite big-M: unbounded variable in indicator row"
            )
        slack = np.where(rows.sense == ">=", rows.rhs - worst, worst - rows.rhs)
        big_m[derive] = np.maximum(slack[derive], 0.0)
        return big_m

    def build_relaxation(self) -> LinearProgram:
        """Build the LP relaxation with indicators expanded into big-M rows.

        For an indicator row with slack ``M`` and ``s = +1`` (``<=``) or
        ``-1`` (``>=``): active value 1 gives ``row + s*M*delta <= / >= rhs
        + s*M``; active value 0 gives ``row - s*M*delta <= / >= rhs``.
        Unconditional rows come first, then the indicator rows, each group
        in insertion order; the rows stay sparse, each indicator row with
        one entry for its binary after its own entries.
        """
        rows = self.rows
        big_m = self._big_m_values(rows)
        indicator = rows.is_indicator
        counts = np.diff(rows.indptr)
        on_indicator = np.repeat(indicator, counts)
        shift = np.where(rows.sense[indicator] == "<=", 1.0, -1.0) * big_m[indicator]
        active = rows.active_value[indicator] == 1
        rhs = rows.rhs[indicator]
        rhs[active] += shift[active]
        ends = np.cumsum(counts[indicator])
        lp = LinearProgram(self._num_vars)
        lp.set_objective(self._objective)
        lp.set_all_bounds(*self.bounds())
        lp.add_rows(
            np.concatenate(([0], np.cumsum(counts[~indicator]))),
            rows.indices[~on_indicator],
            rows.data[~on_indicator],
            rows.sense[~indicator],
            rows.rhs[~indicator],
        )
        lp.add_rows(
            np.concatenate(([0], ends + np.arange(1, ends.shape[0] + 1))),
            np.insert(rows.indices[on_indicator], ends, rows.binary[indicator]),
            np.insert(rows.data[on_indicator], ends, np.where(active, shift, -shift)),
            rows.sense[indicator],
            rhs,
        )
        return lp

    # -- verification -----------------------------------------------------------

    def check_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Check whether ``x`` satisfies every constraint (incl. indicators)."""
        x = np.asarray(x, dtype=float)
        lower, upper = self.bounds()
        if np.any(x < lower - tol) or np.any(x > upper + tol):
            return False
        binary_values = x[self.binary_mask()]
        if np.any(np.abs(binary_values - np.round(binary_values)) > tol):
            return False
        rows = self.rows
        value = rows.activity(x)
        sense, rhs = rows.sense, rows.rhs
        violated = (
            ((sense == "<=") & (value > rhs + tol))
            | ((sense == ">=") & (value < rhs - tol))
            | ((sense == "==") & (np.abs(value - rhs) > tol))
        )
        indicator = rows.is_indicator
        enforced = ~indicator
        active = rows.active_value[indicator]
        enforced[indicator] = np.round(x[rows.binary[indicator]]) == active
        return not np.any(violated & enforced)

    def evaluate_objective(self, x: np.ndarray) -> float:
        """Objective value of an assignment."""
        return float(self.objective_vector() @ np.asarray(x, dtype=float))
