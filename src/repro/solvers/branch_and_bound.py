"""Best-first branch-and-bound for the MILP models in this package.

The solver operates on :class:`~repro.solvers.milp.MILPModel` instances.  It
builds the big-M LP relaxation once and re-solves it on one HiGHS instance
under per-node bound changes on the binary variables: each node LP after the
root runs the dual simplex from the basis the previous node ended at, with
no presolve, which keeps node processing cheap.  RankHow uses it for solves
restricted to a cell of weight space -- SYM-GD's local steps -- where most
indicators are fixed and a few cheap nodes beat a full MIP solver's root; a
whole-simplex solve goes to HiGHS's own branch-and-cut
(:mod:`repro.solvers.highs_milp`) instead.  Key features that mirror what
the paper credits modern MILP solvers for (Section III-B):

* **Holistic bounding** -- a global incumbent prunes any node whose LP
  relaxation bound cannot improve on it, so information discovered in one part
  of the search space rules out others.
* **Incumbent callbacks** -- the caller may register a problem-specific
  rounding heuristic (RankHow derives a feasible integral solution from the
  relaxation's weight vector by simply ranking the tuples), which typically
  produces near-optimal incumbents at the root node.
* **Most-fractional branching** -- branching on the binary closest to 0.5.
* **Per-node bound tightening** -- implied-bound propagation over the big-M
  rows plus an incumbent objective cutoff (:class:`BoundTightener`) fixes
  additional binaries after each branching decision and prunes infeasible
  nodes before their LP solve.  It never cuts off a feasible point; the
  formulation layer already fixes dominated indicators and sets tight big-M
  values itself, so there is no model-level presolve.

A node whose LP fails numerically is neither explored nor pruned: its parent
bound stays in the reported ``best_bound`` and the search never claims
optimality.  The solver is deterministic given the model and options: every
solve builds its own relaxation, and best-first search fixes the order of its
node LPs, so the basis each one starts from is the same on every run.  A warm
node LP may end at another optimal vertex of a degenerate LP than a cold one
would, so answers depend on that order, not only on the nodes' bounds.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs.trace import span as obs_span
from repro.solvers.lp import LPStatus
from repro.solvers.milp import MILPModel, MILPSolution, MILPStatus

__all__ = ["SolverOptions", "BoundTightener", "BranchAndBoundSolver"]

IncumbentCallback = Callable[[np.ndarray, MILPModel], np.ndarray | None]


@dataclass
class SolverOptions:
    """Configuration for :class:`BranchAndBoundSolver`.

    Attributes:
        time_limit: Wall-clock limit in seconds (``None`` = unlimited).
        node_limit: Maximum number of branch-and-bound nodes to process.
        gap_tolerance: Stop when ``incumbent - bound <= gap_tolerance``
            (absolute; RankHow objectives are integer-valued so ``1 - 1e-6``
            style tolerances prove optimality early).
        integrality_tolerance: Values within this distance of an integer are
            treated as integral.
        incumbent_callback: Optional heuristic mapping a (fractional) relaxation
            solution to a feasible integral assignment.
        initial_incumbent: Optional feasible assignment used as the starting
            incumbent (a warm start).
    """

    time_limit: float | None = None
    node_limit: int = 100000
    gap_tolerance: float = 1e-6
    integrality_tolerance: float = 1e-6
    incumbent_callback: IncumbentCallback | None = None
    initial_incumbent: np.ndarray | None = None


@dataclass(order=True)
class _Node:
    priority: float
    sequence: int
    fixings: dict[int, int] = field(compare=False)


class BoundTightener:
    """Vectorized implied-bound tightening over a fixed set of linear rows.

    Built once per branch-and-bound solve (the relaxation's rows never change
    across nodes -- only the variable bounds do) and invoked once per node.
    Each call propagates every row ``a @ x <= b`` into candidate-variable
    bounds: with ``a_j > 0``, ``x_j <= lo_j + (b - min a@x) / a_j`` (and the
    mirror image for negative coefficients), where the row minimum is taken
    over the current box.  Bounds of integral candidates are rounded, which
    is what turns propagation into fixed binaries and therefore smaller
    subtrees.  The routine never cuts off a feasible point of the box, so
    the node LP optimum is unchanged; an objective cutoff row (see
    ``objective_row``) additionally removes points that cannot beat the
    incumbent, exactly mirroring the solver's bound-pruning rule.

    Args:
        rows: Dense constraint rows, shape ``(n_rows, n)``.
        senses: Row senses (``"<="``, ``">="``, ``"=="``), one per row.
        rhs: Right-hand sides, one per row.
        candidates: Column indices to derive new bounds for (typically the
            binaries; propagating onto every column would cost far more than
            it prunes).
        integral: Whether candidate variables are integral (bounds are
            rounded); one flag per candidate, or a single bool for all.
        objective_row: Optional objective vector; when given, each
            :meth:`tighten` call may pass ``cutoff`` to activate the row
            ``objective_row @ x <= cutoff``.
    """

    def __init__(
        self,
        rows: np.ndarray,
        senses: np.ndarray | list[str],
        rhs: np.ndarray,
        candidates: np.ndarray,
        integral: np.ndarray | bool = True,
        objective_row: np.ndarray | None = None,
    ) -> None:
        senses = np.asarray(senses, dtype="<U2")
        # Each row as ``a @ x <= b``: ``>=`` rows negated and ``==`` rows
        # taken both ways (the ``<=`` copy first), in the rows' order.
        source, flipped = np.nonzero(np.stack([senses != ">=", senses != "<="], axis=1))
        sign = np.where(flipped == 1, -1.0, 1.0)
        a = np.asarray(rows, dtype=float)[source] * sign[:, None]
        b = np.asarray(rhs, dtype=float)[source] * sign
        self._cutoff_index: int | None = None
        if objective_row is not None:
            self._cutoff_index = a.shape[0]
            a = np.vstack([a, np.asarray(objective_row, dtype=float)])
            b = np.append(b, float("inf"))
        self._candidates = np.asarray(candidates, dtype=int)
        self._a = a
        self._b = b
        self._pos = np.clip(a, 0.0, None)
        self._neg = np.clip(a, None, 0.0)
        self._a_cand = np.ascontiguousarray(a[:, self._candidates])
        if isinstance(integral, (bool, np.bool_)):
            integral = np.full(self._candidates.shape[0], bool(integral))
        self._integral = np.asarray(integral, dtype=bool)

    def tighten(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        cutoff: float | None = None,
        max_rounds: int = 2,
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Tighten candidate bounds in place; returns ``(lower, upper, feasible)``.

        ``lower`` / ``upper`` are mutated.  A ``False`` third element means
        the box (plus the cutoff row, when active) is proven empty, so the
        caller can prune without solving the node LP.
        """
        cand = self._candidates
        if self._a.shape[0] == 0 or cand.shape[0] == 0:
            return lower, upper, bool(np.all(lower <= upper + 1e-9))
        b = self._b
        if self._cutoff_index is not None:
            b = b.copy()
            b[self._cutoff_index] = float("inf") if cutoff is None else float(cutoff)
        feas_tol = 1e-7
        for _ in range(max_rounds):
            min_act = self._pos @ lower + self._neg @ upper
            slack = b - min_act
            if np.any(slack < -feas_tol * (1.0 + np.abs(b))):
                return lower, upper, False
            residual = np.maximum(slack, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = residual[:, None] / self._a_cand
            ub_new = np.where(self._a_cand > 0, lower[cand][None, :] + step, np.inf)
            ub_new = ub_new.min(axis=0)
            lb_new = np.where(self._a_cand < 0, upper[cand][None, :] + step, -np.inf)
            lb_new = lb_new.max(axis=0)
            round_up = self._integral & np.isfinite(ub_new)
            ub_new[round_up] = np.floor(ub_new[round_up] + 1e-6)
            round_lo = self._integral & np.isfinite(lb_new)
            lb_new[round_lo] = np.ceil(lb_new[round_lo] - 1e-6)
            tighter_ub = ub_new < upper[cand] - 1e-12
            tighter_lb = lb_new > lower[cand] + 1e-12
            if not (np.any(tighter_ub) or np.any(tighter_lb)):
                break
            upper[cand] = np.minimum(upper[cand], ub_new)
            lower[cand] = np.maximum(lower[cand], lb_new)
            if np.any(lower[cand] > upper[cand] + 1e-9):
                return lower, upper, False
        return lower, upper, True


def _branch_variable(x: np.ndarray, binaries: np.ndarray, tolerance: float) -> int | None:
    """The most fractional binary -- closest to 0.5, the first in
    ``binaries`` on ties -- or ``None`` when every binary is within
    ``tolerance`` of an integer."""
    values = x[binaries]
    fractional = np.abs(values - np.round(values)) > tolerance
    if not fractional.any():
        return None
    candidates = binaries[fractional]
    return int(candidates[np.argmin(np.abs(x[candidates] - 0.5))])


class BranchAndBoundSolver:
    """Solve a :class:`MILPModel` by LP-based branch-and-bound."""

    def __init__(self, options: SolverOptions | None = None) -> None:
        self.options = options or SolverOptions()

    def solve(self, model: MILPModel) -> MILPSolution:
        """Run branch-and-bound and return the best solution found.

        Instrumented unconditionally: with tracing off the span call is a
        no-op contextvar read; with tracing on the search's node count, LP
        iterations, and final bound/gap land as span attributes on
        ``solver.branch_and_bound``.
        """
        with obs_span("solver.branch_and_bound") as sp:
            solution = self._solve(model)
            if sp:
                sp.set_attributes(
                    status=solution.status.name,
                    nodes=solution.nodes,
                    lp_iterations=solution.lp_iterations,
                    best_bound=float(solution.best_bound),
                    gap=float(solution.gap),
                )
            return solution

    def _solve(self, model: MILPModel) -> MILPSolution:
        options = self.options
        start = time.monotonic()
        relaxation = model.build_relaxation()
        binaries = np.asarray(model.binary_indices, dtype=np.int64)
        base_lower = relaxation.lower_bounds.copy()
        base_upper = relaxation.upper_bounds.copy()

        tightener: BoundTightener | None = None
        if binaries.size and relaxation.num_constraints:
            tightener = BoundTightener(
                *relaxation.constraint_rows(),
                candidates=binaries,
                integral=True,
                objective_row=relaxation.objective,
            )

        incumbent_x: np.ndarray | None = None
        incumbent_obj = float("inf")
        best_bound = float("-inf")
        # Smallest parent bound over nodes whose LP failed numerically.
        unresolved_bound = float("inf")
        nodes_processed = 0
        total_lp_iterations = 0
        counter = itertools.count()

        def time_exceeded() -> bool:
            return (
                options.time_limit is not None
                and time.monotonic() - start > options.time_limit
            )

        def try_incumbent(x: np.ndarray) -> None:
            nonlocal incumbent_x, incumbent_obj
            obj = model.evaluate_objective(x)
            if obj < incumbent_obj - 1e-12 and model.check_feasible(x):
                incumbent_obj = obj
                incumbent_x = np.asarray(x, dtype=float).copy()

        if options.initial_incumbent is not None:
            try_incumbent(np.asarray(options.initial_incumbent, dtype=float))

        heap: list[_Node] = [_Node(float("-inf"), next(counter), {})]
        root_bound_known = False

        while heap:
            if nodes_processed >= options.node_limit or time_exceeded():
                break
            node = heapq.heappop(heap)

            # Prune on the parent bound before paying for an LP solve.
            if node.priority >= incumbent_obj - options.gap_tolerance:
                continue
            nodes_processed += 1

            # Apply node fixings to the relaxation bounds.
            lower = base_lower.copy()
            upper = base_upper.copy()
            for idx, value in node.fixings.items():
                lower[idx] = float(value)
                upper[idx] = float(value)

            if tightener is not None:
                cutoff = (
                    incumbent_obj - options.gap_tolerance
                    if np.isfinite(incumbent_obj)
                    else None
                )
                lower, upper, feasible = tightener.tighten(lower, upper, cutoff=cutoff)
                if not feasible:
                    continue

            relaxation.lower_bounds = lower
            relaxation.upper_bounds = upper

            lp_solution = relaxation.solve()
            total_lp_iterations += lp_solution.iterations
            if lp_solution.status is LPStatus.INFEASIBLE:
                continue
            if lp_solution.status is LPStatus.UNBOUNDED:
                return MILPSolution(
                    MILPStatus.UNBOUNDED,
                    np.zeros(0),
                    float("-inf"),
                    nodes=nodes_processed,
                    lp_iterations=total_lp_iterations,
                )
            if not lp_solution.is_optimal:
                # Numerical trouble: the subtree was neither searched nor
                # pruned, so its parent bound caps what may be claimed.
                unresolved_bound = min(unresolved_bound, node.priority)
                continue

            node_bound = lp_solution.objective
            if not root_bound_known:
                best_bound = node_bound
                root_bound_known = True

            # Prune by bound.
            if node_bound >= incumbent_obj - options.gap_tolerance:
                continue

            x = lp_solution.x
            if options.incumbent_callback is not None:
                heuristic = options.incumbent_callback(x, model)
                if heuristic is not None:
                    try_incumbent(heuristic)

            # The heuristic may have closed the gap for this node (or globally).
            if node_bound >= incumbent_obj - options.gap_tolerance:
                continue

            branch_var = _branch_variable(x, binaries, options.integrality_tolerance)
            if branch_var is None:
                # Integral relaxation solution: snap the binaries exactly
                # (``+ 0.0`` turns a rounded -0.0 into 0.0) and keep the LP
                # values for the continuous part.
                snapped = np.asarray(x, dtype=float).copy()
                snapped[binaries] = np.round(snapped[binaries]) + 0.0
                try_incumbent(snapped)
                continue

            frac_value = x[branch_var]
            # The closer value gets the earlier sequence number, so it wins
            # ties on the (shared) parent bound.
            for value in sorted((0, 1), key=lambda v: abs(frac_value - v)):
                fixings = dict(node.fixings)
                fixings[branch_var] = value
                heapq.heappush(heap, _Node(node_bound, next(counter), fixings))

        # Tighten the reported bound using the open nodes.
        if heap:
            open_bound = min(n.priority for n in heap)
            if np.isfinite(open_bound):
                best_bound = max(best_bound, open_bound) if root_bound_known else open_bound
        else:
            best_bound = incumbent_obj if incumbent_x is not None else best_bound
        unresolved = unresolved_bound < float("inf")
        best_bound = min(best_bound, unresolved_bound)

        if incumbent_x is None:
            status = (
                MILPStatus.INFEASIBLE
                if nodes_processed < options.node_limit
                and not time_exceeded()
                and not heap
                and not unresolved
                else MILPStatus.NO_SOLUTION
            )
            return MILPSolution(
                status,
                np.zeros(0),
                float("inf"),
                best_bound,
                nodes_processed,
                lp_iterations=total_lp_iterations,
            )

        gap = abs(incumbent_obj - best_bound) / max(1.0, abs(incumbent_obj))
        proved = not unresolved and (
            not heap or incumbent_obj - best_bound <= options.gap_tolerance
        )
        status = MILPStatus.OPTIMAL if proved else MILPStatus.FEASIBLE
        return MILPSolution(
            status,
            incumbent_x,
            incumbent_obj,
            best_bound,
            nodes_processed,
            gap,
            lp_iterations=total_lp_iterations,
        )
