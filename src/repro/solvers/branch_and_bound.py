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

There is no presolve and no per-node bound propagation: the formulation
layer already fixes dominated indicators and sets tight big-M values, which
inside a SYM-GD cell leaves propagation almost no binary to fix.  A node is
pruned on its parent's bound before its LP and on its own bound after it,
and the relaxation's rows reach HiGHS sparse, never densified.

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

__all__ = ["SolverOptions", "BranchAndBoundSolver"]

IncumbentCallback = Callable[[np.ndarray, MILPModel], np.ndarray | None]

#: A binary within this distance of an integer counts as integral.
_INTEGRALITY_TOLERANCE = 1e-6


@dataclass
class SolverOptions:
    """Configuration for :class:`BranchAndBoundSolver`.

    Attributes:
        time_limit: Wall-clock limit in seconds (``None`` = unlimited).
        node_limit: Maximum number of branch-and-bound nodes to process.
        gap_tolerance: Stop when ``incumbent - bound <= gap_tolerance``
            (absolute; RankHow objectives are integer-valued so ``1 - 1e-6``
            style tolerances prove optimality early).
        incumbent_callback: Optional heuristic mapping a (fractional) relaxation
            solution to a feasible integral assignment.
        initial_incumbent: Optional feasible assignment used as the starting
            incumbent (a warm start).
    """

    time_limit: float | None = None
    node_limit: int = 100000
    gap_tolerance: float = 1e-6
    incumbent_callback: IncumbentCallback | None = None
    initial_incumbent: np.ndarray | None = None


@dataclass(order=True)
class _Node:
    priority: float
    sequence: int
    fixings: dict[int, int] = field(compare=False)


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
                lower[idx] = upper[idx] = float(value)
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

            branch_var = _branch_variable(x, binaries, _INTEGRALITY_TOLERANCE)
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
