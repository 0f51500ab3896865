"""Best-first branch-and-bound for the MILP models in this package.

The solver operates on :class:`~repro.solvers.milp.MILPModel` instances.  It
builds the big-M LP relaxation once and re-solves it with HiGHS under
per-node bound changes on the binary variables, which keeps node processing
cheap.  Key features that mirror what the paper credits modern MILP solvers
for (Section III-B):

* **Holistic bounding** -- a global incumbent prunes any node whose LP
  relaxation bound cannot improve on it, so information discovered in one part
  of the search space rules out others.
* **Incumbent callbacks** -- the caller may register a problem-specific
  rounding heuristic (RankHow derives a feasible integral solution from the
  relaxation's weight vector by simply ranking the tuples), which typically
  produces near-optimal incumbents at the root node.
* **Most-fractional branching** -- branching on the binary closest to 0.5.
* **Per-node bound tightening** -- implied-bound propagation over the big-M
  rows plus an incumbent objective cutoff fixes additional binaries after
  each branching decision and prunes infeasible nodes before their LP solve.

A node whose LP fails numerically is neither explored nor pruned: its parent
bound stays in the reported ``best_bound`` and the search never claims
optimality.  The solver is deterministic given the model and options.
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
from repro.solvers.presolve import BoundTightener

__all__ = ["SolverOptions", "BranchAndBoundSolver"]

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
        binaries = model.binary_indices
        base_lower = relaxation.lower_bounds.copy()
        base_upper = relaxation.upper_bounds.copy()

        tightener: BoundTightener | None = None
        if binaries and relaxation.constraints:
            rows = np.vstack(
                [con.coefficients for con in relaxation.constraints]
            )
            tightener = BoundTightener(
                rows,
                [con.sense for con in relaxation.constraints],
                np.asarray([con.rhs for con in relaxation.constraints], dtype=float),
                candidates=np.asarray(binaries, dtype=int),
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

            fractional = [
                i
                for i in binaries
                if abs(x[i] - round(x[i])) > options.integrality_tolerance
            ]
            if not fractional:
                # Integral relaxation solution: snap the binaries exactly and
                # keep the LP values for the continuous part.
                snapped = np.asarray(x, dtype=float).copy()
                for i in binaries:
                    snapped[i] = round(snapped[i])
                try_incumbent(snapped)
                continue

            # Most fractional: closest to 0.5.
            branch_var = min(fractional, key=lambda i: abs(x[i] - 0.5))
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
