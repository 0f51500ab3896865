"""A :class:`~repro.solvers.milp.MILPModel` solved by HiGHS's own branch-and-cut.

RankHow hands its whole-simplex MILP to the MIP solver that ships inside
SciPy, the way the paper hands Equation (2) to a commercial solver: HiGHS's
presolve, cuts and primal heuristics reason about the whole program at once.
The model is the big-M relaxation of :meth:`MILPModel.build_relaxation`, in
the column-wise arrays :class:`~repro.solvers.lp.LinearProgram` already
builds, with the binaries marked integral, loaded into one HiGHS instance
per solve through SciPy's bundled binding (``scipy.optimize._highspy``).

``node_limit`` counts HiGHS nodes after its root, which runs cuts and
heuristics in full and can cost more than many in-repo nodes on large
models; ``time_limit`` is the wall-clock bound.
"""

from __future__ import annotations

import numpy as np

from repro.obs.trace import span as obs_span
from repro.solvers.branch_and_bound import SolverOptions
from repro.solvers.lp import _check_finite
from repro.solvers.milp import MILPModel, MILPSolution, MILPStatus

__all__ = ["HighsMILPSolver"]


class HighsMILPSolver:
    """Solve a :class:`MILPModel` with HiGHS's MIP solver.

    Reads ``time_limit``, ``node_limit``, ``gap_tolerance`` (an absolute gap;
    the relative gap is 0) and ``initial_incumbent`` (a MIP start) from
    :class:`SolverOptions`; the incumbent callback belongs to the in-repo
    branch-and-bound and is not used.
    """

    def __init__(self, options: SolverOptions | None = None) -> None:
        self.options = options or SolverOptions()

    def solve(self, model: MILPModel) -> MILPSolution:
        """Run HiGHS and map its answer; opens a ``solver.highs_milp`` span."""
        with obs_span("solver.highs_milp") as sp:
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
        from scipy.optimize._highspy import _core as highs

        options = self.options
        relaxation = model.build_relaxation()
        lp = relaxation._prepared()[0]
        _check_finite("c", relaxation.objective)
        lp.col_cost_ = relaxation.objective
        lp.col_lower_ = relaxation.lower_bounds
        lp.col_upper_ = relaxation.upper_bounds
        integral = model.binary_mask()
        lp.integrality_ = np.where(
            integral, highs.HighsVarType.kInteger, highs.HighsVarType.kContinuous
        ).tolist()

        settings = highs.HighsOptions()
        settings.output_flag = False
        settings.log_to_console = False
        settings.mip_max_nodes = int(options.node_limit)
        if options.time_limit is not None:
            settings.time_limit = float(options.time_limit)
        settings.mip_rel_gap = 0.0
        settings.mip_abs_gap = float(options.gap_tolerance)
        settings.mip_heuristic_run_feasibility_jump = False

        solver = highs._Highs()
        if solver.passOptions(settings) == highs.HighsStatus.kError:
            raise ValueError(
                f"HiGHS rejected node_limit={options.node_limit!r} or "
                f"time_limit={options.time_limit!r}"
            )
        if solver.passModel(lp) == highs.HighsStatus.kError:
            return MILPSolution(MILPStatus.NO_SOLUTION, np.zeros(0), float("inf"))
        if options.initial_incumbent is not None:
            start = highs.HighsSolution()
            start.col_value = np.asarray(options.initial_incumbent, dtype=float)
            start.value_valid = True
            solver.setSolution(start)
        solver.run()

        info = solver.getInfo()
        # Any other status stopped the search early, on a limit or an error.
        mapped = {
            highs.HighsModelStatus.kOptimal: MILPStatus.OPTIMAL,
            highs.HighsModelStatus.kInfeasible: MILPStatus.INFEASIBLE,
            highs.HighsModelStatus.kUnbounded: MILPStatus.UNBOUNDED,
        }.get(solver.getModelStatus(), MILPStatus.FEASIBLE)
        feasible = info.primal_solution_status == int(
            highs.SolutionStatus.kSolutionStatusFeasible
        )
        if mapped in (MILPStatus.OPTIMAL, MILPStatus.FEASIBLE) and not feasible:
            mapped = MILPStatus.NO_SOLUTION
        # Without an integral column HiGHS runs an LP and leaves the MIP
        # fields unset (node count -1, dual bound 0); its optimum is its bound.
        lp_only = not integral.any()
        solution = MILPSolution(
            mapped,
            np.zeros(0),
            float("inf"),
            float("-inf") if lp_only else float(info.mip_dual_bound),
            nodes=max(int(info.mip_node_count), 0),
            lp_iterations=int(info.simplex_iteration_count),
        )
        if solution.has_solution:
            solution.x = np.array(solver.getSolution().col_value)
            solution.objective = objective = float(info.objective_function_value)
            if lp_only and mapped is MILPStatus.OPTIMAL:
                solution.best_bound = objective
            solution.gap = abs(objective - solution.best_bound) / max(1.0, abs(objective))
        return solution

