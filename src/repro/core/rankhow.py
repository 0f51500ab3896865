"""The RankHow exact solver (Sections III and V).

:class:`RankHow` is the user-facing facade: it builds the Equation (2) MILP
for a :class:`~repro.core.problem.RankingProblem` over the tuples the
rank-dominance prune keeps (:mod:`repro.core.prune`), applies the Section V-B
indicator elimination, solves the program, optionally verifies the result
with exact arithmetic, and returns a
:class:`~repro.core.result.SynthesisResult`.

The solve picks its solver from the search space.  A whole-simplex solve
goes to HiGHS's own branch-and-cut (:mod:`repro.solvers.highs_milp`), which
ships with SciPy and, like the commercial solver of the paper, reasons about
the whole program with presolve, cuts and primal heuristics.  A solve
restricted to a box in weight space (``cell_bounds``) -- how SYM-GD reuses
RankHow for its local steps -- stays on the in-repo branch-and-bound
(:mod:`repro.solvers.branch_and_bound`), which is far cheaper on a cell whose
indicators are mostly fixed.  There is no option: the search space decides.

An answer is ``optimal`` only when every check agrees: the solver proved
optimality, the reported error equals the MILP objective, for the plain
objective it also equals ``ceil(best_bound - 1e-6)``, and exact verification
(when run) did not fail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.formulation import RankHowFormulation
from repro.core.precision import verify_weights
from repro.core.problem import RankingProblem
from repro.core.prune import prune_problem
from repro.core.result import SynthesisResult
from repro.core.seeds import get_seed_strategy
from repro.obs.trace import span as obs_span
from repro.solvers.branch_and_bound import BranchAndBoundSolver, SolverOptions
from repro.solvers.highs_milp import HighsMILPSolver
from repro.solvers.milp import MILPStatus

__all__ = ["RankHowOptions", "RankHow"]


@dataclass
class RankHowOptions:
    """Configuration of the exact solver.

    Attributes:
        time_limit: Wall-clock limit in seconds for the MILP solve.
        node_limit: Node limit of the MILP search: HiGHS's ``mip_max_nodes``
            on the whole simplex, the branch-and-bound's node limit in a cell.
        eliminate_dominated: Apply the Section V-B indicator elimination.
        verify: Run exact-arithmetic verification on the returned weights.
        error_weights: Optional per-tuple objective weights (tuple index ->
            weight); defaults to plain position error.
        warm_start_strategy: How to obtain an initial incumbent when the caller
            does not supply one: ``"none"`` (the default; HiGHS's own primal
            heuristics find incumbents for a whole-simplex solve, and SYM-GD
            hands every cell solve its current point), or the name of a seed
            strategy of :func:`repro.core.seeds.get_seed_strategy`
            (``"ordinal_regression"``, ``"linear_regression"``, ``"grid"``,
            ``"dirichlet"``, ``"uniform"``).  Any other name raises
            ``ValueError``.
    """

    time_limit: float | None = None
    node_limit: int = 50000
    eliminate_dominated: bool = True
    verify: bool = True
    error_weights: dict[int, float] | None = None
    warm_start_strategy: str = "none"

    def __post_init__(self) -> None:
        if self.warm_start_strategy != "none":
            try:
                get_seed_strategy(self.warm_start_strategy)
            except ValueError as exc:
                raise ValueError(f"warm_start_strategy: {exc}, or 'none'") from None

    def to_dict(self) -> dict:
        """Canonical JSON-serializable representation.

        Used by the engine's content-addressed cache to fingerprint solver
        configurations; integer dictionary keys become strings so the output
        survives a JSON round trip unchanged.
        """
        return {
            "time_limit": None if self.time_limit is None else float(self.time_limit),
            "node_limit": int(self.node_limit),
            "eliminate_dominated": bool(self.eliminate_dominated),
            "verify": bool(self.verify),
            "error_weights": (
                None
                if self.error_weights is None
                else {str(k): float(v) for k, v in self.error_weights.items()}
            ),
            "warm_start_strategy": self.warm_start_strategy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RankHowOptions":
        error_weights = data.get("error_weights")
        return cls(
            time_limit=data.get("time_limit"),
            node_limit=int(data.get("node_limit", 50000)),
            eliminate_dominated=bool(data.get("eliminate_dominated", True)),
            verify=bool(data.get("verify", True)),
            error_weights=(
                None
                if error_weights is None
                else {int(k): float(v) for k, v in error_weights.items()}
            ),
            warm_start_strategy=data.get("warm_start_strategy", "none"),
        )


class RankHow:
    """Exact OPT solver based on the MILP formulation of Equation (2)."""

    def __init__(self, options: RankHowOptions | None = None) -> None:
        self.options = options or RankHowOptions()

    def solve(
        self,
        problem: RankingProblem,
        cell_bounds: tuple[np.ndarray, np.ndarray] | None = None,
        warm_start: np.ndarray | None = None,
    ) -> SynthesisResult:
        """Solve OPT (optionally restricted to a weight-space cell).

        Args:
            problem: The problem instance.
            cell_bounds: Optional ``(lower, upper)`` box on the weights.
            warm_start: Optional weight vector used as the initial incumbent.

        Returns:
            A :class:`SynthesisResult`; ``optimal`` is ``True`` only when the
            solver proved optimality within its limits and every check of
            the module docstring agrees.
        """
        with obs_span("solver.rankhow", k=problem.k) as sp:
            result = self._solve(problem, cell_bounds, warm_start)
            if sp:
                diagnostics = result.diagnostics
                sp.set_attributes(
                    error=int(result.error),
                    optimal=bool(result.optimal),
                    nodes=int(result.nodes),
                    indicators=int(diagnostics.get("indicators", 0)),
                    eliminated=int(diagnostics.get("eliminated", 0)),
                    lp_iterations=int(diagnostics.get("lp_iterations", 0)),
                )
            return result

    def _solve(
        self,
        problem: RankingProblem,
        cell_bounds: tuple[np.ndarray, np.ndarray] | None,
        warm_start: np.ndarray | None,
    ) -> SynthesisResult:
        options = self.options
        start = time.perf_counter()
        if warm_start is None and options.warm_start_strategy != "none":
            warm_start = self._warm_start_weights(problem, cell_bounds)
        # Rank-dominance prune, after the warm start so that no seed reads
        # the pruned problem.  Only the model is built on it: every indicator
        # a pruned tuple would add is one the dominance elimination fixes to
        # 0, so with eliminate_dominated the model is the full one (see
        # repro.core.prune).  Errors and verification read the caller's
        # problem.
        pruned = prune_problem(problem)
        error_weights = options.error_weights
        if error_weights is not None:
            # Keyed by tuple index, which the prune renumbers.
            error_weights = pruned.reindex(error_weights)
        prune_diag = {
            "pruned_tuples": pruned.num_pruned,
            "prune_ratio": pruned.ratio,
            "prune_original_n": pruned.original_n,
        }
        formulation = RankHowFormulation(
            pruned.problem,
            eliminate_dominated=options.eliminate_dominated,
            error_weights=error_weights,
            cell_bounds=cell_bounds,
        )

        initial_incumbent = None
        if warm_start is not None:
            initial_incumbent = formulation.incumbent_from_weights(
                np.asarray(warm_start, dtype=float)
            )

        gap_tolerance = 1.0 - 1e-6 if options.error_weights is None else 1e-6
        solver_options = SolverOptions(
            time_limit=options.time_limit,
            node_limit=options.node_limit,
            incumbent_callback=formulation.incumbent_callback,
            initial_incumbent=initial_incumbent,
            # With the plain (integer-valued) objective a gap below 1 already
            # proves optimality; weighted objectives need a tight gap.
            gap_tolerance=gap_tolerance,
        )
        if cell_bounds is None:
            solver = HighsMILPSolver(solver_options)
        else:
            solver = BranchAndBoundSolver(solver_options)
        solution = solver.solve(formulation.model)
        elapsed = time.perf_counter() - start
        x = solution.x if solution.has_solution else None
        if (
            solution.status is MILPStatus.NO_SOLUTION
            and initial_incumbent is not None
            and formulation.model.check_feasible(initial_incumbent)
        ):
            # A search that stopped on a limit without a solution still had
            # the warm start, when the MILP admits it (the check the
            # branch-and-bound applies to every incumbent).
            x = initial_incumbent

        if x is None:
            return SynthesisResult(
                weights=np.full(problem.num_attributes, np.nan),
                attributes=list(problem.attributes),
                error=-1,
                objective=float("inf"),
                optimal=False,
                method="rankhow",
                solve_time=elapsed,
                nodes=solution.nodes,
                diagnostics={
                    "status": solution.status.value,
                    "k": problem.k,
                    "indicators": formulation.num_indicator_variables,
                    "eliminated": formulation.num_eliminated_indicators,
                    **prune_diag,
                },
            )

        weights = formulation.weights_from(x)
        objective = formulation.objective_error(x)
        true_error = problem.error_of(weights)
        optimal = solution.status is MILPStatus.OPTIMAL
        # The MILP's eps1/eps2 semantics can disagree with the tie-tolerance
        # ranking for score differences inside the safety gap; when the warm
        # start achieves a lower *true* error than the MILP incumbent, return
        # it (the solver reports the best solution it knows about).  Only
        # the MILP enforces position-range and precedence constraints, so
        # with any of those the warm start must pass its check too.
        constraints = problem.constraints
        warm_admissible = not (
            constraints.position_constraints or constraints.precedence_constraints
        ) or (
            initial_incumbent is not None and formulation.model.check_feasible(initial_incumbent)
        )
        if warm_start is not None and warm_admissible:
            warm = np.asarray(warm_start, dtype=float)
            warm_error = problem.error_of(warm)
            if warm_error < true_error:
                weights = warm
                true_error = warm_error
                optimal = False
        verified: bool | None = None
        if options.verify:
            verified = verify_weights(problem, weights, int(round(objective))).consistent
        # A proof covers the returned answer only when every check agrees.
        optimal = (
            optimal
            and true_error == round(objective)
            and (
                options.error_weights is not None
                or true_error == np.ceil(solution.best_bound - 1e-6)
            )
            and verified is not False
        )

        return SynthesisResult(
            weights=weights,
            attributes=list(problem.attributes),
            error=int(true_error),
            objective=float(objective),
            optimal=optimal,
            method="rankhow",
            solve_time=elapsed,
            nodes=solution.nodes,
            verified=verified,
            diagnostics={
                "status": solution.status.value,
                "best_bound": solution.best_bound,
                "gap": solution.gap,
                "k": problem.k,
                "indicators": formulation.num_indicator_variables,
                "eliminated": formulation.num_eliminated_indicators,
                "milp_objective": float(objective),
                "lp_iterations": int(solution.lp_iterations),
                **prune_diag,
            },
        )

    def _warm_start_weights(
        self,
        problem: RankingProblem,
        cell_bounds: tuple[np.ndarray, np.ndarray] | None,
    ) -> np.ndarray | None:
        """Compute an initial incumbent weight vector from a cheap seed."""
        seed = get_seed_strategy(self.options.warm_start_strategy)(problem)
        if not np.all(np.isfinite(seed)):
            return None
        if cell_bounds is not None:
            lower, upper = cell_bounds
            if np.any(seed < np.asarray(lower) - 1e-9) or np.any(
                seed > np.asarray(upper) + 1e-9
            ):
                return None
        return seed
