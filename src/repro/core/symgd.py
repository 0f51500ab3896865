"""Symbolic gradient descent (Section IV, Algorithms 1 and 2).

SYM-GD starts from a seed weight vector and repeatedly solves the *exact*
RankHow MILP restricted to a small cell around the current point -- "gradient
descent on steroids": each step lands on the true optimum of the cell rather
than on a point a little further down a gradient (the position error is not
even differentiable).  When the error stops improving, either the descent has
converged to a local optimum of the cell size (Algorithm 1) or, in the
adaptive variant, the cell doubles in size and the descent continues until the
time budget is exhausted (Algorithm 2).

The key scalability property the paper exploits is built into the formulation
layer: inside a small cell most indicator hyperplanes do not cross the cell,
so most binaries are fixed by the dominance analysis and the per-cell MILP is
close to a plain LP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.cells import cell_around
from repro.core.problem import RankingProblem
from repro.core.rankhow import RankHow, RankHowOptions
from repro.core.result import SynthesisResult
from repro.obs.trace import span as obs_span
from repro.core.seeds import get_seed_strategy
from repro.data.rng import as_generator

__all__ = ["SymGDOptions", "SymGD", "default_seed_points"]

#: RankHow's prune diagnostics, which a SYM-GD result passes on.
_PRUNE_KEYS = ("pruned_tuples", "prune_ratio", "prune_original_n")


@dataclass
class SymGDOptions:
    """Configuration of SYM-GD.

    Attributes:
        cell_size: Side length ``c`` of the local cell (Algorithm 1), or the
            *initial* cell size in adaptive mode (Algorithm 2).  The paper's
            defaults are 0.1 for the approximation study and 1e-4 as the
            adaptive starting size.
        adaptive: Use Algorithm 2 (double the cell when stuck) instead of
            Algorithm 1 (fixed cell, stop when stuck).
        time_limit: Total wall-clock budget ``t_total`` in seconds.
        max_iterations: Safety cap on the number of local solves.
        seed_strategy: ``"ordinal_regression"`` (default), ``"linear_regression"``,
            ``"grid"`` or ``"uniform"``; ignored when ``seed_point`` is given.
        seed_point: Explicit seed weight vector ``W0``.
        solver_options: Options for the per-cell exact solves; the per-cell
            node limit defaults to a modest value because cells are small.
        max_cell_size: Upper limit for the adaptive doubling (< 2).
    """

    cell_size: float = 0.1
    adaptive: bool = False
    time_limit: float | None = None
    max_iterations: int = 50
    seed_strategy: str = "ordinal_regression"
    seed_point: np.ndarray | None = None
    solver_options: RankHowOptions = field(
        default_factory=lambda: RankHowOptions(node_limit=2000, verify=False)
    )
    max_cell_size: float = 1.9

    def to_dict(self) -> dict:
        """Canonical JSON-serializable representation (for fingerprinting)."""
        return {
            "cell_size": float(self.cell_size),
            "adaptive": bool(self.adaptive),
            "time_limit": None if self.time_limit is None else float(self.time_limit),
            "max_iterations": int(self.max_iterations),
            "seed_strategy": self.seed_strategy,
            "seed_point": (
                None
                if self.seed_point is None
                else [float(w) for w in np.asarray(self.seed_point, dtype=float)]
            ),
            "solver_options": self.solver_options.to_dict(),
            "max_cell_size": float(self.max_cell_size),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SymGDOptions":
        seed_point = data.get("seed_point")
        return cls(
            cell_size=float(data.get("cell_size", 0.1)),
            adaptive=bool(data.get("adaptive", False)),
            time_limit=data.get("time_limit"),
            max_iterations=int(data.get("max_iterations", 50)),
            seed_strategy=data.get("seed_strategy", "ordinal_regression"),
            seed_point=None if seed_point is None else np.asarray(seed_point, float),
            solver_options=(
                RankHowOptions.from_dict(data["solver_options"])
                if data.get("solver_options") is not None
                else RankHowOptions(node_limit=2000, verify=False)
            ),
            max_cell_size=float(data.get("max_cell_size", 1.9)),
        )


class _Descent:
    """One seed's SYM-GD descent, advanced one cell solve at a time.

    The descent logic of Algorithms 1 and 2 lives here as an explicit state
    machine that :meth:`SymGD.solve` drives until it finishes, runs out of
    iterations or runs out of time.
    """

    def __init__(
        self,
        options: SymGDOptions,
        problem: RankingProblem,
        seed: np.ndarray,
        seed_error: int,
    ) -> None:
        self.options = options
        self.problem = problem
        self.seed = np.asarray(seed, dtype=float).copy()
        self.current = self.seed.copy()
        self.current_error = int(seed_error)
        self.best_weights = self.current.copy()
        self.best_error = int(seed_error)
        self.cell_size = options.cell_size
        self.iterations = 0
        self.total_nodes = 0
        self.total_lp_iterations = 0
        self.trajectory: list[tuple[float, int]] = [
            (self.cell_size, int(seed_error))
        ]
        self.finished = False
        self._final_solve_pending = False
        self.prune_diag: dict = {}

    def active(self, out_of_time: bool) -> bool:
        """Whether another :meth:`step` may run."""
        return (
            not self.finished
            and self.iterations < self.options.max_iterations
            and not out_of_time
        )

    def _absorb(self, result: SynthesisResult) -> None:
        self.total_nodes += result.nodes
        self.total_lp_iterations += int(result.diagnostics.get("lp_iterations", 0))
        # Every cell solve prunes the same problem; report that prune.
        self.prune_diag = {key: result.diagnostics[key] for key in _PRUNE_KEYS}

    def step(self, solver: RankHow, remaining: float | None) -> None:
        """One cell solve plus the resulting state transition."""
        options = self.options
        if remaining is not None:
            # Clone the configured solver options wholesale (error_weights
            # included) and override only the budget.
            solver = RankHow(
                replace(
                    options.solver_options,
                    time_limit=max(remaining, 0.01),
                    verify=False,
                )
            )
        self.iterations += 1
        cell = cell_around(self.current, self.cell_size)
        result = solver.solve(
            self.problem, cell_bounds=cell.bounds(), warm_start=self.current
        )
        self._absorb(result)
        if self._final_solve_pending:
            # The cell covers (almost) the whole simplex; one final solve at
            # this size is the global problem -- stop after it.
            if result.error >= 0 and result.error < self.best_error:
                self.best_error = int(result.error)
                self.best_weights = result.weights.copy()
            self.finished = True
            return

        stuck = False
        if result.error < 0 or not np.all(np.isfinite(result.weights)):
            # Local model infeasible (seed violates the constraints in this
            # cell); grow the cell or stop.
            stuck = True
        else:
            new_error = int(result.error)
            if new_error < self.best_error:
                self.best_error = new_error
                self.best_weights = result.weights.copy()
            if new_error >= self.current_error:
                stuck = True
                # Even without improvement, adopt the local optimum as the
                # new center when it matches the current error: it lies at
                # the boundary of the explored region and re-centering
                # matches the paper's "cell shifts accordingly".
                if new_error == self.current_error:
                    self.current = result.weights.copy()
            else:
                self.current = result.weights.copy()
                self.current_error = new_error
                self.trajectory.append((self.cell_size, new_error))
                if new_error == 0:
                    stuck = True
        if not stuck:
            return
        if not options.adaptive or self.current_error == 0:
            self.finished = True
            return
        self.cell_size = min(self.cell_size * 2.0, options.max_cell_size)
        self.trajectory.append((self.cell_size, int(self.current_error)))
        if self.cell_size >= options.max_cell_size:
            self._final_solve_pending = True

    def result(self, elapsed: float) -> SynthesisResult:
        """Package the descent's best point as a :class:`SynthesisResult`."""
        options = self.options
        return SynthesisResult(
            weights=self.best_weights,
            attributes=list(self.problem.attributes),
            error=int(self.best_error),
            objective=float(self.best_error),
            optimal=False,  # SYM-GD is a heuristic; never claims optimality
            method="symgd-adaptive" if options.adaptive else "symgd",
            solve_time=elapsed,
            nodes=self.total_nodes,
            iterations=self.iterations,
            diagnostics={
                "k": self.problem.k,
                "seed": self.seed.copy(),
                "seed_error": int(self.trajectory[0][1]),
                "final_cell_size": self.cell_size,
                "trajectory": self.trajectory,
                "lp_iterations": self.total_lp_iterations,
                **self.prune_diag,
            },
        )


class SymGD:
    """Symbolic gradient descent over the weight simplex."""

    def __init__(self, options: SymGDOptions | None = None) -> None:
        self.options = options or SymGDOptions()

    def solve(self, problem: RankingProblem) -> SynthesisResult:
        """Run SYM-GD on a problem instance and return the best result found."""
        options = self.options
        start = time.perf_counter()

        with obs_span("solver.symgd", k=problem.k) as sp:
            seed = self._seed(problem)
            descent = _Descent(options, problem, seed, problem.error_of(seed))
            solver = RankHow(options.solver_options)

            def time_left() -> float | None:
                if options.time_limit is None:
                    return None
                return options.time_limit - (time.perf_counter() - start)

            def out_of_time() -> bool:
                remaining = time_left()
                return remaining is not None and remaining <= 0

            while descent.active(out_of_time()):
                descent.step(solver, time_left())

            result = descent.result(time.perf_counter() - start)
            if sp:
                sp.set_attributes(
                    error=int(result.error),
                    iterations=int(result.iterations),
                    lp_iterations=int(
                        result.diagnostics.get("lp_iterations", 0)
                    ),
                )
            return result

    def solve_multi_seed(
        self,
        problem: RankingProblem,
        seeds: list[np.ndarray] | None = None,
        num_seeds: int = 4,
        executor=None,
    ) -> SynthesisResult:
        """Run independent descents from several seed points; keep the best.

        The paper's key scalability property -- each local cell solve is
        independent -- extends to whole descents: restarting SYM-GD from
        different corners of the simplex explores different basins, and the
        restarts share nothing, so they parallelize perfectly.

        Args:
            problem: The problem instance.
            seeds: Explicit seed weight vectors; defaults to
                :func:`default_seed_points` with ``num_seeds`` points.
            num_seeds: Number of generated seeds when ``seeds`` is ``None``.
            executor: Anything exposing ``map_cells(fn, items)`` (see
                :mod:`repro.engine.executor`); ``None`` runs the descents one
                after another in-process.  The merged result is identical for
                every backend because each descent is deterministic and the
                merge prefers the earliest seed on ties.
        """
        start = time.perf_counter()
        if seeds is None:
            seeds = default_seed_points(
                problem, num_seeds, base_strategy=self.options.seed_strategy
            )
        if not seeds:
            raise ValueError("solve_multi_seed needs at least one seed point")
        payloads = [
            (self.options, problem, np.asarray(s, dtype=float)) for s in seeds
        ]
        if executor is None:
            results = [_solve_from_seed(payload) for payload in payloads]
        else:
            results = list(executor.map_cells(_solve_from_seed, payloads))
        best = min(enumerate(results), key=lambda pair: (pair[1].error, pair[0]))[1]
        merged = replace(
            best,
            solve_time=time.perf_counter() - start,
            nodes=sum(r.nodes for r in results),
            iterations=sum(r.iterations for r in results),
            diagnostics={
                **best.diagnostics,
                "num_seeds": len(seeds),
                "per_seed_errors": [int(r.error) for r in results],
                "per_seed_times": [float(r.solve_time) for r in results],
            },
        )
        merged.method = (
            "symgd-adaptive-multiseed" if self.options.adaptive else "symgd-multiseed"
        )
        return merged

    def _seed(self, problem: RankingProblem) -> np.ndarray:
        options = self.options
        if options.seed_point is not None:
            return _normalize_seed_point(options.seed_point, problem.num_attributes)
        strategy = get_seed_strategy(options.seed_strategy)
        return strategy(problem)


def _normalize_seed_point(seed: np.ndarray, num_attributes: int) -> np.ndarray:
    """Validate and project an explicit seed point onto the simplex."""
    seed = np.asarray(seed, dtype=float).ravel()
    if seed.shape[0] != num_attributes:
        raise ValueError("seed_point length does not match the attribute count")
    total = float(np.clip(seed, 0.0, None).sum())
    if total <= 0:
        raise ValueError("seed_point must have positive total weight")
    return np.clip(seed, 0.0, None) / total


def _solve_from_seed(payload: tuple) -> SynthesisResult:
    """One full descent from one explicit seed (picklable for process pools)."""
    options, problem, seed = payload
    return SymGD(replace(options, seed_point=seed)).solve(problem)


def default_seed_points(
    problem: RankingProblem,
    num_seeds: int,
    base_strategy: str = "ordinal_regression",
    rng=None,
) -> list[np.ndarray]:
    """Deterministic, diverse seed points for :meth:`SymGD.solve_multi_seed`.

    The list starts with the configured strategy's seed and the simplex
    center, continues with the single-attribute corners, and tops up with
    Dirichlet draws from a fixed-seed generator, so the same problem always
    gets the same seed set regardless of executor backend.  Pass ``rng`` (an
    int seed or a shared ``np.random.Generator``, see :mod:`repro.data.rng`)
    to control the top-up draws explicitly; the default keeps the historical
    ``default_rng(num_seeds)`` stream bit-for-bit.
    """
    if num_seeds < 1:
        raise ValueError("num_seeds must be >= 1")
    m = problem.num_attributes
    candidates: list[np.ndarray] = []
    try:
        candidates.append(get_seed_strategy(base_strategy)(problem))
    except (ValueError, KeyError):
        pass
    candidates.append(np.full(m, 1.0 / m))
    candidates.extend(np.eye(m))
    rng = as_generator(num_seeds if rng is None else rng)
    while len(candidates) < num_seeds:
        candidates.append(rng.dirichlet(np.ones(m)))

    seeds: list[np.ndarray] = []
    for candidate in candidates:
        if len(seeds) == num_seeds:
            break
        candidate = np.asarray(candidate, dtype=float)
        if any(np.allclose(candidate, kept, atol=1e-9) for kept in seeds):
            continue
        seeds.append(candidate)
    while len(seeds) < num_seeds:
        seeds.append(rng.dirichlet(np.ones(m)))
    return seeds
