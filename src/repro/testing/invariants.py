"""Invariant checkers for differential / metamorphic testing.

Every checker inspects one aspect of "the system behaved lawfully" and
returns :class:`CheckResult` objects instead of raising, so the oracle can
aggregate a full report per scenario (and a pytest assertion can print every
violation at once).  The invariants:

* **result contract** -- a method's result satisfies its own constraints:
  the reported error is exactly the position error of the returned weights
  on the problem, weights are finite and aligned with the attributes.
* **exact dominance** -- when the exact solver proves optimality, no other
  method may report a smaller error; SYM-GD never ends worse than its seed.
* **cell bound consistency** -- any simplex-feasible result's error lies
  within the interval-arithmetic error bounds of a cell containing it
  (:func:`repro.core.cells.cell_error_bounds`).
* **serialization** -- problem / request / result survive their
  ``to_dict``/``from_dict`` wire format losslessly (fingerprints equal,
  weights bit-identical).
* **permutation invariance** -- re-ordering tuples never changes any weight
  vector's error (metamorphic).
* **rescaling invariance** -- scaling attributes and tolerances by a power
  of two never changes any weight vector's error (metamorphic).
* **executor / cache parity** -- serial and process backends (and cache hit
  vs. fresh solve) produce identical fingerprints and results.
  :func:`simulate_lru` is the recency reference the result cache's
  eviction rule is measured against.
* **vectorized parity** -- the batched cell-bound classifier must match
  :func:`cell_error_bounds_reference`, the scalar loop kept here as its
  oracle, exactly.
* **formulation parity** -- the one-pass RankHow MILP build must match
  :func:`formulation_reference`, the per-pair loop kept here as its oracle:
  same variables, rows, pairs and bitwise-equal coefficients and big-Ms.
* **streaming parity** -- the streaming
  :class:`~repro.core.cells.CellBoundEvaluator`, the bounded-memory path
  for million-row problems, must return exactly the precomputed
  evaluator's bounds.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.core.cells import Cell, cell_around, cell_error_bounds
from repro.core.problem import RankingProblem
from repro.core.result import SynthesisResult
from repro.data.rng import as_generator
from repro.obs.profile import WorkloadProfile
from repro.scenarios.generator import permute_tuples, rescale_problem
from repro.solvers.lp import _RESIDUAL_TOLERANCE, LinearProgram, LPSolution, LPStatus
from repro.solvers.milp import MILPModel

__all__ = [
    "CheckResult",
    "check_result_contract",
    "check_exact_dominance",
    "check_cell_bound_consistency",
    "check_problem_roundtrip",
    "check_serialization_roundtrip",
    "check_permutation_invariance",
    "check_rescaling_invariance",
    "check_executor_parity",
    "check_cache_parity",
    "check_zero_error_witness",
    "check_vectorized_cell_bounds",
    "check_formulation_parity",
    "check_streaming_parity",
    "check_incremental_parity",
    "cell_error_bounds_reference",
    "formulation_reference",
    "lp_differences",
    "lp_reference",
    "lp_resolve_differences",
    "model_differences",
    "recorded_lps",
    "simulate_lru",
    "PARITY_METHOD_OPTIONS",
    "results_equal",
]


@dataclass
class CheckResult:
    """Outcome of one invariant check on one subject."""

    invariant: str
    subject: str
    passed: bool
    details: str = ""

    def __repr__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        suffix = f": {self.details}" if self.details and not self.passed else ""
        return f"[{status}] {self.invariant}({self.subject}){suffix}"


def _ok(invariant: str, subject: str, details: str = "") -> CheckResult:
    return CheckResult(invariant, subject, True, details)


def _fail(invariant: str, subject: str, details: str) -> CheckResult:
    return CheckResult(invariant, subject, False, details)


def results_equal(a: SynthesisResult, b: SynthesisResult) -> bool:
    """Semantic equality of two results (wall-clock and node counts ignored).

    ``equal_nan`` matters: a no-solution result carries NaN weights, and two
    such results must still compare equal.
    """
    return (
        int(a.error) == int(b.error)
        and np.array_equal(
            np.asarray(a.weights, dtype=float),
            np.asarray(b.weights, dtype=float),
            equal_nan=True,
        )
        and list(a.attributes) == list(b.attributes)
    )


def _on_simplex(weights: np.ndarray, tol: float = 1e-6) -> bool:
    weights = np.asarray(weights, dtype=float).ravel()
    return (
        np.all(np.isfinite(weights))
        and bool(np.all(weights >= -tol))
        and abs(float(weights.sum()) - 1.0) <= tol
    )


# -- per-result invariants ----------------------------------------------------------


def check_result_contract(
    problem: RankingProblem, method: str, result: SynthesisResult
) -> CheckResult:
    """The result satisfies its own constraints on this problem."""
    invariant = "result_contract"
    if result.error < -1:
        return _fail(invariant, method, f"error={result.error} below the -1 sentinel")
    if result.error == -1:
        return _ok(invariant, method, "no solution reported")
    weights = np.asarray(result.weights, dtype=float).ravel()
    if weights.shape[0] != problem.num_attributes:
        return _fail(
            invariant,
            method,
            f"weights length {weights.shape[0]} != m={problem.num_attributes}",
        )
    if not np.all(np.isfinite(weights)):
        return _fail(invariant, method, "non-finite weights with error >= 0")
    if list(result.attributes) != list(problem.attributes):
        return _fail(invariant, method, "attributes do not match the problem")
    recomputed = problem.error_of(weights)
    if int(result.error) != int(recomputed):
        return _fail(
            invariant,
            method,
            f"reported error {result.error} != recomputed {recomputed}",
        )
    return _ok(invariant, method)


def check_cell_bound_consistency(
    problem: RankingProblem,
    method: str,
    result: SynthesisResult,
    cell_size: float = 0.2,
) -> CheckResult:
    """The result's error lies inside the error bounds of a cell around it.

    :func:`cell_error_bounds` bounds the position error of EVERY weight
    vector inside a cell; the returned weights are one such vector, so a
    violation means the interval arithmetic (or the error evaluation) is
    wrong.  Only simplex-feasible weights are checked -- the bound analysis
    intersects the cell with the simplex.
    """
    invariant = "cell_bound"
    if result.error < 0:
        return _ok(invariant, method, "skipped: no solution")
    weights = np.asarray(result.weights, dtype=float).ravel()
    if not _on_simplex(weights):
        return _ok(invariant, method, "skipped: weights off the simplex")
    cell = cell_around(weights, cell_size)
    lower, upper = cell_error_bounds(problem, cell)
    if not lower <= int(result.error) <= upper:
        return _fail(
            invariant,
            method,
            f"error {result.error} outside cell bounds [{lower}, {upper}]",
        )
    return _ok(invariant, method)


def check_problem_roundtrip(problem: RankingProblem) -> CheckResult:
    """The problem itself survives its wire format (method-independent)."""
    from repro.engine.fingerprint import fingerprint_problem

    invariant = "serialization"
    rebuilt = RankingProblem.from_dict(problem.to_dict())
    if fingerprint_problem(rebuilt) != fingerprint_problem(problem):
        return _fail(invariant, "problem", "problem fingerprint changed")
    return _ok(invariant, "problem")


def check_serialization_roundtrip(request, result: SynthesisResult) -> list[CheckResult]:
    """Request and result survive the wire format losslessly.

    The problem's own round-trip is method-independent; check it once per
    problem with :func:`check_problem_roundtrip` instead of once per method.
    """
    from repro.api.request import SynthesisRequest

    invariant = "serialization"
    subject = request.method
    checks: list[CheckResult] = []

    rebuilt_request = SynthesisRequest.from_dict(request.to_dict())
    if rebuilt_request.fingerprint != request.fingerprint:
        checks.append(_fail(invariant, subject, "request fingerprint changed"))
    else:
        checks.append(_ok(invariant, f"{subject}/request"))

    rebuilt_result = SynthesisResult.from_dict(result.to_dict())
    if not results_equal(rebuilt_result, result):
        checks.append(_fail(invariant, subject, "result changed across to/from_dict"))
    else:
        checks.append(_ok(invariant, f"{subject}/result"))
    return checks


# -- cross-method invariants --------------------------------------------------------


def check_exact_dominance(
    problem: RankingProblem, results: dict[str, SynthesisResult]
) -> list[CheckResult]:
    """A proven MILP optimum lower-bounds every feasible method's error.

    The bound argument needs two gates.  First, the MILP objective counts
    separations with the eps1/eps2 thresholds while the reported error uses
    the tie tolerance; the objective is a valid lower bound on the true
    error of every weight vector only when ``eps2 <= tie_eps < eps1`` (the
    Section V-A construction), so other tolerance regimes are skipped.
    Second, the bound quantifies over the MILP's feasible set -- baselines
    that return unnormalized or constraint-violating weights (linear
    regression's signed fits) optimize a larger class and may legitimately
    beat the optimum, so only simplex- and constraint-feasible results are
    compared.
    """
    invariant = "exact_dominance"
    checks: list[CheckResult] = []
    exact = results.get("rankhow")
    tolerances = problem.tolerances
    bound_applies = tolerances.eps2 <= tolerances.tie_eps < tolerances.eps1
    if exact is not None and exact.optimal and exact.error >= 0 and bound_applies:
        bound = int(round(exact.objective))
        for method, result in results.items():
            if method == "rankhow" or result.error < 0:
                continue
            if not problem.weights_feasible(np.asarray(result.weights, dtype=float)):
                continue
            if result.error < bound:
                checks.append(
                    _fail(
                        invariant,
                        method,
                        f"error {result.error} beats the proven MILP bound {bound}",
                    )
                )
        if not any(not c.passed for c in checks):
            checks.append(_ok(invariant, "rankhow", f"bound {bound} dominates"))
    else:
        checks.append(_ok(invariant, "rankhow", "skipped: optimality not proven"))

    for method, result in results.items():
        seed_error = result.diagnostics.get("seed_error")
        if seed_error is None or result.error < 0:
            continue
        if int(result.error) > int(seed_error):
            checks.append(
                _fail(
                    invariant,
                    method,
                    f"descent ended at {result.error}, worse than its seed "
                    f"{seed_error}",
                )
            )
        else:
            checks.append(_ok(invariant, f"{method}/seed"))
    return checks


def check_zero_error_witness(
    problem: RankingProblem, witness, subject: str = "generator"
) -> CheckResult:
    """A scenario's advertised zero-error weight vector really has error 0."""
    invariant = "zero_error_witness"
    weights = np.asarray(witness, dtype=float).ravel()
    error = problem.error_of(weights)
    if error != 0:
        return _fail(invariant, subject, f"witness has error {error}, expected 0")
    return _ok(invariant, subject)


# -- metamorphic invariants ---------------------------------------------------------


def check_permutation_invariance(
    problem: RankingProblem,
    weights,
    seed=0,
    subject: str = "scoring",
) -> CheckResult:
    """Tuple order never affects a weight vector's position error."""
    invariant = "permutation_invariance"
    weights = np.asarray(weights, dtype=float).ravel()
    if not np.all(np.isfinite(weights)):
        return _ok(invariant, subject, "skipped: non-finite weights")
    rng = as_generator(seed)
    order = rng.permutation(problem.num_tuples)
    permuted = permute_tuples(problem, order)
    before = problem.error_of(weights)
    after = permuted.error_of(weights)
    if before != after:
        return _fail(
            invariant, subject, f"error changed under permutation: {before} -> {after}"
        )
    return _ok(invariant, subject)


def check_rescaling_invariance(
    problem: RankingProblem,
    weights,
    factors=(0.5, 4.0),
    subject: str = "scoring",
) -> CheckResult:
    """Scaling attributes and tolerances together never changes the error.

    Power-of-two factors keep the float multiplication exact, so the check
    is deterministic even at tolerance boundaries.
    """
    invariant = "rescaling_invariance"
    weights = np.asarray(weights, dtype=float).ravel()
    if not np.all(np.isfinite(weights)):
        return _ok(invariant, subject, "skipped: non-finite weights")
    before = problem.error_of(weights)
    for factor in factors:
        rescaled = rescale_problem(problem, factor)
        after = rescaled.error_of(weights)
        if after != before:
            return _fail(
                invariant,
                subject,
                f"error changed under x{factor} rescaling: {before} -> {after}",
            )
    return _ok(invariant, subject)


# -- vectorized-vs-reference invariants ---------------------------------------------


def cell_error_bounds_reference(
    problem: RankingProblem, cell: Cell
) -> tuple[int, int]:
    """Scalar reference implementation of :func:`cell_error_bounds`.

    One Python-level pass per ranked tuple, recomputing the pairwise
    difference matrix per call.  Kept as the ground truth the batched
    :class:`~repro.core.cells.CellBoundEvaluator` is differentially tested
    against (:func:`check_vectorized_cell_bounds`).
    """
    if cell.dimension != problem.num_attributes:
        raise ValueError("cell dimension does not match the number of attributes")
    matrix = problem.matrix
    tolerances = problem.tolerances
    positions = problem.ranking.positions
    ranked = problem.top_k_indices()

    lower_total = 0
    upper_total = 0
    lower_box, upper_box = cell.lower, cell.upper
    for r in ranked:
        diffs = matrix - matrix[r]
        # Interval of w . diff over the box, intersected with the simplex bound.
        positive = np.clip(diffs, 0.0, None)
        negative = np.clip(diffs, None, 0.0)
        box_low = positive @ lower_box + negative @ upper_box
        box_high = positive @ upper_box + negative @ lower_box
        simplex_low = diffs.min(axis=1)
        simplex_high = diffs.max(axis=1)
        low = np.maximum(box_low, simplex_low)
        high = np.minimum(box_high, simplex_high)

        certain_one = (low >= tolerances.eps1)
        certain_zero = (high <= tolerances.eps2)
        certain_one[r] = False
        certain_zero[r] = True  # a tuple never beats itself
        free = ~(certain_one | certain_zero)
        free[r] = False

        min_rank = 1 + int(np.sum(certain_one))
        max_rank = min_rank + int(np.sum(free))
        given = int(positions[r])
        if given < min_rank:
            lower_total += min_rank - given
            upper_total += max_rank - given
        elif given > max_rank:
            lower_total += given - max_rank
            upper_total += given - min_rank
        else:
            upper_total += max(abs(given - min_rank), abs(max_rank - given))
    return lower_total, upper_total


def _probe_cells(
    problem: RankingProblem,
    results: dict[str, SynthesisResult] | None,
    cell_size: float,
    max_grid_cells: int,
) -> list[Cell]:
    """A coarse grid over the simplex plus a cell around every simplex-feasible
    method result: the regions seeding and the cell-bound check visit."""
    from repro.core.cells import grid_cells

    grid_step = 0.5 if problem.num_attributes <= 6 else 0.95
    cells = grid_cells(problem.num_attributes, grid_step, max_cells=max_grid_cells)
    for result in (results or {}).values():
        weights = np.asarray(result.weights, dtype=float).ravel()
        if result.error >= 0 and _on_simplex(weights):
            cells.append(cell_around(weights, cell_size))
    return cells


def check_vectorized_cell_bounds(
    problem: RankingProblem,
    results: dict[str, SynthesisResult] | None = None,
    cell_size: float = 0.2,
    max_grid_cells: int = 32,
) -> CheckResult:
    """Batched cell bounds match the scalar reference on every probed cell.

    Probes a coarse grid over the simplex plus a cell around every
    simplex-feasible method result (the regions the seeding strategy and the
    cell-bound consistency check actually visit), and requires the
    :class:`~repro.core.cells.CellBoundEvaluator` matrix program to
    reproduce the reference loop's integer bounds exactly.
    """
    from repro.core.cells import cell_error_bounds_many

    invariant = "vectorized_parity"
    cells = _probe_cells(problem, results, cell_size, max_grid_cells)
    reference = [cell_error_bounds_reference(problem, cell) for cell in cells]
    batched = cell_error_bounds_many(problem, cells)
    if reference != batched:
        mismatches = [
            f"cell {index}: reference {ref} != batched {vec}"
            for index, (ref, vec) in enumerate(zip(reference, batched))
            if ref != vec
        ]
        return _fail(
            invariant,
            "cell_bounds",
            f"{len(mismatches)}/{len(cells)} cells diverge: " + "; ".join(mismatches[:3]),
        )
    return _ok(invariant, "cell_bounds", f"{len(cells)} cells")


def formulation_reference(
    problem: RankingProblem,
    eliminate_dominated: bool = True,
    cell_bounds: tuple[np.ndarray, np.ndarray] | None = None,
) -> SimpleNamespace:
    """Per-pair reference build of the RankHow MILP (plain position error).

    One score-range evaluation and one pair of ``add_indicator`` calls per
    (ranked, other) pair: the loop the one-pass
    :class:`~repro.core.formulation.RankHowFormulation` build replaced, kept
    as the ground truth of :func:`check_formulation_parity`.  Returns the
    ``model`` with its ``indicator_pairs``, ``fixed_pairs`` and
    ``fixed_values``, laid out as the formulation's.
    """
    matrix, tol, m = problem.matrix, problem.tolerances, problem.num_attributes
    box = (np.zeros(m), np.ones(m)) if cell_bounds is None else cell_bounds
    lower, upper = (np.clip(np.asarray(b, dtype=float).ravel(), 0.0, 1.0) for b in box)

    def score_range(diff: np.ndarray) -> tuple[float, float]:
        pos, neg = diff > 0, diff < 0
        low = float(np.sum(diff[pos] * lower[pos]) + np.sum(diff[neg] * upper[neg]))
        high = float(np.sum(diff[pos] * upper[pos]) + np.sum(diff[neg] * lower[neg]))
        return max(float(np.min(diff)), low), min(float(np.max(diff)), high)

    model = MILPModel()
    w = [
        model.add_continuous(lower=float(lo), upper=float(up), name=f"w[{name}]")
        for lo, up, name in zip(lower, upper, problem.attributes)
    ]
    model.add_constraint(dict.fromkeys(w, 1.0), "==", 1.0)
    for row, sense, rhs in problem.constraints.weight_rows(problem.attributes):
        coefficients = {w[j]: float(row[j]) for j in range(m) if row[j] != 0.0}
        model.add_constraint(coefficients, sense, rhs)
    for precedence in problem.constraints.precedence_constraints:
        diff = matrix[precedence.above] - matrix[precedence.below]
        model.add_constraint({w[j]: float(diff[j]) for j in range(m)}, ">=", tol.eps1)
    n, positions = problem.num_tuples, problem.ranking.positions
    error_bound = float(getattr(problem, "_error_bound_override", n))
    free, fixed, values = [], [], []
    for r in problem.top_k_indices().tolist():
        ones, deltas = 0, []
        for s in range(n):
            if s == r:
                continue
            diff = matrix[s] - matrix[r]
            low, high = score_range(diff)
            if eliminate_dominated and (low >= tol.eps1 or high <= tol.eps2):
                fixed.append((s, r))
                values.append(int(low >= tol.eps1))
                ones += values[-1]
                continue
            delta = model.add_binary(name=f"delta[{s},{r}]")
            free.append((s, r))
            deltas.append(delta)
            row = {w[j]: float(diff[j]) for j in range(m)}
            big_m_one, big_m_zero = max(tol.eps1 - low, 0.0), max(high - tol.eps2, 0.0)
            model.add_indicator(delta, 1, row, ">=", tol.eps1, big_m_one)
            model.add_indicator(delta, 0, row, "<=", tol.eps2, big_m_zero)
        e = model.add_continuous(0.0, error_bound, objective=1.0, name=f"e[{r}]")
        base = 1 + ones - int(positions[r])
        model.add_constraint({e: 1.0, **dict.fromkeys(deltas, -1.0)}, ">=", float(base))
        model.add_constraint({e: 1.0, **dict.fromkeys(deltas, 1.0)}, ">=", float(-base))
        for constraint in problem.constraints.position_constraints:
            if constraint.tuple_index != r:
                continue
            min_rhs = float(constraint.min_position - 1 - ones)
            max_rhs = float(constraint.max_position - 1 - ones)
            if deltas:
                model.add_constraint(dict.fromkeys(deltas, 1.0), ">=", min_rhs)
                model.add_constraint(dict.fromkeys(deltas, 1.0), "<=", max_rhs)
            elif not min_rhs <= 0.0 <= max_rhs:
                model.add_constraint({w[0]: 0.0}, ">=", 1.0)
    return SimpleNamespace(
        model=model,
        indicator_pairs=np.asarray(free, dtype=np.int64).reshape(-1, 2),
        fixed_pairs=np.asarray(fixed, dtype=np.int64).reshape(-1, 2),
        fixed_values=np.asarray(values, dtype=np.int8),
    )


def lp_reference(lp: LinearProgram) -> LPSolution:
    """Solve ``lp`` through ``scipy.optimize.linprog(method="highs")``.

    The call :meth:`~repro.solvers.lp.LinearProgram.solve` made before it
    drove HiGHS directly, kept as the ground truth of the LP parity tests.
    A cold solve (the first on a loaded instance) matches it bit for bit:
    same status, ``x``, objective and iteration count
    (:func:`lp_differences`); a warm re-solve meets the contract of
    :func:`lp_resolve_differences`.
    """
    from scipy.optimize import linprog

    a_ub, b_ub = lp.inequality_matrix()
    a_eq, b_eq = lp.equality_matrix()
    bounds = [
        (
            None if lp.lower_bounds[i] == -np.inf else lp.lower_bounds[i],
            None if lp.upper_bounds[i] == np.inf else lp.upper_bounds[i],
        )
        for i in range(lp.num_vars)
    ]
    result = linprog(
        c=lp.objective,
        A_ub=a_ub if a_ub.shape[0] else None,
        b_ub=b_ub if a_ub.shape[0] else None,
        A_eq=a_eq if a_eq.shape[0] else None,
        b_eq=b_eq if a_eq.shape[0] else None,
        bounds=bounds,
        method="highs",
    )
    iterations = int(getattr(result, "nit", 0) or 0)
    if result.status == 0:
        return LPSolution(
            LPStatus.OPTIMAL,
            np.asarray(result.x, dtype=float),
            float(result.fun),
            iterations=iterations,
        )
    status = {2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}.get(
        result.status, LPStatus.ERROR
    )
    return LPSolution(status, np.zeros(0), float("nan"), iterations=iterations)


@contextmanager
def recorded_lps() -> Iterator[list[tuple]]:
    """Record every :meth:`~repro.solvers.lp.LinearProgram.solve` call made
    inside the block.

    Yields a list that fills with one ``(lp, objective, lower, upper, warm,
    solution)`` per solve: the model itself, copies of the objective and
    bounds that solve saw, whether it re-solved a loaded HiGHS instance
    (``False`` for a cold solve), and what it returned.  Rows are not
    copied, so a record replays what was solved only while no row is added
    to its model afterwards -- true of branch-and-bound relaxations, TREE
    regions and the ordinal-regression seed, which are each built once and
    then only re-bounded.  Replaying one model's records in order on a copy
    of it repeats the cold and warm solves, and their answers bit for bit.
    """
    solve = LinearProgram.solve
    records: list[tuple] = []

    def recording(lp: LinearProgram) -> LPSolution:
        seen = (lp, lp.objective.copy(), lp.lower_bounds.copy(), lp.upper_bounds.copy())
        warm = lp._matrix_cache.get("solver") is not None
        solution = solve(lp)
        records.append((*seen, warm, solution))
        return solution

    LinearProgram.solve = recording
    try:
        yield records
    finally:
        LinearProgram.solve = solve


def lp_differences(ours: LPSolution, theirs: LPSolution) -> list[str]:
    """Which fields of two LP solutions differ (empty: bit-identical)."""
    objectives = np.array([ours.objective, theirs.objective])
    pairs = {
        "status": (ours.status, theirs.status),
        "x": (ours.x.tobytes(), theirs.x.tobytes()),
        "objective": (objectives[:1].tobytes(), objectives[1:].tobytes()),
        "iterations": (ours.iterations, theirs.iterations),
    }
    return [f"{label} differ" for label, (a, b) in pairs.items() if a != b]


def lp_resolve_differences(
    lp: LinearProgram, ours: LPSolution, reference: LPSolution
) -> list[str]:
    """How a warm re-solve of ``lp`` breaks the re-solve contract (empty:
    it holds).

    A re-solve starts from the basis of the solve before it, so a degenerate
    LP may land on another optimal vertex than ``reference`` (a cold solve,
    usually :func:`lp_reference`).  It must still reach ``reference``'s
    status, and an optimum must have an objective within
    ``1e-9 * max(1, |reference|)`` and an ``x`` inside ``lp``'s bounds and
    rows up to the residual tolerance ``LinearProgram.solve`` accepts.
    """
    if ours.status is not reference.status:
        return ["status differ"]
    if not ours.is_optimal:
        return []
    problems = []
    scale = max(1.0, abs(reference.objective))
    if not abs(ours.objective - reference.objective) <= 1e-9 * scale:
        problems.append("objective differs beyond 1e-9 relative")
    x, tol = ours.x, _RESIDUAL_TOLERANCE
    lower = np.asarray(lp.lower_bounds, dtype=float)
    upper = np.asarray(lp.upper_bounds, dtype=float)
    lower = np.where(np.isnan(lower), -np.inf, lower)
    upper = np.where(np.isnan(upper), np.inf, upper)
    if x.shape != lower.shape or not np.all((x >= lower - tol) & (x <= upper + tol)):
        problems.append("x outside its bounds")
    else:
        rows, senses, rhs = lp.constraint_rows()
        slack = rhs - rows @ x
        slack[senses == ">="] *= -1.0
        equality = senses == "=="
        if (slack[~equality] < -tol).any() or (np.abs(slack[equality]) > tol).any():
            problems.append("x breaks a row")
    return problems


def model_differences(
    ours: MILPModel, theirs: MILPModel, big_m_atol: np.ndarray | None = None
) -> list[str]:
    """What differs between two models (empty: identical), variable names aside.

    Variables (bounds, objective, binary flags) and every row (CSR entries
    in order, sense, rhs, indicator binary and active value, big-M) compare
    bit for bit; big-Ms within ``big_m_atol`` (one value per row) when given.
    """
    if ours.num_vars != theirs.num_vars or len(ours.rows) != len(theirs.rows):
        return ["model sizes differ"]
    a, b = ours.rows, theirs.rows
    fields = ("indptr", "indices", "data", "sense", "rhs", "binary", "active_value")
    pairs = {f"rows.{name}": (getattr(a, name), getattr(b, name)) for name in fields}
    pairs["bounds"] = (np.stack(ours.bounds()), np.stack(theirs.bounds()))
    pairs["objective"] = (ours.objective_vector(), theirs.objective_vector())
    pairs["binary flags"] = (ours.binary_mask(), theirs.binary_mask())
    if big_m_atol is None:
        pairs["rows.big_m"] = (a.big_m, b.big_m)
    problems = [
        f"{label} differ"
        for label, (x, y) in pairs.items()
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes()
    ]
    if big_m_atol is not None and np.any(np.abs(a.big_m - b.big_m) > big_m_atol):
        problems.append("rows.big_m differ beyond the tolerance")
    return problems


def check_formulation_parity(
    problem: RankingProblem, results: dict[str, SynthesisResult] | None = None
) -> CheckResult:
    """The one-pass RankHow build matches :func:`formulation_reference`.

    Builds the whole simplex, four grid cells and a 0.2 cell around every
    simplex-feasible method result, with the dominance elimination on and
    off, and requires identical variables (numbering, bounds, names), row
    order, CSR entries and fixed/free pair sets, with bitwise-equal
    coefficients and big-Ms.  The one exception: with ``m >= 8`` the
    reference's masked 1-D ``np.sum`` adds eight or more same-sign terms in
    numpy's 8-way unrolled order, so there big-Ms may differ by rounding,
    within ``m * eps * sum_j |d_j * b_j|`` (``b_j`` the weight's upper bound).
    """
    from repro.core.formulation import RankHowFormulation

    m = problem.num_attributes
    cells = [None] + _probe_cells(problem, results, cell_size=0.2, max_grid_cells=4)
    mismatches = []
    for index, cell in enumerate(cells):
        box = None if cell is None else (cell.lower, cell.upper)
        for eliminate in (True, False):
            reference = formulation_reference(problem, eliminate, box)
            atol = None
            if m >= 8:
                rows, upper = reference.model.rows, reference.model.bounds()[1]
                terms = np.abs(rows.data * upper[rows.indices])
                atol = m * np.finfo(float).eps * np.bincount(
                    rows.entry_rows(), weights=terms, minlength=len(rows)
                )
            ours = RankHowFormulation(problem, eliminate, cell_bounds=box)
            problems = model_differences(ours.model, reference.model, atol)
            if ours.model.variable_names != reference.model.variable_names:
                problems.append("variable names differ")
            for label in ("indicator_pairs", "fixed_pairs", "fixed_values"):
                if not np.array_equal(getattr(ours, label), getattr(reference, label)):
                    problems.append(f"{label} differ")
            if problems:
                mismatches.append(f"cell {index} eliminate={eliminate}: {problems}")
    invariant, builds = "formulation_parity", 2 * len(cells)
    if mismatches:
        details = f"{len(mismatches)}/{builds} builds diverge: "
        return _fail(invariant, "formulation", details + "; ".join(mismatches[:3]))
    return _ok(invariant, "formulation", f"{builds} builds")


def check_streaming_parity(
    problem: RankingProblem, max_grid_cells: int = 16
) -> CheckResult:
    """The streaming cell-bound evaluator equals the precomputed one.

    :class:`~repro.core.cells.CellBoundEvaluator` streams (nothing
    precomputed, pair blocks re-derived per pass) when its precomputation
    would exceed the data-plane memory budget, so million-row problems fit
    in a fixed transient budget.  It must never be a semantic fork: on a
    grid of simplex cells its bounds must equal the precomputed
    evaluator's exactly.
    """
    from repro.core.cells import CellBoundEvaluator, grid_cells

    invariant = "streaming_parity"
    grid_step = 0.5 if problem.num_attributes <= 6 else 0.95
    cells = grid_cells(problem.num_attributes, grid_step, max_cells=max_grid_cells)
    precomputed = CellBoundEvaluator(problem, streaming=False).bounds_many(cells)
    streamed = CellBoundEvaluator(problem, streaming=True).bounds_many(cells)
    if precomputed != streamed:
        mismatches = [
            f"cell {index}: precomputed {pre} != streamed {st}"
            for index, (pre, st) in enumerate(zip(precomputed, streamed))
            if pre != st
        ]
        return _fail(
            invariant,
            "cell_bounds",
            f"{len(mismatches)}/{len(cells)} cells diverge: "
            + "; ".join(mismatches[:3]),
        )
    return _ok(invariant, "cell_bounds", f"{len(cells)} cells")


# -- execution-substrate invariants -------------------------------------------------


def check_executor_parity(
    cases: Sequence[tuple],
    backends=("serial", "process"),
) -> list[CheckResult]:
    """Every executor backend returns identical fingerprints and results.

    ``cases`` is a list of ``(problem, method, options)`` triples solved as
    ONE batch per backend.  Batching matters: the process executor runs
    single-item batches inline, so a one-request comparison would never
    cross the pickle boundary it claims to test.  A one-worker pool (on a
    1-CPU machine) still crosses it.
    """
    from repro.api.request import SynthesisRequest
    from repro.engine.engine import SolveEngine

    invariant = "executor_parity"
    outcomes = {}
    for backend in backends:
        requests = [
            SynthesisRequest(problem, method, dict(options or {}))
            for problem, method, options in cases
        ]
        with SolveEngine(backend=backend) as engine:
            outcomes[backend] = engine.solve_batch(requests)
    checks: list[CheckResult] = []
    baseline_name = backends[0]
    baseline = outcomes[baseline_name]
    for backend in backends[1:]:
        for index, (case, base, other) in enumerate(
            zip(cases, baseline, outcomes[backend])
        ):
            subject = f"{case[1]}[{index}]:{baseline_name}=={backend}"
            if other.fingerprint != base.fingerprint:
                checks.append(_fail(invariant, subject, "fingerprints diverge"))
            elif not results_equal(other.result, base.result):
                checks.append(
                    _fail(
                        invariant,
                        subject,
                        f"results diverge (errors {base.result.error} vs "
                        f"{other.result.error})",
                    )
                )
            else:
                checks.append(_ok(invariant, subject))
    return checks


def check_cache_parity(
    problem: RankingProblem, method: str, options: dict | None = None
) -> list[CheckResult]:
    """Cache-off, cache-miss, and cache-hit paths agree on the result."""
    from repro.api.registry import get_method
    from repro.engine.engine import SolveEngine

    invariant = "cache_parity"
    checks: list[CheckResult] = []
    direct = get_method(method).synthesize(problem, dict(options or {}))
    with SolveEngine(backend="serial") as engine:
        first = engine.solve(problem, method, dict(options or {}))
        second = engine.solve(problem, method, dict(options or {}))
    if first.cache_hit:
        checks.append(_fail(invariant, method, "first solve claimed a cache hit"))
    elif not second.cache_hit:
        checks.append(_fail(invariant, method, "repeat solve missed the cache"))
    elif not results_equal(first.result, second.result):
        checks.append(_fail(invariant, method, "cache hit returned a different result"))
    elif not results_equal(first.result, direct):
        checks.append(
            _fail(invariant, method, "engine result differs from the cache-off solve")
        )
    else:
        checks.append(_ok(invariant, method))
    return checks


def simulate_lru(profile: WorkloadProfile, capacity: int) -> list[bool]:
    """Pure LRU-cache simulation over the recorded fingerprint stream.

    No solver runs: each request is a hit iff its fingerprint is in a
    simulated LRU of ``capacity`` entries.  Useful for sizing a cache from a
    profile (sweep capacities, compare simulated hit rates) without
    replaying any compute.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    entries: OrderedDict[str, None] = OrderedDict()
    flags = []
    for record in profile:
        hit = record.fingerprint in entries
        flags.append(hit)
        entries[record.fingerprint] = None
        entries.move_to_end(record.fingerprint)
        while len(entries) > capacity:
            entries.popitem(last=False)
    return flags


# -- incremental synthesis ----------------------------------------------------------

#: Budgets for the incremental-parity chains -- service-scale, like the
#: oracle's fast options: parity must hold for truncated solves exactly as
#: for exhaustive ones.
PARITY_METHOD_OPTIONS: dict = {
    "rankhow": {
        "node_limit": 80,
        "time_limit": 3.0,
        "verify": False,
        "warm_start_strategy": "ordinal_regression",
    },
    "symgd": {
        "cell_size": 0.25,
        "max_iterations": 5,
        "time_limit": 2.0,
        "solver_options": {
            "node_limit": 50,
            "verify": False,
            "warm_start_strategy": "none",
        },
    },
}


def check_incremental_parity(
    problem: RankingProblem,
    methods: Sequence[str] = ("rankhow", "symgd"),
    chain: Sequence[str] = ("jitter", "tighten_tolerance", "permute"),
    seed: int = 0,
) -> list[CheckResult]:
    """A session's incremental solves exactly equal cold solves per edit.

    Drives a chain of ``mutate()``-style edits two ways in lockstep:

    * **incrementally** -- through a :class:`~repro.api.session.SynthesisSession`
      on a fresh engine, addressed by delta-composed fingerprints;
    * **cold** -- each edited problem rebuilt content-addressed and solved
      directly through the method adapter, exactly as a stateless caller
      would.

    Every step must agree *exactly* (error, weights bit-for-bit): the
    incremental path is an optimization, never a semantic fork.  The edited
    problems themselves are also cross-checked (the delta-built head's
    content digest must equal the cold-built problem's), so a delta whose
    ``apply`` drifts from the mutation it mirrors fails here too.
    """
    from repro.api.registry import get_method
    from repro.api.session import SynthesisSession
    from repro.engine.engine import SolveEngine
    from repro.engine.fingerprint import compute_problem_digest
    from repro.scenarios.generator import mutation_delta

    invariant = "incremental_parity"
    checks: list[CheckResult] = []
    for method in methods:
        options = dict(PARITY_METHOD_OPTIONS.get(method, {}))
        adapter = get_method(method)
        with SolveEngine(backend="serial", cache_capacity=64) as engine:
            session = SynthesisSession(engine, problem, method, options)
            cold_head = problem
            failures: list[str] = []
            steps = 0

            incremental = session.solve()
            cold = adapter.synthesize(problem, options)
            if not results_equal(incremental.result, cold):
                failures.append(
                    f"base solve diverged (incremental error "
                    f"{incremental.result.error} vs cold {cold.error})"
                )

            for step, kind in enumerate(chain):
                deltas, applied = mutation_delta(
                    cold_head, kind, seed=seed * 1000 + step
                )
                if not deltas:
                    continue
                steps += 1
                session.edit(*deltas)
                for delta in deltas:
                    cold_head = delta.apply(cold_head)
                if compute_problem_digest(session.problem) != compute_problem_digest(
                    cold_head
                ):
                    failures.append(
                        f"step {step} ({applied}): delta-built head's content "
                        "digest differs from the cold-built problem"
                    )
                    break
                incremental = session.solve()
                cold = adapter.synthesize(cold_head, options)
                if not results_equal(incremental.result, cold):
                    failures.append(
                        f"step {step} ({applied}, cache_hit={incremental.cache_hit}): "
                        f"incremental error {incremental.result.error} vs cold "
                        f"{cold.error}, weights equal="
                        f"{np.array_equal(incremental.result.weights, cold.weights, equal_nan=True)}"
                    )
            if failures:
                checks.append(_fail(invariant, method, "; ".join(failures)))
            else:
                hits = [record.cache_hit for record in session.history]
                checks.append(
                    _ok(invariant, method, f"{steps} edits, cache_hit={hits}")
                )
    return checks
