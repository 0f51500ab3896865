"""The RankHow MILP formulation (Equation 2) and its helpers.

Given a :class:`~repro.core.problem.RankingProblem`, :class:`RankHowFormulation`
builds a :class:`~repro.solvers.milp.MILPModel` with

* one continuous weight variable per ranking attribute (``0 <= w_i <= 1``,
  ``sum w_i = 1``, plus the user's weight constraints),
* one binary indicator ``delta[s, r]`` per (ranked tuple ``r``, other tuple
  ``s``) pair that is not eliminated by the dominance analysis of
  Section V-B,
* one continuous error variable ``e_r >= |rank(r) - pi(r)|`` per ranked tuple,

with the indicator semantics expressed through the paper's ``eps1`` / ``eps2``
thresholds (Equation 3 / Lemma 1) and encoded with *tight* big-M values: over
the weight simplex the score difference ``w . (s - r)`` always lies between the
minimum and maximum attribute difference, which gives pair-specific constants
far smaller than a generic big-M.

Indicator elimination.  The paper removes indicators of dominator/dominatee
pairs.  The formulation applies the natural generalization: if the *minimum*
attribute difference is already ``>= eps1``, every feasible weight vector makes
``s`` beat ``r`` and the indicator is fixed to 1; if the *maximum* difference
is ``<= eps2``, the indicator is fixed to 0.  Strict domination is the special
case where all differences share a sign.

The formulation also supplies the branch-and-bound incumbent heuristic: any
relaxation solution contains a feasible weight vector, and simply *ranking the
tuples by it* yields a feasible integral assignment whose objective is that
vector's true position error.  This is what makes the holistic MILP route so
much faster than the cell-enumeration TREE baseline.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import RankingProblem
from repro.solvers.milp import MILPModel

__all__ = ["RankHowFormulation"]


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Left-to-right row sums: the order ``np.sum`` adds fewer than eight terms
    in, so zero-filled rows reproduce per-pair masked sums bit for bit."""
    total = terms[:, 0].copy()
    for column in terms.T[1:]:
        total += column
    return total


class RankHowFormulation:
    """Builds and interprets the Equation (2) MILP for one problem instance.

    After construction the indicator bookkeeping is held as arrays:
    ``indicator_pairs[i] = (s, r)`` is the pair behind binary
    ``indicator_columns[i]`` (in variable order), and ``fixed_pairs[j]`` is a
    pair the dominance analysis fixed to ``fixed_values[j]``.
    """

    def __init__(
        self,
        problem: RankingProblem,
        eliminate_dominated: bool = True,
        error_weights: dict[int, float] | None = None,
        cell_bounds: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Build the MILP.

        Args:
            problem: The OPT instance.
            eliminate_dominated: Apply the Section V-B indicator elimination.
            error_weights: Optional per-tuple objective weights keyed by tuple
                index (defaults to 1, i.e. plain position error; pass
                ``1/pi(r)`` style weights for top-heavy objectives).
            cell_bounds: Optional ``(lower, upper)`` box on the weight vector;
                used by SYM-GD to restrict the solve to a cell around a seed
                point, which also makes the dominance analysis fix many more
                indicators.
        """
        self.problem = problem
        self.eliminate_dominated = eliminate_dominated
        self._error_weights = error_weights or {}
        self._cell_lower, self._cell_upper = self._resolve_cell(cell_bounds)
        self.model = MILPModel()
        self.weight_vars: list[int] = []
        self.error_vars: dict[int, int] = {}
        self._build()

    # -- construction ------------------------------------------------------------

    def _resolve_cell(
        self, cell_bounds: tuple[np.ndarray, np.ndarray] | None
    ) -> tuple[np.ndarray, np.ndarray]:
        m = self.problem.num_attributes
        if cell_bounds is None:
            return np.zeros(m), np.ones(m)
        lower = np.clip(np.asarray(cell_bounds[0], dtype=float).ravel(), 0.0, 1.0)
        upper = np.clip(np.asarray(cell_bounds[1], dtype=float).ravel(), 0.0, 1.0)
        if lower.shape[0] != m or upper.shape[0] != m:
            raise ValueError("cell bounds must have one entry per attribute")
        if np.any(lower > upper):
            raise ValueError("cell lower bounds exceed upper bounds")
        return lower, upper

    def _score_difference_ranges(
        self, diffs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Range of ``w . diff`` over the (cell-restricted) simplex, per row.

        Without a cell the exact range over the simplex is
        ``[min_i diff_i, max_i diff_i]``.  With a box ``[lo, up]`` intersected
        with the simplex the exact range is harder; the box relaxation
        ``sum_i diff_i * (up_i if diff_i > 0 else lo_i)`` is a valid (possibly
        loose) bound, and we intersect it with the simplex bound which is
        always valid because the cell is a subset of the simplex.  The box
        sums add zero-filled products (:func:`_row_sums`), never a matmul.
        """
        positive, negative = np.maximum(diffs, 0.0), np.minimum(diffs, 0.0)
        lower, upper = self._cell_lower, self._cell_upper
        box_low = _row_sums(positive * lower) + _row_sums(negative * upper)
        box_high = _row_sums(positive * upper) + _row_sums(negative * lower)
        return (
            np.maximum(diffs.min(axis=1), box_low),
            np.minimum(diffs.max(axis=1), box_high),
        )

    def _build(self) -> None:
        problem = self.problem
        matrix = problem.matrix
        tolerances = problem.tolerances
        positions = problem.ranking.positions
        ranked = problem.top_k_indices()
        n = problem.num_tuples
        m = problem.num_attributes
        # Rank-dominance pruning (repro.core.prune) pins the error bound to
        # the *original* tuple count so the pruned model is bitwise-identical
        # to the full model after the dominance elimination below.
        error_bound = float(getattr(problem, "_error_bound_override", n))

        # Weight variables and the simplex constraint.
        for j in range(m):
            self.weight_vars.append(
                self.model.add_continuous(
                    lower=float(self._cell_lower[j]),
                    upper=float(self._cell_upper[j]),
                    name=f"w[{problem.attributes[j]}]",
                )
            )
        self.model.add_constraint(
            {index: 1.0 for index in self.weight_vars}, "==", 1.0
        )

        # User weight constraints.
        for row, sense, rhs in problem.constraints.weight_rows(problem.attributes):
            self.model.add_constraint(
                {self.weight_vars[j]: float(row[j]) for j in range(m) if row[j] != 0.0},
                sense,
                rhs,
            )

        # Precedence constraints become direct weight constraints.
        for precedence in problem.constraints.precedence_constraints:
            diff = matrix[precedence.above] - matrix[precedence.below]
            self.model.add_constraint(
                {self.weight_vars[j]: float(diff[j]) for j in range(m)},
                ">=",
                tolerances.eps1,
            )

        # Indicators, error variables and error constraints per ranked tuple:
        # all (s, r) pairs of one ranked tuple are classified in one pass.  Its
        # indicator rows, alternating (delta = 1, >=) and (delta = 0, <=), are
        # a prefix of these patterns.
        model = self.model
        eps1, eps2 = tolerances.eps1, tolerances.eps2
        row_columns = np.tile(self.weight_vars, 2 * n)
        row_senses, row_active = np.tile([">=", "<="], n), np.tile([1, 0], n)
        row_rhs = np.tile([eps1, eps2], n)
        tuples = np.arange(n)
        free_s, columns, diff_blocks = [], [], []
        fixed_s, fixed_one, fixed_ones = [], [], []
        for r in ranked.tolist():
            others = tuples[tuples != r]
            diffs = matrix[others] - matrix[r]
            low, high = self._score_difference_ranges(diffs)
            one = zero = np.zeros(n - 1, dtype=bool)
            if self.eliminate_dominated:
                one = low >= eps1
                zero = ~one & (high <= eps2)
            free = ~(one | zero)
            count = int(free.sum())
            names = [f"delta[{s},{r}]" for s in others[free].tolist()]
            deltas = model.add_binaries(names)
            coefficients = diffs[free].astype(float)
            big_m = np.column_stack([eps1 - low[free], high[free] - eps2])
            model.add_rows(
                np.arange(0, 2 * count * m + 1, m),
                row_columns[: 2 * count * m],
                np.repeat(coefficients, 2, axis=0).ravel(),
                row_senses[: 2 * count],
                row_rhs[: 2 * count],
                binary=np.repeat(deltas, 2),
                active_value=row_active[: 2 * count],
                big_m=np.maximum(big_m, 0.0).ravel(),
            )
            free_s.append(others[free])
            columns.append(deltas)
            diff_blocks.append(coefficients)
            fixed_s.append(others[~free])
            fixed_one.append(one[~free])
            fixed_ones.append(int(one.sum()))

            weight = float(self._error_weights.get(r, 1.0))
            error_var = model.add_continuous(
                lower=0.0, upper=error_bound, objective=weight, name=f"e[{r}]"
            )
            self.error_vars[r] = error_var
            base = 1 + fixed_ones[-1] - int(positions[r])
            # e >= rank - pi(r)  <=>  e - sum(delta) >= base
            # e >= pi(r) - rank  <=>  e + sum(delta) >= -base
            deltas = deltas.tolist()
            minus, plus = dict.fromkeys(deltas, -1.0), dict.fromkeys(deltas, 1.0)
            model.add_constraint({error_var: 1.0, **minus}, ">=", base)
            model.add_constraint({error_var: 1.0, **plus}, ">=", -base)

            # Position-range constraints for this tuple (if any).
            for constraint in problem.constraints.position_constraints:
                if constraint.tuple_index != r:
                    continue
                # min_pos <= 1 + fixed_ones + sum(delta) <= max_pos
                min_rhs = float(constraint.min_position - 1 - fixed_ones[-1])
                max_rhs = float(constraint.max_position - 1 - fixed_ones[-1])
                if deltas:
                    model.add_constraint(dict.fromkeys(deltas, 1.0), ">=", min_rhs)
                    model.add_constraint(dict.fromkeys(deltas, 1.0), "<=", max_rhs)
                elif not (min_rhs <= 0.0 <= max_rhs):
                    # Infeasible by construction: encode with an impossible
                    # constraint so the solver reports infeasibility.
                    model.add_constraint({self.weight_vars[0]: 0.0}, ">=", 1.0)

        def pairs(s_blocks: list[np.ndarray]) -> np.ndarray:
            r_column = np.repeat(ranked, [block.shape[0] for block in s_blocks])
            return np.column_stack([np.concatenate(s_blocks), r_column])

        self.indicator_pairs = pairs(free_s)
        self.indicator_columns = np.concatenate(columns)
        self.fixed_pairs = pairs(fixed_s)
        self.fixed_values = np.concatenate(fixed_one).astype(np.int8)
        # Incumbent bookkeeping, per free pair and per ranked tuple.
        self._pair_diffs = np.concatenate(diff_blocks)
        self._pair_slots = np.repeat(np.arange(len(ranked)), [b.size for b in free_s])
        self._fixed_ones = np.asarray(fixed_ones)
        self._error_columns = np.fromiter(self.error_vars.values(), dtype=np.int64)
        self._given_positions = positions[ranked]

    # -- interpretation ------------------------------------------------------------

    @property
    def num_indicator_variables(self) -> int:
        return int(self.indicator_columns.shape[0])

    @property
    def num_eliminated_indicators(self) -> int:
        return int(self.fixed_values.shape[0])

    def weights_from(self, x: np.ndarray) -> np.ndarray:
        """Extract the weight vector from a full variable assignment."""
        weights = np.asarray(x, dtype=float)[self.weight_vars]
        weights[np.abs(weights) < 1e-12] = 0.0
        weights[weights < 0.0] = 0.0
        return weights

    def objective_error(self, x: np.ndarray) -> float:
        """Objective value (sum of error variables) of an assignment."""
        return float(sum(x[idx] for idx in self.error_vars.values()))

    def indicator_assignment_for(
        self, weights: np.ndarray, strict: bool = True
    ) -> np.ndarray | None:
        """Indicator values implied by a weight vector, one per free pair.

        A pair whose score difference falls strictly between ``eps2`` and
        ``eps1`` cannot be assigned either value exactly (that is the "safety
        gap" of Equation 3).  With ``strict=True`` such a weight vector has no
        feasible completion and ``None`` is returned.  With ``strict=False``
        the gap pair is resolved to the nearer side -- the same
        within-tolerance acceptance a floating-point MILP solver applies --
        and the caller is expected to re-check feasibility (and, ultimately,
        run exact verification).
        """
        tolerances = self.problem.tolerances
        # vecdot runs the same per-pair dot kernel as ``weights @ diff``.
        difference = np.vecdot(self._pair_diffs, np.asarray(weights, dtype=float))
        one = difference >= tolerances.eps1
        gap = ~(one | (difference <= tolerances.eps2))
        if strict and gap.any():
            return None
        midpoint = 0.5 * (tolerances.eps1 + tolerances.eps2)
        return (one | (gap & (difference > midpoint))).astype(np.int8)

    def assemble_solution(
        self, weights: np.ndarray, assignment: np.ndarray
    ) -> np.ndarray:
        """Build a full variable vector from weights plus indicator values."""
        x = np.zeros(self.model.num_vars)
        x[self.weight_vars] = weights
        x[self.indicator_columns] = assignment
        beaten_by = self._fixed_ones + np.bincount(
            self._pair_slots[assignment == 1], minlength=len(self._fixed_ones)
        )
        x[self._error_columns] = np.abs(1 + beaten_by - self._given_positions)
        return x

    def incumbent_from_weights(
        self, weights: np.ndarray, strict: bool = False
    ) -> np.ndarray | None:
        """Full assignment for a weight vector, or ``None``.

        Non-strict by default: gap pairs are resolved within tolerance and the
        branch-and-bound re-checks feasibility before accepting the incumbent.
        """
        assignment = self.indicator_assignment_for(weights, strict=strict)
        if assignment is None:
            return None
        return self.assemble_solution(weights, assignment)

    def incumbent_callback(self, x_relaxation: np.ndarray, model: MILPModel) -> np.ndarray | None:
        """Branch-and-bound hook: round a relaxation solution to a feasible one."""
        del model  # the formulation already holds everything it needs
        weights = self.weights_from(x_relaxation)
        total = float(weights.sum())
        if total <= 0:
            return None
        # The relaxation's weights satisfy sum w = 1 up to numerical noise;
        # re-normalizing keeps the simplex constraint exactly satisfied.  When
        # user weight constraints are active the unnormalized vector is used as
        # is (re-normalization might violate an equality constraint); feasibility
        # is re-checked by the solver either way.
        if not self.problem.constraints.weight_constraints:
            weights = weights / total
        return self.incumbent_from_weights(weights)
