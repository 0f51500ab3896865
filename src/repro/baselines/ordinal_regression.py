"""Srinivasan-style LP ordinal regression (the ORDINALREGRESSION competitor).

Srinivasan (1976) learns a linear scoring function from an ordering by
minimizing the total *score penalty* of inverted pairs: for every pair where
the given ranking says ``a`` should beat ``b``, a slack variable absorbs any
shortfall of ``w.(x_a - x_b)`` below a separation margin, and the LP minimizes
the sum of slacks.  The loss is score-based, not position-based, which is why
(Section VII) it can strongly prefer the wrong function; it is nevertheless
fast and correlated with position error, so RankHow uses it as the default
SYM-GD seed.

Two extensions from the paper are implemented and can be switched off to
recover the original method:

* **ties** -- tuples sharing a given position get a pair of slack constraints
  keeping their score difference inside the tie tolerance;
* **numerical imprecision** -- the separation margin is ``eps1`` rather than
  an arbitrary tiny constant (Table III applies exactly this fix, "OR+").
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.problem import RankingProblem
from repro.core.ranking import UNRANKED
from repro.core.result import SynthesisResult
from repro.solvers.lp import LinearProgram

__all__ = ["OrdinalRegressionOptions", "OrdinalRegressionBaseline"]


@dataclass
class OrdinalRegressionOptions:
    """Configuration of the ordinal-regression baseline.

    Attributes:
        support_ties: Add tie constraints for tuples sharing a position.
        separation_margin: Required score gap for strictly ordered pairs; use
            the problem's ``eps1`` when ``None`` ("OR+"), or supply a small
            value such as ``1e-10`` to mimic the imprecision-oblivious "OR-".
        include_unranked: Require the last-ranked tuple to beat every unranked
            tuple (with slack); keeps the synthesized top-k near the top.
        apply_weight_constraints: Respect the problem's weight constraints
            (useful when the result seeds SYM-GD).
    """

    support_ties: bool = True
    separation_margin: float | None = None
    include_unranked: bool = True
    apply_weight_constraints: bool = True

    def to_dict(self) -> dict:
        """Canonical JSON-serializable representation (for fingerprinting)."""
        return {
            "support_ties": bool(self.support_ties),
            "separation_margin": (
                None
                if self.separation_margin is None
                else float(self.separation_margin)
            ),
            "include_unranked": bool(self.include_unranked),
            "apply_weight_constraints": bool(self.apply_weight_constraints),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OrdinalRegressionOptions":
        margin = data.get("separation_margin")
        return cls(
            support_ties=bool(data.get("support_ties", True)),
            separation_margin=None if margin is None else float(margin),
            include_unranked=bool(data.get("include_unranked", True)),
            apply_weight_constraints=bool(
                data.get("apply_weight_constraints", True)
            ),
        )


class OrdinalRegressionBaseline:
    """LP ordinal regression over the given ranking."""

    def __init__(self, options: OrdinalRegressionOptions | None = None) -> None:
        self.options = options or OrdinalRegressionOptions()

    def build_lp(self, problem: RankingProblem) -> tuple[LinearProgram, dict]:
        """The LP :meth:`solve` minimizes, plus its pair counts and margin.

        Variables are the ``m`` weights, one slack per ordered pair, then two
        per tied pair.  Rows: the simplex, the weight constraints, every
        ordered pair (one block), every tied pair's upper and lower row (one
        block, interleaved).
        """
        options = self.options
        matrix = problem.matrix
        positions = problem.ranking.positions
        m = problem.num_attributes
        margin = (
            problem.tolerances.eps1
            if options.separation_margin is None
            else options.separation_margin
        )
        tie_eps = max(problem.tolerances.tie_eps, 0.0)

        # Ranked tuples ordered by position; consecutive distinct positions
        # produce ordering constraints, equal positions produce tie constraints.
        ranked = problem.top_k_indices().astype(int)
        tied = positions[ranked[:-1]] == positions[ranked[1:]]
        better, worse = ranked[:-1][~tied], ranked[1:][~tied]
        if options.include_unranked and len(ranked):
            unranked = np.flatnonzero(positions == UNRANKED)
            better = np.concatenate((better, np.full(len(unranked), ranked[-1])))
            worse = np.concatenate((worse, unranked))
        tied_a, tied_b = ranked[:-1][tied], ranked[1:][tied]

        num_ordered = len(better)
        num_tie_slacks = 2 * len(tied_a) if options.support_ties else 0
        total_vars = m + num_ordered + num_tie_slacks

        lp = LinearProgram(total_vars)
        objective = np.zeros(total_vars)
        objective[m:] = 1.0
        lp.set_objective(objective)
        lower = np.zeros(total_vars)
        upper = np.full(total_vars, np.inf)
        upper[:m] = 1.0
        lp.set_all_bounds(lower, upper)

        def block(weights, slacks=None, slack_values=None) -> tuple:
            """CSR arrays of one row per row of ``weights`` (the ``m`` weight
            entries), plus one slack entry per row when ``slacks`` is given."""
            count, width = len(weights), m + (slacks is not None)
            indices = np.empty((count, width), dtype=np.int64)
            data = np.empty((count, width))
            indices[:, :m] = np.arange(m)
            data[:, :m] = weights
            if slacks is not None:
                indices[:, m] = slacks
                data[:, m] = slack_values
            return np.arange(count + 1) * width, indices.ravel(), data.ravel()

        lp.add_rows(*block(np.ones((1, m))), ["=="], [1.0])
        weight_rows = problem.constraints.weight_rows(problem.attributes)
        if options.apply_weight_constraints and weight_rows:
            rows, senses, rhs = zip(*weight_rows)
            lp.add_rows(*block(np.array(rows)), senses, rhs)

        slack = m + np.arange(num_ordered + num_tie_slacks)
        lp.add_rows(
            *block(matrix[better] - matrix[worse], slack[:num_ordered], 1.0),
            np.full(num_ordered, ">="),
            np.full(num_ordered, margin),
        )

        if num_tie_slacks:
            lp.add_rows(
                *block(
                    np.repeat(matrix[tied_a] - matrix[tied_b], 2, axis=0),
                    slack[num_ordered:],
                    np.tile([-1.0, 1.0], len(tied_a)),
                ),
                ["<=", ">="] * len(tied_a),
                np.tile([tie_eps, -tie_eps], len(tied_a)),
            )
        return lp, {
            "ordered_pairs": num_ordered,
            "tied_pairs": len(tied_a),
            "margin": margin,
        }

    def solve(self, problem: RankingProblem) -> SynthesisResult:
        """Fit the LP and evaluate the resulting weights."""
        start = time.perf_counter()
        m = problem.num_attributes
        lp, pairs = self.build_lp(problem)
        solution = lp.solve()
        elapsed = time.perf_counter() - start

        if not solution.is_optimal:
            fallback = np.full(m, 1.0 / m)
            return SynthesisResult(
                weights=fallback,
                attributes=list(problem.attributes),
                error=int(problem.error_of(fallback)),
                objective=float("inf"),
                optimal=False,
                method="ordinal_regression",
                solve_time=elapsed,
                diagnostics={"k": problem.k, "status": solution.status.value},
            )

        weights = np.asarray(solution.x[:m], dtype=float)
        weights[weights < 0] = 0.0
        error = problem.error_of(weights)
        return SynthesisResult(
            weights=weights,
            attributes=list(problem.attributes),
            error=int(error),
            objective=float(solution.objective),
            optimal=False,
            method="ordinal_regression",
            solve_time=elapsed,
            diagnostics={
                "k": problem.k,
                "score_penalty": float(solution.objective),
                **pairs,
            },
        )
