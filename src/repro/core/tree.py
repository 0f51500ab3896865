"""The arrangement-tree PTIME baseline (Theorem 1, and [31]'s algorithm).

TREE enumerates the partitions of weight space induced by the indicator
hyperplanes.  Starting from the whole simplex it picks one undecided indicator
``delta[s, r]`` at a time and asks, with an LP feasibility check, whether the
current region intersects the half-space where the indicator is 1
(``w.(s-r) >= eps1``) and/or where it is 0 (``w.(s-r) <= eps2``).  Feasible
children are explored recursively (depth-first by default, breadth-first like
the paper's footnote 4 on request).  At a leaf every indicator is decided, so
the position error of the region is a constant, and any feasible point of the
region is a witness weight vector.

The paper's point is that this guaranteed-PTIME strategy solves many LPs in
isolation and cannot share information across branches, which makes it orders
of magnitude slower than the holistic MILP solve.  The implementation offers
two switches used in the Section VI-B case study:

* ``use_separation_gap`` -- whether the ``eps1`` threshold is used when
  splitting (the paper shows that adding the gap shrinks the tree);
* ``prune_by_bound`` -- optional best-error pruning; disable it to get the
  "naive" enumeration the theorem describes.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.problem import RankingProblem
from repro.core.result import SynthesisResult
from repro.solvers.lp import LinearProgram

__all__ = ["TreeOptions", "TreeSolver"]


@dataclass
class TreeOptions:
    """Configuration of the TREE baseline.

    Attributes:
        time_limit: Wall-clock budget in seconds (the case study lets TREE run
            much longer than RankHow; benchmarks cap it).
        node_limit: Maximum number of tree nodes to expand.
        use_separation_gap: Split with ``eps1`` / ``eps2`` (the "+ eps1"
            variant of the case study); when ``False`` a tiny positive gap is
            used instead, mimicking the original algorithm.
        prune_by_bound: Prune subtrees whose partial error already exceeds the
            best complete error found so far.
        strategy: ``"dfs"`` (default) or ``"bfs"``.
    """

    time_limit: float | None = None
    node_limit: int = 2_000_000
    use_separation_gap: bool = True
    prune_by_bound: bool = True
    strategy: str = "dfs"

    def to_dict(self) -> dict:
        """Canonical JSON-serializable representation (for fingerprinting)."""
        return {
            "time_limit": None if self.time_limit is None else float(self.time_limit),
            "node_limit": int(self.node_limit),
            "use_separation_gap": bool(self.use_separation_gap),
            "prune_by_bound": bool(self.prune_by_bound),
            "strategy": self.strategy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TreeOptions":
        return cls(
            time_limit=data.get("time_limit"),
            node_limit=int(data.get("node_limit", 2_000_000)),
            use_separation_gap=bool(data.get("use_separation_gap", True)),
            prune_by_bound=bool(data.get("prune_by_bound", True)),
            strategy=data.get("strategy", "dfs"),
        )


@dataclass
class _TreeNode:
    depth: int
    assignment: list[int]  # -1 undecided, 0 or 1 decided, indexed like pairs


class TreeSolver:
    """Cell-enumeration solver for OPT (the PTIME baseline)."""

    def __init__(self, options: TreeOptions | None = None) -> None:
        self.options = options or TreeOptions()

    def solve(self, problem: RankingProblem) -> SynthesisResult:
        """Enumerate hyperplane cells and return the best scoring function."""
        options = self.options
        start = time.perf_counter()
        matrix = problem.matrix
        tolerances = problem.tolerances
        positions = problem.ranking.positions
        ranked = [int(r) for r in problem.top_k_indices()]
        n = problem.num_tuples

        eps1 = tolerances.eps1 if options.use_separation_gap else 1e-12
        eps2 = tolerances.eps2 if options.use_separation_gap else 0.0

        # Enumerate the undecided indicator pairs, grouping by ranked tuple so
        # that partial error bounds become informative early.
        pairs: list[tuple[int, int]] = []  # (s, r)
        fixed_value: dict[tuple[int, int], int] = {}
        fixed_ones = {r: 0 for r in ranked}
        for r in ranked:
            for s in range(n):
                if s == r:
                    continue
                diff = matrix[s] - matrix[r]
                low, high = float(diff.min()), float(diff.max())
                if low >= eps1:
                    fixed_value[(s, r)] = 1
                    fixed_ones[r] += 1
                elif high <= eps2:
                    fixed_value[(s, r)] = 0
                else:
                    pairs.append((s, r))

        pair_diffs = [matrix[s] - matrix[r] for (s, r) in pairs]
        pairs_of_tuple: dict[int, list[int]] = {r: [] for r in ranked}
        for index, (_, r) in enumerate(pairs):
            pairs_of_tuple[r].append(index)

        best_error = float("inf")
        best_weights: np.ndarray | None = None
        nodes_expanded = 0
        leaves = 0

        def base_lp() -> LinearProgram:
            lp = LinearProgram(problem.num_attributes)
            lp.set_all_bounds(
                np.zeros(problem.num_attributes), np.ones(problem.num_attributes)
            )
            lp.add_constraint(np.ones(problem.num_attributes), "==", 1.0)
            for row, sense, rhs in problem.constraints.weight_rows(problem.attributes):
                lp.add_constraint(row, sense, rhs)
            for precedence in problem.constraints.precedence_constraints:
                diff = matrix[precedence.above] - matrix[precedence.below]
                lp.add_constraint(diff, ">=", eps1)
            return lp

        def region_lp(assignment: list[int]) -> LinearProgram:
            lp = base_lp()
            for index, value in enumerate(assignment):
                if value == -1:
                    continue
                diff = pair_diffs[index]
                if value == 1:
                    lp.add_constraint(diff, ">=", eps1)
                else:
                    lp.add_constraint(diff, "<=", eps2)
            return lp

        def partial_error_bound(assignment: list[int]) -> int:
            total = 0
            for r in ranked:
                ones = fixed_ones[r]
                undecided = 0
                for index in pairs_of_tuple[r]:
                    if assignment[index] == 1:
                        ones += 1
                    elif assignment[index] == -1:
                        undecided += 1
                min_rank = 1 + ones
                max_rank = min_rank + undecided
                given = int(positions[r])
                if given < min_rank:
                    total += min_rank - given
                elif given > max_rank:
                    total += given - max_rank
            return total

        def leaf_error(assignment: list[int]) -> int:
            total = 0
            for r in ranked:
                ones = fixed_ones[r] + sum(
                    1 for index in pairs_of_tuple[r] if assignment[index] == 1
                )
                total += abs(1 + ones - int(positions[r]))
            return total

        def time_exceeded() -> bool:
            return (
                options.time_limit is not None
                and time.perf_counter() - start > options.time_limit
            )

        root = _TreeNode(0, [-1] * len(pairs))
        frontier: deque[_TreeNode] = deque([root])
        pop = frontier.pop if options.strategy == "dfs" else frontier.popleft

        while frontier:
            if nodes_expanded >= options.node_limit or time_exceeded():
                break
            node = pop()
            nodes_expanded += 1

            if options.prune_by_bound and partial_error_bound(node.assignment) >= best_error:
                continue

            if node.depth == len(pairs):
                leaves += 1
                error = leaf_error(node.assignment)
                if error < best_error:
                    solution = region_lp(node.assignment).solve()
                    if solution.is_optimal:
                        best_error = error
                        best_weights = np.asarray(solution.x[: problem.num_attributes])
                        if best_error == 0:
                            break
                continue

            index = node.depth
            for value in (0, 1):
                assignment = list(node.assignment)
                assignment[index] = value
                lp = region_lp(assignment)
                feasibility = lp.solve()
                if feasibility.is_optimal:
                    frontier.append(_TreeNode(node.depth + 1, assignment))

        elapsed = time.perf_counter() - start
        if best_weights is None:
            return SynthesisResult(
                weights=np.full(problem.num_attributes, np.nan),
                attributes=list(problem.attributes),
                error=-1,
                objective=float("inf"),
                optimal=False,
                method="tree",
                solve_time=elapsed,
                nodes=nodes_expanded,
                diagnostics={"status": "no_solution", "k": problem.k, "leaves": leaves},
            )

        # The search is conclusive when the frontier was exhausted within the
        # limits, or when a zero-error cell was found (nothing can beat it).
        exhausted = (not frontier and nodes_expanded < options.node_limit) or best_error == 0
        true_error = problem.error_of(best_weights)
        return SynthesisResult(
            weights=best_weights,
            attributes=list(problem.attributes),
            error=int(true_error),
            objective=float(best_error),
            optimal=exhausted,
            method="tree",
            solve_time=elapsed,
            nodes=nodes_expanded,
            diagnostics={
                "k": problem.k,
                "leaves": leaves,
                "pairs": len(pairs),
                "eliminated": len(fixed_value),
                "strategy": self.options.strategy,
            },
        )
