"""Linear and mixed-integer linear programming substrate.

The RankHow paper relies on Gurobi, a commercial MILP solver.  This package
provides the equivalent substrate on top of the HiGHS solver that ships with
SciPy:

* :mod:`repro.solvers.lp` -- a general LP model (bounds, inequalities,
  equalities) handed to HiGHS through SciPy's bundled binding, prepared
  once per row change; a first solve is cold, a re-solve starts from the
  previous basis.
* :mod:`repro.solvers.milp` -- a mixed-integer model with binary variables and
  indicator constraints encoded through tight big-M rows, stored as one
  sparse (CSR) row matrix.
* :mod:`repro.solvers.highs_milp` -- the model's big-M relaxation with its
  binaries marked integral, handed to HiGHS's own branch-and-cut; RankHow
  solves the whole simplex with it.
* :mod:`repro.solvers.branch_and_bound` -- a best-first branch-and-bound MILP
  solver with incumbent callbacks and rounding heuristics, pruning nodes by
  bound; RankHow solves SYM-GD's cells with it.
"""

from repro.solvers.lp import LinearProgram, LPSolution, LPStatus
from repro.solvers.milp import MILPModel, MILPSolution, MILPStatus, ModelRows
from repro.solvers.branch_and_bound import BranchAndBoundSolver, SolverOptions
from repro.solvers.highs_milp import HighsMILPSolver

__all__ = [
    "LinearProgram",
    "LPSolution",
    "LPStatus",
    "MILPModel",
    "ModelRows",
    "MILPSolution",
    "MILPStatus",
    "BranchAndBoundSolver",
    "SolverOptions",
    "HighsMILPSolver",
]
