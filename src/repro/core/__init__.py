"""The paper's primary contribution: RankHow, SYM-GD, TREE and their plumbing."""

from repro.core.ranking import UNRANKED, Ranking
from repro.core.scoring import LinearScoringFunction, induced_ranks, normalize_weights
from repro.core.metrics import (
    evaluate_function,
    inversions,
    kendall_tau,
    per_tuple_position_error,
    position_error,
    position_error_of_function,
    weighted_position_error,
)
from repro.core.constraints import (
    ConstraintSet,
    PositionRangeConstraint,
    PrecedenceConstraint,
    WeightConstraint,
    fix_weight,
    group_weight_bound,
    max_weight,
    min_weight,
)
from repro.core.problem import RankingProblem, ToleranceSettings
from repro.core.result import SynthesisResult
from repro.core.formulation import RankHowFormulation
from repro.core.precision import (
    VerificationReport,
    choose_epsilons,
    exact_position_error,
    find_tau,
    verify_weights,
)
from repro.core.rankhow import RankHow, RankHowOptions
from repro.core.tree import TreeOptions, TreeSolver
from repro.core.cells import Cell, cell_around, cell_error_bounds, grid_cells
from repro.core.seeds import (
    get_seed_strategy,
    grid_seed,
    linear_regression_seed,
    ordinal_regression_seed,
    uniform_seed,
)
from repro.core.symgd import SymGD, SymGDOptions

__all__ = [
    "UNRANKED",
    "Ranking",
    "LinearScoringFunction",
    "induced_ranks",
    "normalize_weights",
    "evaluate_function",
    "inversions",
    "kendall_tau",
    "per_tuple_position_error",
    "position_error",
    "position_error_of_function",
    "weighted_position_error",
    "ConstraintSet",
    "PositionRangeConstraint",
    "PrecedenceConstraint",
    "WeightConstraint",
    "fix_weight",
    "group_weight_bound",
    "max_weight",
    "min_weight",
    "RankingProblem",
    "ToleranceSettings",
    "SynthesisResult",
    "RankHowFormulation",
    "VerificationReport",
    "choose_epsilons",
    "exact_position_error",
    "find_tau",
    "verify_weights",
    "RankHow",
    "RankHowOptions",
    "TreeOptions",
    "TreeSolver",
    "Cell",
    "cell_around",
    "cell_error_bounds",
    "grid_cells",
    "get_seed_strategy",
    "grid_seed",
    "linear_regression_seed",
    "ordinal_regression_seed",
    "uniform_seed",
    "SymGD",
    "SymGDOptions",
]
