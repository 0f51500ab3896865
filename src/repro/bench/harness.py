"""Problem builders and the method registry used by every benchmark.

The paper evaluates on the NBA and CSRankings datasets and on large synthetic
datasets; DESIGN.md documents the synthetic stand-ins used here.  The builders
in this module produce :class:`~repro.core.problem.RankingProblem` instances
with the paper's per-dataset tolerance settings, and :func:`run_method`
dispatches an algorithm by name with a consistent time/size budget so that the
per-figure experiment scripts stay small.

Scale.  The authors ran on a 128 GB Xeon server with Gurobi and multi-hour
budgets; this reproduction runs on a laptop with a pure-Python MILP substrate.
:class:`BenchmarkScale` therefore defaults to sizes where every method
finishes in seconds-to-minutes while preserving the paper's qualitative
comparisons; set the environment variable ``REPRO_BENCH_SCALE=paper`` to use
the paper's parameter values (expect very long runtimes).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.api.registry import get_method
from repro.core.problem import RankingProblem, ToleranceSettings
from repro.core.result import SynthesisResult
from repro.data.csrankings import (
    CSRANKINGS_AREAS,
    csrankings_default_scores,
    generate_csrankings_dataset,
)
from repro.data.derived import add_power_attributes
from repro.data.nba import (
    NBA_RANKING_ATTRIBUTES,
    generate_nba_dataset,
    mvp_panel_ranking,
    per_scores,
)
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_synthetic

__all__ = [
    "BenchmarkScale",
    "MethodBudget",
    "nba_problem",
    "nba_mvp_problem",
    "csrankings_problem",
    "synthetic_problem",
    "budget_params",
    "run_method",
]


@dataclass(frozen=True)
class BenchmarkScale:
    """Dataset sizes used by the experiment scripts.

    ``laptop`` (default) keeps every experiment in the seconds-to-minutes
    range on a single core; ``paper`` uses the paper's sizes.
    """

    name: str
    nba_tuples: int
    csrankings_tuples: int
    synthetic_tuples: int
    rankhow_time_limit: float
    symgd_time_limit: float
    tree_time_limit: float

    @classmethod
    def from_environment(cls) -> "BenchmarkScale":
        """Pick the scale from ``REPRO_BENCH_SCALE`` (``laptop`` or ``paper``)."""
        name = os.environ.get("REPRO_BENCH_SCALE", "laptop").lower()
        if name == "paper":
            return cls(
                name="paper",
                nba_tuples=22840,
                csrankings_tuples=628,
                synthetic_tuples=1_000_000,
                rankhow_time_limit=3600.0,
                symgd_time_limit=3600.0,
                tree_time_limit=16 * 3600.0,
            )
        return cls(
            name="laptop",
            nba_tuples=400,
            csrankings_tuples=160,
            synthetic_tuples=4000,
            rankhow_time_limit=20.0,
            symgd_time_limit=15.0,
            tree_time_limit=20.0,
        )


@dataclass
class MethodBudget:
    """Per-method budgets forwarded by :func:`run_method`.

    Attributes:
        time_limit: Wall-clock limit in seconds.
        node_limit: Branch-and-bound node limit (exact methods).
        samples: Sample budget for the sampling baseline.
        cell_size: SYM-GD cell size.
        seed: Random seed for stochastic methods.
        warm_start: Optional weight vector handed to the exact solver as its
            initial incumbent (a MIP start).  The experiment scripts pass the
            best competitor solution here so that the exact search starts from
            the strongest known point -- the role Gurobi's built-in primal
            heuristics play in the paper's setup.
    """

    time_limit: float | None = 20.0
    node_limit: int = 300
    samples: int = 2000
    cell_size: float = 0.1
    seed: int = 0
    warm_start: np.ndarray | None = None


# -- dataset / problem builders -----------------------------------------------------


_NBA_TOLERANCES = ToleranceSettings(tie_eps=5e-5, eps1=1e-4, eps2=0.0)
_CSRANKINGS_TOLERANCES = ToleranceSettings(tie_eps=5e-3, eps1=1e-2, eps2=0.0)
_SYNTHETIC_TOLERANCES = ToleranceSettings(tie_eps=5e-6, eps1=1e-5, eps2=0.0)


def nba_problem(
    num_tuples: int = 400,
    num_attributes: int = 5,
    k: int = 6,
    seed: int = 7,
) -> RankingProblem:
    """NBA-like problem ranked by the opaque ``MP * PER`` function (Figures 3a-3d).

    Attributes are min-max normalized so the paper's NBA epsilon settings
    (``eps=5e-5``, ``eps1=1e-4``, ``eps2=0``) are meaningful.
    """
    relation = generate_nba_dataset(num_players=num_tuples, seed=seed)
    attributes = NBA_RANKING_ATTRIBUTES[:num_attributes]
    scores = relation.column("MP").astype(float) * per_scores(relation)
    ranking = ranking_from_scores(scores, k=k)
    normalized = relation.normalized(attributes)
    return RankingProblem(
        normalized, ranking, attributes=attributes, tolerances=_NBA_TOLERANCES
    )


def nba_mvp_problem(
    num_tuples: int = 400,
    num_candidates: int = 13,
    num_attributes: int = 8,
    seed: int = 7,
) -> RankingProblem:
    """The Section VI-B case study: MVP panel ranking over the voted players."""
    relation = generate_nba_dataset(num_players=num_tuples, seed=seed)
    vote = mvp_panel_ranking(relation, num_candidates=num_candidates, seed=seed + 4)
    candidates = relation.take(vote.candidate_indices)
    attributes = NBA_RANKING_ATTRIBUTES[:num_attributes]
    normalized = candidates.normalized(attributes)
    return RankingProblem(
        normalized,
        vote.ranking,
        attributes=attributes,
        tolerances=_NBA_TOLERANCES,
    )


def csrankings_problem(
    num_tuples: int = 160,
    num_attributes: int = 10,
    k: int = 10,
    seed: int = 23,
) -> RankingProblem:
    """CSRankings-like problem ranked by the default geometric-mean formula."""
    relation = generate_csrankings_dataset(num_institutions=num_tuples, seed=seed)
    scores = csrankings_default_scores(relation)
    ranking = ranking_from_scores(scores, k=k)
    attributes = CSRANKINGS_AREAS[:num_attributes]
    normalized = relation.normalized(CSRANKINGS_AREAS)
    return RankingProblem(
        normalized, ranking, attributes=attributes, tolerances=_CSRANKINGS_TOLERANCES
    )


def synthetic_problem(
    distribution: str = "uniform",
    num_tuples: int = 4000,
    num_attributes: int = 5,
    k: int = 10,
    exponent: float = 3.0,
    seed: int = 0,
    with_derived: bool = False,
) -> RankingProblem:
    """Synthetic problem ranked by the non-linear function ``sum_i A_i^p``.

    Args:
        distribution: ``"uniform"``, ``"correlated"`` or ``"anticorrelated"``.
        num_tuples: Relation size.
        num_attributes: Number of original ranking attributes.
        k: Length of the given ranking.
        exponent: Exponent ``p`` of the hidden ranking function.
        seed: Random seed.
        with_derived: Also add the squared attributes ``A_i^2`` to the problem
            (Figures 3m-3o).
    """
    relation = generate_synthetic(distribution, num_tuples, num_attributes, seed=seed)
    original = [f"A{i + 1}" for i in range(num_attributes)]
    scores = np.sum(np.power(relation.matrix(original), exponent), axis=1)
    ranking = ranking_from_scores(scores, k=k)
    attributes = list(original)
    if with_derived:
        relation, derived = add_power_attributes(relation, original, power=2.0)
        attributes = original + derived
    return RankingProblem(
        relation, ranking, attributes=attributes, tolerances=_SYNTHETIC_TOLERANCES
    )


# -- method dispatch ----------------------------------------------------------------


def budget_params(name: str, budget: MethodBudget) -> dict:
    """Translate a :class:`MethodBudget` into wire options for one method.

    The mapping mirrors the paper's per-method budget conventions: the exact
    solver gets the full node budget and verification, SYM-GD gets half the
    node budget per cell (cells are small) and no verification, TREE gets
    only the wall clock, and the stochastic baseline gets the sample budget.
    """
    if name == "rankhow":
        return {
            "time_limit": budget.time_limit,
            "node_limit": budget.node_limit,
            "verify": True,
            "warm_start": budget.warm_start,
        }
    if name in ("symgd", "symgd_adaptive"):
        params = {
            "time_limit": budget.time_limit,
            "solver_options": {
                "node_limit": max(budget.node_limit // 2, 50),
                "verify": False,
                "warm_start_strategy": "none",
            },
        }
        if name == "symgd":
            # The adaptive variant's starting cell size is the registry
            # default (one source of truth); the fixed variant's cell size
            # is a genuine budget knob.
            params["cell_size"] = budget.cell_size
        return params
    if name in ("tree", "tree_naive"):
        # The case study runs TREE to (near) exhaustion: override the
        # registry's service-friendly caps with the offline-scale budgets.
        return {"time_limit": budget.time_limit, "node_limit": 2_000_000}
    if name == "sampling":
        return {
            "num_samples": budget.samples,
            "time_limit": budget.time_limit,
            "seed": budget.seed,
        }
    return {}


def run_method(
    name: str,
    problem: RankingProblem,
    budget: MethodBudget | None = None,
) -> SynthesisResult:
    """Run one algorithm on one problem with a consistent budget.

    Dispatches through the :mod:`repro.api` method registry, so every
    registered name (see :func:`repro.api.list_methods`) is reachable.

    Args:
        name: A registered method name.
        problem: The problem instance.
        budget: Time / node / sample budgets; defaults to modest laptop limits.
    """
    budget = budget or MethodBudget()
    return get_method(name).synthesize(problem, budget_params(name, budget))


def timed_run(
    name: str, problem: RankingProblem, budget: MethodBudget | None = None
) -> tuple[SynthesisResult, float]:
    """Run a method and also report wall-clock time measured by the harness."""
    start = time.perf_counter()
    result = run_method(name, problem, budget)
    return result, time.perf_counter() - start
