"""Tests for symbolic gradient descent (Algorithms 1 and 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import RankingProblem
from repro.core.rankhow import RankHow, RankHowOptions
from repro.core.symgd import SymGD, SymGDOptions
from repro.data.rankings import ranking_from_scores
from repro.data.relation import Relation
from repro.data.synthetic import generate_uniform

_FAST_SOLVER = RankHowOptions(node_limit=200, verify=False, warm_start_strategy="none")


def _options(**kwargs) -> SymGDOptions:
    defaults = dict(cell_size=0.2, solver_options=_FAST_SOLVER)
    defaults.update(kwargs)
    return SymGDOptions(**defaults)


def test_symgd_reaches_zero_on_linear_ranking(linear_problem):
    result = SymGD(_options()).solve(linear_problem)
    assert result.error == 0
    assert result.method == "symgd"
    assert not result.optimal  # SYM-GD never claims global optimality


def test_symgd_never_worse_than_its_seed(nonlinear_problem):
    result = SymGD(_options()).solve(nonlinear_problem)
    assert result.error <= result.diagnostics["seed_error"]


def test_symgd_with_explicit_seed_point(nonlinear_problem):
    seed = np.array([0.7, 0.1, 0.1, 0.1])
    result = SymGD(_options(seed_point=seed)).solve(nonlinear_problem)
    assert result.error <= nonlinear_problem.error_of(seed / seed.sum())
    assert np.allclose(result.diagnostics["seed"], seed / seed.sum())


def test_symgd_invalid_seed_point(nonlinear_problem):
    with pytest.raises(ValueError):
        SymGD(_options(seed_point=np.array([0.5, 0.5]))).solve(nonlinear_problem)
    with pytest.raises(ValueError):
        SymGD(_options(seed_point=np.zeros(4))).solve(nonlinear_problem)


@pytest.mark.parametrize("strategy", ["uniform", "linear_regression", "ordinal_regression", "grid"])
def test_symgd_seed_strategies(strategy, nonlinear_problem):
    result = SymGD(_options(seed_strategy=strategy, max_iterations=3)).solve(
        nonlinear_problem
    )
    assert result.error >= 0
    seed = result.diagnostics["seed"]
    assert seed.shape == (4,)
    assert seed.sum() == pytest.approx(1.0, abs=1e-6)


def test_symgd_adaptive_grows_the_cell(nonlinear_problem):
    options = _options(cell_size=0.01, adaptive=True, max_iterations=8, time_limit=20.0)
    result = SymGD(options).solve(nonlinear_problem)
    assert result.method == "symgd-adaptive"
    assert result.diagnostics["final_cell_size"] >= 0.01
    assert result.error >= 0


def test_symgd_respects_time_limit(nonlinear_problem):
    options = _options(time_limit=0.0, max_iterations=50)
    result = SymGD(options).solve(nonlinear_problem)
    # With no time the result equals the seed evaluation.
    assert result.iterations == 0
    assert result.error == result.diagnostics["seed_error"]


def test_symgd_max_iterations_cap(nonlinear_problem):
    options = _options(max_iterations=1)
    result = SymGD(options).solve(nonlinear_problem)
    assert result.iterations <= 1


def test_symgd_trajectory_is_monotone_non_increasing(nonlinear_problem):
    result = SymGD(_options(max_iterations=6)).solve(nonlinear_problem)
    errors = [error for _, error in result.diagnostics["trajectory"]]
    assert all(later <= earlier for earlier, later in zip(errors, errors[1:]))


def test_symgd_larger_cells_do_not_hurt_final_error():
    relation = generate_uniform(40, 3, seed=17)
    scores = np.sum(relation.matrix() ** 2, axis=1)
    problem = RankingProblem(relation, ranking_from_scores(scores, k=4))
    small = SymGD(_options(cell_size=0.02, max_iterations=4, seed_strategy="uniform")).solve(problem)
    large = SymGD(_options(cell_size=0.5, max_iterations=4, seed_strategy="uniform")).solve(problem)
    assert large.error <= small.error + 1  # larger neighbourhoods see more of the space


def test_adaptive_final_solve_respects_the_time_budget(monkeypatch):
    # A sum-of-squares ranking no linear scorer reproduces: the descent gets
    # stuck at every cell size and doubles its way up to max_cell_size.
    rng = np.random.default_rng(0)
    matrix = rng.uniform(size=(30, 3))
    problem = RankingProblem(
        Relation.from_matrix(matrix),
        ranking_from_scores(np.sum(matrix**2, axis=1), k=6),
    )
    limits = []
    solve = RankHow.solve

    def recording_solve(self, *args, **kwargs):
        limits.append(self.options.time_limit)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(RankHow, "solve", recording_solve)
    options = SymGDOptions(
        cell_size=0.05,
        adaptive=True,
        max_cell_size=0.2,
        time_limit=30.0,
        solver_options=RankHowOptions(warm_start_strategy="none"),
    )
    result = SymGD(options).solve(problem)
    assert result.diagnostics["final_cell_size"] == options.max_cell_size
    assert limits
    assert all(limit is not None and limit <= 30.0 for limit in limits), limits


def test_symgd_reports_lp_iteration_totals(nonlinear_problem):
    options = SymGDOptions(
        cell_size=0.25,
        max_iterations=3,
        solver_options=RankHowOptions(
            node_limit=40,
            verify=False,
            warm_start_strategy="none",
        ),
    )
    result = SymGD(options).solve(nonlinear_problem)
    assert result.diagnostics["lp_iterations"] >= 0
    assert isinstance(result.diagnostics["lp_iterations"], int)


def test_time_limited_descent_preserves_solver_extras(nonlinear_problem, monkeypatch):
    """The per-step time-budgeted options clone must keep error_weights.

    Regression test: the clone used to copy a hand-picked subset of fields,
    silently dropping weighted objectives whenever a time limit was set.
    """
    from repro.core import symgd as symgd_module

    seen: list[dict] = []
    real_init = symgd_module.RankHow.__init__

    def spy_init(self, options=None):
        if options is not None:
            seen.append(options.to_dict())
        return real_init(self, options)

    monkeypatch.setattr(symgd_module.RankHow, "__init__", spy_init)
    options = SymGDOptions(
        cell_size=0.3,
        max_iterations=2,
        time_limit=30.0,
        solver_options=RankHowOptions(
            node_limit=40,
            verify=False,
            warm_start_strategy="none",
            error_weights={0: 2.0, 3: 0.5},
        ),
    )
    SymGD(options).solve(nonlinear_problem)
    stepped = [opts for opts in seen if opts["time_limit"] is not None]
    assert stepped, "the time-limited path never built a budgeted solver"
    for opts in stepped:
        assert opts["error_weights"] == {"0": 2.0, "3": 0.5}
        assert opts["node_limit"] == 40
