"""Tests for the benchmark problem builders and method dispatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro import list_methods
from repro.bench.harness import (
    BenchmarkScale,
    MethodBudget,
    csrankings_problem,
    nba_mvp_problem,
    nba_problem,
    run_method,
    synthetic_problem,
    timed_run,
)


def test_benchmark_scale_from_environment(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    laptop = BenchmarkScale.from_environment()
    assert laptop.name == "laptop"
    monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
    paper = BenchmarkScale.from_environment()
    assert paper.name == "paper"
    assert paper.nba_tuples == 22840
    assert paper.synthetic_tuples == 1_000_000


def test_nba_problem_builder():
    problem = nba_problem(num_tuples=120, num_attributes=5, k=4)
    assert problem.num_tuples == 120
    assert problem.num_attributes == 5
    assert problem.k == 4
    # Attributes are normalized into [0, 1].
    assert problem.matrix.min() >= 0.0 and problem.matrix.max() <= 1.0
    assert problem.tolerances.eps1 == pytest.approx(1e-4)


def test_nba_mvp_problem_builder():
    problem = nba_mvp_problem(num_tuples=150, num_candidates=9)
    assert problem.num_tuples == 9
    assert problem.k == 9
    assert problem.num_attributes == 8


def test_csrankings_problem_builder():
    problem = csrankings_problem(num_tuples=80, num_attributes=12, k=6)
    assert problem.num_tuples == 80
    assert problem.num_attributes == 12
    assert problem.k == 6
    assert problem.tolerances.tie_eps == pytest.approx(5e-3)


@pytest.mark.parametrize("distribution", ["uniform", "correlated", "anticorrelated"])
def test_synthetic_problem_builder(distribution):
    problem = synthetic_problem(distribution, num_tuples=200, num_attributes=4, k=5)
    assert problem.num_tuples == 200
    assert problem.num_attributes == 4
    derived = synthetic_problem(
        distribution, num_tuples=200, num_attributes=4, k=5, with_derived=True
    )
    assert derived.num_attributes == 8


@pytest.mark.parametrize(
    "method",
    ["linear_regression", "ordinal_regression", "adarank", "sampling", "symgd"],
)
def test_run_method_fast_methods(method):
    problem = synthetic_problem("uniform", num_tuples=60, num_attributes=3, k=3, seed=1)
    budget = MethodBudget(time_limit=10.0, node_limit=50, samples=100)
    result = run_method(method, problem, budget)
    assert result.error >= 0
    assert result.weights.shape == (3,)


def test_run_method_exact_and_tree():
    problem = synthetic_problem("uniform", num_tuples=25, num_attributes=3, k=3, seed=2)
    budget = MethodBudget(time_limit=15.0, node_limit=100)
    exact = run_method("rankhow", problem, budget)
    tree = run_method("tree", problem, budget)
    assert exact.error >= 0
    assert tree.error >= 0
    # Exact search should never report a worse error than the heuristics.
    assert exact.error <= tree.error or not tree.optimal


def test_run_method_unknown_name():
    problem = synthetic_problem("uniform", num_tuples=20, num_attributes=3, k=2)
    with pytest.raises(ValueError):
        run_method("gradient_boosting", problem)


def test_method_names_are_all_dispatchable():
    problem = synthetic_problem("uniform", num_tuples=15, num_attributes=3, k=2, seed=3)
    budget = MethodBudget(time_limit=5.0, node_limit=20, samples=50)
    for name in list_methods():
        result = run_method(name, problem, budget)
        assert result.error >= -1


def test_timed_run_reports_wall_clock():
    problem = synthetic_problem("uniform", num_tuples=30, num_attributes=3, k=3, seed=4)
    result, elapsed = timed_run("sampling", problem, MethodBudget(samples=50))
    assert elapsed >= 0.0
    assert result.method == "sampling"
