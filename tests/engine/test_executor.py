"""Executor backends: ordered results, parity across backends, lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.sampling import SamplingBaseline, SamplingOptions
from repro.core.rankhow import RankHowOptions
from repro.core.symgd import SymGD, SymGDOptions, default_seed_points
from repro.engine.executor import (
    BACKEND_NAMES,
    ProcessExecutor,
    SerialExecutor,
    available_cpu_count,
    get_executor,
)

BACKENDS = list(BACKEND_NAMES)


def _square(value):
    return value * value


@pytest.mark.parametrize("backend", BACKENDS)
def test_map_cells_preserves_order(backend):
    with get_executor(backend, max_workers=2) as executor:
        assert executor.map_cells(_square, range(20)) == [i * i for i in range(20)]
        assert executor.stats.batches == 1
        assert executor.stats.tasks == 20


def test_get_executor_resolves_names_and_instances():
    assert isinstance(get_executor("serial"), SerialExecutor)
    assert isinstance(get_executor("process"), ProcessExecutor)
    existing = SerialExecutor()
    assert get_executor(existing) is existing
    auto = get_executor("auto")
    expected = ProcessExecutor if available_cpu_count() > 1 else SerialExecutor
    assert isinstance(auto, expected)
    with pytest.raises(ValueError):
        get_executor("gpu")
    with pytest.raises(ValueError):
        get_executor("thread")


def test_executor_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        SerialExecutor(max_workers=-1)
    with pytest.raises(ValueError):
        # 0 must not silently mean "all CPUs".
        ProcessExecutor(max_workers=0)


@pytest.mark.parametrize("adaptive", [False, True])
def test_multi_seed_symgd_parity_across_backends(nonlinear_problem, adaptive):
    options = SymGDOptions(
        cell_size=0.2,
        adaptive=adaptive,
        max_iterations=4,
        max_cell_size=0.9,
        solver_options=RankHowOptions(
            node_limit=60, verify=False, warm_start_strategy="none"
        ),
    )
    solver = SymGD(options)
    seeds = default_seed_points(nonlinear_problem, 3)
    reference = solver.solve_multi_seed(nonlinear_problem, seeds=seeds)
    assert reference.method == (
        "symgd-adaptive-multiseed" if adaptive else "symgd-multiseed"
    )
    assert len(reference.diagnostics["per_seed_errors"]) == 3
    for backend in BACKENDS:
        with get_executor(backend, max_workers=2) as executor:
            result = solver.solve_multi_seed(
                nonlinear_problem, seeds=seeds, executor=executor
            )
        assert result.error == reference.error, backend
        assert np.allclose(result.weights, reference.weights), backend
        assert (
            result.diagnostics["per_seed_errors"]
            == reference.diagnostics["per_seed_errors"]
        ), backend


def test_sampling_parity_across_backends(nonlinear_problem):
    options = SamplingOptions(num_samples=300, chunk_size=100, seed=5)
    outcomes = {}
    for backend in BACKENDS:
        with get_executor(backend, max_workers=2) as executor:
            result = SamplingBaseline(options, executor=executor).solve(
                nonlinear_problem
            )
        outcomes[backend] = result
    reference = outcomes["serial"]
    assert reference.diagnostics["chunks"] == 3
    for backend, result in outcomes.items():
        assert result.error == reference.error, backend
        assert np.allclose(result.weights, reference.weights), backend
        assert result.iterations == reference.iterations, backend


def test_sampling_time_budget_stays_serial(nonlinear_problem):
    options = SamplingOptions(num_samples=50, time_limit=5.0)
    with get_executor("process", max_workers=2) as executor:
        result = SamplingBaseline(options, executor=executor).solve(nonlinear_problem)
    # The time-budgeted path has no chunk diagnostics (legacy serial search).
    assert "chunks" not in result.diagnostics
