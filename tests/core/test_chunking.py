"""The data-plane chunking policy and its telemetry counters."""

from __future__ import annotations

import pytest

from repro.core import chunking


@pytest.fixture(autouse=True)
def _clean_counters():
    chunking.reset_counters()
    yield
    chunking.reset_counters()


def test_explicit_chunk_rows_wins_over_the_budget():
    assert chunking.chunk_rows_for(10**9, 100, chunk_rows=7) == 7
    assert chunking.chunk_rows_for(1, 100, chunk_rows=500) == 100  # clamped
    with pytest.raises(ValueError):
        chunking.chunk_rows_for(1, 100, chunk_rows=0)


def test_auto_chunking_respects_the_budget():
    with chunking.memory_budget(1.0):  # 1 MB
        rows = chunking.chunk_rows_for(1024, 10_000)
        assert rows * 1024 <= 1024 * 1024
        assert rows >= 1
    # Small problems stay single-shot under the default budget.
    assert chunking.chunk_rows_for(1024, 100) == 100


def test_one_row_over_budget_still_proceeds():
    with chunking.memory_budget(0.001):
        assert chunking.chunk_rows_for(10**9, 50) == 1


def test_budget_context_restores_and_validates():
    before = chunking.memory_budget_bytes()
    with chunking.memory_budget(2.0):
        assert chunking.memory_budget_bytes() == 2 * 1024 * 1024
    assert chunking.memory_budget_bytes() == before
    with pytest.raises(ValueError):
        with chunking.memory_budget(-1.0):
            pass
    with pytest.raises(RuntimeError):
        with chunking.memory_budget(1.0):
            raise RuntimeError("the budget is restored on the way out")
    assert chunking.memory_budget_bytes() == int(
        chunking.DEFAULT_MEMORY_BUDGET_MB * 1024 * 1024
    )


def test_counters_track_chunked_evaluations():
    assert chunking.counters()["chunked_evals_total"] == 0
    chunking.record_chunked_eval(4096)
    chunking.record_chunked_eval(1024)  # peak keeps the high-water mark
    snapshot = chunking.counters()
    assert snapshot["chunked_evals_total"] == 2
    assert snapshot["peak_chunk_bytes"] == 4096
    chunking.reset_counters()
    snapshot = chunking.counters()
    assert snapshot["chunked_evals_total"] == 0
    assert snapshot["peak_chunk_bytes"] == 0
    # The budget itself survives a counter reset.
    assert snapshot["memory_budget_bytes"] == chunking.memory_budget_bytes()


def test_chunked_paths_count_once_per_evaluation():
    from repro.core.cells import CellBoundEvaluator, grid_cells
    from repro.scenarios import generate_one

    problem = generate_one("tied_scores", 0, 7).problem
    cells = grid_cells(problem.num_attributes, 0.5, max_cells=4)
    CellBoundEvaluator(problem, streaming=False).bounds_many(cells)
    assert chunking.counters()["chunked_evals_total"] == 0
    CellBoundEvaluator(problem, streaming=True).bounds_many(cells)
    assert chunking.counters()["chunked_evals_total"] == 1
    assert chunking.counters()["peak_chunk_bytes"] > 0
