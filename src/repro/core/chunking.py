"""Bounded-memory chunking policy for the streaming data plane.

One module-level memory budget governs every chunked pass over a relation
(the streaming :class:`~repro.core.cells.CellBoundEvaluator`, the
rank-dominance prune scan, the problem fingerprint digest, the streaming
relation generator): callers describe the per-row transient footprint of
the block they want to materialize and get back a row count that keeps
that block under budget.  An explicit ``chunk_rows`` always wins; the
budget only shapes the *auto* choice, so small problems keep taking the
single-shot path.  The budget is a constant; :func:`memory_budget`
overrides it for the length of a ``with`` block (tests, bench legs).

The module also owns the data-plane telemetry the engine exports:
``chunked_evals_total`` (evaluations that actually took a chunked path)
and ``peak_chunk_bytes`` (high-water transient block size), read by
``SolveEngine.stats()`` and the ``repro_engine_*`` metric collectors.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = [
    "DEFAULT_MEMORY_BUDGET_MB",
    "memory_budget_bytes",
    "memory_budget",
    "chunk_rows_for",
    "record_chunked_eval",
    "counters",
    "reset_counters",
]

DEFAULT_MEMORY_BUDGET_MB = 64.0

_lock = threading.Lock()
_budget_bytes = int(DEFAULT_MEMORY_BUDGET_MB * 1024 * 1024)
_chunked_evals_total = 0
_peak_chunk_bytes = 0


def memory_budget_bytes() -> int:
    """The current transient-block memory budget, in bytes."""
    return _budget_bytes


@contextmanager
def memory_budget(budget_mb: float):
    """Set the data-plane memory budget for the length of a ``with`` block.

    The budget bounds the *transient* blocks a chunked evaluation
    materializes at once (pair-difference blocks, scan blocks), not the
    resident size of the relation itself.
    """
    global _budget_bytes
    if budget_mb <= 0:
        raise ValueError("memory budget must be positive")
    with _lock:
        previous, _budget_bytes = _budget_bytes, int(budget_mb * 1024 * 1024)
    try:
        yield
    finally:
        with _lock:
            _budget_bytes = previous


def chunk_rows_for(
    row_bytes: int, total_rows: int, chunk_rows: int | None = None
) -> int:
    """Rows per block for a transient that costs ``row_bytes`` per row.

    An explicit ``chunk_rows`` wins verbatim (clamped to at least 1);
    otherwise the block is sized so ``rows * row_bytes`` stays under the
    module budget.  Returns at least 1 row -- a single row over budget is
    processed anyway (it cannot be split further).
    """
    if chunk_rows is not None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be at least 1")
        return min(int(chunk_rows), max(int(total_rows), 1))
    if total_rows <= 1 or row_bytes <= 0:
        return max(int(total_rows), 1)
    rows = _budget_bytes // int(row_bytes)
    return int(min(max(rows, 1), total_rows))


def record_chunked_eval(chunk_bytes: int) -> None:
    """Count one evaluation that took a chunked path."""
    global _chunked_evals_total, _peak_chunk_bytes
    with _lock:
        _chunked_evals_total += 1
        if chunk_bytes > _peak_chunk_bytes:
            _peak_chunk_bytes = int(chunk_bytes)


def counters() -> dict:
    """Data-plane telemetry snapshot (engine stats / metric collectors)."""
    with _lock:
        return {
            "chunked_evals_total": _chunked_evals_total,
            "peak_chunk_bytes": _peak_chunk_bytes,
            "memory_budget_bytes": _budget_bytes,
        }


def reset_counters() -> None:
    """Zero the counters (the budget itself is left alone)."""
    global _chunked_evals_total, _peak_chunk_bytes
    with _lock:
        _chunked_evals_total = 0
        _peak_chunk_bytes = 0
