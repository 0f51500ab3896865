"""Shared configuration for the per-figure benchmarks.

Each benchmark wraps one experiment from :mod:`repro.bench.experiments`.  The
default scale here is intentionally small so that the full
``pytest benchmarks/ --benchmark-only`` run completes in tens of minutes on a
laptop while preserving the paper's qualitative comparisons; export
``REPRO_BENCH_SCALE=paper`` (and expect very long runtimes) or edit
``BENCH_SCALE`` to enlarge the workloads.

Benchmarks that keep a perf baseline write their run's records with
:func:`write_baseline` to ``.bench/BENCH_<name>.json`` under the repository
root (git-ignored; CI uploads the directory's files as artifacts).  A
committed ``BENCH_*.json`` at the repository root changes only when a run's
file is copied over it, so running the suite never rewrites the baselines.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.bench.harness import BenchmarkScale

#: Where each run's ``BENCH_<name>.json`` lands (see the module docstring).
RUN_DIR = Path(__file__).resolve().parent.parent / ".bench"


def bench_scale() -> BenchmarkScale:
    """Scale used by the benchmark wrappers (env-var override supported)."""
    if os.environ.get("REPRO_BENCH_SCALE", "").lower() == "paper":
        return BenchmarkScale.from_environment()
    return BenchmarkScale(
        name="bench",
        nba_tuples=200,
        csrankings_tuples=100,
        synthetic_tuples=1500,
        rankhow_time_limit=10.0,
        symgd_time_limit=8.0,
        tree_time_limit=10.0,
    )


def write_baseline(name: str, records, **fields) -> Path:
    """Write one run's records to ``.bench/BENCH_<name>.json``; return the path.

    ``fields`` adds top-level keys next to ``schema``, ``experiment`` and
    ``records``.
    """
    payload = {
        "schema": 1,
        "experiment": name,
        **fields,
        "records": [record.as_row() for record in records],
    }
    RUN_DIR.mkdir(exist_ok=True)
    path = RUN_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
