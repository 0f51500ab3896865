"""Hot-path micro-benchmarks: batched cells, matrix SYM-GD.

Guards two solver hot paths reworked for performance (see the README's
"Performance" section) and seeds the repository's perf trajectory: every run
rewrites ``BENCH_hotpaths.json`` at the repository root with the measured
numbers, CI uploads the file as an artifact, and the committed copy is the
baseline snapshot from the container the numbers were first taken on.

Assertions are correctness-first and deliberately loose on wall-clock (the CI
container often has a single CPU):

* the **batched** cell-bound classifier must reproduce the scalar reference
  bounds exactly and not be slower than the loop it replaced;
* **matrix multi-seed SYM-GD** must reproduce the reference per-seed errors
  exactly, with only a loose wall-clock bound.

Each timed leg inside the experiment rebuilds its problems and solvers from
scratch, so no warm state (LP matrices, solver caches, fingerprint memos)
leaks from one timed variant into the next.
"""

from __future__ import annotations

import json
from pathlib import Path

from conftest import bench_scale

from repro.bench.experiments import experiment_hotpaths
from repro.bench.reporting import ascii_table

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json"


def _by_experiment(records, name):
    return [record for record in records if record.experiment == name]


def _write_baseline(records) -> None:
    payload = {
        "schema": 1,
        "experiment": "hotpaths",
        "records": [record.as_row() for record in records],
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_hotpaths(benchmark):
    records = benchmark.pedantic(
        lambda: experiment_hotpaths(scale=bench_scale()),
        rounds=1,
        iterations=1,
    )
    print()
    print(ascii_table(records, title="Hot paths: cells / seeds"))
    _write_baseline(records)

    # -- batched cell bounds --------------------------------------------------
    cells = {r.method: r for r in _by_experiment(records, "hotpaths_cells")}
    reference = cells["cell_bounds[reference]"]
    batched = cells["cell_bounds[batched]"]
    assert batched.extra["matches_reference"]
    assert batched.error == reference.error
    # Loose for 1-CPU CI: the batched classifier is typically 4-10x faster;
    # only regressions that erase the win entirely should fail.
    assert batched.time_seconds <= reference.time_seconds * 1.2

    # -- matrix multi-seed SYM-GD --------------------------------------------
    seeds = {r.method: r for r in _by_experiment(records, "hotpaths_seeds")}
    serial = seeds["multiseed[reference]"]
    matrix = seeds["multiseed[matrix]"]
    assert matrix.extra["per_seed_errors"] == serial.extra["per_seed_errors"]
    assert matrix.extra["iterations"] == serial.extra["iterations"]
    assert matrix.error == serial.error
    # Cell solves dominate both paths; the matrix driver only sheds Python
    # overhead, so just require it never becomes materially slower.
    assert matrix.time_seconds <= serial.time_seconds * 1.5
