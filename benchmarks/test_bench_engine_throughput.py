"""Engine benchmark: executor speedup and result-cache effectiveness.

Not a figure of the paper -- this benchmark guards the execution substrate:

* the ``process`` backend must reach a >= 2x speedup over ``serial`` on the
  multi-seed SYM-GD workload when at least 4 cores are available (on smaller
  machines the speedup is reported but not asserted);
* both backends must produce identical results -- errors and weights of the
  multi-seed and sampling legs, errors of the query batch (the fan-out must
  not change the math);
* a repeated identical query batch must be answered entirely from the result
  cache without invoking any solver.

The run's records land in ``.bench/BENCH_engine.json``.
"""

from __future__ import annotations

from conftest import bench_scale, write_baseline

from repro.bench.experiments import experiment_engine_throughput
from repro.bench.reporting import ascii_table
from repro.engine import available_cpu_count

NUM_QUERIES = 12
NUM_SEEDS = 6


def _by_method(records):
    return {record.method: record for record in records}


def _assert_shapes(records):
    by_method = _by_method(records)

    # Backend parity: the fan-out must not change any result.
    for leg in ("multiseed", "sampling"):
        serial = by_method[f"{leg}[serial]"]
        process = by_method[f"{leg}[process]"]
        assert serial.error == process.error, leg
        assert serial.extra["weights"] == process.extra["weights"], leg
    assert (
        by_method["queries_cold[serial]"].error
        == by_method["queries_cold[process]"].error
    )

    for backend in ("serial", "process"):
        cold = by_method[f"queries_cold[{backend}]"]
        warm = by_method[f"queries_warm[{backend}]"]
        # The warm pass is answered from the cache: every query hits, and the
        # engine performs no additional solver invocations.
        assert warm.extra["cache_hits"] == NUM_QUERIES
        assert warm.extra["solver_invocations"] == cold.extra["solver_invocations"]
        assert warm.time_seconds < cold.time_seconds

    serial_time = by_method["multiseed[serial]"].time_seconds
    process_time = by_method["multiseed[process]"].time_seconds
    speedup = serial_time / max(process_time, 1e-9)
    cpus = available_cpu_count()
    print(f"\nmulti-seed speedup (serial/process): {speedup:.2f}x on {cpus} CPUs")
    if cpus >= 4:
        assert speedup >= 2.0, (
            f"process backend reached only {speedup:.2f}x over serial on {cpus} CPUs"
        )


def test_engine_throughput(benchmark):
    scale = bench_scale()
    records = benchmark.pedantic(
        lambda: experiment_engine_throughput(
            scale=scale,
            backends=("serial", "process"),
            num_seeds=NUM_SEEDS,
            num_queries=NUM_QUERIES,
            distinct_queries=3,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(ascii_table(records, title="Engine: executor speedup and cache hits"))
    write_baseline("engine", records)
    _assert_shapes(records)
