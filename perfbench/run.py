"""The repository's end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload exact|symgd|serve --seed N --seconds S --trace 0|1

Generates the workload's inputs from ``--seed``, measures set-up time in fresh
interpreters, warms up, then sends requests through the public front doors
(``RankHowClient`` for ``exact``/``symgd``, a 2-shard ``ClusterRouter`` driven
by ``repro.loadgen``'s closed loop for ``serve``) until the leg has been busy
for ``--seconds``.  Every answer goes through the correctness gate.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs an untraced
leg and then a traced one (layer entry points wrapped at runtime, see
``tracing.py``) and prints the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object.  The exit code is
non-zero when any answer fails the gate.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro").is_dir():
    # Measure the checkout's own source, never a copy installed elsewhere.
    sys.exit(f"perfbench: no source tree at {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

import config  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

#: The end-to-end metrics of BENCHMARK.json, with their units.
END_TO_END = {
    "setup_s": "s",
    "throughput": "answers/s",
    "latency_p50_s": "s",
    "error_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def measure_setup(workload: str) -> list:
    """``setup_s`` of ``config.SETUP_RUNS`` fresh interpreters."""
    values = []
    for _ in range(config.SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            timeout=150,
            cwd=HERE.parent,
            check=True,
        )
        values.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return values


def gate(answers: list, digests: list) -> list:
    """Correctness violations among ``answers`` (empty when all hold)."""
    violations = []
    for answer in answers:
        result, problem = answer.result, answer.problem
        weights = np.asarray(result.weights, dtype=float)
        where = f"{answer.method}{list(answer.key)}"
        if result.error < 0 or not np.all(np.isfinite(weights)):
            violations.append(f"{where}: no solution returned")
            continue
        recomputed = problem.error_of(weights)
        if recomputed != result.error:
            violations.append(f"{where}: reported error {result.error}, recomputed {recomputed}")
        if not problem.weights_feasible(weights):
            violations.append(f"{where}: weights {weights.tolist()} infeasible")
        if answer.method == "rankhow" and result.optimal:
            bound = result.diagnostics.get("best_bound")
            if bound is None or math.ceil(bound - 1e-6) != result.error:
                violations.append(f"{where}: optimal error {result.error} but best_bound {bound}")
    by_fingerprint = defaultdict(set)
    for fingerprint, digest in digests:
        by_fingerprint[fingerprint].add(digest)
    for fingerprint, seen in by_fingerprint.items():
        if len(seen) > 1:
            violations.append(f"fingerprint {fingerprint[:12]}: {len(seen)} different answers")
    return violations


def tail(latencies: list, q: float) -> str:
    """A percentile if at least ten samples lie beyond it, else why not."""
    beyond = len(latencies) * (100 - q) / 100
    if beyond < 10:
        return f"n/a (only {beyond:.1f} of {len(latencies)} samples beyond p{q:g})"
    return f"{workloads.percentile(latencies, q):.6f} s"


def end_to_end(leg, setup: list) -> dict:
    quality = leg.quality
    error_sum = sum(int(a.result.error) for a in quality)
    # Per answer, (error + 1) / (baseline error + 1): how much of the LP
    # baseline's error the answer leaves, smoothed so error-free inputs count.
    # Repeated queries share one problem object, so one LP serves them all.
    baselines: dict = {}
    ratios = []
    for a in quality:
        if id(a.problem) not in baselines:
            baselines[id(a.problem)] = workloads.baseline_error(a.problem)
        ratios.append((a.result.error + 1) / (baselines[id(a.problem)] + 1))
    values = {
        "setup_s": statistics.median(setup),
        "throughput": leg.throughput,
        "latency_p50_s": leg.latency_p50,
        "error_ratio": statistics.fmean(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = len(leg.latencies)
    pooled = f", best of each of {len(leg.samples)} pooled inputs" if leg.samples else ""
    print(f"setup_s          {values['setup_s']:.4f} s (median of {len(setup)} fresh interpreters: "
          + ", ".join(f"{v:.3f}" for v in setup) + ")")
    print(f"throughput       {values['throughput']:.4f} answers/s ({n} answers, {leg.busy:.2f} s busy{pooled})")
    print(f"latency_p50_s    {values['latency_p50_s']:.6f} s (n={n}{pooled})")
    print(f"latency_p95_s    {tail(leg.latencies, 95)}")
    print(f"latency_p99_s    {tail(leg.latencies, 99)}")
    print(f"error_sum        {error_sum} tuples (quality set: first {len(quality)} answers)")
    print(f"error_ratio      {values['error_ratio']:.4f} ratio (mean (error+1)/(LP baseline error+1))")
    optimal = sum(bool(a.result.optimal) for a in quality)
    print(f"optimal_rate     {optimal / len(quality):.4f} ratio ({optimal} of {len(quality)} proven)")
    print(f"peak_rss_mb      {values['peak_rss_mb']:.1f} MB")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("exact", "symgd", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "serve":
        workload = workloads.ServeWorkload(args.seed)
    else:
        workload = workloads.SolveWorkload(args.workload, args.seed)
    print(f"workload={args.workload} seed={args.seed} inputs_digest={workload.inputs_digest()}")

    if args.trace:
        untraced = workload.run_leg(args.seconds, workloads.INACTIVE)
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        try:
            traced = workload.run_leg(args.seconds, tracer)
        finally:
            tracer.uninstall()
        if tracer.missing:
            print("not traced (absent): " + ", ".join(tracer.missing))
        legs = [untraced, traced]
        metrics = layer_metrics(tracer.spans, traced.throughput, untraced.throughput)
        for name, value in metrics.items():
            print(f"{name:36s} {value:.6g}")
        report = {name: {"value": v, "unit": _layer_unit(name)} for name, v in metrics.items()}
    else:
        setup = measure_setup(args.workload)
        leg = workload.run_leg(args.seconds, workloads.INACTIVE)
        legs = [leg]
        report = end_to_end(leg, setup)

    answers = [answer for leg in legs for answer in leg.answers]
    digests = [pair for leg in legs for pair in leg.digests]
    violations = gate(answers, digests)
    errors = [error for leg in legs for error in leg.errors]
    attempted = sum(leg.attempted for leg in legs)
    failed = len(errors) + len(violations)
    for line in errors + violations:
        print(f"FAILED {line}")
    print(f"failed_ratio     {failed / max(attempted, 1):.4f} ratio ({failed} of {attempted})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _layer_unit(name: str) -> str:
    metric = name.rsplit(".", 1)[1]
    if metric.endswith("_s"):
        return "s"
    if metric == "calls_per_node":
        return "calls/node"
    if metric.endswith(("ratio", "coverage")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
