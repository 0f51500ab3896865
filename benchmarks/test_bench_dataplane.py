"""Million-row data plane: streamed build, rank-dominance prune, error sweep.

Guards the data-plane rework (columnar/memmap relations, rank-dominance
tuple pruning, the ranked-only error evaluator) end-to-end and writes the
measured numbers to ``.bench/BENCH_dataplane.json`` (see
``conftest.write_baseline``).

Assertions are correctness- and memory-first, loose on wall-clock:

* the ``massive`` scenario at **one million rows** must build, prune, and
  sweep candidates through ``RankingProblem.error_of`` with every leg's
  ``tracemalloc`` peak under :data:`RSS_BUDGET_BYTES` -- the relation
  itself lives in file-backed memmap pages, so resident transients are the
  whole story;
* the hidden generator weights must evaluate to **near-zero error** at a
  million rows (float32 ties at the top-k boundary allow a position or
  two);
* on every (non-heavy) scenario family, the MILP built on the pruned
  problem must **equal the full MILP** (dominance elimination on), which
  is why RankHow's always-on prune never changes an answer;
* the presolve must **shrink the naive MILP**: fewer indicator variables
  than both the unpruned formulation and the ``k * (n - 1)`` worst case,
  with the reduction ratio recorded;
* the naive MILP build at 2,000 rows must peak under the same
  :data:`RSS_BUDGET_BYTES` (``tracemalloc``): the model stores its rows
  sparse, so ~40k indicator rows of a handful of nonzeros each stay small.
"""

from __future__ import annotations

from conftest import write_baseline

from repro.bench.experiments import experiment_dataplane
from repro.bench.reporting import ascii_table

#: Stated resident-transient budget for the million-row legs.  The default
#: data-plane chunking budget is 64 MB; the remaining headroom covers the
#: float64 score/rank transients of the ranking build and of each
#: ``error_of`` call (a few n-length arrays), which are sized by ``n``, not
#: by the chunk policy.
RSS_BUDGET_BYTES = 256 * 1024 * 1024


def _by_experiment(records, name):
    return [record for record in records if record.experiment == name]


def test_dataplane(benchmark):
    records = benchmark.pedantic(
        lambda: experiment_dataplane(),
        rounds=1,
        iterations=1,
    )
    print()
    print(ascii_table(records, title="Data plane: million-row build / prune / sweep"))
    write_baseline("dataplane", records, rss_budget_bytes=RSS_BUDGET_BYTES)

    # -- million rows, bounded resident transients ---------------------------
    massive = {r.method: r for r in _by_experiment(records, "dataplane_massive")}
    build, prune, sweep = massive["build"], massive["prune"], massive["error_sweep"]
    assert build.params["n"] >= 1_000_000
    assert build.extra["backend"] == "memmap"
    assert build.extra["dtype"] == "float32"
    for leg in (build, prune, sweep):
        assert leg.extra["peak_bytes"] < RSS_BUDGET_BYTES, (
            f"{leg.method} peaked at {leg.extra['peak_bytes']} bytes, "
            f"over the {RSS_BUDGET_BYTES} budget"
        )
    # Correlated data: the presolve must remove the clear majority.
    assert prune.extra["prune_ratio"] > 0.5
    # The hidden generator weights' error is near-zero rather than zero: at
    # a million float32 rows a handful of scores tie within ``tie_eps``
    # around the top-k boundary, where the strict generator order and the
    # tie-tolerant induced ranking can legitimately differ by a position.
    assert sweep.extra["hidden_error"] <= 2

    # -- the pruned model is the full model on every family ------------------
    parity = _by_experiment(records, "dataplane_parity")
    assert len(parity) >= 10
    for record in parity:
        assert record.extra["model_equal"], (
            f"pruned MILP differs from the full MILP on family {record.dataset}"
        )

    # -- the presolve shrinks the naive MILP ---------------------------------
    milp = {r.method: r for r in _by_experiment(records, "dataplane_milp")}
    full = milp["formulation[full]"]
    pruned = milp["formulation[pruned]"]
    assert pruned.extra["indicators"] < full.extra["indicators"]
    assert pruned.extra["variables"] < full.extra["variables"]
    assert full.extra["indicators"] <= full.extra["naive_pairs"]
    assert pruned.extra["prune_ratio"] > 0.0
    for leg in (full, pruned):
        assert leg.extra["peak_bytes"] < RSS_BUDGET_BYTES, (
            f"{leg.method} build peaked at {leg.extra['peak_bytes']} bytes, "
            f"over the {RSS_BUDGET_BYTES} budget"
        )
