"""Incremental synthesis benchmark: cold vs. session re-solves.

Guards the session layer (``RankHowClient.session()`` -> ``SolveEngine.solve_batch``
on delta-composed fingerprints).  Every run writes the measured numbers to
``.bench/BENCH_incremental.json`` (see ``conftest.write_baseline``).

The workload is an interactive edit chain with a mid-chain undo
(``session.rewind``), solved two ways -- stateless cold and through an
incremental session.  Assertions:

* **parity** -- every incremental solve returns bitwise-identically what the
  cold solve of the same visited state returns (the session is an
  optimization, never a semantic fork);
* **strictly fewer LP iterations** -- the incremental chain performs
  strictly fewer total HiGHS iterations than the cold chain: composed delta
  fingerprints turn the revisited state into an exact cache hit that runs
  zero iterations, where the cold path pays the full solve again;
* **every visit accounted** -- the session engine's cache shows the hit,
  and every visit is one cache lookup: a hit or a miss (a cold solve).
"""

from __future__ import annotations

from conftest import bench_scale, write_baseline

from repro.bench.experiments import experiment_incremental
from repro.bench.reporting import ascii_table


def test_incremental_chain(benchmark):
    records = benchmark.pedantic(
        lambda: experiment_incremental(scale=bench_scale()),
        rounds=1,
        iterations=1,
    )
    print()
    print(ascii_table(records, title="Incremental synthesis: cold vs. session"))
    write_baseline("incremental", records)

    visits = [r for r in records if r.experiment == "incremental_chain"]
    by_mode = {
        mode: sorted(
            (r for r in visits if r.method == mode), key=lambda r: r.params["visit"]
        )
        for mode in ("cold", "incremental")
    }
    n_visits = len(by_mode["cold"])
    assert n_visits >= 5, "the chain must visit at least 3 edits plus a revisit"
    assert all(len(rows) == n_visits for rows in by_mode.values())

    # -- parity: incremental == cold, per visited state -----------------------
    for cold, incremental in zip(by_mode["cold"], by_mode["incremental"]):
        assert incremental.error == cold.error, (
            f"visit {cold.params['visit']}: incremental error {incremental.error} "
            f"!= cold {cold.error}"
        )
        assert incremental.extra["weights"] == cold.extra["weights"], (
            f"visit {cold.params['visit']}: incremental weights are not "
            "bitwise the cold solve's"
        )

    # -- strictly fewer iterations: the revisit is an exact hit ---------------
    cold_iters = sum(r.extra["lp_iterations"] for r in by_mode["cold"])
    incremental_iters = sum(r.extra["lp_iterations"] for r in by_mode["incremental"])
    assert cold_iters > 0, "the workload never reached the LP (seeding too strong)"
    assert incremental_iters < cold_iters, (
        f"incremental chain performed {incremental_iters} LP iterations, "
        f"not strictly fewer than the cold chain's {cold_iters}"
    )
    hits = [r.extra["cache_hit"] for r in by_mode["incremental"]]
    assert any(hits), f"no revisit was answered from the cache: {hits}"

    # -- cache counters ---------------------------------------------------------
    cache = next(r.extra for r in records if r.experiment == "incremental_cache")
    assert cache["hits"] >= 1, cache
    # One session = one chain: every visit is one lookup, a hit or a miss.
    assert cache["hits"] + cache["misses"] == n_visits

