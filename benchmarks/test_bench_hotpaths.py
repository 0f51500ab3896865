"""Hot-path micro-benchmarks: batched cell-error bounds, MILP build, node and seed LPs.

Guards the hot paths reworked for performance (see the README's
"Performance" section): every run writes the measured numbers to
``.bench/BENCH_hotpaths.json`` (see ``conftest.write_baseline``).

Assertions are correctness-first and deliberately loose on wall-clock (the CI
container often has a single CPU): the **batched** cell-bound classifier must
reproduce the scalar reference bounds of :mod:`repro.testing` exactly, the
**one-pass** RankHow MILP build must reproduce the per-pair reference models
exactly, the **direct** HiGHS hand-off must replay the recorded node LPs
bit for bit -- a relaxation's first solve cold and bit-identical to the
``linprog`` reference, its later ones warm from the previous basis and
within the re-solve contract of ``repro.testing.lp_resolve_differences``
(same status, objective within 1e-9 relative, ``x`` within the bounds and
rows) -- and none may be slower than the path it replaced; the sparse
ordinal-regression **seed** LP must solve bit for bit like the reference
too.
"""

from __future__ import annotations

from conftest import bench_scale, write_baseline

from repro.bench.experiments import experiment_hotpaths
from repro.bench.reporting import ascii_table


def test_hotpaths(benchmark):
    records = benchmark.pedantic(
        lambda: experiment_hotpaths(scale=bench_scale()),
        rounds=1,
        iterations=1,
    )
    print()
    print(ascii_table(records, title="Hot paths: cell bounds, MILP build, node LPs"))
    write_baseline("hotpaths", records)

    cells = {r.method: r for r in records if r.experiment == "hotpaths_cells"}
    reference = cells["cell_bounds[reference]"]
    batched = cells["cell_bounds[batched]"]
    assert batched.extra["matches_reference"]
    assert batched.error == reference.error
    # Loose for 1-CPU CI: the batched classifier is typically 4-10x faster;
    # only regressions that erase the win entirely should fail.
    assert batched.time_seconds <= reference.time_seconds * 1.2

    builds = {r.method: r for r in records if r.experiment == "hotpaths_formulation"}
    reference = builds["formulation[reference]"]
    vectorized = builds["formulation[vectorized]"]
    assert vectorized.extra["matches_reference"]
    assert vectorized.extra["binaries"] == reference.extra["binaries"] > 0
    # The one-pass build is typically 30-60x faster than the per-pair loop.
    assert vectorized.time_seconds <= reference.time_seconds * 1.2

    lps = {r.method: r for r in records if r.experiment == "hotpaths_lp"}
    reference = lps["lp[linprog]"]
    direct = lps["lp[direct]"]
    assert direct.extra["matches_reference"]
    assert direct.params["lps"] == reference.params["lps"] > 0
    # The direct hand-off, warm from each previous basis, is typically ~4.5x
    # faster on these node LPs.
    assert direct.time_seconds <= reference.time_seconds * 1.2
    # The sparse seed LP (one row per ordered pair) solves like linprog's.
    assert lps["lp[seed]"].extra["matches_reference"]
