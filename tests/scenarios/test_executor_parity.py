"""Executor and cache parity under the differential oracle.

Serial and process backends (and the cache-on / cache-off paths) must
produce identical fingerprints and results for generated scenarios.  The
process leg runs on every machine: a one-worker pool still crosses the
pickle boundary.
"""

from __future__ import annotations

import pytest

from repro.testing import check_cache_parity, check_executor_parity

#: (family, method, wire options) -- small instances, cheap budgets; two
#: cases per batch so pooled backends actually fan out (single-item batches
#: run inline by design).
PARITY_METHODS = (
    (
        "symgd",
        {
            "cell_size": 0.2,
            "max_iterations": 4,
            "solver_options": {
                "node_limit": 40,
                "verify": False,
                "warm_start_strategy": "none",
            },
        },
    ),
    ("sampling", {"num_samples": 100, "seed": 3}),
    ("linear_regression", {}),
)

PARITY_FAMILIES = ("degenerate", "rank_reversal")


def _cases(scenario_cache, method, options):
    return [
        (scenario_cache(family).problem, method, options)
        for family in PARITY_FAMILIES
    ]


@pytest.mark.parametrize("backend", ("process",))
@pytest.mark.parametrize(
    "method,options", PARITY_METHODS, ids=[m for m, _ in PARITY_METHODS]
)
def test_backend_matches_serial(backend, method, options, scenario_cache):
    checks = check_executor_parity(
        _cases(scenario_cache, method, options), backends=("serial", backend)
    )
    assert checks, "parity produced no comparisons"
    failures = [check for check in checks if not check.passed]
    assert not failures, "\n".join(repr(check) for check in failures)


@pytest.mark.parametrize(
    "method,options", PARITY_METHODS, ids=[m for m, _ in PARITY_METHODS]
)
def test_cache_on_off_parity(method, options, scenario_cache):
    problem = scenario_cache("rank_reversal").problem
    checks = check_cache_parity(problem, method, options)
    failures = [check for check in checks if not check.passed]
    assert not failures, "\n".join(repr(check) for check in failures)
