"""The differential suite: every registered method, every invariant, per family.

One parametrized test per scenario family; each runs all nine registered
methods through the :class:`~repro.testing.DifferentialOracle` and asserts
that every invariant holds, printing the full report on failure.
"""

from __future__ import annotations

import pytest

from repro.api.registry import list_methods
from repro.api.request import SynthesisRequest
from repro.scenarios import list_families, mutate
from repro.testing import FAST_METHOD_OPTIONS

ALL_FAMILIES = list_families()

#: Invariants every family's oracle pass must exercise (the report may add
#: more, e.g. the zero-error witness where the generator knows one).
REQUIRED_INVARIANTS = {
    "result_contract",
    "cell_bound",
    "serialization",
    "exact_dominance",
    "permutation_invariance",
    "rescaling_invariance",
    "vectorized_parity",
    "formulation_parity",
    "streaming_parity",
    "incremental_parity",
}


def test_oracle_covers_all_registered_methods():
    """The fast-budget table addresses the full registry (all nine methods)."""
    assert set(FAST_METHOD_OPTIONS) == set(list_methods())
    assert len(list_methods()) >= 9


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_family_passes_the_full_invariant_battery(family, oracle, scenario_cache):
    scenario = scenario_cache(family)
    report = oracle.run(scenario)
    assert set(report.results) == set(list_methods())
    assert report.ok, report.describe()
    assert REQUIRED_INVARIANTS <= set(report.invariants_checked())


@pytest.mark.parametrize("index,variant", [(1, "full_ranking"), (2, "single_attribute")])
def test_degenerate_variants_pass_the_battery(index, variant, oracle, scenario_cache):
    """The index-selected degenerate variants (k=n, m=1) get their own runs."""
    scenario = scenario_cache("degenerate", index)
    assert scenario.metadata["variant"] == variant
    report = oracle.run(scenario)
    assert report.ok, report.describe()


@pytest.mark.parametrize("family", ("tied_scores", "rank_reversal"))
def test_mutated_scenarios_stay_lawful(family, oracle, scenario_cache):
    """Invariants survive mutation: perturbed problems are still lawful inputs.

    Mutation changes WHAT is solved (jitter moves the matrix, tightening
    moves the tolerances) but never the rules every result must obey.
    """
    scenario = scenario_cache(family)
    for kind in ("jitter", "tighten_tolerance"):
        mutated_problem, _ = mutate(scenario.problem, kind=kind, seed=11)
        mutated = type(scenario)(
            family=scenario.family,
            index=scenario.index,
            seed=scenario.seed,
            problem=mutated_problem,
            metadata={"mutated": kind},
        )
        report = oracle.run(mutated)
        assert report.ok, f"after {kind}:\n{report.describe()}"


def test_scenario_requests_travel_the_wire(scenario_cache):
    """A scenario spec round-trips through the request wire format."""
    scenario = scenario_cache("heavy_tail")
    request = SynthesisRequest.from_dict(
        {"scenario": scenario.spec, "method": "linear_regression"}
    )
    direct = scenario.request("linear_regression")
    assert request.fingerprint == direct.fingerprint

    inline = SynthesisRequest.from_dict(direct.to_dict())
    assert inline.fingerprint == direct.fingerprint

    with pytest.raises(KeyError, match="problem.*scenario|scenario"):
        SynthesisRequest.from_dict({"method": "symgd"})
