"""The result cache's eviction rule end to end: legacy hot-set files,
dominance over the recency reference, and bitwise answer parity."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.problem import RankingProblem
from repro.core.result import SynthesisResult
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_uniform
from repro.engine.cache import ResultCache
from repro.engine.engine import SolveEngine, SolveRequest
from repro.loadgen.report import answer_digest
from repro.obs.profile import ProfileRecord, WorkloadProfile
from repro.testing import simulate_lru

FAST_PARAMS = {
    "cell_size": 0.25,
    "max_iterations": 2,
    "solver_options": {
        "node_limit": 40,
        "verify": False,
        "warm_start_strategy": "none",
    },
}


def make_result(error: int) -> SynthesisResult:
    return SynthesisResult(
        weights=np.asarray([0.5, 0.3, 0.2]),
        attributes=["A1", "A2", "A3"],
        error=error,
        objective=float(error),
        optimal=False,
        method="symgd",
        diagnostics={},
    )


def build_problem(k: int = 3, seed: int = 1) -> RankingProblem:
    relation = generate_uniform(16, 3, seed=seed)
    scores = relation.matrix() @ np.asarray([0.5, 0.3, 0.2])
    return RankingProblem(relation, ranking_from_scores(scores, k=k))


# -- hot-set files -------------------------------------------------------------


def test_legacy_lru_and_cost_hot_set_files_load(tmp_path):
    cache_dir = tmp_path / "tier"
    writer = ResultCache(capacity=8, disk_path=cache_dir)
    writer.put("a", make_result(1), cost=2.0)
    writer.put("b", make_result(2), cost=3.0)
    # The two layouts written while the eviction policy was selectable:
    # fingerprints only under "lru", scored entries under "cost".
    lru_file = tmp_path / "lru.json"
    lru_file.write_text(
        json.dumps(
            {
                "version": 1,
                "policy": "lru",
                "entries": [{"fingerprint": "a"}, {"fingerprint": "b"}],
            }
        ),
        encoding="utf-8",
    )
    cost_file = tmp_path / "cost.json"
    cost_file.write_text(
        json.dumps(
            {
                "version": 1,
                "policy": "cost",
                "entries": [
                    {"fingerprint": "a", "score": 5.0, "freq": 2.5, "cost": 2.0},
                    {"fingerprint": "b", "score": 3.0, "freq": 1.0, "cost": 3.0},
                ],
            }
        ),
        encoding="utf-8",
    )

    def reloaded(hot_file) -> dict:
        cache = ResultCache(capacity=8, disk_path=cache_dir)
        assert cache.load_hot_set(hot_file) == 2
        assert "a" in cache and "b" in cache
        out = tmp_path / "resaved.json"
        cache.save_hot_set(out)
        entries = json.loads(out.read_text(encoding="utf-8"))["entries"]
        return {entry["fingerprint"]: entry for entry in entries}

    # Fingerprint-only entries start fresh: one access, and the result's
    # own solve_time as the cost.
    fresh = reloaded(lru_file)
    assert fresh["b"]["freq"] == 1.0
    assert fresh["a"]["cost"] == fresh["b"]["cost"] == 0.0
    # Scored entries get their saved frequency and cost back.
    scored = reloaded(cost_file)
    assert scored["b"]["freq"] == 1.0
    assert scored["a"]["freq"] == pytest.approx(2.5 * 0.5 ** (1 / 32))
    assert (scored["a"]["cost"], scored["b"]["cost"]) == (2.0, 3.0)


def test_hot_set_missing_or_corrupt_file_loads_nothing(tmp_path):
    cache = ResultCache(capacity=8, disk_path=tmp_path / "tier")
    assert cache.load_hot_set(tmp_path / "absent.json") == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cache.load_hot_set(bad) == 0
    assert len(cache) == 0


# -- dominance over the recency reference --------------------------------------


def _skewed_profile(rounds: int = 6, hot: int = 6, scan: int = 10) -> WorkloadProfile:
    """Hot keys re-hit every round with high recompute cost; each round also
    floods the cache with one-shot scan keys (the LRU killer)."""
    records = []
    stamp = 0.0

    def rec(fingerprint: str, cost: float) -> ProfileRecord:
        nonlocal stamp
        stamp += 1.0
        return ProfileRecord(
            timestamp=stamp,
            request_id="",
            fingerprint=fingerprint,
            method="symgd",
            cost=cost,
        )

    for round_index in range(rounds):
        for index in range(hot):
            records.append(rec(f"hot{index}", 1.0))
        for index in range(scan):
            records.append(rec(f"scan{round_index}-{index}", 1e-6))
    return WorkloadProfile(records)


def test_cost_simulation_beats_lru_on_skewed_profile():
    profile = _skewed_profile()
    capacity = 8
    cache = ResultCache(capacity=capacity)
    served = []
    for record in profile:
        hit = cache.get(record.fingerprint) is not None
        if not hit:
            cache.put(record.fingerprint, make_result(0), cost=record.cost)
        served.append(hit)
    lru = simulate_lru(profile, capacity)
    # The scan flushes the recency reference's hot set every round, while
    # the score keeps it resident.
    assert sum(served) > sum(lru)


# -- bitwise answer parity -----------------------------------------------------


def test_policy_on_off_answers_are_bitwise_identical():
    requests = [
        SolveRequest(build_problem(seed=seed), "symgd", dict(FAST_PARAMS))
        for seed in (1, 2, 3)
    ]
    # The stream revisits every request, so the capacity-2 engine keeps
    # evicting and re-solving while the capacity-64 one never evicts.
    stream = [requests[i % len(requests)] for i in range(9)]
    digests = {}
    evictions = {}
    for capacity in (2, 64):
        with SolveEngine(backend="serial", cache_capacity=capacity) as engine:
            digests[capacity] = [
                answer_digest(engine.solve_batch([request])[0].result)
                for request in stream
            ]
            evictions[capacity] = engine.cache.stats.evictions
    assert evictions[2] > 0 and evictions[64] == 0
    assert digests[2] == digests[64]
