"""Cache policy layer: scoring, scan resistance, hot-set persistence,
simulation dominance, and bitwise answer parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import RankingProblem
from repro.core.result import SynthesisResult
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_uniform
from repro.engine.cache import ResultCache
from repro.engine.engine import SolveEngine, SolveRequest
from repro.engine.policy import CostAwarePolicy, make_policy
from repro.loadgen.report import answer_digest
from repro.obs.profile import ProfileRecord, WorkloadProfile, simulate_lru, simulate_policy

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


# -- policy resolution ---------------------------------------------------------


def test_make_policy_resolution():
    assert make_policy(None) is None
    assert make_policy("lru") is None
    cost = make_policy("cost")
    assert isinstance(cost, CostAwarePolicy)
    assert make_policy(cost) is cost
    assert make_policy("cost", halflife=8.0).halflife == 8.0
    with pytest.raises(ValueError):
        make_policy("mystery")
    with pytest.raises(ValueError):
        CostAwarePolicy(halflife=0.0)


# -- cost x frequency scoring --------------------------------------------------


def test_victim_is_lowest_score_not_oldest():
    policy = CostAwarePolicy()
    resident = {}
    policy.on_store("expensive_hot", 1.0)
    resident["expensive_hot"] = None
    policy.on_store("cheap_one_shot", 0.001)
    resident["cheap_one_shot"] = None
    for _ in range(4):
        policy.on_access("expensive_hot")
    # Plain LRU would evict "expensive_hot" (oldest insert); the scoring
    # policy evicts the cheap one-shot instead.
    assert policy.victim(resident) == "cheap_one_shot"
    assert policy.score("expensive_hot") > policy.score("cheap_one_shot")


def test_frequency_estimate_decays():
    policy = CostAwarePolicy(halflife=2.0)
    policy.on_store("a", 1.0)
    hot_score = policy.score("a")
    # Many unrelated accesses age "a" without touching it.
    for index in range(20):
        policy.on_access(f"other{index}")
    assert policy.score("a") < hot_score / 100.0


def test_cost_policy_keeps_hot_set_through_a_scan():
    cache = ResultCache(capacity=4, policy="cost")
    hot = [f"hot{i}" for i in range(3)]
    for key in hot:
        cache.put(key, make_result(1), cost=1.0)
    for _ in range(5):
        for key in hot:
            assert cache.get(key) is not None
    # A scan of cheap one-offs washes through: each newcomer is admitted
    # and immediately self-evicted as the global minimum score.
    for index in range(20):
        cache.put(f"scan{index}", make_result(2), cost=1e-9)
    for key in hot:
        assert key in cache
    # Plain LRU, same traffic: the scan displaces the entire hot set.
    lru = ResultCache(capacity=4)
    for key in hot:
        lru.put(key, make_result(1))
    for _ in range(5):
        for key in hot:
            lru.get(key)
    for index in range(20):
        lru.put(f"scan{index}", make_result(2))
    assert all(key not in lru for key in hot)


# -- hot-set persistence -------------------------------------------------------


def test_hot_set_round_trip_restores_entries_and_scores(tmp_path):
    cache_dir = tmp_path / "tier"
    cache = ResultCache(capacity=8, disk_path=cache_dir, policy="cost")
    for index in range(4):
        cache.put(f"k{index}", make_result(index), cost=float(index + 1))
    cache.get("k3")
    hot_file = tmp_path / "hot.json"
    assert cache.save_hot_set(hot_file) == 4

    restarted = ResultCache(capacity=8, disk_path=cache_dir, policy="cost")
    assert restarted.load_hot_set(hot_file) == 4
    assert len(restarted) == 4
    # Stats-neutral rebuild: promotions only, the hit-rate signal untouched.
    assert restarted.stats.promotions == 4
    assert restarted.stats.hits == 0 and restarted.stats.misses == 0
    # Scores survive: the expensive, recently-hit key still outranks the
    # cheapest one.
    assert restarted.policy.score("k3") > restarted.policy.score("k0")


def test_hot_set_policy_mismatch_loads_entries_without_scores(tmp_path):
    cache_dir = tmp_path / "tier"
    cache = ResultCache(capacity=8, disk_path=cache_dir, policy="cost")
    cache.put("a", make_result(1), cost=2.0)
    hot_file = tmp_path / "hot.json"
    cache.save_hot_set(hot_file)

    plain = ResultCache(capacity=8, disk_path=cache_dir)  # lru restart
    assert plain.load_hot_set(hot_file) == 1
    assert "a" in plain


def test_hot_set_missing_or_corrupt_file_loads_nothing(tmp_path):
    cache = ResultCache(capacity=8, disk_path=tmp_path / "tier")
    assert cache.load_hot_set(tmp_path / "absent.json") == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cache.load_hot_set(bad) == 0
    assert len(cache) == 0


# -- simulation dominance ------------------------------------------------------


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
    lru_flags = simulate_lru(profile, capacity)
    cost_flags = simulate_policy(profile, capacity, policy="cost")
    lru_rate = sum(lru_flags) / len(lru_flags)
    cost_rate = sum(cost_flags) / len(cost_flags)
    assert cost_rate >= lru_rate
    # On this workload the dominance is strict: the scan flushes LRU's hot
    # set every round, while the scorer retains it.
    assert cost_rate > lru_rate


def test_simulate_policy_lru_name_matches_simulate_lru():
    profile = _skewed_profile(rounds=2)
    assert simulate_policy(profile, 8, policy="lru") == simulate_lru(profile, 8)
    with pytest.raises(ValueError):
        simulate_policy(profile, 0, policy="cost")


# -- bitwise answer parity -----------------------------------------------------


def test_policy_on_off_answers_are_bitwise_identical():
    requests = [
        SolveRequest(build_problem(seed=seed), "symgd", dict(FAST_PARAMS))
        for seed in (1, 2, 3)
    ]
    # Tiny capacity forces evictions, so both engines continually re-solve;
    # the stream revisits every request to exercise hit and miss paths.
    stream = [requests[i % len(requests)] for i in range(9)]
    digests = {}
    for policy in ("lru", "cost"):
        engine = SolveEngine(backend="serial", cache_capacity=2, cache_policy=policy)
        digests[policy] = [
            answer_digest(engine.solve_batch([request])[0].result)
            for request in stream
        ]
        engine.close()
    assert digests["lru"] == digests["cost"]
