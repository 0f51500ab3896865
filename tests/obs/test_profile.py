"""Workload profile recorder: JSONL round trip, summaries, replay."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.problem import RankingProblem
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_uniform
from repro.engine.engine import SolveEngine, SolveRequest
from repro.obs.profile import (
    ProfileRecord,
    WorkloadProfile,
    WorkloadRecorder,
    replay_profile,
)
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


def build_problem(k: int = 3, seed: int = 1) -> RankingProblem:
    relation = generate_uniform(16, 3, seed=seed)
    scores = relation.matrix() @ np.asarray([0.5, 0.3, 0.2])
    return RankingProblem(relation, ranking_from_scores(scores, k=k))


def test_recorder_derives_gaps_and_appends_jsonl(tmp_path):
    path = tmp_path / "workload.jsonl"
    with WorkloadRecorder(path=path) as recorder:
        recorder.record(
            request_id="q1", fingerprint="fp-a", method="symgd",
            latency=0.1, cost=0.1, cache_hit=False, coalesced=False,
            timestamp=100.0,
        )
        recorder.record(
            request_id="q2", fingerprint="fp-a", method="symgd",
            latency=0.001, cost=0.0, cache_hit=True, coalesced=False,
            delta_kinds=("tolerance",), timestamp=100.5,
        )
        assert len(recorder) == 2

    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["gap"] for line in lines] == [0.0, 0.5]
    assert lines[1]["delta_kinds"] == ["tolerance"]

    profile = WorkloadProfile.load(path)
    assert profile.hit_sequence() == [False, True]
    assert [r.to_dict() for r in profile] == lines

    # dump() -> load() round-trips byte-identically.
    copy = tmp_path / "copy.jsonl"
    profile.dump(copy)
    assert copy.read_text() == path.read_text()

    # Lines written by older versions may carry keys no longer recorded;
    # loading ignores them.
    old = ProfileRecord.from_dict(dict(lines[1], retired_field="exact"))
    assert old.to_dict() == lines[1]


def test_recorder_bounds_in_memory_tail():
    recorder = WorkloadRecorder(max_records=3)
    for index in range(5):
        recorder.record(
            request_id=f"q{index}", fingerprint=f"fp{index}", method="m",
            latency=0.0, cost=0.0, cache_hit=False, coalesced=False,
            timestamp=float(index),
        )
    records = recorder.records
    assert len(records) == 3
    assert [r.request_id for r in records] == ["q2", "q3", "q4"]
    # The gap chain keeps counting across the dropped records.
    assert records[-1].gap == 1.0


def test_profile_summary_aggregates():
    records = [
        ProfileRecord(timestamp=0.0, request_id="q1", fingerprint="a",
                      method="symgd", cost=0.5),
        ProfileRecord(timestamp=1.0, request_id="q2", fingerprint="a",
                      method="symgd", gap=1.0, cache_hit=True),
        ProfileRecord(timestamp=2.0, request_id="q3", fingerprint="b",
                      method="rankhow", gap=1.0, coalesced=True,
                      delta_kinds=["reweight"]),
    ]
    summary = WorkloadProfile(records).summary()
    assert summary["requests"] == 3
    assert summary["distinct_fingerprints"] == 2
    assert summary["reuse_rate"] == pytest.approx(2 / 3)
    assert summary["mean_gap"] == pytest.approx(1.0)
    assert summary["by_method"] == {"symgd": 2, "rankhow": 1}
    assert summary["delta_kinds"] == {"reweight": 1}
    assert summary["hottest"][0][0] == "a"

    assert WorkloadProfile([]).summary()["requests"] == 0


def test_simulate_lru_capacity_sweep():
    stream = ["a", "b", "a", "c", "a", "b"]
    records = [
        ProfileRecord(timestamp=float(i), request_id=f"q{i}", fingerprint=f,
                      method="m")
        for i, f in enumerate(stream)
    ]
    profile = WorkloadProfile(records)
    assert simulate_lru(profile, capacity=1) == [
        False, False, False, False, False, False,
    ]
    assert simulate_lru(profile, capacity=2) == [
        False, False, True, False, True, False,
    ]
    assert simulate_lru(profile, capacity=3) == [
        False, False, True, False, True, True,
    ]
    with pytest.raises(ValueError):
        simulate_lru(profile, capacity=0)


def test_replay_reproduces_hit_sequence_against_fresh_engine():
    problems = {f"p{i}": build_problem(seed=i + 1) for i in range(2)}
    requests = {
        name: SolveRequest(problem, "symgd", dict(FAST_PARAMS))
        for name, problem in problems.items()
    }

    recording = SolveEngine(backend="serial")
    recorder = WorkloadRecorder()
    stream = ["p0", "p1", "p0", "p0", "p1"]
    for index, name in enumerate(stream):
        outcome = recording.solve_batch([requests[name]])[0]
        recorder.record(
            request_id=f"q{index}",
            fingerprint=outcome.fingerprint,
            method="symgd",
            latency=outcome.wall_time,
            cost=0.0 if outcome.cache_hit else outcome.wall_time,
            cache_hit=outcome.cache_hit,
            coalesced=False,
            timestamp=float(index),
        )
    recording.close()

    profile = recorder.profile()
    assert profile.hit_sequence() == [False, False, True, True, True]

    by_fingerprint = {
        request.fingerprint: request for request in requests.values()
    }
    fresh = SolveEngine(backend="serial")
    flags = replay_profile(
        profile, fresh, lambda record: by_fingerprint.get(record.fingerprint)
    )
    fresh.close()
    assert flags == profile.hit_sequence()

    # A resolver that cannot cover the stream fails loudly.
    other = SolveEngine(backend="serial")
    with pytest.raises(ValueError):
        replay_profile(profile, other, lambda record: None)
    other.close()


def test_replay_rejects_mismatched_resolver():
    problem = build_problem(seed=5)
    request = SolveRequest(problem, "symgd", dict(FAST_PARAMS))
    records = [
        ProfileRecord(timestamp=0.0, request_id="q0",
                      fingerprint="not-the-real-fingerprint", method="symgd")
    ]
    engine = SolveEngine(backend="serial")
    with pytest.raises(ValueError):
        replay_profile(WorkloadProfile(records), engine, lambda record: request)
    engine.close()
