"""Chaos harness: plan validation, deterministic sequencing, the hooks."""

from __future__ import annotations

import json

import pytest

from repro.chaos import (
    FAULT_KINDS,
    ChaosError,
    FaultPlan,
    FaultSpec,
)


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(kind="meteor_strike", at_op=1)
    with pytest.raises(ValueError):
        FaultSpec(kind="kill_shard", at_op=0, shard=0)  # ops are 1-based
    with pytest.raises(ValueError):
        FaultSpec(kind="kill_shard", at_op=1)  # kill needs a shard
    with pytest.raises(ValueError):
        FaultSpec(kind="delay_pipe", at_op=1, shard=0, seconds=-1.0)
    with pytest.raises(ValueError):
        FaultSpec(kind="solver_error", at_op=1, count=0)
    # Every documented kind constructs.
    for kind in FAULT_KINDS:
        FaultSpec(kind=kind, at_op=3, shard=0)


def test_plan_round_trips_through_json():
    plan = FaultPlan(
        [
            FaultSpec(kind="kill_shard", at_op=5, shard=1),
            FaultSpec(kind="delay_pipe", at_op=2, shard=0, seconds=0.05, count=3),
            FaultSpec(kind="solver_error", at_op=7),
        ],
        seed=13,
    )
    wire = json.loads(json.dumps(plan.to_dict()))
    rebuilt = FaultPlan.from_dict(wire)
    assert rebuilt.seed == 13
    assert rebuilt.faults == plan.faults


def test_step_sequences_faults_by_op_counter():
    plan = FaultPlan(
        [
            FaultSpec(kind="kill_shard", at_op=3, shard=1),
            FaultSpec(kind="corrupt_cache", at_op=3),
            FaultSpec(kind="drop_message", at_op=2, shard=0),
        ],
        seed=1,
    )
    injector = plan.injector()
    assert injector.step() == []  # op 1: nothing due
    assert injector.step() == []  # op 2: pipe fault armed, not returned
    due = injector.step()  # op 3: both router-level faults fire together
    assert {spec.kind for spec in due} == {"kill_shard", "corrupt_cache"}
    assert injector.op == 3
    # The armed drop is consumed by the shard hook, once.
    fault = injector.take_pipe_fault(0)
    assert fault is not None and fault.kind == "drop_message"
    assert injector.take_pipe_fault(0) is None
    assert injector.take_pipe_fault(1) is None  # wrong shard never sees it
    assert [record.kind for record in injector.records] == ["drop_message"]


def test_armed_count_budget_is_consumed_per_call():
    plan = FaultPlan(
        [FaultSpec(kind="delay_pipe", at_op=1, shard=0, seconds=0.01, count=2)],
        seed=1,
    )
    injector = plan.injector()
    injector.step()
    assert injector.take_pipe_fault(0) is not None
    assert injector.take_pipe_fault(0) is not None
    assert injector.take_pipe_fault(0) is None
    assert len(injector.records) == 2


def test_executor_hook_raises_retryable_chaos_error():
    plan = FaultPlan([FaultSpec(kind="solver_error", at_op=1)], seed=1)
    injector = plan.injector()
    injector.step()
    with pytest.raises(ChaosError) as excinfo:
        injector.executor_hook(4)
    assert excinfo.value.retryable is True
    injector.executor_hook(4)  # budget spent: clean pass-through
    assert [record.kind for record in injector.records] == ["solver_error"]


def test_corrupt_cache_entry_is_seed_deterministic(tmp_path):
    for name in ("aa", "bb", "cc", "dd"):
        (tmp_path / f"{name}.json").write_text('{"ok": 1}', encoding="utf-8")
    victims = []
    for _ in range(2):
        injector = FaultPlan(seed=21).injector()
        for entry in tmp_path.glob("*.json"):
            entry.write_text('{"ok": 1}', encoding="utf-8")
        victims.append(injector.corrupt_cache_entry(tmp_path))
    # Same seed, same cache state -> same victim, actually torn on disk.
    assert victims[0] == victims[1] is not None
    assert (tmp_path / victims[0]).read_text(encoding="utf-8") == '{"torn": '


def test_corrupt_cache_entry_with_empty_dir_records_and_returns_none(tmp_path):
    injector = FaultPlan(seed=2).injector()
    assert injector.corrupt_cache_entry(tmp_path) is None
    assert injector.records[0].kind == "corrupt_cache"
    assert "no entries" in injector.records[0].detail


def test_cache_read_hook_corrupts_only_while_armed(tmp_path):
    path = tmp_path / "ee.json"
    path.write_text('{"ok": 1}', encoding="utf-8")
    injector = FaultPlan(seed=3).injector()
    injector.cache_read_hook("ee", path)  # not armed: untouched
    assert path.read_text(encoding="utf-8") == '{"ok": 1}'
    injector.arm_cache_corruption(count=1)
    injector.cache_read_hook("ee", path)
    assert path.read_text(encoding="utf-8") == '{"torn": '
    path.write_text('{"ok": 1}', encoding="utf-8")
    injector.cache_read_hook("ee", path)  # budget spent
    assert path.read_text(encoding="utf-8") == '{"ok": 1}'


def test_metrics_and_summary_expose_the_fired_trace():
    plan = FaultPlan([FaultSpec(kind="kill_shard", at_op=1, shard=0)], seed=5)
    injector = plan.injector()
    injector.step()
    injector.record("kill_shard", shard=0)
    injector.record("kill_shard", shard=0)
    metrics = injector.collect_metrics()
    name = "repro_chaos_faults_injected_total"
    assert metrics[name][2] == {("kill_shard",): 2.0}
    assert metrics["repro_chaos_planned_faults"][2] == 1.0
    summary = injector.summary()
    assert summary["plan"]["seed"] == 5
    assert summary["ops"] == 1
    assert [entry["kind"] for entry in summary["fired"]] == [
        "kill_shard",
        "kill_shard",
    ]
