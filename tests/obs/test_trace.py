"""Span tracing: context propagation, executor crossings, zero-cost off path."""

from __future__ import annotations

import json

import pytest

from repro.engine.executor import get_executor
from repro.obs.trace import (
    NOOP_SPAN,
    SpanContext,
    Tracer,
    adopt_results,
    current_span,
    current_tracer,
    pack_tasks,
    run_packed_task,
    set_global_tracer,
    span,
)


@pytest.fixture(autouse=True)
def _no_global_tracer():
    previous = set_global_tracer(None)
    yield
    set_global_tracer(previous)


# -- disabled path -------------------------------------------------------------


def test_disabled_tracer_allocates_nothing():
    # With no tracer active, every span call returns the same singleton
    # no-op object: the hot path allocates nothing.
    spans = [span("solver.branch_and_bound", nodes=1) for _ in range(100)]
    assert all(s is NOOP_SPAN for s in spans)

    disabled = Tracer(enabled=False)
    assert disabled.span("x") is NOOP_SPAN


def test_noop_span_is_inert():
    with span("anything") as sp:
        assert sp is NOOP_SPAN
        assert not sp
        assert sp.set_attribute("k", 1) is NOOP_SPAN
        assert sp.context is None
        sp.finish()
    assert current_span() is None
    assert current_tracer() is None


# -- context propagation -------------------------------------------------------


def test_spans_nest_via_contextvars():
    tracer = Tracer()
    with tracer.span("parent") as parent:
        assert current_span() is parent
        with span("child", depth=1) as child:
            assert child.trace_id == parent.trace_id
            assert child.parent_id == parent.span_id
        assert current_span() is parent
    assert current_span() is None

    records = tracer.spans(parent.trace_id)
    assert [r["name"] for r in records] == ["parent", "child"]


def test_explicit_parent_overrides_context():
    tracer = Tracer()
    ctx = SpanContext(trace_id="t" * 16, span_id="s" * 16)
    with tracer.span("remote-child", parent=ctx) as sp:
        assert sp.trace_id == ctx.trace_id
        assert sp.parent_id == ctx.span_id


def test_finish_records_without_entering():
    tracer = Tracer()
    sp = tracer.span("dispatch", outcome="miss")
    sp.set_attribute("fingerprint", "abc")
    sp.finish()
    records = tracer.spans(sp.trace_id)
    assert len(records) == 1
    assert records[0]["attributes"] == {"outcome": "miss", "fingerprint": "abc"}
    # finish() must not touch the ambient context.
    assert current_span() is None


def test_trace_retention_is_lru_bounded():
    tracer = Tracer(max_traces=2)
    ids = []
    for index in range(3):
        with tracer.span(f"root{index}") as sp:
            ids.append(sp.trace_id)
    assert tracer.trace_ids() == ids[1:]


# -- executor crossings --------------------------------------------------------


def _task(item):
    with span("inner", item=item) as sp:
        pass
    return item * 2


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_packed_tasks_reparent_across_executors(backend):
    tracer = Tracer()
    executor = get_executor(backend, max_workers=2)
    try:
        with tracer.span("request") as request:
            packed = pack_tasks(_task, [1, 2, 3], "engine.task")
            results = adopt_results(
                tracer, executor.map_cells(run_packed_task, packed)
            )
    finally:
        executor.shutdown()

    assert results == [2, 4, 6]
    records = tracer.spans(request.trace_id)
    tasks = [r for r in records if r["name"] == "engine.task"]
    inners = [r for r in records if r["name"] == "inner"]
    assert len(tasks) == 3 and len(inners) == 3
    # Every task span reparents under the submitting request span, and the
    # in-worker instrumentation nests under its task span -- even when the
    # records crossed a process boundary by pickle.
    assert all(t["parent_id"] == request.span_id for t in tasks)
    task_ids = {t["span_id"] for t in tasks}
    assert all(i["parent_id"] in task_ids for i in inners)
    assert all(t["attributes"]["queue_wait"] >= 0.0 for t in tasks)


def test_pack_tasks_explicit_contexts():
    tracer = Tracer()
    with tracer.span("a") as a:
        pass
    with tracer.span("b") as b:
        pass
    packed = pack_tasks(_task, [10, 20], "t", contexts=[a.context, b.context])
    results = adopt_results(tracer, [run_packed_task(p) for p in packed])
    assert results == [20, 40]
    assert [r["trace_id"] for r in tracer.spans(a.trace_id) if r["name"] == "t"] == [
        a.trace_id
    ]
    assert [r["trace_id"] for r in tracer.spans(b.trace_id) if r["name"] == "t"] == [
        b.trace_id
    ]


# -- export --------------------------------------------------------------------


def test_export_trace_builds_nested_tree(tmp_path):
    tracer = Tracer()
    with tracer.span("root") as root:
        with span("mid"):
            with span("leaf", ok=True):
                pass

    exported = tracer.export_trace(root.trace_id)
    assert exported["spans"] == 3
    assert [r["name"] for r in exported["roots"]] == ["root"]
    mid = exported["roots"][0]["children"][0]
    assert mid["name"] == "mid"
    assert mid["children"][0]["name"] == "leaf"
    assert exported["duration"] >= mid["duration"]

    path = tracer.dump_trace(root.trace_id, tmp_path / "trace.json")
    assert json.loads(path.read_text())["trace_id"] == root.trace_id

    slowest = tracer.slowest_traces(1)
    assert slowest and slowest[0]["trace_id"] == root.trace_id
