"""Cross-shard metrics aggregation: summed snapshots, one render, parsing."""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import ClusterOptions, ClusterRouter
from repro.obs import MetricsRegistry
from repro.obs.export import merge_snapshots, parse_prometheus, render_prometheus
from repro.scenarios import scenario_problem

FAST_PARAMS = {
    "cell_size": 0.2,
    "max_iterations": 4,
    "solver_options": {
        "node_limit": 60,
        "verify": False,
        "warm_start_strategy": "none",
    },
}


def make_registry(requests: int, latencies) -> MetricsRegistry:
    registry = MetricsRegistry()
    counter = registry.counter("demo_requests_total", "Requests")
    counter.inc(requests)
    by_kind = registry.counter("demo_by_kind_total", "By kind", labels=("kind",))
    by_kind.child(kind="query").inc(requests)
    histogram = registry.histogram(
        "demo_latency_seconds", "Latency", buckets=(0.1, 1.0)
    )
    for value in latencies:
        histogram.observe(value)
    return registry


def test_aggregate_sums_counters_labels_and_histograms():
    merged = render_prometheus(
        merge_snapshots(
            [
                make_registry(3, [0.05, 0.5]).collect(),
                make_registry(4, [0.5, 5.0, 0.01]).collect(),
            ]
        )
    )
    samples = parse_prometheus(merged)
    assert samples[("demo_requests_total", ())] == 7.0
    assert samples[("demo_by_kind_total", (("kind", "query"),))] == 7.0
    # Histogram buckets sum cumulatively: 2 obs <= 0.1, 4 <= 1.0, 5 total.
    assert samples[("demo_latency_seconds_bucket", (("le", "0.1"),))] == 2.0
    assert samples[("demo_latency_seconds_bucket", (("le", "1"),))] == 4.0
    assert samples[("demo_latency_seconds_bucket", (("le", "+Inf"),))] == 5.0
    assert samples[("demo_latency_seconds_count", ())] == 5.0
    assert samples[("demo_latency_seconds_sum", ())] == pytest.approx(6.06)
    # Metadata survives the merge.
    assert "# HELP demo_requests_total Requests" in merged
    assert "# TYPE demo_latency_seconds histogram" in merged


def test_aggregate_round_trips_through_its_own_parser():
    registries = [make_registry(2, [0.2]), make_registry(5, [0.02, 3.0])]
    merged = parse_prometheus(
        render_prometheus(merge_snapshots([r.collect() for r in registries]))
    )
    # The render of the summed snapshots parses to the sum of the renders.
    summed: dict = {}
    for registry in registries:
        for key, value in parse_prometheus(render_prometheus(registry)).items():
            summed[key] = summed.get(key, 0.0) + value
    assert merged == summed
    # A merge of one snapshot renders like the registry itself.
    alone = merge_snapshots([registries[0].collect()])
    assert render_prometheus(alone) == render_prometheus(registries[0])


def test_conflicting_type_declarations_raise():
    registry_a = MetricsRegistry()
    registry_a.counter("demo_metric", "A counter").inc()
    registry_b = MetricsRegistry()
    registry_b.gauge("demo_metric", "A gauge").set(1)
    with pytest.raises(ValueError, match="conflicting kinds"):
        merge_snapshots([registry_a.collect(), registry_b.collect()])


def test_cluster_export_equals_sum_of_shard_counters():
    problems = [scenario_problem("tied_scores", i, seed=9) for i in range(4)]
    stream = [problems[i % len(problems)] for i in range(10)]

    async def scenario():
        options = ClusterOptions(num_shards=2)
        async with ClusterRouter(options) as cluster:
            for problem in stream:
                await cluster.submit(problem, "symgd", FAST_PARAMS)
            await cluster.drain()
            shard_texts = [
                shard.export_metrics_prometheus() for shard in cluster.shards
            ]
            merged_text = await cluster.export_metrics_prometheus()
            stats = await cluster.stats()
        return shard_texts, merged_text, stats

    shard_texts, merged_text, stats = asyncio.run(scenario())
    merged = parse_prometheus(merged_text)  # the whole export parses
    per_shard = [parse_prometheus(text) for text in shard_texts]

    for name in (
        "repro_service_requests_total",
        "repro_service_cache_hits_total",
        "repro_service_batches_total",
        "repro_engine_cache_misses_total",
    ):
        key = (name, ())
        assert merged[key] == sum(samples[key] for samples in per_shard)
    assert merged[("repro_service_requests_total", ())] == float(len(stream))
    assert merged[("repro_service_requests_total", ())] == float(
        stats.totals.requests
    )
    # The router's own series ride along in the same exposition.
    routed = sum(
        value
        for (name, _labels), value in merged.items()
        if name == "repro_cluster_requests_total"
    )
    assert routed == float(len(stream))
    # Latency histogram merged across shards: counts add up too.
    assert merged[("repro_service_request_latency_seconds_count", ())] == float(
        len(stream)
    )
