"""Cross-shard metrics aggregation: sums, histograms, metadata, parsing."""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.cluster import ClusterOptions, ClusterRouter, aggregate_prometheus
from repro.cluster.metrics import aggregate_samples
from repro.obs import MetricsRegistry
from repro.obs.export import parse_prometheus, render_prometheus
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
    texts = [
        render_prometheus(make_registry(3, [0.05, 0.5])),
        render_prometheus(make_registry(4, [0.5, 5.0, 0.01])),
    ]
    merged = aggregate_prometheus(texts)
    samples = parse_prometheus(merged)
    assert samples[("demo_requests_total", ())] == 7.0
    assert samples[("demo_by_kind_total", (("kind", "query"),))] == 7.0
    # Histogram buckets sum cumulatively: 2 obs <= 0.1, 4 <= 1.0, 5 total.
    assert samples[("demo_latency_seconds_bucket", (("le", "0.1"),))] == 2.0
    assert samples[("demo_latency_seconds_bucket", (("le", "1"),))] == 4.0
    assert samples[("demo_latency_seconds_bucket", (("le", "+Inf"),))] == 5.0
    assert samples[("demo_latency_seconds_count", ())] == 5.0
    assert samples[("demo_latency_seconds_sum", ())] == pytest.approx(6.06)
    # Metadata survives and buckets stay le-ordered within the family.
    assert "# TYPE demo_latency_seconds histogram" in merged
    lines = [
        line for line in merged.splitlines()
        if line.startswith("demo_latency_seconds_bucket")
    ]
    bounds = [line[line.index('le="') + 4 : line.index('"}')] for line in lines]
    parsed_bounds = [math.inf if b == "+Inf" else float(b) for b in bounds]
    assert parsed_bounds == sorted(parsed_bounds)


def test_aggregate_round_trips_through_its_own_parser():
    texts = [render_prometheus(make_registry(2, [0.2]))] * 3
    merged = aggregate_prometheus(texts)
    assert parse_prometheus(merged) == aggregate_samples(texts)
    # Idempotent shape: aggregating the aggregate parses identically.
    assert parse_prometheus(aggregate_prometheus([merged])) == parse_prometheus(
        merged
    )


def test_conflicting_type_declarations_raise():
    registry_a = MetricsRegistry()
    registry_a.counter("demo_metric", "A counter").inc()
    registry_b = MetricsRegistry()
    registry_b.gauge("demo_metric", "A gauge").set(1)
    with pytest.raises(ValueError, match="conflicting types"):
        aggregate_prometheus(
            [render_prometheus(registry_a), render_prometheus(registry_b)]
        )


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
                await shard.export_metrics_prometheus()
                for shard in cluster.shards
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
