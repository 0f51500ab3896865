"""Exporters: Prometheus text exposition and structured JSON.

Both renderers consume :meth:`repro.obs.metrics.MetricsRegistry.collect`
output, so registered instruments and collector-supplied series export
identically.  :func:`merge_snapshots` sums several such snapshots (the
cluster's shards plus its router) into one that renders the same way.  A
small :func:`parse_prometheus` round-trips the text format back into
``{(name, labels): value}`` -- the CI metrics smoke step and the
observability tests use it to assert the exposition actually parses.
"""

from __future__ import annotations

import json
import math

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "render_prometheus",
    "render_json",
    "merge_snapshots",
    "parse_prometheus",
]


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _histogram_lines(name: str, labels: dict, snapshot: dict) -> list[str]:
    lines = []
    bounds = snapshot["buckets"]["bounds"]
    counts = snapshot["buckets"]["counts"]
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        bucket_labels = dict(labels, le=_format_value(bound))
        lines.append(f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}")
    cumulative += counts[-1]
    bucket_labels = dict(labels, le="+Inf")
    lines.append(f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}")
    lines.append(f"{name}_sum{_format_labels(labels)} {_format_value(snapshot['sum'])}")
    lines.append(f"{name}_count{_format_labels(labels)} {snapshot['count']}")
    return lines


def render_prometheus(metrics: MetricsRegistry | dict) -> str:
    """A registry (families + collectors), or its snapshot, as Prometheus text."""
    if isinstance(metrics, MetricsRegistry):
        metrics = metrics.collect()
    lines: list[str] = []
    for name, family in sorted(metrics.items()):
        kind = family["kind"]
        help_text = family.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        if "series" in family:
            series = family["series"]
        else:
            series = [{"labels": {}, "value": family["value"]}]
        for sample in series:
            labels = sample["labels"]
            value = sample["value"]
            if kind == "histogram":
                lines.extend(_histogram_lines(name, labels, value))
            else:
                lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def render_json(registry: MetricsRegistry, indent: int | None = None) -> str:
    """The registry as structured JSON (same content as the text format)."""
    return json.dumps(registry.collect(), indent=indent, sort_keys=True)


def _add_values(kind: str, left, right):
    if kind != "histogram":
        return left + right
    if left["buckets"]["bounds"] != right["buckets"]["bounds"]:
        raise ValueError("cannot sum histograms with different bucket bounds")
    return {
        "count": left["count"] + right["count"],
        "sum": left["sum"] + right["sum"],
        "buckets": {
            "bounds": left["buckets"]["bounds"],
            "counts": [
                a + b
                for a, b in zip(left["buckets"]["counts"], right["buckets"]["counts"])
            ],
        },
    }


def merge_snapshots(snapshots) -> dict:
    """Sum :meth:`MetricsRegistry.collect` snapshots into one snapshot.

    Series match by name and label values.  Counters and gauges add (the
    exported gauges are occupancy numbers); histogram bucket counts,
    ``sum`` and ``count`` add, which is the exact merged distribution -- a
    summed histogram keeps only those three.  Help text comes from the
    first snapshot declaring a family; a name that appears with two kinds
    raises ``ValueError``.  The result renders with
    :func:`render_prometheus`.
    """
    merged: dict = {}
    for snapshot in snapshots:
        for name, family in snapshot.items():
            kind = family["kind"]
            into = merged.setdefault(
                name, {"kind": kind, "help": family.get("help", ""), "series": {}}
            )
            if into["kind"] != kind:
                raise ValueError(
                    f"metric {name!r} has conflicting kinds "
                    f"{into['kind']!r} and {kind!r}"
                )
            if "series" in family:
                samples = family["series"]
            else:
                samples = [{"labels": {}, "value": family["value"]}]
            for sample in samples:
                labels, value = sample["labels"], sample["value"]
                key = tuple(sorted(labels.items()))
                if key in into["series"]:
                    value = _add_values(kind, into["series"][key][1], value)
                into["series"][key] = (labels, value)
    return {
        name: {
            "kind": family["kind"],
            "help": family["help"],
            "series": [
                {"labels": labels, "value": value}
                for labels, value in family["series"].values()
            ],
        }
        for name, family in merged.items()
    }


def parse_prometheus(text: str) -> dict:
    """Parse text exposition into ``{(name, ((label, value), ...)): float}``.

    Supports exactly what :func:`render_prometheus` emits (no exemplars, no
    timestamps); a malformed line raises ``ValueError`` so the CI smoke step
    fails loudly on a bad export.
    """
    samples: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"malformed exposition line: {line!r}")
        if value_part == "+Inf":
            value = math.inf
        elif value_part == "-Inf":
            value = -math.inf
        else:
            value = float(value_part)
        labels: tuple = ()
        name = name_part
        if name_part.endswith("}"):
            brace = name_part.index("{")
            name = name_part[:brace]
            body = name_part[brace + 1 : -1]
            parsed = []
            for pair in _split_label_pairs(body):
                label_name, _, label_value = pair.partition("=")
                if not (label_value.startswith('"') and label_value.endswith('"')):
                    raise ValueError(f"malformed label in line: {line!r}")
                unescaped = (
                    label_value[1:-1]
                    .replace(r"\n", "\n")
                    .replace(r"\"", '"')
                    .replace(r"\\", "\\")
                )
                parsed.append((label_name, unescaped))
            labels = tuple(sorted(parsed))
        if not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"malformed metric name in line: {line!r}")
        samples[(name, labels)] = value
    return samples


def _split_label_pairs(body: str) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    pairs = []
    current = []
    in_quotes = False
    escaped = False
    for char in body:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        pairs.append("".join(current))
    return pairs
