"""Cluster-wide metric aggregation over per-shard Prometheus expositions.

Every shard exports its own :mod:`repro.obs` registry as Prometheus text.
The text format is the cluster's aggregation wire: :func:`aggregate_prometheus`
parses each shard's exposition, **sums** samples that share a metric name
and label set, and re-renders one valid exposition, so the cluster-wide
export is a drop-in replacement for a single server's.

Summation is the right merge for everything this system exports:

* counters (``*_total``) are per-shard totals, so the cluster total is the
  sum;
* histograms are summed per ``le`` bucket (cumulative counts add), and
  ``_sum``/``_count`` add, giving the exact merged distribution;
* the exported gauges (open sessions, queue depth) are additive occupancy
  numbers, so their sums are the cluster-wide occupancy.

``# HELP``/``# TYPE`` metadata is taken from the first shard that declares
a family; shards are homogeneous, so declarations never conflict in
practice (a conflicting re-declaration raises).
"""

from __future__ import annotations

import math

from repro.obs.export import parse_prometheus

__all__ = ["aggregate_prometheus", "aggregate_samples"]


def _parse_metadata(text: str) -> tuple[dict, dict, list]:
    """``# HELP`` / ``# TYPE`` lines and family declaration order."""
    helps: dict[str, str] = {}
    types: dict[str, str] = {}
    order: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            helps.setdefault(name, help_text)
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            if name not in types:
                types[name] = kind.strip()
                order.append(name)
            elif types[name] != kind.strip():
                raise ValueError(
                    f"metric {name!r} declared with conflicting types "
                    f"{types[name]!r} vs {kind.strip()!r} across shards"
                )
    return helps, types, order


def aggregate_samples(texts: list[str]) -> dict:
    """Sum parsed samples across expositions: ``{(name, labels): value}``."""
    merged: dict = {}
    for text in texts:
        for key, value in parse_prometheus(text).items():
            merged[key] = merged.get(key, 0.0) + value
    return merged


def _family_of(sample_name: str, types: dict) -> str:
    """Map a sample name back to its declaring family.

    Histogram samples render as ``<family>_bucket`` / ``_sum`` / ``_count``;
    everything else samples under its own name.
    """
    if sample_name in types:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    return sample_name


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="' + str(value).replace("\\", r"\\").replace('"', r"\"")
        .replace("\n", r"\n") + '"'
        for name, value in labels
    )
    return "{" + inner + "}"


def _sample_sort_key(sample_name: str, labels: tuple):
    """Deterministic within-family ordering with numeric ``le`` buckets."""
    le = next((value for name, value in labels if name == "le"), None)
    if le is not None:
        bound = math.inf if le == "+Inf" else float(le)
        rest = tuple(pair for pair in labels if pair[0] != "le")
        return (sample_name, rest, 0, bound)
    return (sample_name, labels, 1, 0.0)


def aggregate_prometheus(texts: list[str]) -> str:
    """Merge several Prometheus expositions into one (samples summed).

    The output parses with :func:`repro.obs.export.parse_prometheus` and
    groups each family's samples under a single ``# HELP``/``# TYPE``
    header, buckets ordered by ``le`` -- structurally identical to what one
    server's :func:`~repro.obs.export.render_prometheus` emits.
    """
    helps: dict[str, str] = {}
    types: dict[str, str] = {}
    order: list[str] = []
    for text in texts:
        text_helps, text_types, text_order = _parse_metadata(text)
        for name in text_order:
            if name in types:
                if types[name] != text_types[name]:
                    raise ValueError(
                        f"metric {name!r} declared with conflicting types "
                        f"{types[name]!r} vs {text_types[name]!r} across shards"
                    )
            else:
                types[name] = text_types[name]
                order.append(name)
        for name, help_text in text_helps.items():
            helps.setdefault(name, help_text)

    merged = aggregate_samples(texts)
    by_family: dict[str, list] = {}
    for (sample_name, labels), value in merged.items():
        family = _family_of(sample_name, types)
        by_family.setdefault(family, []).append((sample_name, labels, value))

    lines: list[str] = []
    families = sorted(by_family, key=lambda name: (name not in types, name))
    for family in families:
        if family in helps:
            lines.append(f"# HELP {family} {helps[family]}")
        if family in types:
            lines.append(f"# TYPE {family} {types[family]}")
        samples = sorted(
            by_family[family],
            key=lambda item: _sample_sort_key(item[0], item[1]),
        )
        for sample_name, labels, value in samples:
            lines.append(
                f"{sample_name}{_render_labels(labels)} {_format_value(value)}"
            )
    return "\n".join(lines) + "\n"
