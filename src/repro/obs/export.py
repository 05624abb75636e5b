"""Exporters: registry → JSON / Prometheus text, span → tree / dict.

Three consumers, three formats:

* **JSON** (:func:`registry_to_dict` / :func:`registry_to_json`) — the
  machine-readable dump written by ``repro stats``, the CLI's
  ``--metrics-out``, and the CI benchmark artifact;
* **Prometheus text format** (:func:`registry_to_prometheus`) — the
  scrape endpoint payload, with ``# HELP`` / ``# TYPE`` headers,
  escaped help text and label values, and cumulative ``_bucket``
  series ending in ``le="+Inf"``;
* **human-readable span trees** (:func:`render_span_tree`) — the
  ``--trace`` / ``repro explain`` view of one request.

``prometheus_from_dict`` re-serializes a previously dumped JSON export,
so metrics captured in one process (a benchmark run, a cron job) can be
re-emitted for scraping by another.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Span

# --------------------------------------------------------------------- #
# registry → dict / JSON
# --------------------------------------------------------------------- #


def registry_to_dict(registry: MetricsRegistry) -> Dict[str, Any]:
    """JSON-able snapshot of every metric in *registry*.

    Histogram bucket bounds are ``(le, cumulative_count)`` pairs with
    the final ``+Inf`` bound spelled ``"+Inf"`` (JSON has no infinity).
    """
    metrics: List[Dict[str, Any]] = []
    for metric in registry.collect():
        entry: Dict[str, Any] = {
            "name": metric.name,
            "type": metric.kind,
            "help": metric.help,
            "labels": dict(metric.labels),
        }
        if isinstance(metric, Histogram):
            snap = metric.snapshot()
            entry["sum"] = snap.sum
            entry["count"] = snap.count
            entry["buckets"] = [
                ["+Inf" if math.isinf(le) else le, count]
                for le, count in snap.buckets
            ]
            exemplars = snap.exemplars
            if exemplars:
                # (le, value, trace_id) per bucket holding one: the JSON
                # export keeps them (classic Prometheus text cannot).
                entry["exemplars"] = [
                    ["+Inf" if math.isinf(le) else le, value, trace_id]
                    for le, value, trace_id in exemplars
                ]
        elif isinstance(metric, (Counter, Gauge)):
            entry["value"] = metric.value
        metrics.append(entry)
    return {"metrics": metrics}


def registry_to_json(registry: MetricsRegistry, indent: int = 2) -> str:
    """The :func:`registry_to_dict` snapshot as a JSON document."""
    return json.dumps(registry_to_dict(registry), indent=indent)


# --------------------------------------------------------------------- #
# registry / dict → Prometheus text format
# --------------------------------------------------------------------- #


def escape_help(text: str) -> str:
    """Escape a ``# HELP`` line: backslash and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(text: str) -> str:
    """Escape a label value: backslash, double quote, newline."""
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_value(value: float) -> str:
    """Render one sample value (``+Inf`` aware, integers unpadded)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def _label_block(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(str(value))}"'
        for key, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def prometheus_from_dict(snapshot: Dict[str, Any]) -> str:
    """Prometheus text format from a :func:`registry_to_dict` snapshot."""
    lines: List[str] = []
    seen_headers = set()
    for entry in snapshot.get("metrics", []):
        name = entry["name"]
        kind = entry["type"]
        labels = {str(k): str(v) for k, v in entry.get("labels", {}).items()}
        if name not in seen_headers:
            help_text = entry.get("help") or ""
            if help_text:
                lines.append(f"# HELP {name} {escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            seen_headers.add(name)
        if kind == "histogram":
            for le, count in entry.get("buckets", []):
                bound = "+Inf" if le == "+Inf" else format_value(float(le))
                lines.append(
                    f"{name}_bucket{_label_block(labels, {'le': bound})} "
                    f"{format_value(float(count))}"
                )
            lines.append(
                f"{name}_sum{_label_block(labels)} "
                f"{format_value(float(entry.get('sum', 0.0)))}"
            )
            lines.append(
                f"{name}_count{_label_block(labels)} "
                f"{format_value(float(entry.get('count', 0)))}"
            )
        else:
            lines.append(
                f"{name}{_label_block(labels)} "
                f"{format_value(float(entry.get('value', 0.0)))}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def registry_to_prometheus(registry: MetricsRegistry) -> str:
    """Serialize *registry* in the Prometheus text exposition format."""
    return prometheus_from_dict(registry_to_dict(registry))


def merge_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-process :func:`registry_to_dict` snapshots into one.

    Series are matched on ``(name, type, labels)``.  Counters and gauges
    sum their values (gauges in this codebase are occupancy/size numbers
    — in-flight requests, queue depth, mapped bytes — where the pool
    total is the meaningful fleet view); histograms sum ``sum``,
    ``count`` and per-bound bucket counts.  Help text comes from the
    first snapshot that mentions the series.

    This powers the pre-fork pool's ``GET /metrics/aggregate``: each
    worker spools its own snapshot, any worker merges them all.
    """
    merged: Dict[Any, Dict[str, Any]] = {}
    for snapshot in snapshots:
        for entry in snapshot.get("metrics", []):
            labels = {
                str(k): str(v) for k, v in entry.get("labels", {}).items()
            }
            key = (
                entry["name"],
                entry["type"],
                tuple(sorted(labels.items())),
            )
            slot = merged.get(key)
            if slot is None:
                slot = merged[key] = {
                    "name": entry["name"],
                    "type": entry["type"],
                    "help": entry.get("help", ""),
                    "labels": labels,
                }
                if entry["type"] == "histogram":
                    slot["sum"] = 0.0
                    slot["count"] = 0
                    slot["_buckets"] = {}
                    slot["_exemplars"] = {}
                else:
                    slot["value"] = 0.0
            if entry["type"] == "histogram":
                slot["sum"] += float(entry.get("sum", 0.0))
                slot["count"] += int(entry.get("count", 0))
                for le, count in entry.get("buckets", []):
                    bound = "+Inf" if le == "+Inf" else float(le)
                    slot["_buckets"][bound] = (
                        slot["_buckets"].get(bound, 0) + int(count)
                    )
                for le, value, trace_id in entry.get("exemplars", []):
                    # one exemplar per bound; later snapshots win, which
                    # is as good a tiebreak as any — each is a valid
                    # representative of the bucket.
                    bound = "+Inf" if le == "+Inf" else float(le)
                    slot["_exemplars"][bound] = [le, value, trace_id]
            else:
                slot["value"] += float(entry.get("value", 0.0))
    metrics: List[Dict[str, Any]] = []
    for slot in merged.values():
        buckets = slot.pop("_buckets", None)
        exemplars = slot.pop("_exemplars", None)
        if buckets is not None:
            slot["buckets"] = [
                ["+Inf" if bound == "+Inf" else bound, count]
                for bound, count in sorted(
                    buckets.items(),
                    key=lambda item: (
                        math.inf if item[0] == "+Inf" else item[0]
                    ),
                )
            ]
        if exemplars:
            slot["exemplars"] = [
                exemplars[bound]
                for bound in sorted(
                    exemplars,
                    key=lambda b: math.inf if b == "+Inf" else b,
                )
            ]
        metrics.append(slot)
    return {"metrics": metrics}


# --------------------------------------------------------------------- #
# span → tree / dict
# --------------------------------------------------------------------- #


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}µs"


def _format_attributes(attributes: Dict[str, Any]) -> str:
    if not attributes:
        return ""
    inner = ", ".join(
        f"{key}={value!r}" for key, value in attributes.items()
    )
    return f"  [{inner}]"


def render_span_tree(span: Span, indent: int = 0) -> str:
    """Indented human-readable rendering of one span tree."""
    pad = "  " * indent
    lines = [
        f"{pad}{span.name}  {_format_duration(span.duration)}"
        f"{_format_attributes(span.attributes)}"
    ]
    for child in span.children:
        lines.append(render_span_tree(child, indent + 1))
    return "\n".join(lines)


def span_to_dict(span: Span) -> Dict[str, Any]:
    """JSON-able snapshot of one span tree."""
    return {
        "name": span.name,
        "duration_seconds": span.duration,
        "attributes": dict(span.attributes),
        "children": [span_to_dict(child) for child in span.children],
    }


def span_from_dict(payload: Dict[str, Any]) -> Span:
    """Rebuild a renderable :class:`Span` tree from :func:`span_to_dict`
    output (durations are restored; absolute stamps are not kept)."""
    span = Span(str(payload.get("name", "?")), payload.get("attributes"))
    span.start_time = 0.0
    span.end_time = float(payload.get("duration_seconds", 0.0))
    span.children = [
        span_from_dict(child) for child in payload.get("children", [])
    ]
    return span


def render_trace_record(record: Dict[str, Any]) -> str:
    """Human-readable rendering of one flight-recorder request record.

    A header line (trace id, route, status, total latency, flags), the
    flat per-stage latencies, and — when the request was sampled into a
    span tree — the full tree via :func:`render_span_tree`.
    """
    flags = [
        flag
        for flag, on in (
            ("slow", record.get("slow")),
            ("degraded", record.get("degraded")),
            ("shed", record.get("shed")),
            ("error", record.get("error")),
        )
        if on
    ]
    duration = float(record.get("duration_s", 0.0))
    header = (
        f"trace {record.get('trace_id', '?')}  "
        f"{record.get('verb', '?')} {record.get('route', '?')}  "
        f"status={record.get('status', '?')}  "
        f"{_format_duration(duration)}"
    )
    if record.get("worker") is not None:
        header += f"  worker={record['worker']}"
    if flags:
        header += f"  [{','.join(flags)}]"
    lines = [header]
    stages = record.get("stages") or {}
    if stages:
        rendered = "  ".join(
            f"{stage}={_format_duration(float(seconds))}"
            for stage, seconds in stages.items()
        )
        lines.append(f"  stages: {rendered}")
    for key in ("degraded_mode", "shed_reason", "cache", "algorithm"):
        value = record.get(key)
        if value:
            lines.append(f"  {key}: {value}")
    tree = record.get("span_tree")
    if tree:
        lines.append(render_span_tree(span_from_dict(tree), indent=1))
    return "\n".join(lines)
