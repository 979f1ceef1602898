"""Prometheus text-format rendering and JSON dumps.

The renderer emits the Prometheus text exposition format (version
0.0.4): ``# HELP`` / ``# TYPE`` headers, escaped label values,
cumulative histogram buckets with a trailing ``+Inf``, and ``_sum`` /
``_count`` series.
"""

from __future__ import annotations

from typing import Dict, Tuple


def _format_value(value: float) -> str:
    """Exact, round-trippable sample value (integers stay integral)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(names, values, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = list(zip(names, values)) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs)
    return "{" + body + "}"


def _format_le(bound: float) -> str:
    return _format_value(bound)


def render_prometheus(registry) -> str:
    """Render every metric of a registry to exposition text."""
    lines = []
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if metric.kind in ("counter", "gauge"):
            for key, value in metric.samples():
                labels = _render_labels(metric.label_names, key)
                lines.append(f"{metric.name}{labels} {_format_value(value)}")
        elif metric.kind == "histogram":
            for key, cumulative, total_sum, count in metric.samples():
                bounds = [_format_le(b) for b in metric.buckets] + ["+Inf"]
                for bound, running in zip(bounds, cumulative):
                    labels = _render_labels(
                        metric.label_names, key, extra=(("le", bound),)
                    )
                    lines.append(
                        f"{metric.name}_bucket{labels} {running}"
                    )
                labels = _render_labels(metric.label_names, key)
                lines.append(
                    f"{metric.name}_sum{labels} {_format_value(total_sum)}"
                )
                lines.append(f"{metric.name}_count{labels} {count}")
    return "\n".join(lines) + ("\n" if lines else "")


def registry_to_json(registry) -> Dict:
    """JSON-ready dump of a registry (one entry per metric)."""
    payload: Dict = {}
    for metric in registry.metrics():
        entry: Dict = {
            "type": metric.kind,
            "help": metric.help,
            "label_names": list(metric.label_names),
        }
        if metric.kind in ("counter", "gauge"):
            entry["samples"] = [
                {"labels": dict(zip(metric.label_names, key)), "value": value}
                for key, value in metric.samples()
            ]
        elif metric.kind == "histogram":
            entry["buckets"] = list(metric.buckets)
            entry["samples"] = [
                {
                    "labels": dict(zip(metric.label_names, key)),
                    "cumulative_counts": list(cumulative),
                    "sum": total_sum,
                    "count": count,
                }
                for key, cumulative, total_sum, count in metric.samples()
            ]
        payload[metric.name] = entry
    return payload


__all__ = [
    "registry_to_json",
    "render_prometheus",
]
