"""Reader for the Prometheus text exposition :mod:`repro.obs.export` renders.

The round-trip tests parse rendered registries back with
:func:`parse_prometheus_text`. It understands exactly what the renderer
produces (the common subset of the format), not arbitrary exposition
payloads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Tuple

LabelItems = Tuple[Tuple[str, str], ...]


def _unescape_label(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


@dataclass
class ParsedExposition:
    """Structured view of a parsed exposition payload.

    Attributes:
        types: ``# TYPE`` declarations, metric name -> kind.
        helps: ``# HELP`` declarations, metric name -> help text.
        samples: Sample series: ``(series name, sorted label items)`` ->
            value. Series names include histogram suffixes
            (``*_bucket``, ``*_sum``, ``*_count``).
    """

    types: Dict[str, str] = field(default_factory=dict)
    helps: Dict[str, str] = field(default_factory=dict)
    samples: Dict[Tuple[str, LabelItems], float] = field(default_factory=dict)

    def value(self, name: str, **labels) -> float:
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        return self.samples[(name, key)]


def _parse_labels(body: str) -> LabelItems:
    items = []
    pos = 0
    while pos < len(body):
        match = _LABEL_PAIR_RE.match(body, pos)
        if match is None:
            raise ValueError(f"unparseable label body: {body[pos:]!r}")
        items.append((match.group("key"), _unescape_label(match.group("value"))))
        pos = match.end()
    return tuple(sorted(items))


def parse_prometheus_text(text: str) -> ParsedExposition:
    """Parse exposition text produced by :func:`render_prometheus`."""
    parsed = ParsedExposition()
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            parsed.helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            parsed.types[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable sample line: {line!r}")
        labels = _parse_labels(match.group("labels") or "")
        value_text = match.group("value")
        value = float("inf") if value_text == "+Inf" else float(value_text)
        parsed.samples[(match.group("name"), labels)] = value
    return parsed
