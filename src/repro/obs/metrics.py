"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The registry is deliberately tiny and dependency-free so it can stay
always-on: a counter increment is a dict lookup plus a float add, and a
histogram observation is a linear scan over a handful of bucket bounds.
Nothing here allocates on the hot path after the first touch of a given
(metric, labels) pair.

Metrics are process-local by design.  Fleet campaigns that fan out over
a :class:`~concurrent.futures.ProcessPoolExecutor` or a cluster of
workers aggregate at the point where outcomes return to the parent (see
``repro.api.facade.campaign``), not by merging child registries — the
paper pipeline only needs campaign-level totals, and that keeps the
metrics layer free of IPC.

Exposition is Prometheus text format (``render_prom``), chosen because
it is trivially greppable, diffable in CI, and scrapeable if the file is
ever served.  ``parse_prom`` is the matching reader used by the CI obs
smoke test and by anything that wants to assert on a snapshot without a
Prometheus client library.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.jsonlog import atomic_write

#: Default histogram bucket upper bounds, in the metric's native unit.
#: Tuned for seconds-scale span durations: sub-millisecond ingest slices
#: through multi-second campaign phases.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(items: LabelItems, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(v)}"' for k, v in items]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelItems, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across all label sets."""
        return sum(self._values.values())

    def samples(self) -> List[Tuple[str, str, float]]:
        out = []
        for items in sorted(self._values):
            out.append(
                (self.name, _render_labels(items), self._values[items])
            )
        return out


class Gauge:
    """Point-in-time value that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelItems, float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[str, str, float]]:
        out = []
        for items in sorted(self._values):
            out.append(
                (self.name, _render_labels(items), self._values[items])
            )
        return out


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    Bucket bounds are fixed at construction; each observation does one
    linear scan (the bound count is small) and two float adds.  Quantile
    estimates interpolate within the containing bucket, which is the
    same approximation ``histogram_quantile`` makes server-side.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets:
            raise ValueError(f"histogram {name!r} needs >=1 bucket")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds):
            raise ValueError(
                f"histogram {name!r} bucket bounds must be sorted: {bounds}"
            )
        self.name = name
        self.help = help
        self.bounds = bounds
        self._lock = threading.Lock()
        # per label set: (bucket counts incl. +Inf, sum, count)
        self._series: Dict[LabelItems, List[float]] = {}
        self._sums: Dict[LabelItems, float] = {}
        self._counts: Dict[LabelItems, float] = {}

    def observe(self, value: float, **labels: str) -> None:
        value = float(value)
        key = _label_key(labels)
        with self._lock:
            counts = self._series.get(key)
            if counts is None:
                counts = [0.0] * (len(self.bounds) + 1)
                self._series[key] = counts
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[len(self.bounds)] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._counts[key] = self._counts.get(key, 0.0) + 1

    def count(self, **labels: str) -> float:
        return self._counts.get(_label_key(labels), 0.0)

    def sum(self, **labels: str) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def quantile(self, q: float, **labels: str) -> float:
        """Estimate the q-quantile (0..1) by bucket interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        key = _label_key(labels)
        counts = self._series.get(key)
        total = self._counts.get(key, 0.0)
        if not counts or total == 0:
            return float("nan")
        target = q * total
        cumulative = 0.0
        lower = 0.0
        for i, bound in enumerate(self.bounds):
            previous = cumulative
            cumulative += counts[i]
            if cumulative >= target:
                if counts[i] == 0:
                    return bound
                frac = (target - previous) / counts[i]
                return lower + frac * (bound - lower)
            lower = bound
        # Overflow bucket: the best point estimate we have is its floor.
        return self.bounds[-1]

    def samples(self) -> List[Tuple[str, str, float]]:
        out = []
        for items in sorted(self._series):
            counts = self._series[items]
            cumulative = 0.0
            for i, bound in enumerate(self.bounds):
                cumulative += counts[i]
                out.append(
                    (
                        f"{self.name}_bucket",
                        _render_labels(
                            items, f'le="{_format_value(bound)}"'
                        ),
                        cumulative,
                    )
                )
            cumulative += counts[len(self.bounds)]
            out.append(
                (
                    f"{self.name}_bucket",
                    _render_labels(items, 'le="+Inf"'),
                    cumulative,
                )
            )
            out.append(
                (
                    f"{self.name}_sum",
                    _render_labels(items),
                    self._sums[items],
                )
            )
            out.append(
                (
                    f"{self.name}_count",
                    _render_labels(items),
                    self._counts[items],
                )
            )
        return out


class MetricsRegistry:
    """Named home for every metric a process exports.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated
    calls with the same name return the same instance, so call sites
    can fetch by name without threading instances around.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: str, factory):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:  # type: ignore[attr-defined]
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {kind}"  # type: ignore[attr-defined]
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, "counter", lambda: Counter(name, help)
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, "gauge", lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name, "histogram", lambda: Histogram(name, help, buckets)
        )

    def get(self, name: str) -> Optional[object]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        """Drop every metric.  Tests and benchmarks only."""
        with self._lock:
            self._metrics.clear()

    def render_prom(self) -> str:
        """Render the registry in Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:  # type: ignore[attr-defined]
                lines.append(f"# HELP {name} {metric.help}")  # type: ignore[attr-defined]
            lines.append(f"# TYPE {name} {metric.kind}")  # type: ignore[attr-defined]
            for sample_name, labels, value in metric.samples():  # type: ignore[attr-defined]
                lines.append(
                    f"{sample_name}{labels} {_format_value(value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


def _unescape_label(value: str, line: str) -> str:
    """Inverse of :func:`_escape_label` (``\\\\``, ``\\"``, ``\\n``)."""
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(value):
            raise ValueError(f"dangling escape in prom line: {line!r}")
        nxt = value[i + 1]
        if nxt == "\\":
            out.append("\\")
        elif nxt == '"':
            out.append('"')
        elif nxt == "n":
            out.append("\n")
        else:
            # Unknown escape: Prometheus keeps the backslash literally.
            out.append("\\")
            out.append(nxt)
        i += 2
    return "".join(out)


def _parse_value(text: str, line: str) -> float:
    text = text.strip()
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"unparseable prom value in line: {line!r}")


def parse_prom_samples(
    text: str,
) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse Prometheus text format into ``(name, labels, value)`` rows.

    The true inverse of :meth:`MetricsRegistry.render_prom`: label
    values are tokenized against their quotes (a value may contain
    ``{``, ``}``, ``,``, ``=``, or spaces) and unescaped (``\\\\`` →
    ``\\``, ``\\"`` → ``"``, ``\\n`` → newline), so rendering the
    returned labels back through the escaper reproduces the input line
    byte-for-byte.  Histogram ``le`` labels ride through like any
    other, which keeps the ``+Inf`` bucket intact across a round trip.
    """
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        brace = line.find("{")
        if brace < 0:
            name_part, _, value_part = line.rpartition(" ")
            if not name_part:
                raise ValueError(f"unparseable prom line: {raw!r}")
            samples.append(
                (name_part.strip(), {}, _parse_value(value_part, raw))
            )
            continue
        name = line[:brace].strip()
        if not name:
            raise ValueError(f"unparseable prom line: {raw!r}")
        labels: Dict[str, str] = {}
        i = brace + 1
        while True:
            while i < len(line) and line[i] in ", ":
                i += 1
            if i < len(line) and line[i] == "}":
                i += 1
                break
            eq = line.find("=", i)
            if eq < 0 or eq + 1 >= len(line) or line[eq + 1] != '"':
                raise ValueError(f"unparseable prom labels: {raw!r}")
            key = line[i:eq].strip()
            # Scan the quoted value respecting backslash escapes: a
            # label value may contain every structural character.
            j = eq + 2
            while j < len(line):
                if line[j] == "\\":
                    j += 2
                    continue
                if line[j] == '"':
                    break
                j += 1
            if j >= len(line):
                raise ValueError(f"unterminated label value: {raw!r}")
            labels[key] = _unescape_label(line[eq + 2 : j], raw)
            i = j + 1
        samples.append((name, labels, _parse_value(line[i:], raw)))
    return samples


def sample_key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical ``name{labels}`` key for one parsed sample.

    Re-escapes through the same :func:`_escape_label` path
    ``render_prom`` uses, so the key of a parsed sample equals the text
    the registry rendered — even for label values containing ``\\`` or
    ``"`` — and rendering, parsing, and re-keying is a fixed point.
    """
    items = tuple((str(k), str(v)) for k, v in labels.items())
    return f"{name}{_render_labels(items)}"


def parse_prom(text: str) -> Dict[str, float]:
    """Parse Prometheus text format into ``{sample_with_labels: value}``.

    Inverse of :meth:`MetricsRegistry.render_prom` for assertion
    purposes; keys are the canonical rendered form, e.g.
    ``repro_span_seconds_count{span="detect.features"}``.  Built on
    :func:`parse_prom_samples`, so label values containing ``\\`` and
    ``"`` round-trip exactly and the ``+Inf`` histogram bucket survives
    the inverse.
    """
    return {
        sample_key(name, labels): value
        for name, labels, value in parse_prom_samples(text)
    }


def write_metrics_file(
    registry: MetricsRegistry, path: str
) -> None:
    """Atomically write the registry snapshot to ``path``.

    Write-then-rename so a concurrent reader (or a crash mid-flush)
    never observes a torn snapshot.
    """
    atomic_write(path, registry.render_prom())


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry used by ``repro`` internals."""
    return _GLOBAL_REGISTRY


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "parse_prom",
    "parse_prom_samples",
    "sample_key",
    "write_metrics_file",
]
