"""Leaf dataclasses of the historical store (codec-registered types).

Three wire types cross the store boundary and therefore live here, in a
leaf module :mod:`repro.schema.wire` can import to register their
codecs without pulling the rest of the store package (sqlite handling,
query plane, alert engine) into schema's import graph:

* :class:`StoreManifest` — the one-per-store artifact pinning layout
  version, partition granularity, and creation time.  A store written
  by an incompatible release fails its open with a clear
  :class:`~repro.errors.SchemaVersionError`-style diagnostic instead of
  silently mixing layouts.
* :class:`MetricSample` — one point of one exported metric series, the
  durable form of a ``repro.obs`` registry sample.  Ingesting a
  Prometheus snapshot turns every sample line into one of these.
* :class:`AlertEvent` — one alert transition (``firing`` or
  ``resolved``) emitted by the :class:`~repro.store.alerts.AlertEngine`,
  durable in the store and renderable as a Markdown incident report.

Like every other codec-registered leaf (``ObsEvent``,
``JournalRecord``), serialization helpers lazy-import schema inside the
call so this module never imports :mod:`repro.schema` at module level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

#: Bump on any incompatible change to the on-disk store layout (sqlite
#: tables, segment envelope, partition naming).  Checked at open.
STORE_LAYOUT_VERSION = 1


@dataclass
class StoreManifest:
    """Identity card of one store directory (a stamped artifact)."""

    layout: int
    created_ts: float
    partition_s: float = 86400.0  # segment partition width (seconds)

    def to_json(self) -> Dict[str, Any]:
        from repro import schema

        return schema.to_wire(self)

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "StoreManifest":
        from repro import schema

        return schema.from_wire("store_manifest", payload)


@dataclass
class MetricSample:
    """One durable point of one metric series.

    ``name`` is the full Prometheus sample name (histogram samples keep
    their ``_bucket``/``_sum``/``_count`` suffix), ``labels`` the
    decoded (unescaped) label map — ``le`` included for buckets, so a
    stored histogram reconstructs exactly.
    """

    ts: float
    name: str
    value: float
    labels: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        from repro import schema

        return schema.to_wire(self)

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "MetricSample":
        from repro import schema

        return schema.from_wire("metric_sample", payload)


#: Alert lifecycle states an :class:`AlertEvent` can announce.
ALERT_FIRING = "firing"
ALERT_RESOLVED = "resolved"


@dataclass
class AlertEvent:
    """One alert transition, schema-versioned like every artifact.

    ``value`` is the observed signal that crossed (or re-crossed) the
    rule's threshold at evaluation time ``ts``; ``labels`` carries what
    the rule matched on (chain, profile, metric name, ...), so a stored
    event is enough to re-render its incident report later.
    """

    rule: str
    state: str  # ALERT_FIRING | ALERT_RESOLVED
    ts: float
    signal: str
    value: float
    threshold: float
    window_s: float
    severity: str = "warn"
    message: str = ""
    labels: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        from repro import schema

        return schema.to_wire(self)

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "AlertEvent":
        from repro import schema

        return schema.from_wire("alert_event", payload)


__all__ = [
    "ALERT_FIRING",
    "ALERT_RESOLVED",
    "STORE_LAYOUT_VERSION",
    "AlertEvent",
    "MetricSample",
    "StoreManifest",
]
