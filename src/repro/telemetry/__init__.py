"""Cross-layer telemetry: record schemas, collection, and time alignment.

The measurement half of the paper produces four correlated data sources
(Table 1): NR-Scope-style DCI telemetry from the 5G PHY/MAC, gNB logs
(RLC buffer/ReTX and RRC state; private cells only), network-layer packet
traces, and high-rate (50 ms) WebRTC application statistics.  This
subpackage defines those record schemas (:mod:`repro.telemetry.records`),
their typed column schemas (:mod:`repro.telemetry.columns`), a collector
the simulators write into (:mod:`repro.telemetry.collect`), the JSONL
interchange format (:mod:`repro.telemetry.io`), and the time-aligned,
resampled view Domino's feature extraction consumes
(:mod:`repro.telemetry.timeline`).
"""

from repro.telemetry.collect import TelemetryCollector
from repro.telemetry.records import (
    DciRecord,
    GnbLogKind,
    GnbLogRecord,
    PacketRecord,
    StreamKind,
    TelemetryBundle,
    WebRtcStatsRecord,
)
from repro.telemetry.timeline import Timeline

__all__ = [
    "TelemetryCollector",
    "DciRecord",
    "GnbLogKind",
    "GnbLogRecord",
    "PacketRecord",
    "StreamKind",
    "TelemetryBundle",
    "WebRtcStatsRecord",
    "Timeline",
]
