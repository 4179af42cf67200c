"""Telemetry record schemas for all four data sources of Table 1.

These mirror what the paper collects:

* :class:`DciRecord` — one row per decoded DCI / transport block, the
  NR-Scope output: slot timing, RNTI, PRBs, MCS, TBS, retransmission
  flags.  Cross-traffic UEs appear under their own RNTIs, which is how
  Domino's cross-traffic condition (Table 5, row 15) works.
* :class:`GnbLogRecord` — base-station log lines: RLC buffer occupancy,
  RLC retransmissions, RRC state changes.  Only private cells expose
  these (Amarisoft in the paper).
* :class:`PacketRecord` — network-layer packet trace entries joined
  across both capture points, giving one-way delay per packet.
* :class:`WebRtcStatsRecord` — the instrumented client's 50 ms stats:
  frame rate, resolution, jitter-buffer state, GCC internals (network
  state, target bitrate, pushback rate, congestion window, outstanding
  bytes), freeze/concealment counters.

These classes are the row view of telemetry.  Between its producers and
the timeline, telemetry travels as typed columns
(:class:`~repro.telemetry.columns.RecordColumns`), which build these
records only for a consumer that indexes or iterates them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.telemetry.columns import RecordColumns


class StreamKind(enum.Enum):
    """Media stream classification of a packet."""

    VIDEO = "video"
    AUDIO = "audio"
    RTCP = "rtcp"


@dataclass(frozen=True)
class DciRecord:
    """One decoded scheduling grant / transport block (NR-Scope style)."""

    ts_us: int
    slot: int
    rnti: int
    is_uplink: bool
    n_prb: int
    mcs: int
    tbs_bits: int
    is_retx: bool = False
    harq_attempt: int = 0
    crc_ok: bool = True
    proactive: bool = False
    used_bytes: int = 0

    @property
    def tbs_bytes(self) -> int:
        return self.tbs_bits // 8

    @property
    def wasted_bytes(self) -> int:
        """Granted capacity that carried no data (Fig. 16's unfilled bars)."""
        return max(0, self.tbs_bytes - self.used_bytes)


class GnbLogKind(enum.Enum):
    """gNB log entry types."""

    RLC_BUFFER = "rlc_buffer"
    RLC_RETX = "rlc_retx"
    RRC_RELEASE = "rrc_release"
    RRC_CONNECT = "rrc_connect"


@dataclass(frozen=True)
class GnbLogRecord:
    """One gNB log line (private cells only)."""

    ts_us: int
    kind: GnbLogKind
    is_uplink: bool = False
    buffer_bytes: int = 0
    rnti: int = 0


@dataclass(frozen=True)
class PacketRecord:
    """One packet joined across sender- and receiver-side captures."""

    packet_id: int
    stream: StreamKind
    size_bytes: int
    sent_us: int
    received_us: Optional[int] = None  # None = lost
    is_uplink: bool = False  # direction relative to the cellular client
    frame_id: Optional[int] = None  # video frame this packet belongs to

    @property
    def delay_us(self) -> Optional[int]:
        if self.received_us is None:
            return None
        return self.received_us - self.sent_us

    @property
    def lost(self) -> bool:
        return self.received_us is None


@dataclass(frozen=True)
class WebRtcStatsRecord:
    """One 50 ms statistics snapshot from the instrumented client.

    ``direction`` semantics follow the paper: each client reports stats
    about the stream it *sends* (outbound: target/pushback rate, encoder
    resolution) and the stream it *receives* (inbound: frame rate,
    jitter-buffer delay, freezes, concealment).
    """

    ts_us: int
    client: str  # "cellular" or "wired" endpoint name
    # Outbound (sender-side) metrics:
    outbound_fps: float = 0.0
    outbound_resolution_p: int = 0  # 180/360/540/720/1080
    target_bitrate_bps: float = 0.0
    pushback_bitrate_bps: float = 0.0
    gcc_state: str = "normal"  # "underuse" | "normal" | "overuse"
    gcc_trend_slope: float = 0.0
    gcc_threshold: float = 0.0
    outstanding_bytes: int = 0
    congestion_window_bytes: int = 0
    # Inbound (receiver-side) metrics:
    inbound_fps: float = 0.0
    inbound_resolution_p: int = 0
    video_jitter_buffer_ms: float = 0.0
    audio_jitter_buffer_ms: float = 0.0
    frozen: bool = False
    freeze_duration_ms: float = 0.0
    concealed_samples: int = 0
    total_samples: int = 0


@dataclass
class TelemetryBundle:
    """All telemetry from one measurement session, time-aligned by ts_us.

    ``cellular_client`` names the endpoint behind the 5G link so feature
    extraction knows which WebRTC stats are "local" (cellular UE) versus
    "remote".  Timestamps share one clock (hosts were NTP-synced in the
    paper; the simulator has a single clock by construction).

    Each source is a :class:`~repro.telemetry.columns.RecordColumns`:
    typed column arrays that :class:`~repro.telemetry.timeline.Timeline`
    ingests and :func:`~repro.telemetry.io.save_bundle` writes directly,
    and that build record objects only when a consumer indexes or
    iterates them (``len()`` builds none).  A source given as a list of
    records is converted once, at construction.
    """

    session_name: str
    duration_us: int
    cellular_client: str = "cellular"
    wired_client: str = "wired"
    gnb_log_available: bool = False
    dci: "RecordColumns" = field(default_factory=list)
    gnb_log: "RecordColumns" = field(default_factory=list)
    packets: "RecordColumns" = field(default_factory=list)
    webrtc_stats: "RecordColumns" = field(default_factory=list)

    def __post_init__(self) -> None:
        from repro.telemetry.columns import typed_sources

        typed_sources(self)

    def event_rates_per_minute(self) -> dict:
        """Per-minute record rates — the Table 1 'Event Rate' columns."""
        minutes = max(self.duration_us / 60e6, 1e-9)
        return {
            "dci": len(self.dci) / minutes,
            "gnb": len(self.gnb_log) / minutes,
            "packets": len(self.packets) / minutes,
            "webrtc": len(self.webrtc_stats) / minutes,
        }
