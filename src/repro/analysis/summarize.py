"""Session-level summaries extracted from telemetry bundles.

Shared by the Fig. 2-4 and Fig. 8 benchmarks: one-way delays per
direction, jitter-buffer delays, target bitrates, frame rates, freeze
and concealment totals.  Each is array code over the bundle's typed
columns, building no record object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.cdf import Cdf, compute_cdf
from repro.telemetry.columns import code
from repro.telemetry.records import StreamKind, TelemetryBundle


def packet_delays_ms(
    bundle: TelemetryBundle,
    uplink: bool,
    streams: Optional[List[StreamKind]] = None,
) -> np.ndarray:
    """One-way delays (ms) of delivered packets in one direction."""
    packets = bundle.packets
    streams = streams or [StreamKind.VIDEO, StreamKind.AUDIO]
    wanted = [code(kind) for kind in streams]
    mask = (
        (packets.column("is_uplink") == uplink)
        & packets.column("received_us.present")
        & np.isin(packets.column("stream"), wanted)
    )
    delay_us = packets.column("received_us") - packets.column("sent_us")
    return delay_us[mask] / 1000.0


def loss_rate(bundle: TelemetryBundle, uplink: bool) -> float:
    """Fraction of media packets lost in one direction."""
    packets = bundle.packets
    media = (packets.column("is_uplink") == uplink) & (
        packets.column("stream") != code(StreamKind.RTCP)
    )
    total = int(np.count_nonzero(media))
    lost = int(np.count_nonzero(media & ~packets.column("received_us.present")))
    return lost / total if total else 0.0


def stats_series(
    bundle: TelemetryBundle, client: str, fieldname: str
) -> np.ndarray:
    """One WebRTC stats field as a time series for one client."""
    stats = bundle.webrtc_stats
    mine = stats.column("client") == client
    return stats.column(fieldname)[mine].astype(float)


@dataclass
class SessionSummary:
    """Headline metrics of one session (Figs. 2-4 rows)."""

    name: str
    ul_delay: Cdf
    dl_delay: Cdf
    ul_video_jb: Cdf
    dl_video_jb: Cdf
    ul_audio_jb: Cdf
    dl_audio_jb: Cdf
    ul_target_bitrate: Cdf
    dl_target_bitrate: Cdf
    ul_fps: Cdf
    dl_fps: Cdf
    ul_concealed_fraction: float
    dl_concealed_fraction: float
    ul_freeze_fraction: float
    dl_freeze_fraction: float

    def row(self) -> Dict[str, float]:
        return {
            "ul_delay_median_ms": self.ul_delay.median,
            "dl_delay_median_ms": self.dl_delay.median,
            "ul_delay_p99_ms": self.ul_delay.percentile(99),
            "dl_delay_p99_ms": self.dl_delay.percentile(99),
            "ul_jb_median_ms": self.ul_video_jb.median,
            "dl_jb_median_ms": self.dl_video_jb.median,
            "ul_concealed": self.ul_concealed_fraction,
            "dl_concealed": self.dl_concealed_fraction,
            "ul_frozen": self.ul_freeze_fraction,
            "dl_frozen": self.dl_freeze_fraction,
        }


def summarize_session(bundle: TelemetryBundle) -> SessionSummary:
    """Extract the Figs. 2-4 / Fig. 8 metrics from one session bundle.

    Direction naming follows the paper: "UL" metrics describe the stream
    the cellular client *sends* (received by the wired client), "DL" the
    stream it receives.
    """
    local = bundle.cellular_client
    remote = bundle.wired_client
    # The UL stream's jitter buffer / fps / concealment live at the
    # remote receiver; the UL target bitrate lives at the local sender.
    ul_stats = {
        "jb": stats_series(bundle, remote, "video_jitter_buffer_ms"),
        "audio_jb": stats_series(bundle, remote, "audio_jitter_buffer_ms"),
        "fps": stats_series(bundle, remote, "inbound_fps"),
        "target": stats_series(bundle, local, "target_bitrate_bps"),
        "concealed": stats_series(bundle, remote, "concealed_samples"),
        "samples": stats_series(bundle, remote, "total_samples"),
        "frozen": stats_series(bundle, remote, "frozen"),
    }
    dl_stats = {
        "jb": stats_series(bundle, local, "video_jitter_buffer_ms"),
        "audio_jb": stats_series(bundle, local, "audio_jitter_buffer_ms"),
        "fps": stats_series(bundle, local, "inbound_fps"),
        "target": stats_series(bundle, remote, "target_bitrate_bps"),
        "concealed": stats_series(bundle, local, "concealed_samples"),
        "samples": stats_series(bundle, local, "total_samples"),
        "frozen": stats_series(bundle, local, "frozen"),
    }

    def concealed_fraction(stats: Dict[str, np.ndarray]) -> float:
        total = float(stats["samples"].sum())
        return float(stats["concealed"].sum()) / total if total else 0.0

    def freeze_fraction(stats: Dict[str, np.ndarray]) -> float:
        if len(stats["frozen"]) == 0:
            return 0.0
        return float(np.mean(stats["frozen"] > 0))

    return SessionSummary(
        name=bundle.session_name,
        ul_delay=compute_cdf(packet_delays_ms(bundle, uplink=True)),
        dl_delay=compute_cdf(packet_delays_ms(bundle, uplink=False)),
        ul_video_jb=compute_cdf(ul_stats["jb"]),
        dl_video_jb=compute_cdf(dl_stats["jb"]),
        ul_audio_jb=compute_cdf(ul_stats["audio_jb"]),
        dl_audio_jb=compute_cdf(dl_stats["audio_jb"]),
        ul_target_bitrate=compute_cdf(ul_stats["target"]),
        dl_target_bitrate=compute_cdf(dl_stats["target"]),
        ul_fps=compute_cdf(ul_stats["fps"]),
        dl_fps=compute_cdf(dl_stats["fps"]),
        ul_concealed_fraction=concealed_fraction(ul_stats),
        dl_concealed_fraction=concealed_fraction(dl_stats),
        ul_freeze_fraction=freeze_fraction(ul_stats),
        dl_freeze_fraction=freeze_fraction(dl_stats),
    )
