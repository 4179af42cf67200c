"""The WebRTC client: sender + receiver + GCC + 50 ms statistics.

Mirrors the paper's instrumented libwebrtc client (§3): a virtual camera
produces frames at the encoder's rate/fps operating point, frames are
packetised and paced onto the network, GCC consumes transport-wide
feedback, and every 50 ms the client logs the full internal state that
Domino's application-layer features are computed from.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

from repro.net.packet import Packet
from repro.rtc.encoder import EncoderAdapter
from repro.rtc.gcc.controller import GccController, GccOutput, PacketResult
from repro.rtc.pacer import Pacer
from repro.rtc.receiver import MediaReceiver
from repro.rtc.rtcp import FeedbackPayload
from repro.telemetry.collect import TelemetryCollector
from repro.telemetry.records import StreamKind


@dataclass
class ClientConfig:
    """Static configuration of one WebRTC client."""

    name: str
    initial_bps: float = 1_000_000.0
    min_bps: float = 30_000.0
    max_bps: float = 6_000_000.0
    resolution_bias: int = 0
    mtu_payload_bytes: int = 1_200
    audio_interval_us: int = 20_000
    audio_bytes: int = 160
    feedback_interval_us: int = 50_000
    stats_interval_us: int = 50_000
    process_interval_us: int = 25_000
    pushback_enabled: bool = True
    seed: int = 0


class WebRtcClient:
    """One endpoint of a two-party call."""

    def __init__(
        self,
        config: ClientConfig,
        packet_id_alloc: Callable[[], int],
        collector: Optional[TelemetryCollector] = None,
    ) -> None:
        self.config = config
        self.name = config.name
        self._alloc = packet_id_alloc
        self.collector = collector
        self.encoder = EncoderAdapter(
            resolution_bias=config.resolution_bias, seed=config.seed
        )
        self.pacer = Pacer()
        self.gcc = GccController(
            initial_bps=config.initial_bps,
            min_bps=config.min_bps,
            max_bps=config.max_bps,
            pushback_enabled=config.pushback_enabled,
        )
        self.receiver = MediaReceiver()
        self._media_seq = 0
        self._audio_seq = 0
        self._frame_id = 0
        self._next_frame_us = 0
        self._next_audio_us = 0
        self._next_feedback_us = config.feedback_interval_us
        self._next_stats_us = config.stats_interval_us
        self._next_process_us = config.process_interval_us
        self._last_output: GccOutput = self.gcc.process(0)
        # Recently sent video packets kept for NACK retransmission,
        # keyed by media_seq.
        self._rtx_store: "dict[int, Packet]" = {}
        self._rtx_order: Deque[int] = deque()
        self._sent_frame_times: Deque[int] = deque()
        self._current_fps = 30.0
        self._current_resolution = self.encoder.resolution_p
        self._last_freeze_total_us = 0
        self._last_concealed = 0
        self._last_total_samples = 0
        # Time of the last step, or of the last idle tick caught up.
        self._now_us = 0

    @property
    def current_target_bps(self) -> float:
        """Most recent congestion-controller target (app-layer symptom)."""
        return self._last_output.target_bps

    # -- main step ------------------------------------------------------------

    def step(
        self, now_us: int, arrivals: List[Tuple[Packet, int]]
    ) -> List[Packet]:
        """Advance the client to *now_us*.

        Args:
            arrivals: (packet, arrival_us) pairs delivered this step.

        Returns:
            Packets released onto the network this step.
        """
        self._now_us = now_us
        for packet, arrival_us in arrivals:
            self._on_arrival(packet, arrival_us, now_us)
        self.receiver.step(now_us)

        outgoing: List[Packet] = []
        self._maybe_capture_video(now_us)
        self._maybe_capture_audio(now_us)

        if now_us >= self._next_process_us:
            self._last_output = self.gcc.process(now_us)
            self.gcc.drop_stale(now_us)
            self._next_process_us += self.config.process_interval_us

        self.pacer.set_rate(self._last_output.pushback_bps)
        for packet in self.pacer.drain(now_us):
            if packet.media_seq is not None:
                self.gcc.on_packet_sent(
                    packet.media_seq, packet.size_bytes, now_us
                )
                if packet.stream is StreamKind.VIDEO:
                    self._store_for_rtx(packet)
            outgoing.append(packet)

        if now_us >= self._next_feedback_us:
            feedback = self._build_feedback_packet(now_us)
            if feedback is not None:
                outgoing.append(feedback)
            self._next_feedback_us += self.config.feedback_interval_us

        if now_us >= self._next_stats_us:
            self._record_stats(now_us)
            self._next_stats_us += self.config.stats_interval_us
        return outgoing

    def next_due_us(self) -> int:
        """Earliest time a step with no arrivals does more than an idle
        tick (see :meth:`catch_up`): a capture, GCC process, feedback or
        stats timer, the pacer's next release, or a jitter buffer's
        playout, abandonment or freeze onset."""
        return min(
            self._next_frame_us,
            self._next_audio_us,
            self._next_process_us,
            self._next_feedback_us,
            self._next_stats_us,
            self.pacer.next_release_us(),
            self.receiver.next_due_us(),
        )

    def catch_up(self, now_us: int, tick_us: int) -> None:
        """Apply the idle ticks of *tick_us* after the last step up to
        *now_us*, as if :meth:`step` had run on each with no arrivals.

        Call it only for ticks before :meth:`next_due_us`.  Such a tick
        changes three floats and nothing else: both jitter-buffer
        targets decay and the pacer's budget refills.
        """
        ticks = (now_us - self._now_us) // tick_us
        if ticks <= 0:
            return
        self.receiver.video.idle_ticks(ticks, tick_us)
        self.receiver.audio.idle_ticks(ticks, tick_us)
        self.pacer.idle_ticks(ticks, tick_us)
        self._now_us += ticks * tick_us

    # -- inbound ---------------------------------------------------------------

    def _on_arrival(self, packet: Packet, arrival_us: int, now_us: int) -> None:
        if packet.stream is StreamKind.RTCP:
            payload = packet.payload
            if isinstance(payload, FeedbackPayload):
                if payload.entries:
                    results = [
                        PacketResult(
                            seq=e.seq,
                            send_us=e.send_us,
                            arrival_us=e.arrival_us,
                            size_bytes=e.size_bytes,
                        )
                        for e in payload.entries
                    ]
                    self._last_output = self.gcc.on_feedback(results, now_us)
                for seq in payload.nacks:
                    self._retransmit(seq, now_us)
        else:
            self.receiver.on_packet(packet, arrival_us)

    def _retransmit(self, nacked_seq: int, now_us: int) -> None:
        """Re-send a NACKed video packet under a fresh sequence number."""
        original = self._rtx_store.get(nacked_seq)
        if original is None:
            return
        self.pacer.enqueue(
            Packet(
                packet_id=self._alloc(),
                stream=original.stream,
                size_bytes=original.size_bytes,
                sent_us=now_us,
                sender=self.name,
                media_seq=self._next_media_seq(),
                frame_id=original.frame_id,
                packets_in_frame=original.packets_in_frame,
                capture_us=original.capture_us,
                resolution_p=original.resolution_p,
            )
        )

    # -- media generation ------------------------------------------------------

    def _maybe_capture_video(self, now_us: int) -> None:
        if now_us < self._next_frame_us:
            return
        rate = self._last_output.pushback_bps
        # ~90% of the rate goes to video; audio and RTCP take the rest.
        video_rate = max(50_000.0, rate * 0.9)
        resolution, fps = self.encoder.adapt(video_rate)
        self._current_fps = fps
        self._current_resolution = resolution
        frame_bytes = self.encoder.frame_bytes(video_rate, fps)
        n_packets = max(1, math.ceil(frame_bytes / self.config.mtu_payload_bytes))
        frame_id = self._frame_id
        self._frame_id += 1
        remaining = frame_bytes
        for _ in range(n_packets):
            size = min(self.config.mtu_payload_bytes, remaining)
            remaining -= size
            self.pacer.enqueue(
                Packet(
                    packet_id=self._alloc(),
                    stream=StreamKind.VIDEO,
                    size_bytes=size,
                    sent_us=now_us,
                    sender=self.name,
                    media_seq=self._next_media_seq(),
                    frame_id=frame_id,
                    packets_in_frame=n_packets,
                    capture_us=now_us,
                    resolution_p=resolution,
                )
            )
        self._sent_frame_times.append(now_us)
        cutoff = now_us - 1_000_000
        while self._sent_frame_times and self._sent_frame_times[0] < cutoff:
            self._sent_frame_times.popleft()
        self._next_frame_us = now_us + int(1e6 / max(fps, 1.0))

    def _maybe_capture_audio(self, now_us: int) -> None:
        while now_us >= self._next_audio_us:
            self.pacer.enqueue(
                Packet(
                    packet_id=self._alloc(),
                    stream=StreamKind.AUDIO,
                    size_bytes=self.config.audio_bytes,
                    sent_us=now_us,
                    sender=self.name,
                    media_seq=self._next_media_seq(),
                    capture_us=self._next_audio_us,
                    audio_seq=self._audio_seq,
                )
            )
            self._audio_seq += 1
            self._next_audio_us += self.config.audio_interval_us

    def _next_media_seq(self) -> int:
        seq = self._media_seq
        self._media_seq += 1
        return seq

    def _store_for_rtx(self, packet: Packet) -> None:
        assert packet.media_seq is not None
        self._rtx_store[packet.media_seq] = packet
        self._rtx_order.append(packet.media_seq)
        while len(self._rtx_order) > 3_000:
            old = self._rtx_order.popleft()
            self._rtx_store.pop(old, None)

    # -- feedback -----------------------------------------------------------------

    def _build_feedback_packet(self, now_us: int) -> Optional[Packet]:
        payload = self.receiver.build_feedback(now_us)
        if payload is None:
            return None
        return Packet(
            packet_id=self._alloc(),
            stream=StreamKind.RTCP,
            size_bytes=payload.wire_bytes,
            sent_us=now_us,
            sender=self.name,
            payload=payload,
        )

    # -- statistics -----------------------------------------------------------------

    def outbound_fps(self, now_us: int) -> float:
        return float(len(self._sent_frame_times))

    def _record_stats(self, now_us: int) -> None:
        if self.collector is None:
            return
        video = self.receiver.video
        audio = self.receiver.audio
        freeze_total = video.total_freeze_us
        freeze_delta_ms = (freeze_total - self._last_freeze_total_us) / 1000.0
        self._last_freeze_total_us = freeze_total
        concealed_delta = audio.concealed_samples - self._last_concealed
        self._last_concealed = audio.concealed_samples
        samples_delta = audio.total_samples - self._last_total_samples
        self._last_total_samples = audio.total_samples
        output = self._last_output
        # The stats row in columns.WEBRTC_STATS order.
        self.collector.record_webrtc_stats(
            now_us,
            self.name,
            self.outbound_fps(now_us),
            self._current_resolution,
            output.target_bps,
            output.pushback_bps,
            output.state.value,
            output.trend_slope_ms_per_s,
            output.threshold,
            output.outstanding_bytes,
            output.congestion_window_bytes,
            self.receiver.inbound_fps(now_us),
            self.receiver.inbound_resolution(),
            video.current_delay_ms(),
            audio.current_delay_ms(),
            video.is_frozen(now_us),
            max(0.0, freeze_delta_ms),
            concealed_delta,
            samples_delta,
        )
