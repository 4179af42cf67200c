"""Receiver side of a WebRTC client.

Feeds arriving media into the jitter buffers, measures inbound quality
(frame rate, freezes, concealment), performs gap-based loss detection,
and assembles transport-wide feedback payloads for the remote sender's
congestion controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.packet import Packet
from repro.rtc.jitter_buffer import AudioJitterBuffer, VideoJitterBuffer
from repro.rtc.rtcp import FeedbackEntry, FeedbackPayload
from repro.telemetry.records import StreamKind

#: How long a sequence gap may stay open before the missing packet is
#: declared lost in feedback (reordering tolerance).
LOSS_DEADLINE_US = 150_000

#: Gap age after which a NACK is issued, and the retry budget per seq.
NACK_AGE_US = 20_000
MAX_NACKS_PER_SEQ = 2


@dataclass
class _PendingEntry:
    seq: int
    send_us: int
    arrival_us: Optional[int]
    size_bytes: int


@dataclass
class MediaReceiver:
    """Inbound media processing for one client."""

    video: VideoJitterBuffer = field(default_factory=VideoJitterBuffer)
    audio: AudioJitterBuffer = field(default_factory=AudioJitterBuffer)

    _pending_feedback: List[_PendingEntry] = field(default_factory=list)
    _highest_seq: Optional[int] = None
    _seen: Dict[int, int] = field(default_factory=dict)  # seq -> arrival
    _gap_deadlines: Dict[int, int] = field(default_factory=dict)
    _gap_opened_us: Dict[int, int] = field(default_factory=dict)
    _nack_counts: Dict[int, int] = field(default_factory=dict)
    _last_send_us: Dict[int, int] = field(default_factory=dict)
    total_received: int = 0
    total_lost_declared: int = 0
    total_nacks_sent: int = 0

    def on_packet(self, packet: Packet, arrival_us: int) -> None:
        """Process one arriving media packet."""
        self.total_received += 1
        if packet.stream is StreamKind.VIDEO and packet.frame_id is not None:
            self.video.on_packet(
                frame_id=packet.frame_id,
                capture_us=packet.capture_us or packet.sent_us,
                packets_in_frame=packet.packets_in_frame,
                resolution_p=packet.resolution_p,
                arrival_us=arrival_us,
            )
        elif packet.stream is StreamKind.AUDIO and packet.audio_seq is not None:
            self.audio.on_packet(
                audio_seq=packet.audio_seq,
                capture_us=packet.capture_us or packet.sent_us,
                arrival_us=arrival_us,
            )
        if packet.media_seq is None:
            return
        seq = packet.media_seq
        self._pending_feedback.append(
            _PendingEntry(
                seq=seq,
                send_us=packet.sent_us,
                arrival_us=arrival_us,
                size_bytes=packet.size_bytes,
            )
        )
        self._seen[seq] = arrival_us
        self._gap_deadlines.pop(seq, None)
        self._last_send_us[seq] = packet.sent_us
        if self._highest_seq is None:
            self._highest_seq = seq
            return
        if seq > self._highest_seq:
            # Open gap deadlines for every sequence number we skipped.
            for missing in range(self._highest_seq + 1, seq):
                if missing not in self._seen:
                    self._gap_deadlines.setdefault(
                        missing, arrival_us + LOSS_DEADLINE_US
                    )
                    self._gap_opened_us.setdefault(missing, arrival_us)
            self._highest_seq = seq

    def step(self, now_us: int) -> None:
        """Advance playout clocks."""
        self.video.step(now_us)
        self.audio.step(now_us)

    def next_due_us(self) -> int:
        """Earliest time :meth:`step` does more than decay the buffers'
        targets, if no packet arrives before it."""
        return min(self.video.next_due_us(), self.audio.next_due_us())

    def build_feedback(self, now_us: int) -> Optional[FeedbackPayload]:
        """Drain pending acks + expired gaps into one feedback payload."""
        entries: List[FeedbackEntry] = []
        for pending in self._pending_feedback:
            entries.append(
                FeedbackEntry(
                    seq=pending.seq,
                    send_us=pending.send_us,
                    arrival_us=pending.arrival_us,
                    size_bytes=pending.size_bytes,
                )
            )
        self._pending_feedback = []
        expired = [
            seq
            for seq, deadline in self._gap_deadlines.items()
            if deadline <= now_us
        ]
        for seq in expired:
            del self._gap_deadlines[seq]
            self._gap_opened_us.pop(seq, None)
            self._nack_counts.pop(seq, None)
            if seq in self._seen:
                continue
            self.total_lost_declared += 1
            # Estimate the send time from neighbours for GCC's bookkeeping.
            send_estimate = self._estimate_send_us(seq)
            entries.append(
                FeedbackEntry(
                    seq=seq,
                    send_us=send_estimate,
                    arrival_us=None,
                    size_bytes=1_000,
                )
            )
        nacks: List[int] = []
        for seq, opened_us in list(self._gap_opened_us.items()):
            if seq in self._seen or seq not in self._gap_deadlines:
                del self._gap_opened_us[seq]
                self._nack_counts.pop(seq, None)
                continue
            if now_us - opened_us < NACK_AGE_US:
                continue
            count = self._nack_counts.get(seq, 0)
            if count >= MAX_NACKS_PER_SEQ:
                continue
            self._nack_counts[seq] = count + 1
            self.total_nacks_sent += 1
            nacks.append(seq)
        if not entries and not nacks:
            return None
        entries.sort(key=lambda e: e.seq)
        return FeedbackPayload(
            entries=entries, nacks=nacks, generated_us=now_us
        )

    def _estimate_send_us(self, seq: int) -> int:
        for neighbour in (seq - 1, seq + 1, seq - 2, seq + 2):
            if neighbour in self._last_send_us:
                return self._last_send_us[neighbour]
        return 0

    # -- inbound stats ------------------------------------------------------------

    def inbound_fps(self, now_us: int) -> float:
        return self.video.fps_over(now_us)

    def inbound_resolution(self) -> int:
        return self.video.last_resolution()
