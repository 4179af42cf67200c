"""RLC transmission buffer as a byte stream.

Packets entering the RLC layer are concatenated into a conceptual byte
stream; transport blocks carry contiguous ranges of that stream (an SDU
may be segmented across TBs, and one TB may carry several SDUs — both
happen constantly for bursty VCA traffic, see Fig. 14).  The buffer
tracks which bytes have been *enqueued* and which have been *taken* for
transmission, so Buffer Status Reports and the rate-gap telemetry of
Fig. 12 fall out naturally.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional


@dataclass(frozen=True)
class BufferedPacket:
    """One packet's placement in the RLC byte stream."""

    packet_id: int
    start_offset: int
    end_offset: int  # exclusive
    enqueue_us: int

    @property
    def size_bytes(self) -> int:
        return self.end_offset - self.start_offset


@dataclass(frozen=True)
class Segment:
    """A contiguous byte range taken from the buffer for one TB."""

    start_offset: int
    end_offset: int  # exclusive

    @property
    def size_bytes(self) -> int:
        return self.end_offset - self.start_offset


class RlcSendBuffer:
    """FIFO byte-stream transmission buffer.

    The buffer never copies payload bytes — packets are abstract sizes.
    Offsets grow monotonically for the lifetime of the bearer.
    """

    def __init__(self) -> None:
        self._packets: Deque[BufferedPacket] = deque()
        self._write_offset = 0  # next byte to be enqueued
        self._read_offset = 0  # next byte to be taken for transmission
        self.total_enqueued_bytes = 0
        self.total_taken_bytes = 0

    def enqueue(self, packet_id: int, size_bytes: int, now_us: int) -> BufferedPacket:
        """Append a packet to the stream; returns its offset placement."""
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        placed = BufferedPacket(
            packet_id=packet_id,
            start_offset=self._write_offset,
            end_offset=self._write_offset + size_bytes,
            enqueue_us=now_us,
        )
        self._packets.append(placed)
        self._write_offset += size_bytes
        self.total_enqueued_bytes += size_bytes
        return placed

    def take(self, max_bytes: int) -> Optional[Segment]:
        """Take up to *max_bytes* of untransmitted stream for one TB.

        Returns None if the buffer holds no untransmitted bytes.
        """
        if max_bytes <= 0:
            return None
        available = self._write_offset - self._read_offset
        if available <= 0:
            return None
        size = min(max_bytes, available)
        segment = Segment(self._read_offset, self._read_offset + size)
        self._read_offset += size
        self.total_taken_bytes += size
        return segment

    def buffered_bytes(self) -> int:
        """Bytes enqueued but not yet taken for transmission (BSR value)."""
        return self._write_offset - self._read_offset

    def packets_overlapping(self, start: int, end: int) -> List[BufferedPacket]:
        """Packets whose byte ranges intersect [start, end)."""
        return [
            p
            for p in self._packets
            if p.start_offset < end and p.end_offset > start
        ]

    def release_delivered(self, delivered_offset: int) -> List[BufferedPacket]:
        """Drop and return packets fully delivered below *delivered_offset*.

        Keeps memory bounded for long sessions.
        """
        released: List[BufferedPacket] = []
        while self._packets and self._packets[0].end_offset <= delivered_offset:
            released.append(self._packets.popleft())
        return released
