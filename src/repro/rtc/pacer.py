"""Packet pacer.

WebRTC's pacer smooths frame bursts onto the wire at a multiple of the
target rate (the *pacing factor*, 2.5x by default) so a large keyframe
does not instantaneously flood the path.  Bursts still exist at the
5G grant granularity — which is why the paper's Fig. 14 shows clustered
transmit times — but the pacer bounds their rate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List

from repro.net.packet import Packet
from repro.units import NEVER_US

PACING_FACTOR = 2.5

#: Audio and RTCP bypass the pacer in WebRTC; we do the same.
_PACED_STREAMS = ("video",)


@dataclass
class Pacer:
    """Leaky-bucket pacer draining a FIFO queue at the pacing rate."""

    pacing_factor: float = PACING_FACTOR
    _queue: Deque[Packet] = field(default_factory=deque)
    _budget_bytes: float = 0.0
    _last_drain_us: int = 0
    rate_bps: float = 1_000_000.0

    def set_rate(self, rate_bps: float) -> None:
        self.rate_bps = max(rate_bps, 30_000.0)

    def enqueue(self, packet: Packet) -> None:
        self._queue.append(packet)

    def drain(self, now_us: int) -> List[Packet]:
        """Release packets allowed by the budget accumulated since the
        last drain; returns them stamped with their release time."""
        self._refill(max(0, now_us - self._last_drain_us), 1)
        self._last_drain_us = now_us
        released: List[Packet] = []
        while self._queue:
            head = self._queue[0]
            if head.stream.value in _PACED_STREAMS:
                if head.size_bytes > self._budget_bytes:
                    break
                self._budget_bytes -= head.size_bytes
            self._queue.popleft()
            head.sent_us = now_us
            released.append(head)
        return released

    def next_release_us(self) -> int:
        """Earliest drain that can release a packet, counted from the
        last drain, if nothing is enqueued and the rate holds: when the
        budget, refilled at the pacing rate, first covers the head.
        A head larger than the budget's cap never goes."""
        if not self._queue:
            return NEVER_US
        head = self._queue[0]
        if head.stream.value not in _PACED_STREAMS:
            return self._last_drain_us + 1
        pacing_rate = self.rate_bps * self.pacing_factor
        if head.size_bytes > pacing_rate / 8.0 * 0.04:
            return NEVER_US
        shortfall = head.size_bytes - self._budget_bytes
        shortfall_us = shortfall * 8e6 / pacing_rate
        # Shaved, so the per-drain float sums cannot reach the head first.
        return self._last_drain_us + max(1, int(shortfall_us * (1 - 1e-9)))

    def idle_ticks(self, ticks: int, tick_us: int) -> None:
        """Apply *ticks* drains of *tick_us* each, all before
        :meth:`next_release_us`: none releases a packet, so their only
        effect is the budget's refill."""
        self._refill(tick_us, ticks)
        self._last_drain_us += ticks * tick_us

    def _refill(self, dt_us: int, ticks: int) -> None:
        """Add *ticks* refills of *dt_us* each to the budget.  Each is
        its own addition, so any split of the ticks gives the same
        float; the loop ends at the cap, which absorbs every later one."""
        pacing_rate = self.rate_bps * self.pacing_factor
        gain = pacing_rate / 8.0 * dt_us / 1e6
        # Cap the budget so idle periods cannot bank an unbounded burst.
        cap = pacing_rate / 8.0 * 0.04
        budget = self._budget_bytes
        for _ in range(ticks):
            budget = min(budget + gain, cap)
            if budget == cap:
                break
        self._budget_bytes = budget

    def __len__(self) -> int:
        return len(self._queue)
