"""Access links and the internet segment.

Three access types appear in the paper's datasets: wired, Wi-Fi, and
cellular.  Wired and Wi-Fi are modeled as stochastic delay pipes (base
propagation + queueing jitter + rare loss); cellular wraps the full RAN
simulator.  The internet segment models the path between the cell/campus
and the far endpoint (a GCP server ~150 miles away in §2.1).

All links preserve FIFO ordering — reordering in the paper's traces comes
from the RLC layer, which the RAN simulator models explicitly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.ran.simulator import RanSimulator
from repro.units import ms


@dataclass
class DelayModel:
    """Stochastic one-way delay: base + exponential jitter, optional loss.

    Args:
        base_us: fixed propagation/processing delay.
        jitter_us: mean of the exponential queueing-jitter component.
        loss_rate: i.i.d. packet loss probability.
        seed: RNG seed.
    """

    base_us: int
    jitter_us: int = 0
    loss_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def transit_us(self) -> Optional[int]:
        """One-way delay for a packet, or None if it is lost."""
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            return None
        jitter = 0
        if self.jitter_us > 0:
            jitter = int(self._rng.exponential(self.jitter_us))
        return self.base_us + jitter


def wired_delay_model(seed: int = 0, loss_rate: float = 0.0005) -> DelayModel:
    """Campus-grade wired access: ~1 ms, tiny jitter, negligible loss."""
    return DelayModel(base_us=ms(1), jitter_us=ms(0.3), loss_rate=loss_rate, seed=seed)


def wifi_delay_model(seed: int = 0, loss_rate: float = 0.004) -> DelayModel:
    """Home/enterprise Wi-Fi: a few ms with heavier jitter and some loss."""
    return DelayModel(base_us=ms(3), jitter_us=ms(4), loss_rate=loss_rate, seed=seed)


class AccessLink:
    """Interface of an endpoint's access network.

    ``up`` is client → internet, ``down`` is internet → client.  Senders
    call :meth:`send_up` / :meth:`send_down`; the session polls
    :meth:`poll` each step for (packet_id, deliver_us) completions.
    """

    def send_up(self, packet_id: int, size_bytes: int, now_us: int) -> None:
        raise NotImplementedError

    def send_down(self, packet_id: int, size_bytes: int, now_us: int) -> None:
        raise NotImplementedError

    def poll(self, now_us: int) -> List[Tuple[int, int, bool]]:
        """Return (packet_id, delivered_us, was_uplink) completions."""
        raise NotImplementedError

    @property
    def step_us(self) -> int:
        """Native time granularity of this access (session step hint)."""
        return ms(1)

    @property
    def slots(self) -> int:
        """RAN slots simulated so far (0 for an access without a RAN)."""
        return 0


class WiredAccess(AccessLink):
    """Wired (or Wi-Fi) access: independent stochastic delay per packet.

    FIFO order is enforced per direction: a packet cannot overtake the
    one in front of it.
    """

    def __init__(self, up: DelayModel, down: DelayModel) -> None:
        self._models = {True: up, False: down}
        self._heaps: dict = {True: [], False: []}
        self._last_delivery = {True: 0, False: 0}
        self._counter = 0

    def _send(
        self, uplink: bool, packet_id: int, size_bytes: int, now_us: int
    ) -> None:
        transit = self._models[uplink].transit_us()
        if transit is None:
            return  # lost
        arrival = now_us + transit
        arrival = max(arrival, self._last_delivery[uplink])
        self._last_delivery[uplink] = arrival
        self._counter += 1
        heapq.heappush(self._heaps[uplink], (arrival, self._counter, packet_id))

    def send_up(self, packet_id: int, size_bytes: int, now_us: int) -> None:
        self._send(True, packet_id, size_bytes, now_us)

    def send_down(self, packet_id: int, size_bytes: int, now_us: int) -> None:
        self._send(False, packet_id, size_bytes, now_us)

    def poll(self, now_us: int) -> List[Tuple[int, int, bool]]:
        out: List[Tuple[int, int, bool]] = []
        for uplink, heap in self._heaps.items():
            while heap and heap[0][0] <= now_us:
                arrival, _, packet_id = heapq.heappop(heap)
                out.append((packet_id, arrival, uplink))
        return out


class CellularAccess(AccessLink):
    """Cellular access backed by the slot-stepped RAN simulator."""

    def __init__(self, ran: RanSimulator) -> None:
        self.ran = ran

    def send_up(self, packet_id: int, size_bytes: int, now_us: int) -> None:
        self.ran.send_uplink(packet_id, size_bytes, now_us)

    def send_down(self, packet_id: int, size_bytes: int, now_us: int) -> None:
        self.ran.send_downlink(packet_id, size_bytes, now_us)

    def poll(self, now_us: int) -> List[Tuple[int, int, bool]]:
        return [
            (d.packet_id, d.delivered_us, d.is_uplink)
            for d in self.ran.step_to(now_us)
        ]

    @property
    def step_us(self) -> int:
        return self.ran.grid.slot_us

    @property
    def slots(self) -> int:
        return self.ran.now_us // self.ran.grid.slot_us


class InternetSegment:
    """The wide-area path between the two access networks (GCP leg)."""

    def __init__(self, delay: Optional[DelayModel] = None, seed: int = 0) -> None:
        self.delay = delay or DelayModel(
            base_us=ms(8), jitter_us=ms(1), loss_rate=0.0, seed=seed
        )
        self._heap: List[Tuple[int, int, int]] = []
        self._counter = 0
        self._last_delivery = 0

    def send(self, packet_id: int, now_us: int) -> None:
        transit = self.delay.transit_us()
        if transit is None:
            return
        arrival = max(now_us + transit, self._last_delivery)
        self._last_delivery = arrival
        self._counter += 1
        heapq.heappush(self._heap, (arrival, self._counter, packet_id))

    def poll(self, now_us: int) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = []
        while self._heap and self._heap[0][0] <= now_us:
            arrival, _, packet_id = heapq.heappop(self._heap)
            out.append((packet_id, arrival))
        return out
