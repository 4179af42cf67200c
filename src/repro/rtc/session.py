"""Two-party WebRTC call session (the paper's Fig. 7 topology).

Client A sits behind an access network (cellular → the RAN simulator, or
wired/Wi-Fi → a stochastic delay pipe); client B is the far endpoint
(a GCP server over wired access in the paper).  Both send media and
feedback through:

    A ──access_a.up──▶ internet(a→b) ──access_b.down──▶ B
    B ──access_b.up──▶ internet(b→a) ──access_a.down──▶ A

The session owns the clock, routes packets hop by hop, and writes the
packet trace + WebRTC stats into the shared telemetry collector.

The clock ticks at the finest access granularity, and the accesses and
tick hooks run on every tick.  The clock is next-event for the clients:
a client steps only on a tick where packets reach it or its
:meth:`~repro.rtc.client.WebRtcClient.next_due_us` has come.  The ticks
in between are idle, and the client replays their three float updates
(:meth:`~repro.rtc.client.WebRtcClient.catch_up`) when it next steps,
so every timestamp and every value matches a client stepped on every
tick.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.link import AccessLink, InternetSegment
from repro.net.packet import Packet
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.rtc.client import ClientConfig, WebRtcClient
from repro.telemetry.collect import TelemetryCollector
from repro.telemetry.columns import code
from repro.telemetry.records import StreamKind, TelemetryBundle

#: Column code of each stream kind, for packet rows.
_STREAM_CODES = {kind: code(kind) for kind in StreamKind}


@dataclass
class SessionResult:
    """Output of one simulated call."""

    bundle: TelemetryBundle
    client_a: WebRtcClient
    client_b: WebRtcClient


class TwoPartySession:
    """Simulates one two-party call and collects all telemetry.

    Args:
        name: session identifier.
        access_a / access_b: the two endpoints' access networks.
        client_a / client_b: client configurations.  Client A is the
            "cellular"/local endpoint for telemetry labelling even when
            its access is wired (baseline runs).
        internet_ab / internet_ba: wide-area segments per direction.
        collector: telemetry sink; a fresh one is created if omitted.
        gnb_log_available: whether gNB logs should be retained.
    """

    def __init__(
        self,
        name: str,
        access_a: AccessLink,
        access_b: AccessLink,
        client_a: ClientConfig,
        client_b: ClientConfig,
        internet_ab: Optional[InternetSegment] = None,
        internet_ba: Optional[InternetSegment] = None,
        collector: Optional[TelemetryCollector] = None,
        gnb_log_available: bool = False,
    ) -> None:
        self.name = name
        self.access_a = access_a
        self.access_b = access_b
        self.internet_ab = internet_ab or InternetSegment(seed=101)
        self.internet_ba = internet_ba or InternetSegment(seed=102)
        self.collector = collector or TelemetryCollector(
            name,
            cellular_client=client_a.name,
            wired_client=client_b.name,
            gnb_log_available=gnb_log_available,
        )
        ids = itertools.count()
        alloc = lambda: next(ids)  # noqa: E731 - tiny shared allocator
        self.client_a = WebRtcClient(client_a, alloc, self.collector)
        self.client_b = WebRtcClient(client_b, alloc, self.collector)
        self._packets: Dict[int, Packet] = {}
        self.step_us = min(access_a.step_us, access_b.step_us)
        self._now_us = 0
        # Each client's next_due_us() as of its last step.
        self._due_a = 0
        self._due_b = 0
        # Deterministic per-step callbacks ``hook(session, now_us)`` —
        # the seam adversarial intervention axes (repro.causal) use to
        # react to in-call state.  Empty for every ordinary session.
        self.tick_hooks: List = []

    # -- plumbing ---------------------------------------------------------------

    def _route_outgoing(self, sender_is_a: bool, packets: List[Packet]) -> None:
        access = self.access_a if sender_is_a else self.access_b
        for packet in packets:
            self._packets[packet.packet_id] = packet
            # The packet's row in columns.PACKETS order, not yet received.
            self.collector.record_packet_sent(
                packet.packet_id,
                _STREAM_CODES[packet.stream],
                packet.size_bytes,
                packet.sent_us,
                None,
                sender_is_a,
                packet.frame_id,
            )
            access.send_up(packet.packet_id, packet.size_bytes, packet.sent_us)

    def _pump_access(
        self, now_us: int
    ) -> Tuple[List[Tuple[Packet, int]], List[Tuple[Packet, int]]]:
        """Move packets through both accesses; return per-client arrivals."""
        arrivals_a: List[Tuple[Packet, int]] = []
        arrivals_b: List[Tuple[Packet, int]] = []
        for pid, ts, was_up in self.access_a.poll(now_us):
            packet = self._packets.get(pid)
            if packet is None:
                continue
            if was_up:
                self.internet_ab.send(pid, ts)
            else:
                self.collector.record_packet_received(pid, ts)
                arrivals_a.append((packet, ts))
        for pid, ts, was_up in self.access_b.poll(now_us):
            packet = self._packets.get(pid)
            if packet is None:
                continue
            if was_up:
                self.internet_ba.send(pid, ts)
            else:
                self.collector.record_packet_received(pid, ts)
                arrivals_b.append((packet, ts))
        for pid, ts in self.internet_ab.poll(now_us):
            packet = self._packets.get(pid)
            if packet is not None:
                self.access_b.send_down(pid, packet.size_bytes, ts)
        for pid, ts in self.internet_ba.poll(now_us):
            packet = self._packets.get(pid)
            if packet is not None:
                self.access_a.send_down(pid, packet.size_bytes, ts)
        return arrivals_a, arrivals_b

    # -- main loop ------------------------------------------------------------------

    @property
    def now_us(self) -> int:
        """Current simulated time (how far the call has been stepped)."""
        return self._now_us

    def advance_to(self, target_us: int) -> int:
        """Step the call forward until its clock reaches *target_us*.

        The incremental API the live :class:`~repro.live.sources.SimSource`
        drives batch by batch; :meth:`run` is one advance_to over the
        whole duration.  Returns the clock after stepping (the first
        multiple of ``step_us`` at or past *target_us*).

        Every tick pumps the accesses and runs the tick hooks.  A client
        steps on a tick only when packets reach it or its
        ``next_due_us()`` has come; it first catches up the idle ticks
        since its last step.  On return both clients are caught up
        through the returned clock, so their state is what stepping them
        on every tick would give.  A tick hook that reads a client
        mid-call sees it as of its last step: an idle tick changes only
        its jitter-buffer targets and pacer budget.

        Each call is one ``sim.advance`` span whose ``ticks``, ``slots``
        and ``client_steps`` attributes are what it adds to the
        ``repro_sim_*_total`` counters.
        """
        step_us = self.step_us
        client_a, client_b = self.client_a, self.client_b
        due_a, due_b = self._due_a, self._due_b
        hooks = self.tick_hooks
        start_us = now_us = self._now_us
        slots_before = self.access_a.slots + self.access_b.slots
        steps = 0
        with span("sim.advance") as advance:
            while now_us < target_us:
                now_us += step_us
                self._now_us = now_us
                for hook in hooks:
                    hook(self, now_us)
                arrivals_a, arrivals_b = self._pump_access(now_us)
                out_a = out_b = None
                if arrivals_a or now_us >= due_a:
                    client_a.catch_up(now_us - step_us, step_us)
                    out_a = client_a.step(now_us, arrivals_a)
                    due_a = client_a.next_due_us()
                    steps += 1
                if arrivals_b or now_us >= due_b:
                    client_b.catch_up(now_us - step_us, step_us)
                    out_b = client_b.step(now_us, arrivals_b)
                    due_b = client_b.next_due_us()
                    steps += 1
                if out_a:
                    self._route_outgoing(True, out_a)
                if out_b:
                    self._route_outgoing(False, out_b)
            client_a.catch_up(now_us, step_us)
            client_b.catch_up(now_us, step_us)
            self._due_a, self._due_b = due_a, due_b
            ticks = (now_us - start_us) // step_us
            slots = self.access_a.slots + self.access_b.slots - slots_before
            advance.set(ticks=ticks, slots=slots, client_steps=steps)
        if ticks:
            registry = get_registry()
            registry.counter(
                "repro_sim_ticks_total", help="Session clock ticks simulated."
            ).inc(ticks)
            registry.counter(
                "repro_sim_client_steps_total",
                help="WebRTC client steps (on arrivals or a due event).",
            ).inc(steps)
            registry.counter(
                "repro_sim_slots_total", help="RAN slots simulated."
            ).inc(slots)
        return now_us

    def run(self, duration_us: int) -> SessionResult:
        """Simulate the call for *duration_us* and return all telemetry."""
        self.advance_to(duration_us)
        bundle = self.collector.bundle(duration_us)
        return SessionResult(
            bundle=bundle, client_a=self.client_a, client_b=self.client_b
        )
