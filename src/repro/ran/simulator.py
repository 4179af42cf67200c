"""Bidirectional slot-stepped 5G bearer simulator.

The simulator advances in slots (0.5 ms or 1 ms depending on numerology).
Each direction (uplink = UE→gNB, downlink = gNB→UE) runs the pipeline:

    app packet → RLC send buffer → [BSR/grant loop, UL only]
      → PRB scheduling vs cross traffic → transport block (MCS/TBS)
      → HARQ attempts (ReTX ≈ +10 ms each)
      → on HARQ exhaustion: RLC retransmission (≈ +100 ms, HoL blocking)
      → in-order RLC delivery → packet out

RRC transitions (T-Mobile FDD behaviour, §5.3) freeze both directions for
``rrc_outage_us`` while the application keeps queueing data, producing
the 400 ms delay spikes of Fig. 19.

All the causal mechanics of the paper's §5 emerge from this pipeline:
rate gaps grow RLC queues (Fig. 12), cross traffic squeezes PRBs
(Fig. 13), grant-loop latency delays bursts (Figs. 14–16), HARQ and RLC
retransmissions inflate individual packet delays (Figs. 17–18).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mac.crosstraffic import CrossTrafficModel
from repro.mac.harq import HarqEntity, HarqOutcome, TransportBlock
from repro.mac.scheduler import DlScheduler, prbs_needed
from repro.mac.ulgrant import UlGrantLoop
from repro.phy.cell import CellConfig
from repro.phy.channel import ChannelModel, ChannelSample
from repro.phy.mcs import bler, transport_block_size_bits
from repro.rlc.am import ReassemblyEntity
from repro.rlc.buffer import RlcSendBuffer
from repro.rrc.state import RrcManager
from repro.telemetry.collect import TelemetryCollector
from repro.telemetry.columns import code
from repro.telemetry.records import GnbLogKind

# gNB-log kinds as the collector's row codes.
_RLC_BUFFER = code(GnbLogKind.RLC_BUFFER)
_RLC_RETX = code(GnbLogKind.RLC_RETX)
_RRC_RELEASE = code(GnbLogKind.RRC_RELEASE)
_RRC_CONNECT = code(GnbLogKind.RRC_CONNECT)


@dataclass(frozen=True)
class RanDelivery:
    """A packet that completed its traversal of the cellular bearer."""

    packet_id: int
    delivered_us: int
    is_uplink: bool
    hol_blocked: bool = False


@dataclass(frozen=True)
class TbPacketMap:
    """Mapping of one transport block to the packets it carried (Fig. 14)."""

    tb_id: int
    ts_us: int
    is_uplink: bool
    packet_ids: Tuple[int, ...]
    tbs_bits: int
    proactive: bool = False


class _Direction:
    """State for one direction of the bearer."""

    def __init__(
        self,
        is_uplink: bool,
        channel: ChannelModel,
        cross: CrossTrafficModel,
        harq: HarqEntity,
        scheduler: DlScheduler,
        grant_loop: Optional[UlGrantLoop],
    ) -> None:
        self.is_uplink = is_uplink
        self.channel = channel
        self.cross = cross
        self.harq = harq
        self.scheduler = scheduler
        self.grant_loop = grant_loop
        self.buffer = RlcSendBuffer()
        self.reassembly = ReassemblyEntity()
        # RLC recoveries scheduled after HARQ exhaustion:
        # (recover_us, start_offset, end_offset)
        self.rlc_recoveries: List[Tuple[int, int, int]] = []
        self.rlc_retx_count = 0
        # Cache of the channel sample for the current slot.
        self._sample_slot = -1
        self._sample: Optional[ChannelSample] = None
        # Stale sample used for MCS selection (link adaptation lag).
        self._selection_sample: Optional[ChannelSample] = None

    def sample_at(self, slot: int, ts_us: int) -> ChannelSample:
        """Channel sample for *slot*, cached so one slot sees one state."""
        if self._sample_slot != slot:
            self._selection_sample = self._sample
            self._sample = self.channel.sample(ts_us)
            self._sample_slot = slot
        return self._sample

    def selection_mcs(self, slot: int, ts_us: int) -> int:
        """MCS used for scheduling: based on the previous slot's estimate.

        Link adaptation always lags the channel; during a sharp fade the
        stale estimate overshoots and BLER rises — the paper's 'aggressive
        MCS selection' effect (§5.2.2).
        """
        current = self.sample_at(slot, ts_us)
        if self._selection_sample is None:
            return current.mcs
        return self._selection_sample.mcs


class RanSimulator:
    """One cell carrying one experiment UE plus cross traffic.

    Args:
        cell: static cell configuration.
        ul_channel / dl_channel: per-direction channel models.
        ul_cross / dl_cross: cross-traffic populations per direction.
        collector: telemetry sink (optional).
        seed: RNG seed for HARQ coin flips and RRC timing.
        keep_tb_map: record TB→packet mappings (Fig. 14 reproduction).
    """

    #: Nominal MCS used for cross-traffic DCI records.
    CROSS_TRAFFIC_MCS = 18

    def __init__(
        self,
        cell: CellConfig,
        ul_channel: Optional[ChannelModel] = None,
        dl_channel: Optional[ChannelModel] = None,
        ul_cross: Optional[CrossTrafficModel] = None,
        dl_cross: Optional[CrossTrafficModel] = None,
        collector: Optional[TelemetryCollector] = None,
        seed: int = 0,
        keep_tb_map: bool = False,
        scripted_rrc_releases_us: Optional[List[int]] = None,
    ) -> None:
        self.cell = cell
        self.grid = cell.make_grid()
        self.collector = collector
        self.keep_tb_map = keep_tb_map
        self.tb_map: List[TbPacketMap] = []
        self.rrc = RrcManager(
            flap_rate_per_min=cell.rrc_flap_rate_per_min,
            outage_us=cell.rrc_outage_us,
            scripted_releases_us=list(scripted_rrc_releases_us or []),
            seed=seed + 7,
        )
        self._next_tb_id = 0
        self._current_slot = 0
        self._deliveries: List[RanDelivery] = []
        self._packet_sizes: Dict[int, int] = {}
        self._seen_rrc_transitions = 0
        self._buffer_log_period_slots = max(
            1, 10_000 // self.grid.slot_us
        )  # every 10 ms
        # TBS of a cross-traffic grant, by PRB count up to the grid.
        self._cross_tbs = [
            transport_block_size_bits(prbs, self.CROSS_TRAFFIC_MCS)
            for prbs in range(self.grid.n_prb + 1)
        ]

        scheduler = DlScheduler(
            total_prbs=self.grid.n_prb,
            max_exp_fraction=cell.max_prb_per_ue_fraction,
        )
        self.ul = _Direction(
            is_uplink=True,
            channel=ul_channel or ChannelModel(seed=seed + 11),
            cross=ul_cross or CrossTrafficModel.idle(),
            harq=HarqEntity(
                rtt_slots=cell.harq_rtt_slots,
                max_retx=cell.harq_max_retx,
                seed=seed + 13,
            ),
            scheduler=scheduler,
            grant_loop=UlGrantLoop(cell=cell, grid=self.grid),
        )
        self.dl = _Direction(
            is_uplink=False,
            channel=dl_channel or ChannelModel(seed=seed + 17),
            cross=dl_cross or CrossTrafficModel.idle(),
            harq=HarqEntity(
                rtt_slots=cell.harq_rtt_slots,
                max_retx=cell.harq_max_retx,
                seed=seed + 19,
            ),
            scheduler=scheduler,
            grant_loop=None,
        )

    # -- packet ingress ---------------------------------------------------------

    def send_uplink(self, packet_id: int, size_bytes: int, now_us: int) -> None:
        """Enqueue a packet at the UE for uplink transmission."""
        self._enqueue(self.ul, packet_id, size_bytes, now_us)

    def send_downlink(self, packet_id: int, size_bytes: int, now_us: int) -> None:
        """Enqueue a packet at the gNB for downlink transmission."""
        self._enqueue(self.dl, packet_id, size_bytes, now_us)

    def _enqueue(
        self, direction: _Direction, packet_id: int, size_bytes: int, now_us: int
    ) -> None:
        placed = direction.buffer.enqueue(packet_id, size_bytes, now_us)
        direction.reassembly.register_packet(
            packet_id, placed.start_offset, placed.end_offset, now_us
        )
        self._packet_sizes[packet_id] = size_bytes

    # -- introspection --------------------------------------------------------

    def buffered_bytes(self, uplink: bool) -> int:
        """Current RLC queue depth (the Fig. 12 'BSR' subplot)."""
        direction = self.ul if uplink else self.dl
        return direction.buffer.buffered_bytes()

    @property
    def now_us(self) -> int:
        return self._current_slot * self.grid.slot_us

    # -- time stepping -----------------------------------------------------------

    def step_to(self, target_us: int) -> List[RanDelivery]:
        """Advance the simulator through all slots ending at or before
        *target_us*; return packets delivered in that span."""
        target_slot = target_us // self.grid.slot_us
        while self._current_slot < target_slot:
            self._step_slot(self._current_slot)
            self._current_slot += 1
        out = self._deliveries
        self._deliveries = []
        return out

    # -- slot machinery -----------------------------------------------------------

    def _step_slot(self, slot: int) -> None:
        ts = self.grid.slot_start_us(slot)
        self.rrc.step(ts)
        self._handle_new_rrc_transitions(ts)
        connected = self.rrc.is_connected(ts)
        slot_type = self.grid.slot_type(slot)

        # HARQ resolutions and RLC recoveries happen regardless of slot
        # type (they are timing abstractions for decode/ARQ completion).
        for direction in (self.ul, self.dl):
            self._resolve_harq(direction, slot, ts)
            self._process_rlc_recoveries(direction, slot, ts)

        # BSRs ride uplink control channels, which exist in every slot of
        # practical TDD configurations; the data grant itself still only
        # lands on an uplink slot (next_slot_of_type in the grant loop).
        if connected and self.ul.grant_loop is not None:
            self.ul.grant_loop.maybe_send_bsr(
                slot, self.ul.buffer.buffered_bytes()
            )

        if slot_type.carries_downlink:
            self._schedule_downlink(slot, ts, connected)
        if slot_type.carries_uplink:
            self._schedule_uplink(slot, ts, connected)

        if slot % self._buffer_log_period_slots == 0:
            self._log_buffers(ts)

    def _handle_new_rrc_transitions(self, ts: int) -> None:
        """React to RRC releases: log them and reset the UL grant loop
        (pending grants die with the connection)."""
        while self._seen_rrc_transitions < len(self.rrc.transitions):
            transition = self.rrc.transitions[self._seen_rrc_transitions]
            self._seen_rrc_transitions += 1
            if self.ul.grant_loop is not None:
                self.ul.grant_loop.reset()
            if self.collector is not None:
                # Rows in columns.GNB_LOG order: ts_us, kind, is_uplink,
                # buffer_bytes, rnti.
                self.collector.record_gnb_log(
                    transition.release_us,
                    _RRC_RELEASE,
                    False,
                    0,
                    transition.old_rnti,
                )
                self.collector.record_gnb_log(
                    transition.reconnect_us,
                    _RRC_CONNECT,
                    False,
                    0,
                    transition.new_rnti,
                )

    # -- scheduling -----------------------------------------------------------------

    def _schedule_downlink(self, slot: int, ts: int, connected: bool) -> None:
        direction = self.dl
        cross_demands = direction.cross.demands_at(ts)
        exp_prbs = 0
        mcs = 0
        if connected and direction.buffer.buffered_bytes() > 0:
            mcs = direction.selection_mcs(slot, ts)
            demand_prbs = prbs_needed(direction.buffer.buffered_bytes(), mcs)
            allocation = direction.scheduler.allocate(
                demand_prbs, mcs, cross_demands
            )
            exp_prbs = allocation.exp_prbs
            cross_allocs = allocation.cross_allocations
        else:
            cross_allocs = cross_demands
        if exp_prbs > 0:
            self._transmit_tb(direction, slot, ts, exp_prbs, mcs)
        self._record_cross_dci(slot, ts, cross_allocs, is_uplink=False)

    def _schedule_uplink(self, slot: int, ts: int, connected: bool) -> None:
        direction = self.ul
        loop = direction.grant_loop
        assert loop is not None
        cross_demands = direction.cross.demands_at(ts)

        if connected:
            loop.maybe_issue_proactive(slot)
            grants = loop.grants_usable_at(slot)
        else:
            grants = []

        for grant in grants:
            mcs = direction.selection_mcs(slot, ts)
            demand_prbs = prbs_needed(grant.granted_bytes, mcs)
            allocation = direction.scheduler.allocate(
                demand_prbs, mcs, cross_demands
            )
            if allocation.exp_prbs > 0:
                self._transmit_tb(
                    direction,
                    slot,
                    ts,
                    allocation.exp_prbs,
                    mcs,
                    proactive=grant.proactive,
                )
            cross_demands = allocation.cross_allocations
        self._record_cross_dci(slot, ts, cross_demands, is_uplink=True)

    def _transmit_tb(
        self,
        direction: _Direction,
        slot: int,
        ts: int,
        n_prb: int,
        mcs: int,
        proactive: bool = False,
    ) -> None:
        tbs_bits = transport_block_size_bits(n_prb, mcs)
        capacity = tbs_bits // 8
        segment = direction.buffer.take(capacity)
        ranges = [(segment.start_offset, segment.end_offset)] if segment else []
        used = segment.size_bytes if segment else 0
        if used == 0 and not proactive:
            return  # nothing to send and no grant to waste
        tb = TransportBlock(
            tb_id=self._next_tb_id,
            slot=slot,
            n_prb=n_prb,
            mcs=mcs,
            tbs_bits=tbs_bits,
            ranges=ranges,
            is_uplink=direction.is_uplink,
            proactive=proactive,
            used_bytes=used,
        )
        self._next_tb_id += 1
        sample = direction.sample_at(slot, ts)
        tb_bler = bler(mcs, sample.sinr_db)
        direction.harq.submit(tb, tb_bler)
        if self.keep_tb_map:
            packet_ids = tuple(
                p.packet_id
                for start, end in ranges
                for p in direction.buffer.packets_overlapping(start, end)
            )
            self.tb_map.append(
                TbPacketMap(
                    tb_id=tb.tb_id,
                    ts_us=ts,
                    is_uplink=direction.is_uplink,
                    packet_ids=packet_ids,
                    tbs_bits=tbs_bits,
                    proactive=proactive,
                )
            )

    # -- HARQ / RLC resolution ------------------------------------------------------

    def _resolve_harq(self, direction: _Direction, slot: int, ts: int) -> None:
        for resolution in direction.harq.poll(slot):
            tb = resolution.tb
            self._record_dci(direction, tb, resolution.attempt, ts, resolution)
            if resolution.outcome is HarqOutcome.DECODED:
                for start, end in tb.ranges:
                    self._deliver_range(direction, start, end, ts)
            elif resolution.outcome is HarqOutcome.FAILED:
                recover_at = ts + self.cell.rlc_retx_delay_us
                for start, end in tb.ranges:
                    direction.rlc_recoveries.append((recover_at, start, end))
                direction.rlc_retx_count += 1
                if self.collector is not None:
                    self.collector.record_gnb_log(
                        recover_at,
                        _RLC_RETX,
                        direction.is_uplink,
                        0,
                        self.rrc.rnti,
                    )
            # RETRANSMIT: the HARQ entity already queued the next attempt.

    def _process_rlc_recoveries(
        self, direction: _Direction, slot: int, ts: int
    ) -> None:
        if not direction.rlc_recoveries:
            return
        due = [r for r in direction.rlc_recoveries if r[0] <= ts]
        if not due:
            return
        direction.rlc_recoveries = [
            r for r in direction.rlc_recoveries if r[0] > ts
        ]
        # An RLC retransmission still rides the radio: if the channel is
        # in a blackout (even MCS 0 undecodable) or the UE is in an RRC
        # transition, the retransmission fails too and the RLC timer
        # restarts — this is what lets deep fades stall delivery for
        # their full duration rather than exactly one RLC round trip.
        sample = direction.sample_at(slot, ts)
        blocked = (
            bler(0, sample.sinr_db) > 0.8
            or not self.rrc.is_connected(ts)
        )
        if blocked:
            retry_at = ts + self.cell.rlc_retx_delay_us
            for _, start, end in due:
                direction.rlc_recoveries.append((retry_at, start, end))
            direction.rlc_retx_count += len(due)
            return
        for recover_at, start, end in due:
            self._deliver_range(direction, start, end, max(recover_at, ts))

    def _deliver_range(
        self, direction: _Direction, start: int, end: int, ts: int
    ) -> None:
        for delivered in direction.reassembly.on_range_received(start, end, ts):
            self._deliveries.append(
                RanDelivery(
                    packet_id=delivered.packet_id,
                    delivered_us=delivered.delivered_us,
                    is_uplink=direction.is_uplink,
                    hol_blocked=delivered.hol_blocked,
                )
            )
        direction.buffer.release_delivered(direction.reassembly.delivered_offset)

    # -- telemetry --------------------------------------------------------------------
    #
    # DCI rows go to the collector as field values in columns.DCI order:
    # ts_us, slot, rnti, is_uplink, n_prb, mcs, tbs_bits, is_retx,
    # harq_attempt, crc_ok, proactive, used_bytes.

    def _record_dci(
        self,
        direction: _Direction,
        tb: TransportBlock,
        attempt: int,
        ts: int,
        resolution,
    ) -> None:
        if self.collector is None:
            return
        self.collector.record_dci(
            ts,
            resolution.slot,
            self.rrc.rnti,
            direction.is_uplink,
            tb.n_prb,
            tb.mcs,
            tb.tbs_bits,
            attempt > 0,
            attempt,
            resolution.outcome is HarqOutcome.DECODED,
            tb.proactive,
            tb.used_bytes,
        )

    def _record_cross_dci(
        self, slot: int, ts: int, allocations, is_uplink: bool
    ) -> None:
        if self.collector is None:
            return
        record = self.collector.record_dci
        mcs = self.CROSS_TRAFFIC_MCS
        table = self._cross_tbs
        for rnti, prbs in allocations:
            if prbs <= 0:
                continue
            if prbs < len(table):
                tbs = table[prbs]
            else:  # an unscheduled demand beyond the grid
                tbs = transport_block_size_bits(prbs, mcs)
            record(
                ts, slot, rnti, is_uplink, prbs, mcs, tbs,
                False, 0, True, False, tbs // 8,
            )

    def _log_buffers(self, ts: int) -> None:
        if self.collector is None:
            return
        for direction in (self.ul, self.dl):
            self.collector.record_gnb_log(
                ts,
                _RLC_BUFFER,
                direction.is_uplink,
                direction.buffer.buffered_bytes(),
                self.rrc.rnti,
            )
