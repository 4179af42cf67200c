"""Telemetry collector the simulators write into during a session.

One collector instance is shared by the RAN simulator (DCI + gNB log),
the network path (packet records), and both WebRTC clients (stats
records).  At the end of a run :meth:`TelemetryCollector.bundle` freezes
everything into a :class:`~repro.telemetry.records.TelemetryBundle`,
sorted by timestamp — the input format Domino consumes.

The two RAN sources are columnar from the moment they are produced: the
simulator passes each DCI or gNB-log row as its field values, which the
collector keeps as plain tuples and packs into ``int64`` blocks of
:data:`BLOCK_ROWS` rows.  :meth:`~TelemetryCollector.bundle` hands them
out as typed :class:`~repro.telemetry.columns.RecordColumns`, so a
session builds no per-grant record object unless a consumer asks for
one.  Packets (which the receive side mutates in place) and WebRTC
stats stay record lists.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from heapq import merge
from typing import Dict, List

import numpy as np

from repro.telemetry.columns import DCI, GNB_LOG, RecordColumns, Schema
from repro.telemetry.records import (
    PacketRecord,
    TelemetryBundle,
    WebRtcStatsRecord,
    record_time_us,
)

#: Rows per ``int64`` block.  Rows wait as Python tuples only until
#: their block fills: one list converted at bundle time would hold a
#: whole session's rows as objects and raise peak memory.
BLOCK_ROWS = 4096


class _Rows:
    """The rows of one all-integer source, in arrival order.

    Rows are tuples of field values in schema order (bools and enum
    codes included), packed into ``int64`` blocks every
    :data:`BLOCK_ROWS` rows.  ``ts_us`` is the first field.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.pending: List[tuple] = []
        self.blocks: List[np.ndarray] = []
        self.drained = 0  # rows already handed out by drain()

    def append(self, row: tuple) -> None:
        pending = self.pending
        pending.append(row)
        if len(pending) == BLOCK_ROWS:
            self.flush()

    def flush(self) -> None:
        rows = self.pending
        if rows:
            width = len(self.schema.fields)
            values = itertools.chain.from_iterable(rows)
            block = np.fromiter(values, np.int64, len(rows) * width)
            self.blocks.append(block.reshape(len(rows), width))
            self.pending = []

    def _sorted(self, blocks: List[np.ndarray]) -> RecordColumns:
        """The rows of *blocks* as typed columns, stably sorted on
        ``ts_us``, built one column at a time."""
        if not blocks:
            blocks = [np.empty((0, len(self.schema.fields)), np.int64)]

        def column(j: int) -> np.ndarray:
            return np.concatenate([block[:, j] for block in blocks])

        order = np.argsort(column(0), kind="stable")
        columns = {
            f.attr: column(j)[order].astype(f.column_dtype, copy=False)
            for j, f in enumerate(self.schema.fields)
        }
        return RecordColumns(self.schema, columns)

    def sorted(self) -> RecordColumns:
        """Every row, stably sorted on ``ts_us``."""
        self.flush()
        return self._sorted(self.blocks)

    def drain(self, up_to_us: int) -> list:
        """Records of the rows after the drained ones, up to the first
        row stamped after *up_to_us*, stably sorted on ``ts_us``.

        A gNB log row can be stamped ahead of the rows appended after it
        (an RLC retransmission's recovery time, an RRC reconnect): it
        holds them back until a later drain, and the sort puts it in
        its place among the rows drained with it.
        """
        self.flush()
        parts = []
        start = 0
        for block in self.blocks:
            end = start + len(block)
            if end > self.drained:
                rows = block[self.drained - start :]
                later = np.flatnonzero(rows[:, 0] > up_to_us)
                if len(later):
                    parts.append(rows[: later[0]])
                    self.drained += int(later[0])
                    break
                parts.append(rows)
                self.drained = end
            start = end
        return list(self._sorted(parts))


class TelemetryCollector:
    """Accumulates telemetry records during one simulated session."""

    def __init__(
        self,
        session_name: str,
        cellular_client: str = "cellular",
        wired_client: str = "wired",
        gnb_log_available: bool = False,
    ) -> None:
        self.session_name = session_name
        self.cellular_client = cellular_client
        self.wired_client = wired_client
        self.gnb_log_available = gnb_log_available
        self._dci = _Rows(DCI)
        self._gnb_log = _Rows(GNB_LOG)
        self._packets: Dict[int, PacketRecord] = {}
        self._packet_order: List[PacketRecord] = []  # send order
        self._webrtc: List[WebRtcStatsRecord] = []
        # Cursors for drain() into the two record lists: everything
        # before these indices has been handed to a live consumer.
        self._drained = [0, 0]

    # -- RAN-side rows --------------------------------------------------------

    def record_dci(self, *row) -> None:
        """Add one DCI row: a ``DciRecord``, or its field values in
        ``columns.DCI`` order."""
        self._dci.append(row if len(row) > 1 else DCI.row(row[0]))

    def record_gnb_log(self, *row) -> None:
        """Add one gNB-log row: a ``GnbLogRecord``, or its field values
        in ``columns.GNB_LOG`` order with ``kind`` as its code."""
        if self.gnb_log_available:
            self._gnb_log.append(row if len(row) > 1 else GNB_LOG.row(row[0]))

    # -- packet trace ---------------------------------------------------------

    def record_packet_sent(self, record: PacketRecord) -> None:
        """Register a packet at its sender-side capture point."""
        self._packets[record.packet_id] = record
        self._packet_order.append(record)

    def record_packet_received(
        self, packet_id: int, received_us: int
    ) -> None:
        """Join the receiver-side capture for *packet_id*."""
        record = self._packets.get(packet_id)
        if record is not None:
            record.received_us = received_us

    # -- application stats ------------------------------------------------------

    def record_webrtc_stats(self, record: WebRtcStatsRecord) -> None:
        self._webrtc.append(record)

    # -- live draining ----------------------------------------------------------

    def drain(self, up_to_us: int) -> List[object]:
        """Hand out records with timestamp <= *up_to_us* not drained yet.

        The live feed API: a :class:`~repro.live.sources.SimSource`
        calls this as the simulation advances, leaving records newer
        than *up_to_us* for a later drain.  Each source is drained in
        arrival order up to its first record stamped after *up_to_us*
        (the simulators append in simulated-time order; the DCI and
        gNB-log runs are sorted too), so every record is emitted exactly
        once and the result is one merged time-ordered batch.  DCI and
        gNB-log records are built here, for the drained rows only.
        Packet records are emitted as frozen copies
        keyed on their *send* time: the collector's own copy keeps
        mutating when the receive side joins, so callers should drain
        with enough settling lag for in-flight packets to land.
        """
        runs = [self._dci.drain(up_to_us), self._gnb_log.drain(up_to_us)]
        for index, records in enumerate((self._packet_order, self._webrtc)):
            cursor = self._drained[index]
            run = []
            while cursor < len(records):
                record = records[cursor]
                is_packet = records is self._packet_order
                ts = record.sent_us if is_packet else record.ts_us
                if ts > up_to_us:
                    break
                run.append(replace(record) if is_packet else record)
                cursor += 1
            self._drained[index] = cursor
            runs.append(run)
        return list(merge(*runs, key=record_time_us))

    # -- output -----------------------------------------------------------------

    def bundle(self, duration_us: int) -> TelemetryBundle:
        """Freeze everything into a bundle sorted by timestamp.

        ``dci`` and ``gnb_log`` are column-backed
        :class:`~repro.telemetry.columns.RecordColumns`; ``packets`` and
        ``webrtc_stats`` are record lists.
        """
        return TelemetryBundle(
            session_name=self.session_name,
            duration_us=duration_us,
            cellular_client=self.cellular_client,
            wired_client=self.wired_client,
            gnb_log_available=self.gnb_log_available,
            dci=self._dci.sorted(),
            gnb_log=self._gnb_log.sorted(),
            packets=sorted(
                self._packets.values(), key=lambda r: r.sent_us
            ),
            webrtc_stats=sorted(self._webrtc, key=lambda r: r.ts_us),
        )
