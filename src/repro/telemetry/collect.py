"""Telemetry collector the simulators write into during a session.

One collector instance is shared by the RAN simulator (DCI + gNB log),
the network path (packet records), and both WebRTC clients (stats
records).  At the end of a run :meth:`TelemetryCollector.bundle` freezes
everything into a :class:`~repro.telemetry.records.TelemetryBundle`,
sorted by timestamp — the input format Domino consumes.

Every source leaves the collector, from :meth:`~TelemetryCollector.bundle`
and the live :meth:`~TelemetryCollector.drain` alike, as typed
:class:`~repro.telemetry.columns.RecordColumns`.  The simulator passes
each DCI or gNB-log row as its field values, which the collector keeps
as plain tuples and packs into ``int64`` blocks of :data:`BLOCK_ROWS`
rows, so a session builds no per-grant record object.  Packets (whose
receive side joins later, in place) and WebRTC stats arrive as records
and are walked into columns when they leave.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Dict, List

import numpy as np

from repro.telemetry.columns import (
    DCI,
    GNB_LOG,
    PACKETS,
    WEBRTC_STATS,
    RecordColumns,
    Schema,
)
from repro.telemetry.records import (
    PacketRecord,
    TelemetryBundle,
    WebRtcStatsRecord,
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

    def drain(self, up_to_us: int) -> RecordColumns:
        """The rows after the drained ones, up to the first row stamped
        after *up_to_us*, stably sorted on ``ts_us``.

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
        return self._sorted(parts)


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

    def drain(self, up_to_us: int) -> Dict[str, RecordColumns]:
        """Hand out the rows stamped <= *up_to_us* not drained yet, one
        time-ordered column slice per source, keyed by bundle attribute.

        The live feed API: a :class:`~repro.live.sources.SimSource`
        calls this as the simulation advances.  Each source is drained
        in arrival order up to its first row stamped after *up_to_us*,
        so every row is emitted exactly once.  A packet is stamped with
        its *send* time and holds its receive time as of the drain:
        drain with enough settling lag for in-flight packets to land.
        """
        batch = {
            "dci": self._dci.drain(up_to_us),
            "gnb_log": self._gnb_log.drain(up_to_us),
        }
        lists = ((PACKETS, self._packet_order), (WEBRTC_STATS, self._webrtc))
        for index, (schema, records) in enumerate(lists):
            start = stop = self._drained[index]
            while stop < len(records) and (
                getattr(records[stop], schema.time) <= up_to_us
            ):
                stop += 1
            self._drained[index] = stop
            batch[schema.source] = schema.columns(records[start:stop])
        return batch

    # -- output -----------------------------------------------------------------

    def bundle(self, duration_us: int) -> TelemetryBundle:
        """Freeze everything into a bundle of typed columns, each source
        stably sorted on its time column (one record per packet id)."""
        return TelemetryBundle(
            session_name=self.session_name,
            duration_us=duration_us,
            cellular_client=self.cellular_client,
            wired_client=self.wired_client,
            gnb_log_available=self.gnb_log_available,
            dci=self._dci.sorted(),
            gnb_log=self._gnb_log.sorted(),
            packets=PACKETS.columns(
                sorted(self._packets.values(), key=attrgetter("sent_us"))
            ),
            webrtc_stats=WEBRTC_STATS.columns(
                sorted(self._webrtc, key=attrgetter("ts_us"))
            ),
        )
