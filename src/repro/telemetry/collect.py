"""Telemetry collector the simulators write into during a session.

One collector instance is shared by the RAN simulator (DCI + gNB log),
the network path (packet records), and both WebRTC clients (stats
records).  At the end of a run :meth:`TelemetryCollector.bundle` freezes
everything into a :class:`~repro.telemetry.records.TelemetryBundle`,
sorted by timestamp — the input format Domino consumes.

Every source takes one path into columns.  A producer passes each row
as its field values in schema order, an enum as its code (a caller
holding a record unpacks what :meth:`~repro.telemetry.columns.Schema.row`
gives for it).  The collector keeps rows as plain tuples and converts
every :data:`BLOCK_ROWS` of them through
:meth:`~repro.telemetry.columns.Schema.from_rows`, so a session builds
no per-row record object.  :meth:`~TelemetryCollector.bundle` and the
live :meth:`~TelemetryCollector.drain` hand out those blocks as typed
:class:`~repro.telemetry.columns.RecordColumns`, stably sorted on time.
A packet's receive time joins from a packet-id map when it leaves.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import TelemetryError
from repro.obs.logs import get_logger
from repro.obs.metrics import get_registry
from repro.telemetry.columns import (
    DCI,
    GNB_LOG,
    PACKETS,
    WEBRTC_STATS,
    RecordColumns,
    Schema,
)
from repro.telemetry.records import TelemetryBundle

logger = get_logger(__name__)

#: Rows per block.  Rows wait as Python tuples only until their block
#: fills: one list converted at bundle time would hold a whole
#: session's rows as objects and raise peak memory.
BLOCK_ROWS = 4096

#: Where a packet row holds its id and its receive time.
_PACKET_ID, _RECEIVED_AT = map(
    [f.attr for f in PACKETS.fields].index, ("packet_id", "received_us")
)
_RECEIVED = PACKETS.fields[_RECEIVED_AT]


class _Rows:
    """The rows of one source, in arrival order.

    Rows are tuples of field values in schema order, converted into
    column blocks every :data:`BLOCK_ROWS` rows.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.pending: List[tuple] = []
        self.blocks: List[RecordColumns] = []
        self.drained = 0  # rows already handed out by drain()

    def append(self, row: tuple) -> None:
        pending = self.pending
        pending.append(row)
        if len(pending) == BLOCK_ROWS:
            self.flush()

    def flush(self) -> None:
        if self.pending:
            self.blocks.append(self.schema.from_rows(self.pending))
            self.pending = []

    def sorted(self) -> RecordColumns:
        """Every row, stably sorted on the schema's time column."""
        self.flush()
        return self.schema.concat(self.blocks).in_time_order()

    def drain(self, up_to_us: int) -> RecordColumns:
        """The rows after the drained ones, up to the first row stamped
        after *up_to_us*, stably sorted on the schema's time column.

        A row can be stamped ahead of the rows appended after it (an RLC
        retransmission's recovery time, an RRC reconnect): it holds them
        back until a later drain, and the sort puts it in its place
        among the rows drained with it.
        """
        self.flush()
        parts = []
        start = 0
        for block in self.blocks:
            end = start + len(block)
            if end > self.drained:
                rows = block.take(slice(self.drained - start, None))
                later = np.flatnonzero(rows.times > up_to_us)
                if len(later):
                    parts.append(rows.take(slice(None, later[0])))
                    self.drained += int(later[0])
                    break
                parts.append(rows)
                self.drained = end
            start = end
        return self.schema.concat(parts).in_time_order()


class TelemetryCollector:
    """Accumulates telemetry rows during one simulated session."""

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
        self._packets = _Rows(PACKETS)
        self._webrtc = _Rows(WEBRTC_STATS)
        # Every packet id sent, with its receive time so far (None
        # until the receive side joins).
        self._received: Dict[int, Optional[int]] = {}

    # -- RAN-side rows --------------------------------------------------------

    def record_dci(self, *row) -> None:
        """Add one DCI row: its field values in ``columns.DCI`` order."""
        self._dci.append(row)

    def record_gnb_log(self, *row) -> None:
        """Add one gNB-log row: its field values in ``columns.GNB_LOG``
        order, ``kind`` as its code."""
        if self.gnb_log_available:
            self._gnb_log.append(row)

    # -- packet trace ---------------------------------------------------------

    def record_packet_sent(self, *row) -> None:
        """Register a packet at its sender-side capture point: its field
        values in ``columns.PACKETS`` order, ``stream`` as its code.  An
        id sent twice raises :class:`~repro.errors.TelemetryError`."""
        packet_id = row[_PACKET_ID]
        if packet_id in self._received:
            raise TelemetryError(f"packet {packet_id} sent twice")
        self._received[packet_id] = row[_RECEIVED_AT]
        self._packets.append(row)

    def record_packet_received(
        self, packet_id: int, received_us: int
    ) -> None:
        """Join the receiver-side capture for *packet_id*; a receive of
        an id never sent is counted and logged, and otherwise ignored."""
        if packet_id in self._received:
            self._received[packet_id] = received_us
            return
        get_registry().counter(
            "repro_telemetry_unmatched_receives_total",
            help="Packet receives whose id was never sent.",
        ).inc()
        logger.warning(
            "%s: packet %s received but never sent", self.session_name, packet_id
        )

    def _joined(self, packets: RecordColumns) -> RecordColumns:
        """*packets* with each one's receive time as of now."""
        ids = packets.column("packet_id").tolist()
        arrays = dict(packets.arrays)
        arrays.update(_RECEIVED.columns(list(map(self._received.get, ids))))
        return RecordColumns(PACKETS, arrays)

    # -- application stats ------------------------------------------------------

    def record_webrtc_stats(self, *row) -> None:
        """Add one stats row: its field values in
        ``columns.WEBRTC_STATS`` order."""
        self._webrtc.append(row)

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
        return {
            "dci": self._dci.drain(up_to_us),
            "gnb_log": self._gnb_log.drain(up_to_us),
            "packets": self._joined(self._packets.drain(up_to_us)),
            "webrtc_stats": self._webrtc.drain(up_to_us),
        }

    # -- output -----------------------------------------------------------------

    def bundle(self, duration_us: int) -> TelemetryBundle:
        """Freeze everything into a bundle of typed columns, each source
        stably sorted on its time column."""
        return TelemetryBundle(
            session_name=self.session_name,
            duration_us=duration_us,
            cellular_client=self.cellular_client,
            wired_client=self.wired_client,
            gnb_log_available=self.gnb_log_available,
            dci=self._dci.sorted(),
            gnb_log=self._gnb_log.sorted(),
            packets=self._joined(self._packets.sorted()),
            webrtc_stats=self._webrtc.sorted(),
        )
