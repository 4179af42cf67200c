"""Time-aligned, uniformly resampled view of a telemetry bundle.

Domino's event conditions (Table 5) operate on windows of synchronised
time series.  :class:`Timeline` resamples all four telemetry sources of a
:class:`~repro.telemetry.records.TelemetryBundle` onto one uniform grid
(default 50 ms — the paper's WebRTC stats rate), producing named numpy
arrays.  Bins without records hold NaN (or 0 for counters) and sparse
app-state series are forward-filled, matching how the paper's pipeline
vectorises its data before the sliding-window pass (§4.2).

Naming convention (all per-bin):

* ``local_*`` / ``remote_*`` — application metrics of the cellular and
  wired client respectively (outbound = that client's sent stream).
* ``ul_*`` / ``dl_*`` — 5G/packet metrics per physical direction
  (uplink = cellular client → network).

Ingestion is array code over each source's typed columns
(:class:`~repro.telemetry.columns.RecordColumns`, the one form a
bundle holds its sources in), and no record object is built.  Every
series is written into one preallocated float64 block of shape
``(len(SERIES), n_bins)``, one row per name of :data:`SERIES`: per
source, fused ``np.bincount``s keyed on ``bin + n_bins * category``
(direction, traffic class), one assignment of each bin's last record,
and one 2-D forward fill.  Accumulation order per bin equals record
order — the same order the per-record loops used — so the resulting
series are bit-identical to the loop formulation.  The block is the
only form a timeline takes: :attr:`Timeline.series` is a read-only
mapping of its rows, so the block cannot go stale, and ``extend``,
``since`` and the batch feature engine each work on it in one step.
``Timeline(dt_us, n_bins, series)`` builds one from named arrays (the
tests' hand-built timelines): each is copied into its float64 row, and
a row it does not name holds 0 in every bin, as an empty bin of a
counter does.

A timeline can also be built in time-ordered segments: every per-bin
aggregate depends only on that bin's records, and forward-fill carries
in through ``from_bundle(..., after=previous)``, so segments appended
with :meth:`Timeline.extend` equal one ingest of the whole bundle.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import TelemetryError
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.telemetry.columns import RecordColumns, code
from repro.telemetry.records import (
    GnbLogKind,
    StreamKind,
    TelemetryBundle,
)

#: GCC network-state encoding in the resampled arrays.
GCC_STATE_CODE = {"underuse": -1, "normal": 0, "overuse": 1}

_RTCP = code(StreamKind.RTCP)
_RLC_BUFFER = code(GnbLogKind.RLC_BUFFER)
_RLC_RETX = code(GnbLogKind.RLC_RETX)
_RRC = (code(GnbLogKind.RRC_RELEASE), code(GnbLogKind.RRC_CONNECT))

#: Cross-traffic UEs use RNTIs at or above this value by convention
#: (see :class:`repro.mac.crosstraffic.CrossTrafficUe`); everything
#: below belongs to the experiment UE (whose RNTI changes across RRC
#: transitions).
_CROSS_TRAFFIC_RNTI_FLOOR = 40_000

#: App-stat fields copied per client from WebRtcStatsRecord.
_APP_FIELDS = (
    "inbound_fps", "outbound_fps", "outbound_resolution_p",
    "inbound_resolution_p", "video_jitter_buffer_ms", "audio_jitter_buffer_ms",
    "target_bitrate_bps", "pushback_bitrate_bps", "outstanding_bytes",
    "congestion_window_bytes", "gcc_trend_slope", "gcc_threshold",
)
#: Per role: the last record in a bin wins for all but the two sample
#: counters, which accumulate.
_WEBRTC = _APP_FIELDS + ("gcc_state", "frozen", "concealed", "total_samples")
_PACKETS = (
    "packet_delay_ms", "rtcp_delay_ms", "lost_packets", "app_bitrate_bps",
)
_DCI = (
    "exp_prbs", "other_prbs", "tbs_bits", "tbs_bitrate_bps", "harq_retx",
    "mcs_mean", "mcs_min", "scheduled", "rnti",
)
_GNB = ("rlc_buffer_bytes", "rlc_retx")

#: Row order of an ingested timeline's block, and of its ``series``.
SERIES: Tuple[str, ...] = (
    tuple(f"{role}_{name}" for role in ("local", "remote") for name in _WEBRTC)
    + tuple(
        f"{direction}_{name}"
        for names in (_PACKETS, _DCI, _GNB)
        for direction in ("ul", "dl")
        for name in names
    )
    + ("rrc_events",)
)
_ROW = {name: row for row, name in enumerate(SERIES)}
_PACKET_ROW = 2 * len(_WEBRTC)
_DCI_ROW = _PACKET_ROW + 2 * len(_PACKETS)
_GNB_ROW = _DCI_ROW + 2 * len(_DCI)
#: Rows whose empty bins hold the last value seen (sparse state).
_FILLED = np.array([
    row
    for row, name in enumerate(SERIES)
    if name.split("_", 1)[1] in _APP_FIELDS
    or name.endswith(("_gcc_state", "_delay_ms", "_rnti", "_rlc_buffer_bytes"))
])
_FILLED_ROWS = np.arange(len(_FILLED))[:, None]


def _direction(rows: RecordColumns) -> np.ndarray:
    """0 for uplink rows, 1 for downlink: the direction axis of a view."""
    return (~rows.column("is_uplink")).astype(np.intp)


def _webrtc_rows(block, index, stats, bundle, dt_us) -> None:
    """Both roles' WebRTC rows: each bin's last record per role."""
    out = block[:_PACKET_ROW].reshape(2, len(_WEBRTC), -1)
    n_bins = out.shape[2]
    clients = stats.column("client")
    remote = clients == bundle.wired_client
    known = remote.copy()
    if bundle.cellular_client != bundle.wired_client:
        # With one name for both clients, dict-lookup ingestion
        # resolved it to "remote"; keep that.
        known |= clients == bundle.cellular_client
    kept = np.flatnonzero(known)
    role = remote[kept].astype(np.intp)
    # Fancy assignment with repeated indices promises no order in 2-D,
    # so pick each bin's last record first (in 1-D the last one wins).
    last = np.full(2 * n_bins, -1)
    last[index[kept] + n_bins * role] = kept
    slots = np.flatnonzero(last >= 0)
    picked = last[slots]
    gcc_state = np.zeros(len(picked))
    states = stats.column("gcc_state")[picked]
    for state, state_code in GCC_STATE_CODE.items():
        gcc_state[states == state] = state_code
    values = [stats.column(name)[picked] for name in _APP_FIELDS]
    values += [gcc_state, stats.column("frozen")[picked]]
    out[:, :-3] = np.nan  # app stats and GCC state until a record lands
    out[:, -3:] = 0.0  # frozen and the sample counters
    out[slots // n_bins, :-2, slots % n_bins] = np.array(values, np.float64).T
    samples = [stats.column(name) for name in ("concealed_samples", "total_samples")]
    np.add.at(
        out,
        (role, slice(-2, None), index[kept]),
        np.array(samples, np.float64)[:, kept].T,
    )


def _packet_rows(block, index, packets, bundle, dt_us) -> None:
    """Per direction: mean data and RTCP delay, losses, send rate."""
    out = block[_PACKET_ROW:_DCI_ROW].reshape(2, len(_PACKETS), -1)
    n_bins = out.shape[2]
    direction = _direction(packets)
    slot = index + n_bins * direction
    size = packets.column("size_bytes")
    bytes_sent = np.bincount(slot, weights=size, minlength=2 * n_bins)
    # App send rate in bit/s over each bin (condition 14 input).
    out[:, 3] = bytes_sent.reshape(2, n_bins) * 8.0 * 1e6 / dt_us
    # NONE (-1) marks a lost packet; real receive times are >= 0.
    received = packets.column("received_us")
    delivered = received >= 0
    lost = np.bincount(slot[~delivered], minlength=2 * n_bins)
    out[:, 2] = lost.reshape(2, n_bins)
    # Delivered packets' delays per (direction, data or RTCP).
    rtcp = packets.column("stream") == _RTCP
    slot = (index + n_bins * (2 * direction + rtcp))[delivered]
    delay = (received - packets.column("sent_us"))[delivered]
    delay_sum = np.bincount(slot, weights=delay, minlength=4 * n_bins)
    delay_count = np.bincount(slot, minlength=4 * n_bins)
    with np.errstate(invalid="ignore"):
        delay_ms = np.where(
            delay_count > 0, delay_sum / np.maximum(delay_count, 1), np.nan
        ) / 1000.0
    out[:, :2] = delay_ms.reshape(2, 2, n_bins)


def _dci_rows(block, index, dci, bundle, dt_us) -> None:
    """Per direction: PRBs by UE class, the experiment UE's grants."""
    out = block[_DCI_ROW:_GNB_ROW].reshape(2, len(_DCI), -1)
    n_bins = out.shape[2]
    direction = _direction(dci)
    rnti = dci.column("rnti")
    other = rnti >= _CROSS_TRAFFIC_RNTI_FLOOR
    prbs = np.bincount(
        index + n_bins * (2 * direction + other),
        weights=dci.column("n_prb"),
        minlength=4 * n_bins,
    )
    out[:, :2] = prbs.reshape(2, 2, n_bins)
    # MCS/TBS/retx only matter for the experiment UE, typically a
    # small minority of grants next to cross traffic.
    exp = ~other
    slot = (index + n_bins * direction)[exp]
    mcs = dci.column("mcs")[exp].astype(np.float64)
    is_retx = dci.column("is_retx")[exp]
    new_data = slot[~is_retx]
    tbs = dci.column("tbs_bits")[exp][~is_retx]
    tbs_bits = np.bincount(new_data, weights=tbs, minlength=2 * n_bins)
    out[:, 2] = tbs_bits.reshape(2, n_bins)
    out[:, 3] = out[:, 2] * 1e6 / dt_us
    harq_retx = np.bincount(slot[is_retx], minlength=2 * n_bins)
    mcs_count = np.bincount(slot, minlength=2 * n_bins)
    mcs_sum = np.bincount(slot, weights=mcs, minlength=2 * n_bins)
    mcs_min = np.full(2 * n_bins, np.inf)
    np.minimum.at(mcs_min, slot, mcs)
    mcs_min[mcs_count == 0] = np.nan
    rnti_series = np.full(2 * n_bins, np.nan)
    rnti_series[slot] = rnti[exp]  # duplicates: last record wins
    with np.errstate(invalid="ignore"):
        mcs_mean = np.where(
            mcs_count > 0, mcs_sum / np.maximum(mcs_count, 1), np.nan
        )
    rest = (harq_retx, mcs_mean, mcs_min, mcs_count > 0, rnti_series)
    for column, values in enumerate(rest, start=4):
        out[:, column] = values.reshape(2, n_bins)


def _gnb_rows(block, index, logs, bundle, dt_us) -> None:
    """Per direction: RLC buffer and retransmissions; RRC events."""
    rows = block[_GNB_ROW:-1].reshape(2, len(_GNB), -1)
    n_bins = rows.shape[2]
    kind = logs.column("kind")
    slot = index + n_bins * _direction(logs)
    buffered = kind == _RLC_BUFFER
    buffer_bytes = np.full(2 * n_bins, np.nan)
    # Duplicates: the last record in a bin wins.
    buffer_bytes[slot[buffered]] = logs.column("buffer_bytes")[buffered]
    rows[:, 0] = buffer_bytes.reshape(2, n_bins)
    # RLC retransmissions per direction, then RRC events in either.
    is_rrc = (kind == _RRC[0]) | (kind == _RRC[1])
    counted = is_rrc | (kind == _RLC_RETX)
    counts = np.bincount(
        np.where(is_rrc, index + 2 * n_bins, slot)[counted],
        minlength=3 * n_bins,
    )
    rows[:, 1] = counts[: 2 * n_bins].reshape(2, n_bins)
    block[-1] = counts[2 * n_bins:]


def _ingest(
    bundle: TelemetryBundle, dt_us: int, start_us: int, n_bins: int,
    fills: np.ndarray,
) -> np.ndarray:
    """The float64 ``(len(SERIES), n_bins)`` block of *bundle*'s bins
    from *start_us*; forward-filled rows start from *fills*."""
    block = np.empty((len(SERIES), n_bins))
    for rows, fill in (
        (bundle.webrtc_stats, _webrtc_rows),
        (bundle.packets, _packet_rows),
        (bundle.dci, _dci_rows),
        (bundle.gnb_log, _gnb_rows),
    ):
        # Each fill sees only the rows that land on the grid.
        index = rows.times // dt_us - start_us // dt_us
        in_range = (index >= 0) & (index < n_bins)
        if not in_range.all():
            index, rows = index[in_range], rows.take(in_range)
        fill(block, index, rows, bundle, dt_us)
    # Forward fill: a NaN takes the last value before it in its row, a
    # leading NaN the row's fill (prepended as column 0).
    values = np.concatenate((fills[:, None], block[_FILLED]), axis=1)
    last = np.where(np.isnan(values), 0, np.arange(n_bins + 1))
    np.maximum.accumulate(last, axis=1, out=last)
    block[_FILLED] = values[_FILLED_ROWS, last[:, 1:]]
    return block


class Timeline:
    """Uniform cross-layer time series for one session.

    Attributes:
        dt_us: bin width of the grid.
        start_us: session time of the first bin (0 unless the timeline
            continues an earlier segment).
        block: the float64 ``(len(SERIES), n_bins)`` array, rows in
            :data:`SERIES` order.
        series: read-only mapping from variable name to its row of
            :attr:`block`.
    """

    def __init__(
        self,
        dt_us: int,
        n_bins: int,
        series: Optional[Mapping[str, np.ndarray]] = None,
        start_us: int = 0,
    ) -> None:
        """*n_bins* bins of the named *series*, each copied into its row;
        every row not named holds 0."""
        block = np.zeros((len(SERIES), n_bins))
        for name, values in (series or {}).items():
            if name not in _ROW:
                raise TelemetryError(f"no timeline series named {name!r}")
            block[_ROW[name]] = values
        self._set(block, dt_us, start_us)

    def _set(self, block: np.ndarray, dt_us: int, start_us: int) -> None:
        self.dt_us = dt_us
        self.start_us = start_us
        self.block = block
        self._series: Optional[Mapping[str, np.ndarray]] = None

    @classmethod
    def _of_block(cls, block: np.ndarray, dt_us: int, start_us: int):
        timeline = cls.__new__(cls)
        timeline._set(block, dt_us, start_us)
        return timeline

    @property
    def n_bins(self) -> int:
        """Number of bins."""
        return self.block.shape[1]

    @property
    def series(self) -> Mapping[str, np.ndarray]:
        if self._series is None:  # built on first read
            self._series = MappingProxyType(dict(zip(SERIES, self.block)))
        return self._series

    @classmethod
    def from_bundle(
        cls,
        bundle: TelemetryBundle,
        dt_us: int = 50_000,
        after: Optional["Timeline"] = None,
    ) -> "Timeline":
        """Resample *bundle* onto a uniform grid of *dt_us* bins.

        With *after*, the result is the segment that continues it: its
        bins run from ``after.end_us`` up to the bundle's ``duration_us``
        (a session time), records before ``after.end_us`` fall outside
        it, and forward-filled series start from *after*'s last values
        instead of 0.
        """
        if dt_us <= 0:
            raise TelemetryError("dt_us must be positive")
        start_us = 0
        fills = np.zeros(len(_FILLED))
        if after is not None:
            if after.dt_us != dt_us or not after.n_bins:
                raise TelemetryError(
                    "after= must be a timeline that shares dt_us and holds "
                    "at least one bin"
                )
            start_us = after.end_us
            if bundle.duration_us <= start_us:
                raise TelemetryError(
                    "bundle ends before the timeline it continues"
                )
            fills = after.block[_FILLED, -1]
        n_bins = max(1, math.ceil((bundle.duration_us - start_us) / dt_us))
        with span("ingest.from_bundle", n_bins=n_bins):
            block = _ingest(bundle, dt_us, start_us, n_bins, fills)
        registry = get_registry()
        registry.counter(
            "repro_bundles_ingested_total",
            help="Telemetry bundles resampled into timelines.",
        ).inc()
        registry.counter(
            "repro_bins_ingested_total",
            help="Uniform timeline bins produced by ingest.",
        ).inc(n_bins)
        return cls._of_block(block, dt_us, start_us)

    # -- accessors -----------------------------------------------------------

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.series[name]
        except KeyError:
            raise TelemetryError(f"timeline has no series named {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self.series

    @property
    def end_us(self) -> int:
        """Session time just past the last bin."""
        return self.start_us + self.n_bins * self.dt_us

    @property
    def t_us(self) -> np.ndarray:
        """Bin start times."""
        bins = np.arange(self.n_bins, dtype=np.int64)
        return self.start_us + bins * self.dt_us

    def extend(self, segment: "Timeline") -> None:
        """Append *segment*, built with ``from_bundle(..., after=self)``."""
        if segment.dt_us != self.dt_us or segment.start_us != self.end_us:
            raise TelemetryError("segment does not continue this timeline")
        self.block = np.concatenate((self.block, segment.block), axis=1)
        self._series = None

    def since(self, start_us: int) -> "Timeline":
        """The bins from *start_us* (a bin boundary) on, without copying."""
        offset = (start_us - self.start_us) // self.dt_us
        return Timeline._of_block(
            self.block[:, offset:],
            self.dt_us,
            self.start_us + offset * self.dt_us,
        )

    def window(self, start_bin: int, length_bins: int) -> "Dict[str, np.ndarray]":
        """Slice every series to [start_bin, start_bin + length_bins)."""
        return dict(zip(SERIES, self.block[:, start_bin:start_bin + length_bins]))
