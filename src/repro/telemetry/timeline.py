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

Ingestion is single-pass and vectorized: each record list is walked
exactly once to pull its fields into flat numpy arrays (the only
per-record Python work), and every per-bin aggregate is then a
``np.bincount`` / ``np.minimum.at`` / fancy-assignment over those
arrays.  Accumulation order per bin equals record order — the same
order the per-record loops used — so the resulting series are
bit-identical to the loop formulation.

A timeline can also be built in time-ordered segments: every per-bin
aggregate depends only on that bin's records, and forward-fill carries
in through ``from_bundle(..., after=previous)``, so segments appended
with :meth:`Timeline.extend` equal one ingest of the whole bundle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import TelemetryError
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.telemetry.records import (
    GnbLogKind,
    StreamKind,
    TelemetryBundle,
)

#: GCC network-state encoding in the resampled arrays.
GCC_STATE_CODE = {"underuse": -1, "normal": 0, "overuse": 1}


def _forward_fill(values: np.ndarray, fill: float) -> np.ndarray:
    """Forward-fill NaNs (leading NaNs become *fill*)."""
    mask = np.isnan(values)
    if not mask.any():
        return values
    idx = np.where(~mask, np.arange(len(values)), 0)
    np.maximum.accumulate(idx, out=idx)
    filled = values[idx]
    filled[np.isnan(filled)] = fill
    return filled


@dataclass
class Timeline:
    """Uniform cross-layer time series for one session.

    Attributes:
        dt_us: bin width of the grid.
        n_bins: number of bins.
        series: mapping from variable name to a float array of length
            ``n_bins``.
        start_us: session time of the first bin (0 unless the timeline
            continues an earlier segment).
    """

    dt_us: int
    n_bins: int
    series: Dict[str, np.ndarray] = field(default_factory=dict)
    start_us: int = 0

    #: App-stat fields copied per client from WebRtcStatsRecord.
    _APP_FIELDS = (
        "inbound_fps",
        "outbound_fps",
        "outbound_resolution_p",
        "inbound_resolution_p",
        "video_jitter_buffer_ms",
        "audio_jitter_buffer_ms",
        "target_bitrate_bps",
        "pushback_bitrate_bps",
        "outstanding_bytes",
        "congestion_window_bytes",
        "gcc_trend_slope",
        "gcc_threshold",
    )

    @classmethod
    def from_bundle(
        cls,
        bundle: TelemetryBundle,
        dt_us: int = 50_000,
        after: Optional["Timeline"] = None,
    ) -> "Timeline":
        """Resample *bundle* onto a uniform grid of *dt_us* bins.

        With *after*, the result is the segment that continues that
        timeline: its bins run from ``after.end_us`` up to the bundle's
        ``duration_us`` (a session time), records before ``after.end_us``
        fall outside it, and forward-filled series start from *after*'s
        last values instead of 0.
        """
        if dt_us <= 0:
            raise TelemetryError("dt_us must be positive")
        start_us = 0
        fills: Dict[str, float] = {}
        if after is not None:
            if after.dt_us != dt_us or after.n_bins == 0:
                raise TelemetryError(
                    "after= must share dt_us and hold at least one bin"
                )
            start_us = after.end_us
            if bundle.duration_us <= start_us:
                raise TelemetryError(
                    "bundle ends before the timeline it continues"
                )
            fills = {
                name: float(values[-1])
                for name, values in after.series.items()
            }
        n_bins = max(1, math.ceil((bundle.duration_us - start_us) / dt_us))
        with span("ingest.from_bundle", n_bins=n_bins):
            timeline = cls(dt_us=dt_us, n_bins=n_bins, start_us=start_us)
            timeline._ingest_webrtc(bundle, fills)
            timeline._ingest_packets(bundle, fills)
            timeline._ingest_dci(bundle, fills)
            timeline._ingest_gnb_log(bundle, fills)
        registry = get_registry()
        registry.counter(
            "repro_bundles_ingested_total",
            help="Telemetry bundles resampled into timelines.",
        ).inc()
        registry.counter(
            "repro_bins_ingested_total",
            help="Uniform timeline bins produced by ingest.",
        ).inc(n_bins)
        return timeline

    # -- construction helpers -------------------------------------------------

    def _new(self, name: str, fill: float = np.nan) -> np.ndarray:
        array = np.full(self.n_bins, fill, dtype=float)
        self.series[name] = array
        return array

    def _bin_indices(self, ts_us: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """(bin index, in-range mask) of each timestamp."""
        index = ts_us // self.dt_us - self.start_us // self.dt_us
        return index, (index >= 0) & (index < self.n_bins)

    def _ingest_webrtc(
        self, bundle: TelemetryBundle, fills: Dict[str, float]
    ) -> None:
        for role in ("local", "remote"):
            for fieldname in self._APP_FIELDS:
                self._new(f"{role}_{fieldname}")
            self._new(f"{role}_gcc_state")
            self._new(f"{role}_frozen", 0.0)
            self._new(f"{role}_concealed", 0.0)
            self._new(f"{role}_total_samples", 0.0)
        records = bundle.webrtc_stats
        n = len(records)
        ts = np.fromiter((r.ts_us for r in records), np.int64, n)
        index, in_range = self._bin_indices(ts)
        wired = bundle.wired_client
        cellular = bundle.cellular_client
        remote_mask = np.fromiter(
            (r.client == wired for r in records), np.bool_, n
        )
        if cellular == wired:
            # Degenerate naming: dict-lookup ingestion resolved the
            # shared name to "remote"; keep that.
            local_mask = np.zeros(n, dtype=np.bool_)
        else:
            local_mask = np.fromiter(
                (r.client == cellular for r in records), np.bool_, n
            )
        columns = {
            fieldname: np.fromiter(
                (getattr(r, fieldname) for r in records), np.float64, n
            )
            for fieldname in self._APP_FIELDS
        }
        columns["gcc_state"] = np.fromiter(
            (GCC_STATE_CODE.get(r.gcc_state, 0) for r in records),
            np.float64,
            n,
        )
        columns["frozen"] = np.fromiter(
            (r.frozen for r in records), np.float64, n
        )
        concealed = np.fromiter(
            (r.concealed_samples for r in records), np.float64, n
        )
        total = np.fromiter((r.total_samples for r in records), np.float64, n)
        for role, role_mask in (("local", local_mask), ("remote", remote_mask)):
            mask = in_range & role_mask
            idx = index[mask]
            # Fancy assignment applies duplicates in order: the last
            # record landing in a bin wins, as in per-record ingestion.
            for name, values in columns.items():
                self.series[f"{role}_{name}"][idx] = values[mask]
            np.add.at(self.series[f"{role}_concealed"], idx, concealed[mask])
            np.add.at(self.series[f"{role}_total_samples"], idx, total[mask])
        for name in list(self.series):
            if name.endswith(("_frozen", "_concealed", "_total_samples")):
                continue
            if name.startswith(("local_", "remote_")):
                self.series[name] = _forward_fill(
                    self.series[name], fills.get(name, 0.0)
                )

    def _ingest_packets(
        self, bundle: TelemetryBundle, fills: Dict[str, float]
    ) -> None:
        packets = bundle.packets
        n = len(packets)
        sent = np.fromiter((p.sent_us for p in packets), np.int64, n)
        is_uplink = np.fromiter(
            (p.is_uplink for p in packets), np.bool_, n
        )
        size = np.fromiter((p.size_bytes for p in packets), np.float64, n)
        # -1 marks a lost packet; real receive timestamps are >= 0.
        received = np.fromiter(
            (
                -1 if p.received_us is None else p.received_us
                for p in packets
            ),
            np.int64,
            n,
        )
        is_rtcp = np.fromiter(
            (p.stream is StreamKind.RTCP for p in packets), np.bool_, n
        )
        index, in_range = self._bin_indices(sent)
        delivered = received >= 0
        delay = (received - sent).astype(np.float64)
        for direction, flag in (("ul", True), ("dl", False)):
            mask = in_range & (is_uplink == flag)
            nb = self.n_bins
            bytes_sent = np.bincount(
                index[mask], weights=size[mask], minlength=nb
            )
            lost = np.bincount(
                index[mask & ~delivered], minlength=nb
            ).astype(float)
            data = mask & delivered & ~is_rtcp
            delay_sum = np.bincount(
                index[data], weights=delay[data], minlength=nb
            )
            delay_count = np.bincount(index[data], minlength=nb).astype(float)
            rtcp = mask & delivered & is_rtcp
            rtcp_delay_sum = np.bincount(
                index[rtcp], weights=delay[rtcp], minlength=nb
            )
            rtcp_delay_count = np.bincount(index[rtcp], minlength=nb).astype(
                float
            )
            with np.errstate(invalid="ignore"):
                delay_ms = np.where(
                    delay_count > 0, delay_sum / np.maximum(delay_count, 1), np.nan
                ) / 1000.0
                rtcp_ms = np.where(
                    rtcp_delay_count > 0,
                    rtcp_delay_sum / np.maximum(rtcp_delay_count, 1),
                    np.nan,
                ) / 1000.0
            for name, values in (
                (f"{direction}_packet_delay_ms", delay_ms),
                (f"{direction}_rtcp_delay_ms", rtcp_ms),
            ):
                self.series[name] = _forward_fill(
                    values, fills.get(name, 0.0)
                )
            self.series[f"{direction}_lost_packets"] = lost
            # App send rate in bit/s over each bin (condition 14 input).
            self.series[f"{direction}_app_bitrate_bps"] = (
                bytes_sent * 8.0 * 1e6 / self.dt_us
            )

    #: Cross-traffic UEs use RNTIs at or above this value by convention
    #: (see :class:`repro.mac.crosstraffic.CrossTrafficUe`); everything
    #: below belongs to the experiment UE (whose RNTI changes across RRC
    #: transitions).  Earlier ingest collected the set of observed
    #: sub-floor RNTIs and tested membership per record — which reduces
    #: to ``record.rnti < _CROSS_TRAFFIC_RNTI_FLOOR`` directly, with no
    #: per-direction set rebuild.
    _CROSS_TRAFFIC_RNTI_FLOOR = 40_000

    def _ingest_dci(
        self, bundle: TelemetryBundle, fills: Dict[str, float]
    ) -> None:
        records = bundle.dci
        n = len(records)
        ts = np.fromiter((r.ts_us for r in records), np.int64, n)
        rnti = np.fromiter((r.rnti for r in records), np.int64, n)
        is_uplink = np.fromiter((r.is_uplink for r in records), np.bool_, n)
        n_prb = np.fromiter((r.n_prb for r in records), np.float64, n)
        index, in_range = self._bin_indices(ts)
        is_experiment = rnti < self._CROSS_TRAFFIC_RNTI_FLOOR
        # MCS/TBS/retx only matter for the experiment UE, typically a
        # small minority of grants next to cross traffic — pull those
        # columns from the compressed sublist instead of the full list.
        experiment_records = list(
            itertools.compress(records, is_experiment.tolist())
        )
        m = len(experiment_records)
        mcs = np.fromiter(
            (r.mcs for r in experiment_records), np.float64, m
        )
        tbs = np.fromiter(
            (r.tbs_bits for r in experiment_records), np.float64, m
        )
        is_retx = np.fromiter(
            (r.is_retx for r in experiment_records), np.bool_, m
        )
        exp_index = index[is_experiment]
        exp_in_range = in_range[is_experiment]
        exp_uplink = is_uplink[is_experiment]
        exp_rnti = rnti[is_experiment]
        exp_prb = n_prb[is_experiment]
        nb = self.n_bins
        for direction, flag in (("ul", True), ("dl", False)):
            exp = exp_in_range & (exp_uplink == flag)
            idx = exp_index[exp]
            exp_prbs = np.bincount(idx, weights=exp_prb[exp], minlength=nb)
            harq_retx = np.bincount(
                exp_index[exp & is_retx], minlength=nb
            ).astype(float)
            new_data = exp & ~is_retx
            tbs_bits = np.bincount(
                exp_index[new_data], weights=tbs[new_data], minlength=nb
            )
            mcs_sum = np.bincount(idx, weights=mcs[exp], minlength=nb)
            mcs_count = np.bincount(idx, minlength=nb).astype(float)
            mcs_min = np.full(nb, np.inf)
            np.minimum.at(mcs_min, idx, mcs[exp])
            mcs_min[mcs_count == 0] = np.nan
            rnti_series = np.full(nb, np.nan)
            rnti_series[idx] = exp_rnti[exp]  # duplicates: last record wins
            other = in_range & (is_uplink == flag) & ~is_experiment
            other_prbs = np.bincount(
                index[other], weights=n_prb[other], minlength=nb
            )
            with np.errstate(invalid="ignore"):
                mcs_mean = np.where(
                    mcs_count > 0, mcs_sum / np.maximum(mcs_count, 1), np.nan
                )
            self.series[f"{direction}_exp_prbs"] = exp_prbs
            self.series[f"{direction}_other_prbs"] = other_prbs
            self.series[f"{direction}_tbs_bits"] = tbs_bits
            self.series[f"{direction}_tbs_bitrate_bps"] = (
                tbs_bits * 1e6 / self.dt_us
            )
            self.series[f"{direction}_harq_retx"] = harq_retx
            self.series[f"{direction}_mcs_mean"] = mcs_mean  # NaN = not sched.
            self.series[f"{direction}_mcs_min"] = mcs_min
            self.series[f"{direction}_scheduled"] = (mcs_count > 0).astype(
                float
            )
            self.series[f"{direction}_rnti"] = _forward_fill(
                rnti_series, fills.get(f"{direction}_rnti", 0.0)
            )

    def _ingest_gnb_log(
        self, bundle: TelemetryBundle, fills: Dict[str, float]
    ) -> None:
        records = bundle.gnb_log
        n = len(records)
        ts = np.fromiter((r.ts_us for r in records), np.int64, n)
        is_buffer = np.fromiter(
            (r.kind is GnbLogKind.RLC_BUFFER for r in records), np.bool_, n
        )
        is_rlc_retx = np.fromiter(
            (r.kind is GnbLogKind.RLC_RETX for r in records), np.bool_, n
        )
        is_rrc = np.fromiter(
            (
                r.kind is GnbLogKind.RRC_RELEASE
                or r.kind is GnbLogKind.RRC_CONNECT
                for r in records
            ),
            np.bool_,
            n,
        )
        is_uplink = np.fromiter((r.is_uplink for r in records), np.bool_, n)
        buffer_values = np.fromiter(
            (r.buffer_bytes for r in records), np.float64, n
        )
        index, in_range = self._bin_indices(ts)
        nb = self.n_bins
        for direction, flag in (("ul", True), ("dl", False)):
            mask = in_range & (is_uplink == flag)
            buffer_bytes = np.full(nb, np.nan)
            buffered = mask & is_buffer
            buffer_bytes[index[buffered]] = buffer_values[buffered]
            rlc_retx = np.bincount(
                index[mask & is_rlc_retx], minlength=nb
            ).astype(float)
            name = f"{direction}_rlc_buffer_bytes"
            self.series[name] = _forward_fill(
                buffer_bytes, fills.get(name, 0.0)
            )
            self.series[f"{direction}_rlc_retx"] = rlc_retx
        self.series["rrc_events"] = np.bincount(
            index[in_range & is_rrc], minlength=nb
        ).astype(float)

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
        for name, values in self.series.items():
            self.series[name] = np.concatenate(
                (values, segment.series[name])
            )
        self.n_bins += segment.n_bins

    def since(self, start_us: int) -> "Timeline":
        """The bins from *start_us* (a bin boundary) on, without copying."""
        offset = (start_us - self.start_us) // self.dt_us
        return Timeline(
            dt_us=self.dt_us,
            n_bins=self.n_bins - offset,
            series={
                name: values[offset:] for name, values in self.series.items()
            },
            start_us=self.start_us + offset * self.dt_us,
        )

    def window(self, start_bin: int, length_bins: int) -> "Dict[str, np.ndarray]":
        """Slice every series to [start_bin, start_bin + length_bins)."""
        stop = min(self.n_bins, start_bin + length_bins)
        return {
            name: values[start_bin:stop] for name, values in self.series.items()
        }
