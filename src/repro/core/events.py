"""The 20 event-detection conditions of Table 5 (Appendix D).

Each detector evaluates one condition over a sliding window of resampled
series (50 ms bins; W = 5 s → 100 bins).  The implementations follow the
appendix formulas; thresholds live in :class:`EventConfig` so ablation
benchmarks can sweep them.

Where the paper compares raw samples directly (rows 5, 7, 9, 10), a small
relative margin is applied by default: the paper's inputs were discrete
WebRTC stat counters, while the simulator produces continuous floats
whose bit-level noise would otherwise satisfy strict inequalities
vacuously.  Setting the margins to 0 recovers the paper-exact conditions.

Two forms of each condition are exposed:

* :func:`build_registry` — the per-window reference implementations,
  callable(window, config) → bool over one window's 1-D series.  These
  are the semantic ground truth and the extension surface for custom
  detectors.
* the ``*_batch`` functions — vectorized counterparts over *all* window
  positions at once: each takes its input series as arrays whose last
  axis is one window (``(..., n_windows, window_bins)``, a strided
  :func:`numpy.lib.stride_tricks.sliding_window_view`) and returns a
  bool array of the leading shape, so one call evaluates a pair of
  series (both roles, or both directions) stacked on a leading axis.
  One table, :data:`FUSED_EVENTS`, names each call's features and
  input series; :mod:`repro.core.features` maps it onto the feature
  columns and the timeline's rows.  Each batch detector is written to be *exactly*
  equivalent to its reference — same NaN semantics, same float
  comparisons — which ``tests/test_batch_features.py`` asserts
  property-style.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping

import numpy as np

WindowView = Mapping[str, np.ndarray]


@dataclass(frozen=True)
class EventConfig:
    """Thresholds for the Table 5 event conditions."""

    # Rows 1-2: frame-rate drop.
    framerate_high_fps: float = 27.0
    framerate_low_fps: float = 25.0
    # Row 4: jitter buffer drained (== 0 ms, with float epsilon).
    jitter_buffer_zero_ms: float = 0.5
    # Rows 5/7: rate downtrends; relative drop needed between samples.
    rate_drop_margin: float = 0.05
    # Row 9: outstanding-bytes uptrend margin between 500 ms means.
    outstanding_up_margin: float = 0.15
    # Row 10: pushback vs target inequality margin.
    pushback_neq_margin: float = 0.02
    # Rows 11-12: packet-delay uptrend.
    delay_window_bins: int = 10  # 10 x 50 ms = 500 ms means
    delay_up_min_ms: float = 80.0
    delay_up_margin: float = 0.10
    # Row 13: TBS drop.
    tbs_drop_fraction: float = 0.8
    # Row 14: app bitrate above allocated TBS.
    rate_gap_time_fraction: float = 0.10
    # Row 15: cross traffic.
    cross_traffic_fraction: float = 0.20
    # Row 16: channel degradation.
    mcs_p90_threshold: float = 20.0
    mcs_low_threshold: float = 10.0
    mcs_low_count: int = 10
    # Row 17: HARQ retransmissions per window.
    harq_retx_count: int = 20
    # Row 9 small-window size (samples per mean).
    trend_window_bins: int = 10


# -- helpers -------------------------------------------------------------------


def _windowed_means(values: np.ndarray, size: int) -> np.ndarray:
    """Non-overlapping means of *size* consecutive samples."""
    n = len(values) // size
    if n == 0:
        return np.empty(0)
    return values[: n * size].reshape(n, size).mean(axis=1)


def _has_uptrend(means: np.ndarray, margin: float) -> bool:
    """True if any consecutive pair of means rises by more than margin."""
    if len(means) < 2:
        return False
    previous = means[:-1]
    nxt = means[1:]
    baseline = np.abs(previous) + 1e-9
    return bool(np.any(nxt > previous + margin * baseline))


def _has_downtrend(values: np.ndarray, margin: float) -> bool:
    """True if any consecutive pair of samples falls by more than margin."""
    if len(values) < 2:
        return False
    previous = values[:-1]
    nxt = values[1:]
    baseline = np.abs(previous) + 1e-9
    return bool(np.any(nxt < previous - margin * baseline))


# -- application events (rows 1-10); `role` is "local" or "remote" ---------------


def framerate_down(
    window: WindowView, config: EventConfig, role: str, direction: str
) -> bool:
    """Rows 1-2: max fps > 27, min fps < 25, and the max precedes the min."""
    fps = window[f"{role}_{direction}_fps"]
    valid = fps[~np.isnan(fps)]
    if len(valid) < 2:
        return False
    if valid.max() <= config.framerate_high_fps:
        return False
    if valid.min() >= config.framerate_low_fps:
        return False
    return int(np.argmax(valid)) < int(np.argmin(valid))


def resolution_down(window: WindowView, config: EventConfig, role: str) -> bool:
    """Row 3: any step down in outbound resolution."""
    resolution = window[f"{role}_outbound_resolution_p"]
    valid = resolution[~np.isnan(resolution)]
    if len(valid) < 2:
        return False
    return bool(np.any(np.diff(valid) < 0))


def jitter_buffer_drain(
    window: WindowView, config: EventConfig, role: str
) -> bool:
    """Row 4: the jitter-buffer delay reaches 0 ms."""
    delay = window[f"{role}_video_jitter_buffer_ms"]
    valid = delay[~np.isnan(delay)]
    if len(valid) == 0:
        return False
    return bool(np.any(valid <= config.jitter_buffer_zero_ms))


def target_bitrate_down(
    window: WindowView, config: EventConfig, role: str
) -> bool:
    """Row 5: downtrend in the GCC target bitrate."""
    return _has_downtrend(
        window[f"{role}_target_bitrate_bps"], config.rate_drop_margin
    )


def gcc_overuse(window: WindowView, config: EventConfig, role: str) -> bool:
    """Row 6: any 'overuse' entry in the GCC state log."""
    state = window[f"{role}_gcc_state"]
    return bool(np.any(state > 0.5))


def pushback_rate_down(
    window: WindowView, config: EventConfig, role: str
) -> bool:
    """Row 7: downtrend in the pushback rate."""
    return _has_downtrend(
        window[f"{role}_pushback_bitrate_bps"], config.rate_drop_margin
    )


def cwnd_full(window: WindowView, config: EventConfig, role: str) -> bool:
    """Row 8: outstanding bytes exceed the congestion window."""
    outstanding = window[f"{role}_outstanding_bytes"]
    cwnd = window[f"{role}_congestion_window_bytes"]
    with np.errstate(invalid="ignore"):
        ratio = outstanding / np.maximum(cwnd, 1.0)
    valid = ratio[~np.isnan(ratio)]
    return bool(np.any(valid > 1.0))


def outstanding_bytes_up(
    window: WindowView, config: EventConfig, role: str
) -> bool:
    """Row 9: uptrend in 500 ms means of outstanding bytes."""
    means = _windowed_means(
        np.nan_to_num(window[f"{role}_outstanding_bytes"]),
        config.trend_window_bins,
    )
    return _has_uptrend(means, config.outstanding_up_margin)


def pushback_neq_target(
    window: WindowView, config: EventConfig, role: str
) -> bool:
    """Row 10: pushback rate diverges from the target bitrate."""
    target = window[f"{role}_target_bitrate_bps"]
    pushback = window[f"{role}_pushback_bitrate_bps"]
    with np.errstate(invalid="ignore"):
        gap = np.abs(target - pushback) / np.maximum(np.abs(target), 1.0)
    valid = gap[~np.isnan(gap)]
    return bool(np.any(valid > config.pushback_neq_margin))


# -- network delay events (rows 11-12); `direction` is "ul" or "dl" ---------------


def packet_delay_up(
    window: WindowView, config: EventConfig, direction: str
) -> bool:
    """Rows 11-12: uptrend in windowed delay and a sample above 80 ms."""
    delay = np.nan_to_num(window[f"{direction}_packet_delay_ms"])
    if len(delay) == 0 or delay.max() <= config.delay_up_min_ms:
        return False
    means = _windowed_means(delay, config.delay_window_bins)
    return _has_uptrend(means, config.delay_up_margin)


# -- 5G events (rows 13-18) ----------------------------------------------------------


def tbs_down(window: WindowView, config: EventConfig, direction: str) -> bool:
    """Row 13: min TBS < 80% of max TBS, with the max preceding the min."""
    tbs = window[f"{direction}_tbs_bits"]
    scheduled = window[f"{direction}_scheduled"] > 0.5
    valid = tbs[scheduled]
    if len(valid) < 2:
        return False
    max_index = int(np.argmax(valid))
    min_index = int(np.argmin(valid))
    return (
        valid[min_index] < config.tbs_drop_fraction * valid[max_index]
        and max_index < min_index
    )


def rate_gap(window: WindowView, config: EventConfig, direction: str) -> bool:
    """Row 14: app bitrate exceeds the TBS-implied capacity > 10% of time."""
    app = np.nan_to_num(window[f"{direction}_app_bitrate_bps"])
    tbs = np.nan_to_num(window[f"{direction}_tbs_bitrate_bps"])
    active = app > 1_000.0  # ignore bins where nothing was sent
    if not np.any(active):
        return False
    exceed = np.logical_and(active, app > tbs)
    return float(np.mean(exceed)) > config.rate_gap_time_fraction


def cross_traffic(window: WindowView, config: EventConfig, direction: str) -> bool:
    """Row 15: other UEs' PRBs exceed 20% of the experiment UE's PRBs."""
    exp = float(np.nansum(window[f"{direction}_exp_prbs"]))
    other = float(np.nansum(window[f"{direction}_other_prbs"]))
    if exp <= 0.0:
        return False
    return other > config.cross_traffic_fraction * exp


def channel_degrades(
    window: WindowView, config: EventConfig, direction: str
) -> bool:
    """Row 16: binned MCS p90 < 20 and > 10 bins with MCS below 10."""
    mcs = window[f"{direction}_mcs_mean"]
    valid = mcs[~np.isnan(mcs)]
    if len(valid) < config.mcs_low_count:
        return False
    p90 = float(np.percentile(valid, 90))
    low_count = int(np.sum(valid < config.mcs_low_threshold))
    return p90 < config.mcs_p90_threshold and low_count > config.mcs_low_count


def harq_retx(window: WindowView, config: EventConfig, direction: str) -> bool:
    """Row 17: more than N HARQ retransmissions in the window."""
    return float(np.nansum(window[f"{direction}_harq_retx"])) > config.harq_retx_count


def rlc_retx(window: WindowView, config: EventConfig, direction: str) -> bool:
    """Row 18: any RLC retransmission entry in the gNB log."""
    return float(np.nansum(window[f"{direction}_rlc_retx"])) > 0


# -- rows 19-20 ----------------------------------------------------------------------


def ul_scheduling(window: WindowView, config: EventConfig) -> bool:
    """Row 19: the transmission uses the 5G uplink channel."""
    return bool(np.any(window["ul_scheduled"] > 0.5))


def rrc_change(window: WindowView, config: EventConfig) -> bool:
    """Row 20: the experiment UE's RNTI changes within the window."""
    rnti = window["ul_rnti"]
    valid = rnti[rnti > 0]
    changed = len(valid) > 1 and bool(np.any(np.diff(valid) != 0))
    if changed:
        return True
    dl_rnti = window["dl_rnti"]
    valid = dl_rnti[dl_rnti > 0]
    if len(valid) > 1 and bool(np.any(np.diff(valid) != 0)):
        return True
    events = window.get("rrc_events")
    return events is not None and bool(np.any(events > 0))


#: Registry used by the feature extractor: feature name → callable
#: taking (window, config).  Populated in repro.core.features.
DetectorFn = Callable[[WindowView, EventConfig], bool]


def build_registry() -> Dict[str, DetectorFn]:
    """Build the feature-name → detector mapping for all 36 features."""
    registry: Dict[str, DetectorFn] = {}

    def bind(name: str, fn: Callable, *args) -> None:
        registry[name] = lambda window, config, fn=fn, args=args: fn(
            window, config, *args
        )

    for role in ("local", "remote"):
        bind(f"{role}_inbound_framerate_down", framerate_down, role, "inbound")
        bind(f"{role}_outbound_framerate_down", framerate_down, role, "outbound")
        bind(f"{role}_outbound_resolution_down", resolution_down, role)
        bind(f"{role}_jitter_buffer_drain", jitter_buffer_drain, role)
        bind(f"{role}_target_bitrate_down", target_bitrate_down, role)
        bind(f"{role}_gcc_overuse", gcc_overuse, role)
        bind(f"{role}_pushback_rate_down", pushback_rate_down, role)
        bind(f"{role}_cwnd_full", cwnd_full, role)
        bind(f"{role}_outstanding_bytes_up", outstanding_bytes_up, role)
        bind(f"{role}_pushback_neq_target", pushback_neq_target, role)
    for direction in ("ul", "dl"):
        bind(f"{direction}_delay_up", packet_delay_up, direction)
        bind(f"{direction}_tbs_down", tbs_down, direction)
        bind(f"{direction}_rate_gap", rate_gap, direction)
        bind(f"{direction}_cross_traffic", cross_traffic, direction)
        bind(f"{direction}_channel_degrades", channel_degrades, direction)
        bind(f"{direction}_harq_retx", harq_retx, direction)
        bind(f"{direction}_rlc_retx", rlc_retx, direction)
    registry["ul_scheduling"] = lambda window, config: ul_scheduling(
        window, config
    )
    registry["rrc_change"] = lambda window, config: rrc_change(window, config)
    return registry


# =============================================================================
# Vectorized (batch) implementations: one call evaluates every window.
#
# Inputs are arrays of shape (..., n_windows, W) whose last axis holds
# exactly the samples the reference detector sees for one window; the
# feature engine passes a (2, n_windows, W) view of a pair of series (a
# role's or a direction's twins), so one call evaluates both.  Outputs
# are bool arrays of the leading shape.  Every reduction runs over the
# last axis, as the reference's does over its 1-D window, so
# equivalence reduces to doing the same numpy arithmetic with
# ``axis=-1``.  The only genuinely tricky parts are the conditions
# defined over the *compacted* valid subsequence (argmax/argmin order,
# consecutive-valid-pair trends), handled by the helpers below.
# =============================================================================


def _batch_windowed_means(values: np.ndarray, size: int) -> np.ndarray:
    """Non-overlapping means of *size* consecutive samples per window."""
    n = values.shape[-1] // size
    shape = values.shape[:-1] + (n, size)
    return values[..., : n * size].reshape(shape).mean(axis=-1)


def _batch_has_uptrend(means: np.ndarray, margin: float) -> np.ndarray:
    """Per-window :func:`_has_uptrend`."""
    previous = means[..., :-1]
    baseline = np.abs(previous) + 1e-9
    return np.any(means[..., 1:] > previous + margin * baseline, axis=-1)


def _batch_has_downtrend(values: np.ndarray, margin: float) -> np.ndarray:
    """Per-window :func:`_has_downtrend` (NaN pairs compare False)."""
    previous = values[..., :-1]
    baseline = np.abs(previous) + 1e-9
    return np.any(values[..., 1:] < previous - margin * baseline, axis=-1)


def _batch_extrema_ordered(
    values: np.ndarray, valid: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Per-window (max, min, count, max-before-min) over the valid subset.

    Matches ``argmax(compacted) < argmin(compacted)`` in the reference
    detectors: compaction preserves order, so comparing the positions of
    the *first* occurrence of the max and min among valid samples in the
    original window is equivalent.  Windows whose valid subset contains
    NaN yield NaN extrema (comparisons on them are False, exactly like
    the reference, whose ``valid[argmin] < … * valid[argmax]`` also goes
    through NaN).
    """
    vmax = np.where(valid, values, -np.inf).max(axis=-1, initial=-np.inf)
    vmin = np.where(valid, values, np.inf).min(axis=-1, initial=np.inf)
    count = valid.sum(axis=-1)
    first_max = np.argmax(valid & (values == vmax[..., None]), axis=-1)
    first_min = np.argmax(valid & (values == vmin[..., None]), axis=-1)
    return vmax, vmin, count, first_max < first_min


def _batch_compacted_pair_any(
    values: np.ndarray, valid: np.ndarray, not_equal: bool = False
) -> np.ndarray:
    """Per-window "any consecutive *valid* pair satisfies the predicate".

    With ``not_equal=False`` the predicate is ``current < previous``
    (``diff(compacted) < 0``); with ``not_equal=True`` it is
    ``current != previous`` (``diff(compacted) != 0``).  Invalid samples
    are skipped, exactly like ``values[valid_mask]`` compaction, by
    forward-propagating the last valid sample's value.
    """
    positions = np.where(valid, np.arange(values.shape[-1]), 0)
    np.maximum.accumulate(positions, axis=-1, out=positions)
    # Last valid position at or before sample j-1 → the "previous valid
    # value" candidate for sample j; guarded by has_prev below.
    prev_value = np.take_along_axis(values, positions[..., :-1], axis=-1)
    has_prev = np.logical_or.accumulate(valid, axis=-1)[..., :-1]
    current = values[..., 1:]
    hit = current != prev_value if not_equal else current < prev_value
    return np.any(valid[..., 1:] & has_prev & hit, axis=-1)


# -- application events (rows 1-10) ---------------------------------------------


def framerate_down_batch(fps: np.ndarray, config: EventConfig) -> np.ndarray:
    vmax, vmin, count, ordered = _batch_extrema_ordered(fps, ~np.isnan(fps))
    return (
        (count >= 2)
        & (vmax > config.framerate_high_fps)
        & (vmin < config.framerate_low_fps)
        & ordered
    )


def resolution_down_batch(
    resolution: np.ndarray, config: EventConfig
) -> np.ndarray:
    return _batch_compacted_pair_any(resolution, ~np.isnan(resolution))


def jitter_buffer_drain_batch(
    delay: np.ndarray, config: EventConfig
) -> np.ndarray:
    return np.any(delay <= config.jitter_buffer_zero_ms, axis=-1)


def rate_down_batch(rate: np.ndarray, config: EventConfig) -> np.ndarray:
    """Rows 5 and 7: a downtrend in the target or the pushback rate."""
    return _batch_has_downtrend(rate, config.rate_drop_margin)


def gcc_overuse_batch(state: np.ndarray, config: EventConfig) -> np.ndarray:
    return np.any(state > 0.5, axis=-1)


def cwnd_full_batch(
    outstanding: np.ndarray, cwnd: np.ndarray, config: EventConfig
) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        ratio = outstanding / np.maximum(cwnd, 1.0)
    return np.any(ratio > 1.0, axis=-1)


def outstanding_bytes_up_batch(
    outstanding: np.ndarray, config: EventConfig
) -> np.ndarray:
    means = _batch_windowed_means(
        np.nan_to_num(outstanding), config.trend_window_bins
    )
    return _batch_has_uptrend(means, config.outstanding_up_margin)


def pushback_neq_target_batch(
    target: np.ndarray, pushback: np.ndarray, config: EventConfig
) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        gap = np.abs(target - pushback) / np.maximum(np.abs(target), 1.0)
    return np.any(gap > config.pushback_neq_margin, axis=-1)


# -- network delay events (rows 11-12) ------------------------------------------


def packet_delay_up_batch(delay: np.ndarray, config: EventConfig) -> np.ndarray:
    delay = np.nan_to_num(delay)
    above = delay.max(axis=-1) > config.delay_up_min_ms
    means = _batch_windowed_means(delay, config.delay_window_bins)
    return above & _batch_has_uptrend(means, config.delay_up_margin)


# -- 5G events (rows 13-18) -----------------------------------------------------


def tbs_down_batch(
    tbs: np.ndarray, scheduled: np.ndarray, config: EventConfig
) -> np.ndarray:
    vmax, vmin, count, ordered = _batch_extrema_ordered(tbs, scheduled > 0.5)
    return (count >= 2) & (vmin < config.tbs_drop_fraction * vmax) & ordered


def rate_gap_batch(
    app: np.ndarray, tbs: np.ndarray, config: EventConfig
) -> np.ndarray:
    app = np.nan_to_num(app)
    active = app > 1_000.0
    exceed = np.logical_and(active, app > np.nan_to_num(tbs))
    return np.any(active, axis=-1) & (
        exceed.mean(axis=-1) > config.rate_gap_time_fraction
    )


def cross_traffic_batch(
    exp: np.ndarray, other: np.ndarray, config: EventConfig
) -> np.ndarray:
    exp = np.nansum(exp, axis=-1)
    other = np.nansum(other, axis=-1)
    return (exp > 0.0) & (other > config.cross_traffic_fraction * exp)


def channel_degrades_batch(mcs: np.ndarray, config: EventConfig) -> np.ndarray:
    """Vectorized prechecks; exact per-window percentile on survivors.

    ``np.percentile`` interpolation must match the reference bit for
    bit, so the (rare) windows that pass both count gates evaluate it on
    their compacted valid samples exactly as the reference does.
    """
    valid = ~np.isnan(mcs)
    count = valid.sum(axis=-1)
    low_count = (mcs < config.mcs_low_threshold).sum(axis=-1)
    out = np.zeros(count.shape, dtype=bool)
    candidates = (count >= config.mcs_low_count) & (
        low_count > config.mcs_low_count
    )
    for window in map(tuple, np.argwhere(candidates)):
        p90 = float(np.percentile(mcs[window][valid[window]], 90))
        out[window] = p90 < config.mcs_p90_threshold
    return out


def harq_retx_batch(retx: np.ndarray, config: EventConfig) -> np.ndarray:
    return np.nansum(retx, axis=-1) > config.harq_retx_count


def rlc_retx_batch(retx: np.ndarray, config: EventConfig) -> np.ndarray:
    return np.nansum(retx, axis=-1) > 0


# -- rows 19-20 -----------------------------------------------------------------


def ul_scheduling_batch(
    scheduled: np.ndarray, config: EventConfig
) -> np.ndarray:
    return np.any(scheduled > 0.5, axis=-1)


def rrc_change_batch(
    rnti: np.ndarray, events: np.ndarray, config: EventConfig
) -> np.ndarray:
    """Row 20 from both directions' RNTIs, *rnti* of shape
    ``(2, n_windows, W)``, and the RRC event counts, *events* of shape
    ``(1, n_windows, W)``: one compacted-pair pass over both RNTIs."""
    changed = _batch_compacted_pair_any(rnti, rnti > 0, not_equal=True)
    return changed.any(axis=0, keepdims=True) | np.any(events > 0, axis=-1)


_ROLES, _DIRECTIONS = ("local", "remote"), ("ul", "dl")

#: The batch detectors' one table: (members, detector, feature, input
#: series...), each entry one call that evaluates its event for every
#: member at once.  ``{}`` in a name stands for the member; a name
#: without it is one feature or series all members share.
#: :mod:`repro.core.features` maps the names onto the feature columns
#: and the rows of the timeline's block.
FUSED_EVENTS = (
    (_ROLES, framerate_down_batch, "{}_inbound_framerate_down",
     "{}_inbound_fps"),
    (_ROLES, framerate_down_batch, "{}_outbound_framerate_down",
     "{}_outbound_fps"),
    (_ROLES, resolution_down_batch, "{}_outbound_resolution_down",
     "{}_outbound_resolution_p"),
    (_ROLES, jitter_buffer_drain_batch, "{}_jitter_buffer_drain",
     "{}_video_jitter_buffer_ms"),
    (_ROLES, rate_down_batch, "{}_target_bitrate_down",
     "{}_target_bitrate_bps"),
    (_ROLES, gcc_overuse_batch, "{}_gcc_overuse", "{}_gcc_state"),
    (_ROLES, rate_down_batch, "{}_pushback_rate_down",
     "{}_pushback_bitrate_bps"),
    (_ROLES, cwnd_full_batch, "{}_cwnd_full", "{}_outstanding_bytes",
     "{}_congestion_window_bytes"),
    (_ROLES, outstanding_bytes_up_batch, "{}_outstanding_bytes_up",
     "{}_outstanding_bytes"),
    (_ROLES, pushback_neq_target_batch, "{}_pushback_neq_target",
     "{}_target_bitrate_bps", "{}_pushback_bitrate_bps"),
    (_DIRECTIONS, tbs_down_batch, "{}_tbs_down", "{}_tbs_bits",
     "{}_scheduled"),
    (_DIRECTIONS, rate_gap_batch, "{}_rate_gap", "{}_app_bitrate_bps",
     "{}_tbs_bitrate_bps"),
    (_DIRECTIONS, cross_traffic_batch, "{}_cross_traffic", "{}_exp_prbs",
     "{}_other_prbs"),
    (_DIRECTIONS, channel_degrades_batch, "{}_channel_degrades",
     "{}_mcs_mean"),
    (_DIRECTIONS, harq_retx_batch, "{}_harq_retx", "{}_harq_retx"),
    (_DIRECTIONS, rlc_retx_batch, "{}_rlc_retx", "{}_rlc_retx"),
    (_DIRECTIONS, packet_delay_up_batch, "{}_delay_up",
     "{}_packet_delay_ms"),
    (("ul",), ul_scheduling_batch, "ul_scheduling", "ul_scheduled"),
    (_DIRECTIONS, rrc_change_batch, "rrc_change", "{}_rnti", "rrc_events"),
)
