"""Sliding-window feature extraction: the 36-dimension vector of §4.2.

For every window position Domino evaluates the 20 event conditions of
Table 5 over the local and remote clients and both link directions,
producing a boolean feature vector:

* 10 application events × {local, remote}               = 20
* 6 bidirectional 5G events × {UL, DL}                  = 12
* forward/reverse packet delay, UL scheduling, RRC      =  4
                                                    total 36

Window length W = 5 s and step Δt = 0.5 s are the paper's defaults; both
are configurable (and swept by the ablation benchmarks).

Two engines produce the same feature windows:

* :class:`FeatureExtractor` — the per-window reference: slice every
  series per window position, call each detector on the slice.  Simple,
  and the semantic oracle the batch engine is tested against.
* :class:`BatchFeatureExtractor` — the production path: takes one
  strided ``(series, n_windows, W)`` view of the timeline's float64
  block and evaluates the vectorized detectors over *all* windows at
  once.  The 36 features are pairs (a role's or a direction's twins),
  and twin series sit a fixed number of rows apart in the block, so
  each detector reads a ``(2, n_windows, W)`` basic slice of the view
  (no copy) and fills both of its columns in one call: 19 calls per
  pass (:data:`_FUSED`).  With the paper's 90 % window overlap this
  removes the ~10× re-slicing of every bin and the per-window Python
  dispatch.  Custom ``extra_detectors`` (arbitrary callables) fall back
  to per-window evaluation and are merged into the batch matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.events import FUSED_EVENTS, EventConfig, build_registry
from repro.telemetry.timeline import SERIES, Timeline

#: Canonical feature ordering (36 names).
FEATURE_NAMES: Tuple[str, ...] = tuple(
    [
        f"{role}_{event}"
        for role in ("local", "remote")
        for event in (
            "inbound_framerate_down",
            "outbound_framerate_down",
            "outbound_resolution_down",
            "jitter_buffer_drain",
            "target_bitrate_down",
            "gcc_overuse",
            "pushback_rate_down",
            "cwnd_full",
            "outstanding_bytes_up",
            "pushback_neq_target",
        )
    ]
    + [
        f"{direction}_{event}"
        for direction in ("ul", "dl")
        for event in (
            "tbs_down",
            "rate_gap",
            "cross_traffic",
            "channel_degrades",
            "harq_retx",
            "rlc_retx",
        )
    ]
    + ["ul_delay_up", "dl_delay_up", "ul_scheduling", "rrc_change"]
)

assert len(FEATURE_NAMES) == 36, "the paper's vector has 36 dimensions"

def _rows(names: Tuple[str, ...], template: str, members) -> slice:
    """The basic slice of *names* that *template* names for *members*:
    the first and last member's entries (a fixed stride apart), or the
    one entry they share."""
    first, last = (
        names.index(template.format(member))
        for member in (members[0], members[-1])
    )
    return slice(first, last + 1, last - first or 1)


#: (detector, feature columns, input rows of the block): one entry per
#: batch-detector call of a feature pass.
_FUSED = tuple(
    (detector, _rows(FEATURE_NAMES, feature, members),
     tuple(_rows(SERIES, series, members) for series in inputs))
    for members, detector, feature, *inputs in FUSED_EVENTS
)
assert sorted(
    column for _, columns, _ in _FUSED for column in range(36)[columns]
) == list(range(36)), "the fused table fills every feature column once"


def window_step_bins(
    window_us: int, step_us: int, dt_us: int
) -> Tuple[int, int]:
    """(window length, step) in bins of *dt_us* — shared by both engines
    and the streaming detector."""
    return max(1, window_us // dt_us), max(1, step_us // dt_us)


def _check_no_shadowing(extra_detectors: Dict[str, object]) -> None:
    """Custom detectors may not take over built-in feature names."""
    overlap = set(extra_detectors) & set(FEATURE_NAMES)
    if overlap:
        raise ValueError(
            f"custom detectors shadow built-in features: {sorted(overlap)}"
        )


def _all_feature_names(extra_detectors: Dict[str, object]) -> Tuple[str, ...]:
    """Built-in 36 features plus custom ones, in canonical order."""
    return FEATURE_NAMES + tuple(sorted(extra_detectors))


@dataclass
class FeatureWindow:
    """One window's feature vector with its position in time."""

    start_us: int
    end_us: int
    features: Dict[str, bool]

    def as_tuple(self) -> Tuple[bool, ...]:
        return tuple(self.features[name] for name in FEATURE_NAMES)


@dataclass
class FeatureExtractor:
    """Evaluates all 36 detectors over sliding windows of a timeline.

    Args:
        window_us: window length W (paper: 5 s).
        step_us: window step Δt (paper: 0.5 s).
        config: event-condition thresholds.
        extra_detectors: user-registered event detectors beyond Table 5
            (name → callable(window, config) → bool); the extensibility
            hook §4.2 describes ("readily incorporate other data
            features").
    """

    window_us: int = 5_000_000
    step_us: int = 500_000
    config: EventConfig = field(default_factory=EventConfig)
    extra_detectors: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._registry = build_registry()
        missing = set(FEATURE_NAMES) - set(self._registry)
        if missing:
            raise RuntimeError(f"detectors missing for features: {missing}")
        _check_no_shadowing(self.extra_detectors)
        self._registry.update(self.extra_detectors)  # type: ignore[arg-type]

    @property
    def feature_names(self) -> Tuple[str, ...]:
        """Built-in 36 features plus any registered custom ones."""
        return _all_feature_names(self.extra_detectors)

    def window_bins(self, timeline: Timeline) -> Tuple[int, int]:
        """(window length, step) in timeline bins."""
        return window_step_bins(self.window_us, self.step_us, timeline.dt_us)

    def extract(self, timeline: Timeline) -> Iterator[FeatureWindow]:
        """Yield feature vectors for every window position."""
        window_bins, step_bins = self.window_bins(timeline)
        names = self.feature_names
        start = 0
        while start + window_bins <= timeline.n_bins:
            view = timeline.window(start, window_bins)
            features = {
                name: bool(self._registry[name](view, self.config))
                for name in names
            }
            yield FeatureWindow(
                start_us=timeline.start_us + start * timeline.dt_us,
                end_us=timeline.start_us
                + (start + window_bins) * timeline.dt_us,
                features=features,
            )
            start += step_bins

    def extract_all(self, timeline: Timeline) -> List[FeatureWindow]:
        """Materialise :meth:`extract` into a list."""
        return list(self.extract(timeline))


class _WindowSlice(Mapping):
    """Lazy per-window view for custom-detector fallback.

    Presents the same mapping interface as :meth:`Timeline.window` but
    slices a series only when the detector actually reads it, so the
    batch engine does not pay the full ~60-series dict re-slicing per
    window just to honour one or two custom detectors.
    """

    __slots__ = ("_series", "_start", "_stop")

    def __init__(self, series: Dict[str, np.ndarray], start: int, stop: int):
        self._series = series
        self._start = start
        self._stop = stop

    def __getitem__(self, name: str) -> np.ndarray:
        return self._series[name][self._start : self._stop]

    def __iter__(self):
        return iter(self._series)

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series


@dataclass
class BatchFeatureExtractor:
    """Vectorized feature extraction: all windows in one numpy pass.

    Drop-in replacement for :class:`FeatureExtractor` — identical
    constructor arguments, identical :meth:`extract_all` output (same
    window positions, same feature dicts, bit-identical booleans) — but
    the 36 built-in detectors run over ``(n_windows, W)`` strided
    matrices instead of per-window slices.

    Custom ``extra_detectors`` keep the reference calling convention
    (``callable(window_series, config) → bool`` over one window) and are
    evaluated per window, then merged into the batch matrix, so the
    §4.2 extension hook is unchanged.
    """

    window_us: int = 5_000_000
    step_us: int = 500_000
    config: EventConfig = field(default_factory=EventConfig)
    extra_detectors: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_no_shadowing(self.extra_detectors)

    @property
    def feature_names(self) -> Tuple[str, ...]:
        """Built-in 36 features plus any registered custom ones."""
        return _all_feature_names(self.extra_detectors)

    def window_bins(self, timeline: Timeline) -> Tuple[int, int]:
        """(window length, step) in timeline bins."""
        return window_step_bins(self.window_us, self.step_us, timeline.dt_us)

    def feature_matrix(
        self, timeline: Timeline
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(window start bins, boolean matrix of shape n_windows × features).

        Columns follow :attr:`feature_names`.  Zero windows → empty
        arrays.
        """
        window_bins, step_bins = self.window_bins(timeline)
        names = self.feature_names
        if timeline.n_bins < window_bins:
            return (
                np.empty(0, dtype=np.int64),
                np.empty((0, len(names)), dtype=bool),
            )
        starts = np.arange(
            0, timeline.n_bins - window_bins + 1, step_bins, dtype=np.int64
        )
        # One view of the block, no copy; each detector reads basic
        # slices of it and fills its columns in one strided assignment.
        view = sliding_window_view(timeline.block, window_bins, axis=1)
        view = view[:, ::step_bins]
        matrix = np.empty((len(starts), len(names)), dtype=bool)
        for detector, columns, inputs in _FUSED:
            series = [view[rows] for rows in inputs]
            matrix[:, columns] = detector(*series, self.config).T
        for offset, name in enumerate(sorted(self.extra_detectors)):
            detector = self.extra_detectors[name]
            column = len(FEATURE_NAMES) + offset
            for row, start in enumerate(starts):
                view = _WindowSlice(
                    timeline.series, int(start), int(start) + window_bins
                )
                matrix[row, column] = bool(detector(view, self.config))
        return starts, matrix

    def extract_all(self, timeline: Timeline) -> List[FeatureWindow]:
        """All windows' feature vectors, identical to the reference's."""
        window_bins, _ = self.window_bins(timeline)
        names = self.feature_names
        starts, matrix = self.feature_matrix(timeline)
        out: List[FeatureWindow] = []
        origin, dt_us = timeline.start_us, timeline.dt_us
        for row, start in enumerate(starts):
            values = matrix[row]
            out.append(
                FeatureWindow(
                    start_us=origin + int(start) * dt_us,
                    end_us=origin + (int(start) + window_bins) * dt_us,
                    features={
                        name: bool(values[column])
                        for column, name in enumerate(names)
                    },
                )
            )
        return out

    def extract(self, timeline: Timeline) -> Iterator[FeatureWindow]:
        """Iterator facade over :meth:`extract_all`."""
        return iter(self.extract_all(timeline))
