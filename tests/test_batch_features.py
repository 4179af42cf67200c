"""Batch feature engine ≡ per-window reference, property-style.

The vectorized :class:`BatchFeatureExtractor` must reproduce the
per-window :class:`FeatureExtractor` *exactly* — all 36 features, every
window position, bit-identical booleans — across random timelines
(including NaN-heavy and tie-heavy series engineered to stress the
compacted argmax/argmin and consecutive-valid-pair code paths), every
window/step/dt combination, and with custom ``extra_detectors`` mixed
in.  The per-window registry is the semantic oracle; these tests are
what lets the production pipeline run the batch engine alone.
"""

import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.detector import DominoDetector, WindowDetection
from repro.core.events import build_batch_registry
from repro.core.extension import ExtensibleDomino
from repro.core.features import (
    FEATURE_NAMES,
    BatchFeatureExtractor,
    FeatureExtractor,
    _strided_windows,
)
from repro.core.trace import evaluate_chains
from repro.telemetry.timeline import Timeline

#: Series the 36 detectors read, with generators tuned to make every
#: condition reachable (and frequently true) on random data.
_ROLE_SERIES = (
    "inbound_fps",
    "outbound_fps",
    "outbound_resolution_p",
    "video_jitter_buffer_ms",
    "target_bitrate_bps",
    "pushback_bitrate_bps",
    "gcc_state",
    "outstanding_bytes",
    "congestion_window_bytes",
)
_DIRECTION_SERIES = (
    "packet_delay_ms",
    "tbs_bits",
    "scheduled",
    "app_bitrate_bps",
    "tbs_bitrate_bps",
    "exp_prbs",
    "other_prbs",
    "mcs_mean",
    "harq_retx",
    "rlc_retx",
    "rnti",
)


def _random_series(rng: np.random.Generator, name: str, n: int) -> np.ndarray:
    """Plausible-magnitude values with heavy NaN and tie injection."""
    if name.endswith("_fps"):
        values = rng.choice([0.0, 24.0, 25.0, 26.0, 27.0, 28.0, 30.0], n)
    elif name.endswith("_resolution_p"):
        values = rng.choice([180.0, 360.0, 540.0, 720.0], n)
    elif name.endswith("_jitter_buffer_ms"):
        values = rng.choice([0.0, 0.4, 1.0, 40.0, 120.0], n)
    elif name.endswith(("_target_bitrate_bps", "_pushback_bitrate_bps")):
        values = rng.choice([5e5, 1e6, 1.5e6, 2e6], n)
    elif name.endswith("_gcc_state"):
        values = rng.choice([-1.0, 0.0, 0.0, 1.0], n)
    elif name.endswith("_outstanding_bytes"):
        values = rng.choice([0.0, 1e4, 5e4, 2e5], n)
    elif name.endswith("_congestion_window_bytes"):
        values = rng.choice([1e4, 5e4, 1e5], n)
    elif name.endswith("_packet_delay_ms"):
        values = rng.choice([5.0, 20.0, 60.0, 90.0, 200.0], n)
    elif name.endswith("_tbs_bits"):
        values = rng.choice([1e4, 3e4, 5e4, 8e4], n)
    elif name.endswith("_scheduled"):
        values = rng.choice([0.0, 1.0], n)
    elif name.endswith(("_app_bitrate_bps", "_tbs_bitrate_bps")):
        values = rng.choice([0.0, 5e5, 2e6, 6e6], n)
    elif name.endswith(("_exp_prbs", "_other_prbs")):
        values = rng.choice([0.0, 0.0, 10.0, 50.0], n)
    elif name.endswith("_mcs_mean"):
        values = rng.choice(
            [2.0, 8.0, 9.0, 15.0, 22.0, 27.0],
            n,
            p=[0.3, 0.25, 0.2, 0.15, 0.05, 0.05],
        )
    elif name.endswith(("_harq_retx", "_rlc_retx")):
        values = rng.choice([0.0, 0.0, 0.0, 1.0, 3.0], n)
    elif name.endswith("_rnti"):
        values = rng.choice([0.0, 17000.0, 17010.0, 41000.0], n)
    else:  # rrc_events
        values = rng.choice([0.0, 0.0, 0.0, 1.0], n)
    if name.endswith(("_rnti", "rrc_events")):
        return values  # these series are never NaN in real timelines
    nan_fraction = rng.choice([0.0, 0.1, 0.6, 0.95])
    values[rng.random(n) < nan_fraction] = np.nan
    return values


def _random_timeline(
    rng: np.random.Generator,
    n_bins: int,
    dt_us: int,
    with_rrc_events: bool = True,
) -> Timeline:
    timeline = Timeline(dt_us=dt_us, n_bins=n_bins)
    for role in ("local", "remote"):
        for series in _ROLE_SERIES:
            name = f"{role}_{series}"
            timeline.series[name] = _random_series(rng, name, n_bins)
    for direction in ("ul", "dl"):
        for series in _DIRECTION_SERIES:
            name = f"{direction}_{series}"
            timeline.series[name] = _random_series(rng, name, n_bins)
    if with_rrc_events:
        timeline.series["rrc_events"] = _random_series(
            rng, "rrc_events", n_bins
        )
    return timeline


def _assert_equivalent(reference, batch, timeline):
    ref_windows = reference.extract_all(timeline)
    batch_windows = batch.extract_all(timeline)
    assert len(ref_windows) == len(batch_windows)
    for ref_window, batch_window in zip(ref_windows, batch_windows):
        assert ref_window.start_us == batch_window.start_us
        assert ref_window.end_us == batch_window.end_us
        assert ref_window.features == batch_window.features
        assert list(ref_window.features) == list(batch_window.features)


@pytest.mark.parametrize(
    "window_us,step_us,dt_us",
    [
        (5_000_000, 500_000, 50_000),  # the paper's defaults
        (2_000_000, 2_000_000, 50_000),  # disjoint windows
        (3_000_000, 250_000, 250_000),  # coarse bins, fine step
        (1_000_000, 700_000, 100_000),  # step not a divisor of window
    ],
)
def test_random_timelines_batch_equals_reference(window_us, step_us, dt_us):
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n_bins = int(rng.integers(40, 200))
        timeline = _random_timeline(
            rng, n_bins, dt_us, with_rrc_events=bool(seed % 2)
        )
        reference = FeatureExtractor(window_us=window_us, step_us=step_us)
        batch = BatchFeatureExtractor(window_us=window_us, step_us=step_us)
        _assert_equivalent(reference, batch, timeline)


def test_every_feature_fires_somewhere_in_the_property_corpus():
    """Guard against a vacuous equivalence test: the random corpus must
    actually exercise (fire) every one of the 36 features."""
    fired = {name: False for name in FEATURE_NAMES}
    batch = BatchFeatureExtractor()
    for seed in range(30):
        rng = np.random.default_rng(seed)
        timeline = _random_timeline(rng, int(rng.integers(100, 200)), 50_000)
        for window in batch.extract_all(timeline):
            for name, value in window.features.items():
                fired[name] = fired[name] or value
    silent = sorted(name for name, value in fired.items() if not value)
    assert not silent, f"corpus never fires: {silent}"


def test_timeline_shorter_than_window_yields_no_windows():
    rng = np.random.default_rng(0)
    timeline = _random_timeline(rng, 10, 50_000)  # 0.5 s < 5 s window
    assert BatchFeatureExtractor().extract_all(timeline) == []
    assert FeatureExtractor().extract_all(timeline) == []


def test_simulated_bundle_batch_equals_reference(cellular_bundle):
    timeline = Timeline.from_bundle(cellular_bundle)
    _assert_equivalent(FeatureExtractor(), BatchFeatureExtractor(), timeline)


def _reference_detections(detector, bundle, extra_detectors=None):
    """The per-window oracle for *detector*'s output: features from
    :class:`FeatureExtractor`, chains from the interpreted
    :func:`evaluate_chains`."""
    config = detector.config
    extractor = FeatureExtractor(
        window_us=config.window_us,
        step_us=config.step_us,
        config=config.events,
        extra_detectors=extra_detectors or {},
    )
    timeline = Timeline.from_bundle(bundle, dt_us=config.dt_us)
    detections = []
    for window in extractor.extract_all(timeline):
        consequences, causes, chain_ids = evaluate_chains(
            window.features, detector.chains
        )
        detections.append(
            WindowDetection(
                start_us=window.start_us,
                end_us=window.end_us,
                features=window.features,
                consequences=sorted(consequences),
                causes=sorted(causes),
                chain_ids=sorted(chain_ids),
            )
        )
    return detections


def test_detector_reports_identical_across_engines(private_bundle):
    detector = DominoDetector()
    batch = detector.analyze(private_bundle)
    reference = _reference_detections(detector, private_bundle)
    assert batch.n_windows == len(reference) > 0
    for a, b in zip(batch.windows, reference):
        assert (a.start_us, a.end_us) == (b.start_us, b.end_us)
        assert a.features == b.features
        assert a.consequences == b.consequences
        assert a.causes == b.causes
        assert a.chain_ids == b.chain_ids


# -- custom detectors on the batch path ----------------------------------------


def _extra_detectors():
    return {
        "ul_mostly_scheduled": lambda window, config: bool(
            float(np.nansum(window["ul_scheduled"])) > 0.0
        ),
        "remote_big_buffer": lambda window, config: bool(
            np.nanmax(window["remote_video_jitter_buffer_ms"], initial=0.0)
            > 100.0
        ),
    }


def test_extra_detectors_compose_with_batch_matrix():
    rng = np.random.default_rng(7)
    timeline = _random_timeline(rng, 150, 50_000)
    reference = FeatureExtractor(extra_detectors=_extra_detectors())
    batch = BatchFeatureExtractor(extra_detectors=_extra_detectors())
    assert reference.feature_names == batch.feature_names
    assert set(batch.feature_names) - set(FEATURE_NAMES) == {
        "ul_mostly_scheduled",
        "remote_big_buffer",
    }
    _assert_equivalent(reference, batch, timeline)
    # The custom columns really carry signal in this corpus.
    windows = batch.extract_all(timeline)
    assert any(w.features["ul_mostly_scheduled"] for w in windows)


def test_extensible_domino_runs_extras_through_batch_engine(private_bundle):
    extras = {
        "ul_low_mcs": lambda window, config: bool(
            np.nanmean(window["ul_mcs_mean"]) < 12.0
        )
    }
    domino = ExtensibleDomino()
    for name, detector_fn in extras.items():
        domino.register_event(name, detector_fn)
    domino.add_chains(
        "ul_low_mcs --> ul_delay_up --> remote_jitter_buffer_drain"
    )
    detector = domino.build()
    assert isinstance(detector, DominoDetector)
    batch = detector.analyze(private_bundle)
    reference = _reference_detections(detector, private_bundle, extras)
    assert batch.n_windows == len(reference) > 0
    for a, b in zip(batch.windows, reference):
        assert a.features == b.features
        assert a.chain_ids == b.chain_ids
    assert any(w.features["ul_low_mcs"] for w in batch.windows)


def test_batch_rejects_shadowing_custom_detector():
    with pytest.raises(ValueError):
        BatchFeatureExtractor(
            extra_detectors={"ul_harq_retx": lambda w, c: True}
        )


def test_feature_matrix_shape_and_column_order(cellular_bundle):
    timeline = Timeline.from_bundle(cellular_bundle)
    batch = BatchFeatureExtractor()
    starts, matrix = batch.feature_matrix(timeline)
    windows = batch.extract_all(timeline)
    assert matrix.shape == (len(windows), len(FEATURE_NAMES))
    assert matrix.dtype == bool
    for row, window in enumerate(windows):
        assert [
            matrix[row, column]
            for column in range(len(FEATURE_NAMES))
        ] == [window.features[name] for name in FEATURE_NAMES]


# -- the stacked strided view against per-series views ------------------------


def _per_series_feature_matrix(extractor, timeline):
    """``feature_matrix`` as one ``sliding_window_view`` per series
    formulates it: the oracle for the stacked view."""
    window_bins, step_bins = extractor.window_bins(timeline)
    names = extractor.feature_names
    if timeline.n_bins < window_bins:
        return np.empty(0, dtype=np.int64), np.empty((0, len(names)), bool)
    starts = np.arange(
        0, timeline.n_bins - window_bins + 1, step_bins, dtype=np.int64
    )
    windows = {
        name: sliding_window_view(values, window_bins)[::step_bins]
        for name, values in timeline.series.items()
    }
    registry = build_batch_registry()
    matrix = np.empty((len(starts), len(names)), dtype=bool)
    for column, name in enumerate(FEATURE_NAMES):
        matrix[:, column] = registry[name](windows, extractor.config)
    for offset, name in enumerate(sorted(extractor.extra_detectors)):
        detector = extractor.extra_detectors[name]
        for row, start in enumerate(starts):
            view = timeline.window(int(start), window_bins)
            matrix[row, len(FEATURE_NAMES) + offset] = bool(
                detector(view, extractor.config)
            )
    return starts, matrix


def _assert_matrix_matches_per_series(extractor, timeline):
    starts, matrix = extractor.feature_matrix(timeline)
    want_starts, want_matrix = _per_series_feature_matrix(extractor, timeline)
    assert starts.dtype == want_starts.dtype
    assert np.array_equal(starts, want_starts)
    assert matrix.dtype == want_matrix.dtype == bool
    assert matrix.shape == want_matrix.shape
    assert np.array_equal(matrix, want_matrix)
    return matrix


@pytest.mark.parametrize("extra_bins", [0, -1])
def test_stacked_view_at_exactly_one_window_and_one_bin_short(extra_bins):
    batch = BatchFeatureExtractor()
    window_bins = 100  # 5 s windows over 50 ms bins
    for seed in range(4):
        rng = np.random.default_rng(seed)
        timeline = _random_timeline(rng, window_bins + extra_bins, 50_000)
        matrix = _assert_matrix_matches_per_series(batch, timeline)
        assert len(matrix) == (1 if extra_bins == 0 else 0)


@pytest.mark.parametrize(
    "window_us,step_us", [(1_000_000, 700_000), (5_000_000, 1_500_000)]
)
def test_stacked_view_with_a_step_that_does_not_divide_the_window(
    window_us, step_us
):
    batch = BatchFeatureExtractor(window_us=window_us, step_us=step_us)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        timeline = _random_timeline(rng, int(rng.integers(60, 160)), 100_000)
        _assert_matrix_matches_per_series(batch, timeline)


def test_stacked_view_over_all_nan_series():
    rng = np.random.default_rng(3)
    timeline = _random_timeline(rng, 150, 50_000)
    for values in timeline.series.values():
        values[:] = np.nan
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _assert_matrix_matches_per_series(BatchFeatureExtractor(), timeline)


def test_stacked_view_with_extra_detectors():
    rng = np.random.default_rng(11)
    timeline = _random_timeline(rng, 150, 50_000)
    batch = BatchFeatureExtractor(extra_detectors=_extra_detectors())
    matrix = _assert_matrix_matches_per_series(batch, timeline)
    assert matrix.shape[1] == len(FEATURE_NAMES) + 2


def test_non_float64_series_keep_their_dtype_and_values():
    """A hand-built timeline may hold series of other dtypes: each is
    stacked with the series of its own dtype and keeps the values and
    dtype a per-series view gives, not a float64 copy."""
    dtypes = {
        "ul_harq_retx": np.int64,
        "dl_harq_retx": np.int64,
        "dl_scheduled": np.bool_,
        "ul_packet_delay_ms": np.float32,
        "ul_rnti": np.uint16,
        "rrc_events": np.int8,
    }
    for seed in range(6):
        rng = np.random.default_rng(seed)
        timeline = _random_timeline(rng, 150, 50_000)
        for name, dtype in dtypes.items():
            values = timeline.series[name]
            if np.issubdtype(dtype, np.integer) or dtype is np.bool_:
                values = np.nan_to_num(values)
            timeline.series[name] = values.astype(dtype)
        _assert_matrix_matches_per_series(BatchFeatureExtractor(), timeline)
        windows = _strided_windows(timeline.series, 100, 10)
        for name, values in timeline.series.items():
            assert windows[name].dtype == values.dtype
            assert np.array_equal(
                windows[name],
                sliding_window_view(values, 100)[::10],
                equal_nan=values.dtype.kind == "f",
            )
