"""The Domino detector end to end, plus chains/statistics units."""

import pytest

from repro.core import detector as detector_module
from repro.core.chains import (
    CANONICAL_CHAINS,
    DEFAULT_CHAINS_TEXT,
    CauseKind,
    ConsequenceKind,
    PathKind,
    canonical_id,
    canonical_id_for_chain,
    chain_path_kind,
    classify_cause,
    classify_consequence,
)
from repro.core.codegen import compile_chains
from repro.core.detector import (
    DetectorConfig,
    DominoDetector,
    DominoReport,
    WindowDetection,
)
from repro.core.dsl import parse_chains
from repro.core.extension import ExtensibleDomino
from repro.core.features import FEATURE_NAMES, FeatureExtractor
from repro.core.stats import DominoStats, _episode_count
from repro.core.streaming import StreamingDomino
from repro.core.trace import evaluate_chains
from repro.errors import GraphError, UnknownEventError
from repro.telemetry.timeline import Timeline


# -- canonical chains ------------------------------------------------------------


def test_twenty_four_canonical_chains():
    assert len(CANONICAL_CHAINS) == 24
    assert sorted(CANONICAL_CHAINS.values()) == list(range(1, 25))


def test_default_text_covers_all_canonical_ids():
    chains = parse_chains(DEFAULT_CHAINS_TEXT)
    ids = {canonical_id_for_chain(c) for c in chains}
    assert ids == set(range(1, 25))


def test_classify_cause_and_consequence():
    assert classify_cause("ul_harq_retx") is CauseKind.HARQ_RETX
    assert classify_cause("dl_channel_degrades") is CauseKind.POOR_CHANNEL
    assert classify_cause("rrc_change") is CauseKind.RRC_STATE
    assert classify_cause("ul_delay_up") is None
    assert (
        classify_consequence("local_jitter_buffer_drain")
        is ConsequenceKind.JITTER_BUFFER_DRAIN
    )
    assert classify_consequence("ul_harq_retx") is None


def test_path_kind_forward_vs_reverse():
    forward = ("ul_harq_retx", "ul_delay_up", "local_pushback_rate_down")
    reverse = ("dl_harq_retx", "dl_delay_up", "local_pushback_rate_down")
    assert chain_path_kind(forward) is PathKind.FORWARD
    assert chain_path_kind(reverse) is PathKind.REVERSE
    jitter = ("dl_harq_retx", "dl_delay_up", "local_jitter_buffer_drain")
    assert chain_path_kind(jitter) is PathKind.FORWARD


def test_canonical_id_lookup():
    assert (
        canonical_id(
            CauseKind.POOR_CHANNEL,
            ConsequenceKind.JITTER_BUFFER_DRAIN,
            PathKind.FORWARD,
        )
        == 1
    )


# -- feature extractor -----------------------------------------------------------


def test_feature_vector_has_36_dimensions():
    assert len(FEATURE_NAMES) == 36


def test_extractor_window_math(cellular_bundle):
    timeline = Timeline.from_bundle(cellular_bundle, dt_us=50_000)
    extractor = FeatureExtractor(window_us=5_000_000, step_us=500_000)
    window_bins, step_bins = extractor.window_bins(timeline)
    assert window_bins == 100
    assert step_bins == 10
    windows = extractor.extract_all(timeline)
    # 20 s of data, 5 s windows, 0.5 s steps -> 31 positions.
    assert len(windows) == 31
    assert all(len(w.features) == 36 for w in windows)
    assert all(len(w.as_tuple()) == 36 for w in windows)


# -- detector -----------------------------------------------------------------------


def test_detector_runs_on_cellular_bundle(cellular_bundle):
    detector = DominoDetector()
    report = detector.analyze(cellular_bundle)
    assert report.n_windows > 0
    assert report.session_name == cellular_bundle.session_name
    for window in report.windows:
        for chain_id in window.chain_ids:
            chain = report.chains[chain_id]
            # Every detected chain's nodes were all true in that window.
            assert all(window.features[node] for node in chain)
            assert chain[-1] in window.consequences
            assert chain[0] in window.causes


def test_codegen_and_interpreter_agree_on_real_data(cellular_bundle):
    """The detector's generated trace against the interpreted
    :func:`evaluate_chains` oracle, window by window."""
    report = DominoDetector().analyze(cellular_bundle)
    assert report.n_windows > 0
    for window in report.windows:
        consequences, causes, chain_ids = evaluate_chains(
            window.features, report.chains
        )
        assert window.chain_ids == sorted(chain_ids)
        assert window.causes == sorted(causes)
        assert window.consequences == sorted(consequences)


def test_detector_custom_chains(cellular_bundle):
    config = DetectorConfig(
        chains_text="ul_harq_retx --> ul_delay_up --> remote_jitter_buffer_drain"
    )
    detector = DominoDetector(config)
    report = detector.analyze(cellular_bundle)
    assert len(report.chains) == 1


def test_wired_session_mostly_clean(wired_bundle):
    """A wired baseline produces no 5G causes at all."""
    detector = DominoDetector()
    report = detector.analyze(wired_bundle)
    assert all(not w.causes for w in report.windows)
    assert all(not w.chain_ids for w in report.windows)


# -- compiled-trace cache ---------------------------------------------------------


@pytest.fixture
def compile_calls(monkeypatch):
    """Counts the detector's calls of ``compile_chains``, from an empty
    compiled-trace cache."""
    calls = []

    def counted(chains):
        calls.append(chains)
        return compile_chains(chains)

    monkeypatch.setattr(detector_module, "compile_chains", counted)
    detector_module._compiled_chains.cache_clear()
    yield calls
    detector_module._compiled_chains.cache_clear()


_ONE_CHAIN_TEXT = (
    "ul_channel_degrades --> ul_delay_up --> remote_jitter_buffer_drain"
)


def test_streams_of_one_config_compile_the_chains_once(compile_calls):
    streams = [StreamingDomino(DetectorConfig()) for _ in range(64)]
    assert len(compile_calls) == 1
    traces = {id(stream._detector._trace) for stream in streams}
    assert len(traces) == 1
    assert streams[-1].chains == parse_chains(DEFAULT_CHAINS_TEXT)


def test_each_chain_text_and_vocabulary_gets_its_own_trace(compile_calls):
    DominoDetector()
    DominoDetector()
    assert len(compile_calls) == 1
    other = DominoDetector(DetectorConfig(chains_text=_ONE_CHAIN_TEXT))
    assert len(compile_calls) == 2
    # Same text, but a custom event widens the vocabulary: its own entry.
    extended = ExtensibleDomino(include_default_chains=False)
    extended.register_event("ul_cache_probe", lambda window, config: False)
    extended.add_chains(_ONE_CHAIN_TEXT)
    first = extended.build()
    assert len(compile_calls) == 3
    assert extended.build()._trace is first._trace
    assert len(compile_calls) == 3
    assert first._trace is not other._trace


def test_mutating_one_detectors_chains_leaves_a_fresh_one_intact():
    expected = parse_chains(DEFAULT_CHAINS_TEXT)
    detector = DominoDetector()
    detector.chains.clear()
    empty = Timeline(dt_us=50_000, n_bins=1)
    report = DominoDetector().analyze_timeline(empty)
    report.chains.append(("ul_harq_retx", "ul_delay_up"))
    assert DominoDetector().chains == expected
    assert StreamingDomino().chains == expected


@pytest.mark.parametrize(
    "chains_text,error",
    [
        (
            "made_up_event --> ul_delay_up --> local_jitter_buffer_drain",
            UnknownEventError,
        ),
        ("ul_channel_degrades --> ul_delay_up", GraphError),
        (
            "ul_delay_up --> ul_channel_degrades --> ul_delay_up"
            " --> remote_jitter_buffer_drain",
            GraphError,
        ),
    ],
)
def test_invalid_chains_raise_on_every_construction(chains_text, error):
    config = DetectorConfig(chains_text=chains_text)
    for _ in range(3):
        with pytest.raises(error):
            DominoDetector(config)


# -- statistics --------------------------------------------------------------------------


def test_episode_count():
    assert _episode_count([]) == 0
    assert _episode_count([False, False]) == 0
    assert _episode_count([True, True, True]) == 1
    assert _episode_count([True, False, True]) == 2
    assert _episode_count([False, True, True, False, True]) == 2


def test_stats_tables_shape(cellular_bundle):
    report = DominoDetector().analyze(cellular_bundle)
    stats = DominoStats.from_report(report)
    conditional = stats.conditional_probabilities()
    assert set(conditional) == set(ConsequenceKind)
    for row in conditional.values():
        assert set(row) == set(CauseKind)
        assert all(0.0 <= v <= 1.0 for v in row.values())
    ratios = stats.chain_ratios()
    for consequence in ConsequenceKind:
        for cause in CauseKind:
            # A full chain implies cause and consequence co-occur, so the
            # ratio can never exceed the conditional probability.
            assert (
                ratios[consequence][cause]
                <= conditional[consequence][cause] + 1e-9
            )
    unknown = stats.unknown_fractions()
    assert all(0.0 <= v <= 1.0 for v in unknown.values())


def test_chain_episode_counts_merge_duplicate_chain_ids():
    """Two chain ids resolving to the same tuple (duplicate lines in a
    user chain file) must not double-count episodes."""
    chain = ("ul_harq_retx", "ul_delay_up", "remote_jitter_buffer_drain")

    def window(start_us, chain_ids):
        return WindowDetection(
            start_us=start_us,
            end_us=start_us + 5_000_000,
            features={},
            consequences=[],
            causes=[],
            chain_ids=chain_ids,
        )

    report = DominoReport(
        session_name="dup",
        duration_us=60_000_000,
        step_us=500_000,
        chains=[chain, chain],
        windows=[
            window(0, [0, 1]),  # both ids active: one episode, not two
            window(500_000, [1]),  # still the same episode
            window(1_000_000, []),
            window(1_500_000, [0]),  # a second episode
        ],
    )
    counts = DominoStats.from_report(report).chain_episode_counts()
    assert counts == {chain: 2}


def test_stats_merge_matches_from_reports(cellular_bundle, private_bundle):
    """merged()/merge() give the same aggregate as from_reports()."""
    report_a = DominoDetector().analyze(cellular_bundle)
    report_b = DominoDetector().analyze(private_bundle)
    combined = DominoStats.from_reports([report_a, report_b])
    merged = DominoStats.merged(
        [DominoStats.from_report(report_a), DominoStats.from_report(report_b)]
    )
    pairwise = DominoStats.from_report(report_a).merge(
        DominoStats.from_report(report_b)
    )
    for stats in (merged, pairwise):
        assert stats.total_minutes == combined.total_minutes
        assert (
            stats.cause_episode_counts() == combined.cause_episode_counts()
        )
        assert stats.chain_episode_counts() == combined.chain_episode_counts()
    # merge() is non-destructive.
    solo = DominoStats.from_report(report_a)
    solo.merge(DominoStats.from_report(report_b))
    assert len(solo.reports) == 1


def test_stats_frequencies_nonnegative(cellular_bundle, private_bundle):
    reports = [
        DominoDetector().analyze(cellular_bundle),
        DominoDetector().analyze(private_bundle),
    ]
    stats = DominoStats.from_reports(reports)
    assert stats.total_minutes == pytest.approx(40 / 60, rel=0.01)
    for value in stats.cause_frequencies_per_min().values():
        assert value >= 0.0
    for value in stats.consequence_frequencies_per_min().values():
        assert value >= 0.0
    shares = stats.cause_attribution_shares()
    total = sum(shares.values())
    assert total == pytest.approx(1.0, abs=1e-6) or total == 0.0
