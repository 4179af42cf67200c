"""Campaign execution: serial path, process pool, caching, trace export, IO."""

import glob
import os
import time

import pytest

from repro.core.detector import DetectorConfig
from repro.errors import TelemetryError
from repro.fleet.executor import (
    SessionOutcome,
    detector_config_hash,
    iter_outcomes,
    load_outcomes,
    run_campaign,
    run_scenario,
    save_outcomes,
    scenario_fingerprint,
)
from repro.fleet.scenarios import ImpairmentSpec, ScenarioMatrix, ScenarioSpec
from repro.obs.metrics import get_registry
from repro.telemetry.io import load_bundle

#: Small but non-trivial: two cells, one impairment, 8 s sessions (the
#: 5 s detection window needs headroom to emit several positions).
_MATRIX = ScenarioMatrix(
    name="test",
    profiles=("tmobile_fdd", "amarisoft"),
    durations_s=(8.0,),
    impairments=(
        ImpairmentSpec(),
        ImpairmentSpec(name="ul_fade", ul_fades=((2.0, 1.5, 20.0),)),
    ),
)


@pytest.fixture(scope="module")
def serial_outcomes():
    return run_campaign(_MATRIX.expand(), workers=1)


def test_run_scenario_produces_compact_outcome():
    spec = _MATRIX.expand()[0]
    outcome = run_scenario(spec)
    assert outcome.scenario == spec.name
    assert outcome.profile == "tmobile_fdd"
    assert outcome.seed == spec.seed
    assert outcome.duration_s == 8.0
    assert outcome.n_windows > 0
    assert outcome.n_detected_windows <= outcome.n_windows
    assert outcome.event_rates["packets"] > 0
    assert "ul_delay_p50_ms" in outcome.qoe


def test_serial_campaign_preserves_scenario_order(serial_outcomes):
    expected = [s.name for s in _MATRIX.expand()]
    assert [o.scenario for o in serial_outcomes] == expected


def test_parallel_campaign_matches_serial(serial_outcomes):
    parallel = run_campaign(_MATRIX.expand(), workers=2)
    assert parallel == serial_outcomes


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        run_campaign(_MATRIX.expand(), workers=0)


def test_trace_export_writes_one_shard_per_scenario(tmp_path):
    scenarios = _MATRIX.expand()[:1]
    trace_dir = str(tmp_path / "traces")
    run_campaign(scenarios, workers=1, trace_dir=trace_dir)
    shards = sorted(os.listdir(trace_dir))
    assert len(shards) == 1
    bundle = load_bundle(os.path.join(trace_dir, shards[0]))
    assert bundle.duration_us == scenarios[0].duration_us
    assert len(bundle.packets) > 0


def test_outcomes_round_trip(tmp_path, serial_outcomes):
    path = str(tmp_path / "outcomes.jsonl")
    save_outcomes(serial_outcomes, path)
    loaded = load_outcomes(path)
    assert loaded == list(serial_outcomes)
    assert all(isinstance(o, SessionOutcome) for o in loaded)


def test_truncated_outcomes_rejected(tmp_path, serial_outcomes):
    path = str(tmp_path / "outcomes.jsonl")
    save_outcomes(serial_outcomes, path)
    lines = open(path).readlines()
    with open(path, "w") as handle:
        handle.writelines(lines[:-1])  # drop the last outcome
    with pytest.raises(TelemetryError, match="truncated"):
        load_outcomes(path)


def test_iter_outcomes_streams_one_at_a_time(tmp_path, serial_outcomes):
    path = str(tmp_path / "outcomes.jsonl")
    save_outcomes(serial_outcomes, path)
    iterator = iter_outcomes(path)
    first = next(iterator)
    assert first == serial_outcomes[0]
    assert [first] + list(iterator) == list(serial_outcomes)


def test_iter_outcomes_validates_count_at_exhaustion(
    tmp_path, serial_outcomes
):
    """Truncation is only detectable at the end of a stream; the
    generator yields what exists, then raises."""
    path = str(tmp_path / "outcomes.jsonl")
    save_outcomes(serial_outcomes, path)
    lines = open(path).readlines()
    with open(path, "w") as handle:
        handle.writelines(lines[:-1])
    iterator = iter_outcomes(path)
    yielded = [next(iterator) for _ in range(len(serial_outcomes) - 1)]
    assert yielded == list(serial_outcomes[:-1])
    with pytest.raises(TelemetryError, match="truncated"):
        next(iterator)


def test_tolerant_skips_partial_trailing_line(tmp_path, serial_outcomes):
    """Crash recovery: a killed worker leaves a half-written trailing
    line; tolerant streaming skips it, counts it, and still yields
    every intact outcome (strict mode keeps rejecting the file)."""
    path = str(tmp_path / "outcomes.jsonl")
    save_outcomes(serial_outcomes, path)
    content = open(path).read()
    with open(path, "w") as handle:
        handle.write(content[: len(content) - len(content) // 6])
    with pytest.raises(TelemetryError):
        load_outcomes(path)
    stats = {}
    survived = list(iter_outcomes(path, tolerant=True, stats=stats))
    assert survived == list(serial_outcomes[: len(survived)])
    assert len(survived) < len(serial_outcomes)
    assert stats["skipped_lines"] == 1
    assert stats["missing_outcomes"] == len(serial_outcomes) - len(survived)


def test_tolerant_counts_missing_outcomes(tmp_path, serial_outcomes):
    """A cleanly cut file (whole trailing lines lost) has nothing to
    skip but still reports the header/count shortfall."""
    path = str(tmp_path / "outcomes.jsonl")
    save_outcomes(serial_outcomes, path)
    lines = open(path).readlines()
    with open(path, "w") as handle:
        handle.writelines(lines[:-1])
    stats = {}
    survived = list(iter_outcomes(path, tolerant=True, stats=stats))
    assert survived == list(serial_outcomes[:-1])
    assert stats["skipped_lines"] == 0
    assert stats["missing_outcomes"] == 1


def test_tolerant_still_rejects_wrong_files(tmp_path):
    """Tolerance covers truncation, not wrong-file errors: a headerless
    file is rejected either way."""
    path = str(tmp_path / "not_outcomes.jsonl")
    with open(path, "w") as handle:
        handle.write('{"scenario": "x"}\n')
    with pytest.raises(TelemetryError, match="header"):
        list(iter_outcomes(path, tolerant=True))


def test_concatenated_shards_load_as_one_campaign(
    tmp_path, serial_outcomes
):
    half = len(serial_outcomes) // 2
    shard_a = str(tmp_path / "a.jsonl")
    shard_b = str(tmp_path / "b.jsonl")
    save_outcomes(serial_outcomes[:half], shard_a)
    save_outcomes(serial_outcomes[half:], shard_b)
    joined = str(tmp_path / "all.jsonl")
    with open(joined, "w") as handle:
        handle.write(open(shard_a).read() + open(shard_b).read())
    assert load_outcomes(joined) == list(serial_outcomes)


def test_non_outcome_jsonl_rejected(tmp_path):
    path = str(tmp_path / "other.jsonl")
    with open(path, "w") as handle:
        handle.write('[1, 2, 3]\n')
    with pytest.raises(TelemetryError, match="not a fleet outcomes file"):
        load_outcomes(path)
    with open(path, "w") as handle:
        handle.write('{"type": "header", "session_name": "wired"}\n')
    with pytest.raises(TelemetryError, match="not a fleet outcomes file"):
        load_outcomes(path)


def test_headerless_outcomes_rejected(tmp_path, serial_outcomes):
    path = str(tmp_path / "outcomes.jsonl")
    save_outcomes(serial_outcomes, path)
    lines = open(path).readlines()
    with open(path, "w") as handle:
        handle.writelines(lines[1:])  # drop the header
    with pytest.raises(TelemetryError, match="missing fleet header"):
        load_outcomes(path)


def test_future_format_version_rejected(tmp_path, serial_outcomes):
    path = str(tmp_path / "outcomes.jsonl")
    save_outcomes(serial_outcomes, path)
    lines = open(path).readlines()
    with open(path, "w") as handle:
        handle.write(lines[0].replace('"version": 1', '"version": 99'))
        handle.writelines(lines[1:])
    with pytest.raises(TelemetryError, match="version"):
        load_outcomes(path)


# -- outcome caching -----------------------------------------------------------


def test_cached_rerun_skips_simulation_and_matches(tmp_path, monkeypatch):
    spec = _MATRIX.expand()[0]
    cache_dir = str(tmp_path / "cache")
    cold = run_scenario(spec, cache_dir=cache_dir)
    entries = glob.glob(os.path.join(cache_dir, "**", "*.json"), recursive=True)
    assert len(entries) == 1

    def no_simulation(self):
        raise AssertionError(f"{self.name} simulated on a warm cache")

    monkeypatch.setattr(ScenarioSpec, "build_session", no_simulation)
    hits = get_registry().counter("repro_fleet_cache_hits_total")
    hits_before = hits.total()
    warm = run_scenario(spec, cache_dir=cache_dir)
    assert warm == cold
    assert hits.total() - hits_before == 1


def test_corrupt_cache_entry_is_resimulated(tmp_path):
    spec = _MATRIX.expand()[0]
    cache_dir = str(tmp_path / "cache")
    cold = run_scenario(spec, cache_dir=cache_dir)
    [entry] = glob.glob(
        os.path.join(cache_dir, "**", "*.json"), recursive=True
    )
    with open(entry, "w") as handle:
        handle.write("{half a json object")
    assert run_scenario(spec, cache_dir=cache_dir) == cold


def test_cache_key_separates_scenarios_and_detector_configs():
    specs = _MATRIX.expand()
    assert scenario_fingerprint(specs[0]) != scenario_fingerprint(specs[1])
    default = detector_config_hash(None)
    assert default == detector_config_hash(DetectorConfig())
    assert default != detector_config_hash(DetectorConfig(window_us=2_000_000))
    # Equivalence-guaranteed execution toggles must share cache entries.
    assert default == detector_config_hash(DetectorConfig(use_batch=False))
    assert default == detector_config_hash(DetectorConfig(use_codegen=False))


def test_campaign_uses_cache_across_workers(tmp_path):
    scenarios = _MATRIX.expand()[:2]
    cache_dir = str(tmp_path / "cache")
    first = run_campaign(scenarios, workers=1, cache_dir=cache_dir)
    entries = glob.glob(os.path.join(cache_dir, "**", "*.json"), recursive=True)
    assert len(entries) == len(scenarios)
    start = time.perf_counter()
    again = run_campaign(scenarios, workers=2, cache_dir=cache_dir)
    elapsed = time.perf_counter() - start
    assert again == first
    assert elapsed < 5.0  # pool spin-up only, no simulation


def test_trace_export_bypasses_cache(tmp_path):
    spec = _MATRIX.expand()[0]
    cache_dir = str(tmp_path / "cache")
    run_scenario(spec, cache_dir=cache_dir)
    trace_dir = str(tmp_path / "traces")
    run_scenario(spec, cache_dir=cache_dir, trace_dir=trace_dir)
    assert len(os.listdir(trace_dir)) == 1  # the bundle was produced


# -- fail-fast cancellation ----------------------------------------------------


def _failing_spec(name: str = "test/failing") -> ScenarioSpec:
    # A baseline profile cannot apply RAN impairments: build_session
    # raises ValueError, giving a deterministic in-worker failure.
    return ScenarioSpec(
        name=name,
        profile="wired",
        seed=0,
        duration_s=8.0,
        impairment=ImpairmentSpec(name="ul_fade", ul_fades=((1.0, 1.0, 10.0),)),
    )


def test_fail_fast_cancels_queued_scenarios():
    scenarios = [_failing_spec()] + _MATRIX.expand()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="RAN knobs"):
        run_campaign(scenarios, workers=2, fail_fast=True)
    elapsed = time.perf_counter() - start
    # Without cancellation all four ~8 s sessions simulate to the end;
    # with it the campaign dies in roughly one worker spin-up.
    assert elapsed < 10.0


def test_serial_campaign_raises_without_fail_fast_flag():
    scenarios = [_failing_spec()] + _MATRIX.expand()[:1]
    with pytest.raises(ValueError, match="RAN knobs"):
        run_campaign(scenarios, workers=1)
