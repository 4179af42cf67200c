"""The canonical wire schema: round-trips, tolerance, and versioning.

Property-style suite: randomized instances of every canonical type must
survive ``to_wire → json → from_wire`` bit-exactly — including NaN/Inf
and ``None``-heavy payloads and payloads carrying unknown extra fields
from a hypothetical newer writer — and the wire forms must stay
byte-identical to the legacy hand-rolled serde they replaced.
"""

import dataclasses
import json
import math
import random

import pytest

from repro import schema
from repro.causal.confounders import (
    CONFOUNDER_AXES,
    ConfounderSpec,
    GroundTruthLabel,
)
from repro.causal.score import CausalReport
from repro.core.detector import DetectorConfig, DominoReport, WindowDetection
from repro.core.events import EventConfig
from repro.errors import (
    ReproError,
    SchemaError,
    SchemaVersionError,
    TelemetryError,
)
from repro.fleet.executor import SessionOutcome
from repro.fleet.scenarios import ImpairmentSpec, ScenarioSpec
from repro.live.aggregator import FleetSnapshot
from repro.live.supervisor import SessionSnapshot

# -- randomized instance builders ------------------------------------------------

_PROFILES = ("tmobile_fdd", "amarisoft", "wired", "wifi")
_SPECIALS = (float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 1e-300)


def _rand_float(rng, nan_heavy=False):
    if nan_heavy and rng.random() < 0.4:
        return rng.choice(_SPECIALS)
    return rng.uniform(-1e6, 1e6)


def _rand_impairment(rng):
    return ImpairmentSpec(
        name=rng.choice(("none", "ul_fade", "dl_burst", "rrc_release")),
        rrc_releases_s=tuple(
            rng.uniform(0, 30) for _ in range(rng.randrange(3))
        ),
        ul_fades=tuple(
            (rng.uniform(0, 30), rng.uniform(0.1, 3), rng.uniform(3, 25))
            for _ in range(rng.randrange(3))
        ),
        dl_bursts=tuple(
            (rng.uniform(0, 30), rng.uniform(0.1, 3), rng.randrange(20, 200))
            for _ in range(rng.randrange(3))
        ),
        pushback_enabled=rng.random() < 0.5,
    )


def _rand_confounder(rng):
    return ConfounderSpec(
        axis=rng.choice(CONFOUNDER_AXES),
        lag_s=rng.uniform(0, 3),
        duration_s=rng.uniform(0.5, 4),
        prbs=rng.randrange(10, 60),
        trigger_fraction=rng.uniform(0.3, 0.9),
        hold_s=rng.uniform(0.2, 2),
        warmup_s=rng.uniform(0, 5),
    )


def _rand_ground_truth(rng):
    return GroundTruthLabel(
        cause=rng.choice(("Poor Channel", "RRC State", "none")),
        impairment=rng.choice(("ul_fade", "rrc_release", "none")),
        axes=tuple(rng.sample(CONFOUNDER_AXES, rng.randrange(3))),
        spurious=("Cross Traffic",) if rng.random() < 0.5 else (),
        accepted=tuple(
            rng.sample(
                ("Poor Channel", "HARQ ReTX", "RLC ReTX", "UL Scheduling"),
                rng.randrange(1, 4),
            )
        ),
        onsets_s=tuple(rng.uniform(0, 30) for _ in range(rng.randrange(3))),
    )


def _rand_causal_report(rng):
    detectors = ("domino", "pcmci", "granger", "correlation")
    return CausalReport(
        campaign=f"adv/{rng.randrange(1 << 16)}",
        n_scenarios=rng.randrange(50),
        n_labeled=rng.randrange(50),
        detectors=detectors,
        scores={
            d: {
                "precision": rng.random(),
                "recall": rng.random(),
                "f1": rng.random(),
                "accuracy": rng.random(),
            }
            for d in detectors
        },
        per_axis={
            rng.choice(CONFOUNDER_AXES): {
                d: {
                    "correct": rng.randrange(5),
                    "spurious": rng.randrange(5),
                    "other": rng.randrange(5),
                    "total": rng.randrange(9),
                }
                for d in detectors
            }
        },
    )


def _rand_spec(rng):
    return ScenarioSpec(
        name=f"t/{rng.randrange(1 << 16)}",
        profile=rng.choice(_PROFILES),
        seed=rng.randrange(1 << 62),
        duration_s=rng.uniform(6, 60),
        impairment=_rand_impairment(rng),
        confounders=tuple(
            _rand_confounder(rng) for _ in range(rng.randrange(3))
        ),
    )


def _rand_detector_config(rng):
    events = EventConfig(
        framerate_high_fps=_rand_float(rng),
        delay_window_bins=rng.randrange(1, 30),
        harq_retx_count=rng.randrange(1, 50),
    )
    return DetectorConfig(
        window_us=rng.randrange(1_000_000, 10_000_000),
        step_us=rng.randrange(100_000, 1_000_000),
        dt_us=rng.randrange(10_000, 100_000),
        events=events,
    )


def _rand_detection(rng, nan_heavy=True):
    return WindowDetection(
        start_us=rng.randrange(1 << 40),
        end_us=rng.randrange(1 << 40),
        features={
            f"f{i}": _rand_float(rng, nan_heavy=nan_heavy)
            for i in range(rng.randrange(1, 12))
        },
        consequences=[f"c{i}" for i in range(rng.randrange(3))],
        causes=[f"k{i}" for i in range(rng.randrange(3))],
        chain_ids=sorted(rng.sample(range(24), rng.randrange(4))),
    )


def _rand_outcome(rng, nan_heavy=True):
    return SessionOutcome(
        scenario=f"s/{rng.randrange(1 << 16)}",
        profile=rng.choice(_PROFILES),
        impairment="none",
        seed=rng.randrange(1 << 62),
        duration_s=rng.uniform(6, 60),
        n_windows=rng.randrange(1000),
        n_detected_windows=rng.randrange(1000),
        degradation_events_per_min=_rand_float(rng, nan_heavy=nan_heavy),
        chain_counts={f"a --> b{i}": rng.randrange(50) for i in range(3)},
        cause_counts={"RRC Idle": rng.randrange(50)},
        consequence_counts={"Jitter Buffer Drain": rng.randrange(50)},
        qoe={
            f"q{i}": _rand_float(rng, nan_heavy=nan_heavy) for i in range(5)
        },
        event_rates={"packets": _rand_float(rng, nan_heavy=nan_heavy)},
        ground_truth=(
            _rand_ground_truth(rng) if rng.random() < 0.5 else None
        ),
        attributions=(
            {"domino": "Poor Channel", "correlation": "Cross Traffic"}
            if rng.random() < 0.5
            else {}
        ),
    )


def _rand_session_snapshot(rng):
    return SessionSnapshot(
        session_id=f"live/{rng.randrange(64)}",
        profile=rng.choice(_PROFILES),
        impairment="none",
        state=rng.choice(("running", "done", "evicted", "failed")),
        watermark_s=_rand_float(rng, nan_heavy=True),
        wall_s=rng.uniform(0, 1e4),
        realtime_factor=_rand_float(rng, nan_heavy=True),
        lag_events=rng.randrange(1000),
        queue_depth=rng.randrange(64),
        buffered_records=rng.randrange(100_000),
        pending_records=rng.randrange(100_000),
        eviction_watermark_s=rng.uniform(0, 60),
        windows=rng.randrange(10_000),
        detected_windows=rng.randrange(10_000),
    )


def _rand_fleet_snapshot(rng):
    return FleetSnapshot(
        seq=rng.randrange(1 << 30),
        wall_s=rng.uniform(0, 1e5),
        n_sessions=rng.randrange(64),
        n_running=rng.randrange(64),
        n_done=rng.randrange(64),
        n_evicted=rng.randrange(4),
        n_failed=rng.randrange(4),
        total_minutes=_rand_float(rng, nan_heavy=True),
        windows=rng.randrange(1 << 20),
        detected_windows=rng.randrange(1 << 20),
        lag_events=rng.randrange(1000),
        degradation_events_per_min=_rand_float(rng, nan_heavy=True),
        top_chains=[(f"a --> b{i}", rng.uniform(0, 9)) for i in range(3)],
        cause_rates={"RRC Idle": rng.uniform(0, 9)},
        consequence_rates={"Jitter Buffer Drain": rng.uniform(0, 9)},
        chain_totals={f"a --> b{i}": rng.randrange(100) for i in range(3)},
        sessions=[_rand_session_snapshot(rng) for _ in range(rng.randrange(4))],
    )


def _rand_report(rng):
    chains = [
        tuple(f"n{j}" for j in range(rng.randrange(2, 5)))
        for _ in range(rng.randrange(1, 6))
    ]
    return DominoReport(
        session_name=f"r/{rng.randrange(1 << 16)}",
        duration_us=rng.randrange(1 << 40),
        step_us=500_000,
        chains=chains,
        windows=[_rand_detection(rng) for _ in range(rng.randrange(5))],
    )


_BUILDERS = {
    "scenario_spec": _rand_spec,
    "detector_config": _rand_detector_config,
    "window_detection": _rand_detection,
    "session_outcome": _rand_outcome,
    "session_snapshot": _rand_session_snapshot,
    "fleet_snapshot": _rand_fleet_snapshot,
    "domino_report": _rand_report,
    "impairment_spec": _rand_impairment,
    "confounder_spec": _rand_confounder,
    "ground_truth": _rand_ground_truth,
    "causal_report": _rand_causal_report,
}


def _wire_round_trip(obj):
    """to_wire → json text → from_wire, as a real artifact would."""
    kind = schema.kind_of(obj)
    text = json.dumps(schema.to_wire(obj))
    return schema.from_wire(kind, json.loads(text))


def _canonical(obj):
    """NaN-proof equality key: the sorted JSON text of the wire form."""
    return json.dumps(schema.to_wire(obj), sort_keys=True)


# -- round trips -----------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_round_trip_every_canonical_kind(kind):
    rng = random.Random(hash(kind) & 0xFFFF)
    for _ in range(25):
        obj = _BUILDERS[kind](rng)
        back = _wire_round_trip(obj)
        assert type(back) is type(obj)
        # NaN != NaN, so compare canonical wire text (bit-exact floats).
        assert _canonical(back) == _canonical(obj)


def test_nan_inf_survive_bit_exactly():
    rng = random.Random(7)
    detection = _rand_detection(rng, nan_heavy=True)
    detection.features["forced_nan"] = float("nan")
    detection.features["forced_inf"] = float("inf")
    back = _wire_round_trip(detection)
    assert math.isnan(back.features["forced_nan"])
    assert back.features["forced_inf"] == float("inf")


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_unknown_extra_fields_tolerated(kind):
    rng = random.Random(hash(kind) & 0xFFF)
    obj = _BUILDERS[kind](rng)
    wire = schema.to_wire(obj)
    wire["from_the_future"] = {"nested": [1, 2, 3]}
    wire["another_unknown"] = "ignored"
    # Codec-backed nested objects tolerate unknown fields too (open
    # data dicts like features/chain_counts carry arbitrary keys by
    # design, so injecting there would legitimately change the data).
    nested = {
        "scenario_spec": [wire.get("impairment")]
        + list(wire.get("confounders", [])),
        "detector_config": [wire.get("events")],
        "fleet_snapshot": wire.get("sessions", []),
        "domino_report": wire.get("windows", []),
        "session_outcome": [wire.get("ground_truth")],
    }.get(kind, [])
    for inner in nested:
        if isinstance(inner, dict):
            inner["nested_unknown"] = 42
    back = schema.from_wire(kind, json.loads(json.dumps(wire)))
    assert _canonical(back) == _canonical(obj)


def test_wire_dicts_do_not_alias_live_objects():
    """asdict()-parity: editing a wire dict must not corrupt the
    object it was encoded from (and vice versa after decode)."""
    rng = random.Random(13)
    outcome = _rand_outcome(rng, nan_heavy=False)
    wire = outcome.to_json()
    wire["chain_counts"]["EVIL --> INJECTED"] = 9
    assert "EVIL --> INJECTED" not in outcome.chain_counts

    detection = _rand_detection(rng, nan_heavy=False)
    wire = schema.to_wire(detection)
    wire["features"]["evil"] = 1.0
    wire["chain_ids"].append(99)
    assert "evil" not in detection.features
    assert 99 not in detection.chain_ids

    source = schema.to_wire(detection)
    decoded = schema.from_wire("window_detection", source)
    source["features"]["late_edit"] = 2.0
    assert "late_edit" not in decoded.features


def test_defaulted_fields_may_be_omitted():
    rng = random.Random(11)
    spec = _rand_spec(rng)
    wire = schema.to_wire(spec)
    del wire["impairment"]  # defaulted: an older writer may omit it
    back = schema.from_wire("scenario_spec", wire)
    assert back.impairment == ImpairmentSpec()


# -- validation ------------------------------------------------------------------


def test_missing_required_field_is_a_clear_schema_error():
    with pytest.raises(SchemaError, match="session_outcome.*scenario"):
        schema.from_wire("session_outcome", {"profile": "wired"})
    with pytest.raises(SchemaError, match="must be an object"):
        schema.from_wire("scenario_spec", [1, 2])
    with pytest.raises(SchemaError, match="unknown wire kind"):
        schema.from_wire("not_a_kind", {})
    with pytest.raises(SchemaError, match="no canonical wire form"):
        schema.to_wire(object())


@pytest.mark.parametrize(
    "field",
    ["chain_counts", "cause_counts", "consequence_counts", "qoe", "event_rates"],
)
def test_outcome_maps_hold_only_numbers(field):
    """Every value of an outcome's maps is an int or a float, never a
    bool, on encode and decode alike."""
    outcome = _rand_outcome(random.Random(3))
    for value in ("slow", True, None, [1.0]):
        bad = dataclasses.replace(outcome, **{field: {"x": value}})
        match = rf"session_outcome\.{field}\['x'\]: expected a number"
        with pytest.raises(SchemaError, match=match):
            schema.to_wire(bad)
        wire = schema.to_wire(outcome)
        wire[field] = {"x": value}
        with pytest.raises(SchemaError, match=match):
            schema.from_wire("session_outcome", wire)
    wire = schema.to_wire(outcome)
    wire[field] = ["not", "an", "object"]
    with pytest.raises(SchemaError, match=f"{field}: expected an object"):
        schema.from_wire("session_outcome", wire)


def test_schema_errors_are_repro_errors():
    assert issubclass(SchemaError, ReproError)
    assert issubclass(SchemaVersionError, SchemaError)
    assert issubclass(SchemaVersionError, TelemetryError)


def test_check_schema_version():
    schema.check_schema_version(schema.SCHEMA_VERSION)
    schema.check_schema_version(None)  # pre-stamp artifacts are v1
    with pytest.raises(SchemaVersionError, match="schema version 99 vs 1"):
        schema.check_schema_version(99, where="unit test")


def test_snapshot_artifact_version_mismatch(tmp_path):
    rng = random.Random(3)
    snapshot = _rand_fleet_snapshot(rng)
    path = str(tmp_path / "snap.json")
    schema.save_snapshot(snapshot, path)
    loaded = schema.load_snapshot(path)
    assert _canonical(loaded) == _canonical(snapshot)

    data = json.load(open(path))
    assert data["schema"] == schema.SCHEMA_VERSION
    data["schema"] = 999
    json.dump(data, open(path, "w"))
    with pytest.raises(SchemaVersionError, match="schema version 999 vs"):
        schema.load_snapshot(path)


def test_snapshot_artifact_without_stamp_still_reads(tmp_path):
    # Pre-2.0 snapshot files carry no "schema" key; they are v1.
    rng = random.Random(5)
    snapshot = _rand_fleet_snapshot(rng)
    wire = schema.to_wire(snapshot)
    wire.pop("schema", None)
    path = str(tmp_path / "old.json")
    json.dump(wire, open(path, "w"))
    loaded = schema.load_snapshot(path)
    assert loaded.seq == snapshot.seq


# -- byte identity with the legacy serde -----------------------------------------


def test_wire_forms_match_legacy_asdict_exactly():
    """The schema replaced asdict()-based encoders; artifacts written
    through it must be byte-identical to every earlier release."""
    rng = random.Random(21)
    for _ in range(10):
        outcome = _rand_outcome(rng)
        assert json.dumps(
            schema.to_wire(outcome), sort_keys=True
        ) == json.dumps(dataclasses.asdict(outcome), sort_keys=True)

        detection = _rand_detection(rng)
        assert json.dumps(
            schema.to_wire(detection), sort_keys=True
        ) == json.dumps(dataclasses.asdict(detection), sort_keys=True)

        spec = _rand_spec(rng)
        assert json.dumps(schema.to_wire(spec), sort_keys=True) == json.dumps(
            dataclasses.asdict(spec), sort_keys=True
        )

        config = _rand_detector_config(rng)
        assert json.dumps(
            schema.to_wire(config), sort_keys=True
        ) == json.dumps(dataclasses.asdict(config), sort_keys=True)


def test_fleet_snapshot_wire_is_legacy_plus_stamp():
    rng = random.Random(23)
    snapshot = _rand_fleet_snapshot(rng)
    wire = schema.to_wire(snapshot)
    legacy = dataclasses.asdict(snapshot)
    assert wire.pop("schema") == schema.SCHEMA_VERSION
    assert json.dumps(wire, sort_keys=True) == json.dumps(
        legacy, sort_keys=True
    )


def test_dataclass_methods_delegate_to_schema():
    rng = random.Random(29)
    outcome = _rand_outcome(rng, nan_heavy=False)
    assert outcome.to_json() == schema.to_wire(outcome)
    assert SessionOutcome.from_json(outcome.to_json()) == outcome
    snap = _rand_session_snapshot(rng)
    wire = json.loads(json.dumps(snap.to_json()))
    assert _canonical(SessionSnapshot.from_json(wire)) == _canonical(snap)


def test_detector_config_none_passthrough():
    assert schema.detector_config_to_wire(None) is None
    assert schema.detector_config_from_wire(None) is None


def test_detector_config_2x_wire_with_engine_switches_decodes():
    """2.x writers put ``use_batch``/``use_codegen`` in the wire form;
    3.0 dropped the switches, and such payloads still decode to the
    same config."""
    wire = schema.detector_config_to_wire(DetectorConfig())
    wire.update({"use_batch": False, "use_codegen": False})
    assert schema.detector_config_from_wire(wire) == DetectorConfig()


def test_domino_report_round_trip_preserves_chain_tuples():
    rng = random.Random(31)
    report = _rand_report(rng)
    back = _wire_round_trip(report)
    assert back.chains == report.chains
    assert all(isinstance(chain, tuple) for chain in back.chains)
    assert len(back.windows) == len(report.windows)


def test_dumps_loads_helpers():
    rng = random.Random(37)
    spec = _rand_spec(rng)
    assert schema.loads("scenario_spec", schema.dumps(spec)) == spec
    with pytest.raises(SchemaError, match="undecodable JSON"):
        schema.loads("scenario_spec", "{nope")


# -- scenario fingerprints across schema growth -----------------------------------

#: Fingerprints of pre-confounder preset scenarios, hard-coded from the
#: release before the `confounders` axis existed.  The cache/journal
#: contract: growing ScenarioSpec must never invalidate cached outcomes
#: of scenarios that don't use the new axis.
_GOLDEN_FINGERPRINTS = {
    "smoke/tmobile_fdd/none/d12/r0": "869910f0aeb843f46228197b4cfe4f61",
    "smoke/tmobile_fdd/ul_fade/d12/r0": "3442dfab0ad26907e351e5982998d51a",
    "smoke/amarisoft/none/d12/r0": "954a8a15023cb353a7e066f4d4631384",
    "smoke/amarisoft/ul_fade/d12/r0": "fe4446b075f78e83853dee460baedf10",
    "smoke/wired/none/d12/r0": "fd6428cc365f6671b0a6fa9fb9482727",
    "impairment_grid/tmobile_fdd/dl_burst/d20/r0": (
        "df2a4f9cf4ceea31cfc0529ba8e46231"
    ),
}


def test_confounder_free_fingerprints_match_pre_axis_release():
    from repro.fleet.executor import scenario_fingerprint
    from repro.fleet.scenarios import get_preset

    specs = {
        spec.name: spec
        for preset in ("smoke", "impairment_grid")
        for spec in get_preset(preset).expand()
    }
    for name, expected in _GOLDEN_FINGERPRINTS.items():
        assert scenario_fingerprint(specs[name]) == expected, name


def test_unknown_future_axis_fields_do_not_perturb_fingerprint():
    """A spec round-tripped through a *newer* writer's wire payload —
    unknown top-level fields, unknown knobs inside a confounder —
    must fingerprint identically to the local original."""
    from repro.fleet.executor import scenario_fingerprint

    rng = random.Random(99)
    plain = dataclasses.replace(_rand_spec(rng), confounders=())
    wire = schema.to_wire(plain)
    wire["future_axis_config"] = {"mode": "quantum", "level": 9}
    back = schema.from_wire("scenario_spec", json.loads(json.dumps(wire)))
    assert scenario_fingerprint(back) == scenario_fingerprint(plain)

    confounded = dataclasses.replace(
        plain, confounders=(ConfounderSpec(axis="reactive_control"),)
    )
    wire = schema.to_wire(confounded)
    wire["confounders"][0]["future_knob"] = 3.5
    back = schema.from_wire("scenario_spec", json.loads(json.dumps(wire)))
    assert back == confounded
    assert scenario_fingerprint(back) == scenario_fingerprint(confounded)
    # The axis changes the fingerprint; the unknown knob never does.
    assert scenario_fingerprint(confounded) != scenario_fingerprint(plain)


def test_labeled_outcome_wire_matches_asdict():
    """Outcomes carrying ground truth keep strict asdict() parity, so
    the fleet JSONL stays hand-inspectable and diffable."""
    rng = random.Random(101)
    outcome = dataclasses.replace(
        _rand_outcome(rng, nan_heavy=False),
        ground_truth=_rand_ground_truth(rng),
        attributions={"domino": "Poor Channel"},
    )
    assert json.dumps(
        schema.to_wire(outcome), sort_keys=True
    ) == json.dumps(dataclasses.asdict(outcome), sort_keys=True)


# -- versioned fleet artifacts ----------------------------------------------------


def test_fleet_header_version_mismatch_is_clear(tmp_path):
    from repro.fleet.executor import iter_outcomes, save_outcomes

    rng = random.Random(41)
    outcomes = [_rand_outcome(rng, nan_heavy=False) for _ in range(3)]
    path = str(tmp_path / "fleet.jsonl")
    save_outcomes(outcomes, path)
    assert list(iter_outcomes(path)) == outcomes

    lines = open(path).read().splitlines()
    header = json.loads(lines[0])
    assert header["version"] == schema.SCHEMA_VERSION
    header["version"] = 7
    lines[0] = json.dumps(header)
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(SchemaVersionError, match="schema version 7 vs"):
        list(iter_outcomes(path))


def test_fleet_header_without_version_is_corruption(tmp_path):
    # Fleet headers carried a version since format v1: a version-less
    # one is a corrupt header, not an old writer, and must not decode
    # as "0 outcomes expected".
    from repro.fleet.executor import iter_outcomes

    path = str(tmp_path / "corrupt.jsonl")
    open(path, "w").write('{"type": "fleet_header"}\n')
    with pytest.raises(TelemetryError, match="no version"):
        list(iter_outcomes(path))
