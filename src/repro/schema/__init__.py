"""Canonical, versioned serde for every object that crosses a boundary.

One :data:`SCHEMA_VERSION`, one explicit field registry per canonical
type (:class:`~repro.fleet.scenarios.ScenarioSpec`,
:class:`~repro.core.detector.DetectorConfig`,
:class:`~repro.core.detector.WindowDetection`,
:class:`~repro.fleet.executor.SessionOutcome`,
:class:`~repro.live.supervisor.SessionSnapshot`,
:class:`~repro.live.aggregator.FleetSnapshot`,
:class:`~repro.core.detector.DominoReport`), unknown-field tolerance
for forward compatibility, and clear
:class:`~repro.errors.SchemaVersionError` diagnostics on mismatched
artifacts.  The fleet outcome JSONL, the cluster frame codecs, and the
live snapshot writer all encode and decode through this package — see
:mod:`repro.schema.wire` for the design rules.
"""

from repro.errors import SchemaError, SchemaVersionError
from repro.schema.wire import (
    SCHEMA_VERSION,
    WIRE_CODECS,
    WIRE_KINDS,
    WireCodec,
    WireField,
    chains_from_wire,
    chains_to_wire,
    check_schema_version,
    detections_from_wire,
    detections_to_wire,
    detector_config_from_wire,
    detector_config_to_wire,
    dumps,
    from_wire,
    kind_of,
    load_snapshot,
    loads,
    save_snapshot,
    scenario_spec_from_wire,
    scenario_spec_to_wire,
    to_wire,
)

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "SchemaVersionError",
    "WIRE_CODECS",
    "WIRE_KINDS",
    "WireCodec",
    "WireField",
    "chains_from_wire",
    "chains_to_wire",
    "check_schema_version",
    "detections_from_wire",
    "detections_to_wire",
    "detector_config_from_wire",
    "detector_config_to_wire",
    "dumps",
    "from_wire",
    "kind_of",
    "load_snapshot",
    "loads",
    "save_snapshot",
    "scenario_spec_from_wire",
    "scenario_spec_to_wire",
    "to_wire",
]
