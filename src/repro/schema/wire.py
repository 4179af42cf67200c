"""Canonical versioned wire schema for every object that crosses a boundary.

Before this module existed the repo had three hand-rolled JSON serde
paths that had to stay mutually consistent by luck: the fleet outcome
JSONL (``SessionOutcome.to_json``), the cluster frame codecs
(``cluster/protocol.py``), and the live snapshot writer
(``FleetSnapshot``/``SessionSnapshot.to_json``).  They are all rewired
through here: one :data:`SCHEMA_VERSION`, one explicit field registry
per canonical type, one decode policy.

Design rules:

* **Explicit field registry.**  Every canonical type has a
  :class:`WireCodec` listing its fields (name, required-ness, default,
  nested codec).  Encoding walks the registry, so the wire form cannot
  silently drift from the dataclass; decoding validates against it, so
  a malformed payload raises :class:`~repro.errors.SchemaError` naming
  the offending field instead of a ``KeyError``/``TypeError`` from deep
  inside a constructor.
* **Unknown-field tolerance.**  Decoding ignores fields it does not
  know.  A newer writer can add fields without breaking this reader —
  forward compatibility for rolling fleet upgrades.
* **Versioned artifacts.**  Wire *objects* are plain JSON-type dicts;
  *artifacts* (outcome files, snapshot files, SNAPSHOT frames) carry a
  schema stamp checked by :func:`check_schema_version`, which raises a
  clear :class:`~repro.errors.SchemaVersionError` ("schema version X vs
  Y") on mismatch.
* **Byte stability.**  Floats round-trip bit-exactly through Python's
  ``json`` (``repr`` round-trip), and encoders emit fields in dataclass
  order with the exact key names the legacy serde used — so artifacts
  written through this module are byte-identical to the pre-schema
  writers, which the equivalence tests assert.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.causal.confounders import ConfounderSpec, GroundTruthLabel
from repro.causal.score import CausalReport
from repro.cluster.journal import JournalRecord
from repro.core.detector import DetectorConfig, DominoReport, WindowDetection
from repro.core.events import EventConfig
from repro.errors import SchemaError, SchemaVersionError
from repro.fleet.executor import SessionOutcome
from repro.fleet.scenarios import ImpairmentSpec, ScenarioSpec
from repro.jsonlog import atomic_write
from repro.live.aggregator import FleetSnapshot
from repro.live.supervisor import SessionSnapshot
from repro.obs.events import ObsEvent
from repro.obs.trace import TraceSpan
from repro.store.model import AlertEvent, MetricSample, StoreManifest

#: Bump on any incompatible change to a canonical wire form.  Checked
#: wherever a versioned artifact or frame is decoded.
SCHEMA_VERSION = 1

_MISSING = object()


def _copy_value(value: Any) -> Any:
    """Deep-copy containers so wire dicts never alias live objects.

    The ``asdict()``-based encoders this module replaced returned
    independent copies; keeping that contract means a caller may edit a
    wire dict (or the dict it decoded from) without corrupting the
    object behind it.  Scalars pass through.
    """
    if isinstance(value, dict):
        return {key: _copy_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_copy_value(item) for item in value]
    return value


class WireField:
    """One entry of a codec's field registry."""

    __slots__ = ("name", "required", "default_factory", "encode", "decode")

    def __init__(
        self,
        name: str,
        *,
        required: bool = True,
        default_factory: Optional[Callable[[], Any]] = None,
        encode: Optional[Callable[[Any], Any]] = None,
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self.name = name
        self.required = required
        self.default_factory = default_factory
        self.encode = encode
        self.decode = decode


class WireCodec:
    """Encode/decode one canonical type against its field registry.

    ``stamped=True`` marks an *artifact* kind: its wire dicts carry a
    ``"schema"`` version stamp (inside the dict, not an envelope, so
    the artifact stays one plain JSON object) and decoding validates
    the stamp — a missing stamp means a pre-schema (v1) writer.
    """

    def __init__(
        self,
        kind: str,
        cls: Type,
        fields: Sequence[WireField],
        build: Optional[Callable[[Dict[str, Any]], Any]] = None,
        stamped: bool = False,
    ) -> None:
        self.kind = kind
        self.cls = cls
        self.fields: Tuple[WireField, ...] = tuple(fields)
        self.field_names: Tuple[str, ...] = tuple(f.name for f in fields)
        self.stamped = stamped
        self._build = build or (lambda values: cls(**values))

    def to_wire(self, obj: Any) -> dict:
        if not isinstance(obj, self.cls):
            raise SchemaError(
                f"{self.kind}: cannot encode {type(obj).__name__!r}"
            )
        out: Dict[str, Any] = {}
        for field in self.fields:
            value = getattr(obj, field.name)
            out[field.name] = (
                field.encode(value)
                if field.encode is not None
                else _copy_value(value)
            )
        if self.stamped:
            out["schema"] = SCHEMA_VERSION
        return out

    def from_wire(self, data: Any) -> Any:
        if not isinstance(data, dict):
            raise SchemaError(
                f"{self.kind}: wire payload must be an object, got "
                f"{type(data).__name__}"
            )
        if self.stamped:
            check_schema_version(data.get("schema"), where=self.kind)
        values: Dict[str, Any] = {}
        for field in self.fields:
            raw = data.get(field.name, _MISSING)
            if raw is _MISSING:
                if field.required:
                    raise SchemaError(
                        f"{self.kind}: missing required field "
                        f"{field.name!r}"
                    )
                if field.default_factory is not None:
                    values[field.name] = field.default_factory()
                continue
            try:
                values[field.name] = (
                    field.decode(raw)
                    if field.decode is not None
                    else _copy_value(raw)
                )
            except SchemaError:
                raise
            except (TypeError, ValueError, KeyError, AttributeError) as exc:
                raise SchemaError(
                    f"{self.kind}.{field.name}: malformed value: {exc}"
                )
        # Anything in *data* beyond the registry is ignored: a newer
        # writer's extra fields must not break this reader.
        try:
            return self._build(values)
        except SchemaError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise SchemaError(f"{self.kind}: malformed wire object: {exc}")


def _dataclass_fields(
    cls: Type, overrides: Optional[Dict[str, WireField]] = None
) -> List[WireField]:
    """Field registry mirroring a dataclass's constructor contract.

    Fields without defaults are required on the wire, exactly as they
    are in the constructor; defaulted fields decode to their default
    when absent (a forward-compatible writer may omit them).
    """
    overrides = overrides or {}
    specs: List[WireField] = []
    for field in dataclasses.fields(cls):
        if field.name in overrides:
            specs.append(overrides[field.name])
            continue
        if field.default is not dataclasses.MISSING:
            default = field.default
            specs.append(
                WireField(
                    field.name,
                    required=False,
                    default_factory=lambda d=default: d,
                )
            )
        elif field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            specs.append(
                WireField(
                    field.name,
                    required=False,
                    default_factory=field.default_factory,  # type: ignore[misc]
                )
            )
        else:
            specs.append(WireField(field.name))
    return specs


# -- leaf decoders --------------------------------------------------------------


def _tuple_of_tuples(raw: Any) -> Tuple[Tuple[Any, ...], ...]:
    return tuple(tuple(item) for item in raw)


def _str_list(raw: Any) -> List[str]:
    return [str(item) for item in raw]


def _int_list(raw: Any) -> List[int]:
    return [int(item) for item in raw]


def _chain_tuples(raw: Any) -> List[Tuple[str, ...]]:
    return [tuple(str(node) for node in chain) for chain in raw]


def _features_dict(raw: Any) -> dict:
    if not isinstance(raw, dict):
        raise SchemaError(
            f"window_detection.features: expected an object, got "
            f"{type(raw).__name__}"
        )
    return dict(raw)  # detached: the detection must not alias the frame


def _number_map(kind: str, name: str) -> WireField:
    """An optional ``{name: number}`` field whose every value must be an
    int or a float, never a bool, on encode and decode alike: the store
    indexes these values as numbers."""

    def checked(raw: Any) -> dict:
        if not isinstance(raw, dict):
            raise SchemaError(
                f"{kind}.{name}: expected an object, got {type(raw).__name__}"
            )
        for key, value in raw.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(
                    f"{kind}.{name}[{key!r}]: expected a number, got "
                    f"{type(value).__name__}"
                )
        return dict(raw)

    return WireField(
        name,
        required=False,
        default_factory=dict,
        encode=checked,
        decode=checked,
    )


# -- codec registry -------------------------------------------------------------

_EVENT_CONFIG = WireCodec(
    "event_config", EventConfig, _dataclass_fields(EventConfig)
)

_IMPAIRMENT_SPEC = WireCodec(
    "impairment_spec",
    ImpairmentSpec,
    _dataclass_fields(
        ImpairmentSpec,
        overrides={
            "rrc_releases_s": WireField(
                "rrc_releases_s",
                required=False,
                default_factory=tuple,
                encode=list,
                decode=tuple,
            ),
            "ul_fades": WireField(
                "ul_fades",
                required=False,
                default_factory=tuple,
                encode=lambda fades: [list(f) for f in fades],
                decode=_tuple_of_tuples,
            ),
            "dl_bursts": WireField(
                "dl_bursts",
                required=False,
                default_factory=tuple,
                encode=lambda bursts: [list(b) for b in bursts],
                decode=_tuple_of_tuples,
            ),
        },
    ),
)

_CONFOUNDER_SPEC = WireCodec(
    "confounder_spec", ConfounderSpec, _dataclass_fields(ConfounderSpec)
)

_GROUND_TRUTH = WireCodec(
    "ground_truth",
    GroundTruthLabel,
    _dataclass_fields(
        GroundTruthLabel,
        overrides={
            "axes": WireField(
                "axes",
                required=False,
                default_factory=tuple,
                encode=list,
                decode=lambda raw: tuple(str(a) for a in raw),
            ),
            "spurious": WireField(
                "spurious",
                required=False,
                default_factory=tuple,
                encode=list,
                decode=lambda raw: tuple(str(s) for s in raw),
            ),
            "accepted": WireField(
                "accepted",
                required=False,
                default_factory=tuple,
                encode=list,
                decode=lambda raw: tuple(str(s) for s in raw),
            ),
            "onsets_s": WireField(
                "onsets_s",
                required=False,
                default_factory=tuple,
                encode=list,
                decode=lambda raw: tuple(float(t) for t in raw),
            ),
        },
    ),
)

_SCENARIO_SPEC = WireCodec(
    "scenario_spec",
    ScenarioSpec,
    _dataclass_fields(
        ScenarioSpec,
        overrides={
            "impairment": WireField(
                "impairment",
                required=False,
                default_factory=ImpairmentSpec,
                encode=lambda imp: _IMPAIRMENT_SPEC.to_wire(imp),
                decode=lambda raw: _IMPAIRMENT_SPEC.from_wire(raw),
            ),
            "confounders": WireField(
                "confounders",
                required=False,
                default_factory=tuple,
                encode=lambda confs: [
                    _CONFOUNDER_SPEC.to_wire(c) for c in confs
                ],
                decode=lambda raw: tuple(
                    _CONFOUNDER_SPEC.from_wire(c) for c in raw
                ),
            ),
        },
    ),
)

_DETECTOR_CONFIG = WireCodec(
    "detector_config",
    DetectorConfig,
    _dataclass_fields(
        DetectorConfig,
        overrides={
            "events": WireField(
                "events",
                required=False,
                default_factory=EventConfig,
                encode=lambda events: _EVENT_CONFIG.to_wire(events),
                decode=lambda raw: _EVENT_CONFIG.from_wire(raw),
            ),
        },
    ),
)

_WINDOW_DETECTION = WireCodec(
    "window_detection",
    WindowDetection,
    _dataclass_fields(
        WindowDetection,
        overrides={
            "features": WireField("features", decode=_features_dict),
            "consequences": WireField("consequences", decode=_str_list),
            "causes": WireField("causes", decode=_str_list),
            "chain_ids": WireField("chain_ids", decode=_int_list),
        },
    ),
)

_SESSION_OUTCOME = WireCodec(
    "session_outcome",
    SessionOutcome,
    _dataclass_fields(
        SessionOutcome,
        overrides={
            # Absent on every pre-causal payload: decodes to None.
            "ground_truth": WireField(
                "ground_truth",
                required=False,
                default_factory=lambda: None,
                encode=lambda label: (
                    None if label is None else _GROUND_TRUTH.to_wire(label)
                ),
                decode=lambda raw: (
                    None if raw is None else _GROUND_TRUTH.from_wire(raw)
                ),
            ),
            **{
                name: _number_map("session_outcome", name)
                for name in (
                    "chain_counts",
                    "cause_counts",
                    "consequence_counts",
                    "qoe",
                    "event_rates",
                )
            },
        },
    ),
)

_CAUSAL_REPORT = WireCodec(
    "causal_report",
    CausalReport,
    _dataclass_fields(
        CausalReport,
        overrides={
            "detectors": WireField(
                "detectors",
                required=False,
                default_factory=tuple,
                encode=list,
                decode=lambda raw: tuple(str(d) for d in raw),
            ),
        },
    ),
    stamped=True,  # leaderboard files are artifacts
)

_SESSION_SNAPSHOT = WireCodec(
    "session_snapshot", SessionSnapshot, _dataclass_fields(SessionSnapshot)
)

_FLEET_SNAPSHOT = WireCodec(
    "fleet_snapshot",
    FleetSnapshot,
    _dataclass_fields(
        FleetSnapshot,
        overrides={
            "top_chains": WireField(
                "top_chains",
                required=False,
                default_factory=list,
                encode=lambda pairs: [list(pair) for pair in pairs],
                decode=lambda raw: [tuple(pair) for pair in raw],
            ),
            "sessions": WireField(
                "sessions",
                required=False,
                default_factory=list,
                encode=lambda sessions: [
                    _SESSION_SNAPSHOT.to_wire(s) for s in sessions
                ],
                decode=lambda raw: [
                    _SESSION_SNAPSHOT.from_wire(s) for s in raw
                ],
            ),
        },
    ),
    stamped=True,  # snapshot files / SNAPSHOT frames are artifacts
)

_OBS_EVENT = WireCodec(
    "obs_event",
    ObsEvent,
    _dataclass_fields(ObsEvent),
    stamped=True,  # trace files are artifacts: each line carries the stamp
)

_JOURNAL_RECORD = WireCodec(
    "journal_record",
    JournalRecord,
    _dataclass_fields(JournalRecord),
    stamped=True,  # journal lines are durable artifacts: each carries the stamp
)

_TRACE_SPAN = WireCodec(
    "trace_span",
    TraceSpan,
    _dataclass_fields(TraceSpan),
    stamped=True,  # store segment lines are durable artifacts
)


def _labels_dict(raw: Any) -> Dict[str, str]:
    if not isinstance(raw, dict):
        raise SchemaError(
            f"labels: expected an object, got {type(raw).__name__}"
        )
    return {str(key): str(value) for key, value in raw.items()}


_STORE_MANIFEST = WireCodec(
    "store_manifest",
    StoreManifest,
    _dataclass_fields(StoreManifest),
    stamped=True,  # one per store directory: the artifact of record
)

_METRIC_SAMPLE = WireCodec(
    "metric_sample",
    MetricSample,
    _dataclass_fields(
        MetricSample,
        overrides={
            "labels": WireField(
                "labels",
                required=False,
                default_factory=dict,
                decode=_labels_dict,
            ),
        },
    ),
    stamped=True,  # store segment lines are durable artifacts
)

_ALERT_EVENT = WireCodec(
    "alert_event",
    AlertEvent,
    _dataclass_fields(
        AlertEvent,
        overrides={
            "labels": WireField(
                "labels",
                required=False,
                default_factory=dict,
                decode=_labels_dict,
            ),
        },
    ),
    stamped=True,  # alert logs are durable artifacts
)

_DOMINO_REPORT = WireCodec(
    "domino_report",
    DominoReport,
    _dataclass_fields(
        DominoReport,
        overrides={
            "chains": WireField(
                "chains",
                encode=lambda chains: [list(chain) for chain in chains],
                decode=_chain_tuples,
            ),
            "windows": WireField(
                "windows",
                encode=lambda windows: [
                    _WINDOW_DETECTION.to_wire(w) for w in windows
                ],
                decode=lambda raw: [
                    _WINDOW_DETECTION.from_wire(w) for w in raw
                ],
            ),
        },
    ),
)

#: kind name → codec: the canonical type registry.
WIRE_CODECS: Dict[str, WireCodec] = {
    codec.kind: codec
    for codec in (
        _EVENT_CONFIG,
        _IMPAIRMENT_SPEC,
        _CONFOUNDER_SPEC,
        _GROUND_TRUTH,
        _CAUSAL_REPORT,
        _SCENARIO_SPEC,
        _DETECTOR_CONFIG,
        _WINDOW_DETECTION,
        _SESSION_OUTCOME,
        _SESSION_SNAPSHOT,
        _FLEET_SNAPSHOT,
        _OBS_EVENT,
        _JOURNAL_RECORD,
        _TRACE_SPAN,
        _STORE_MANIFEST,
        _METRIC_SAMPLE,
        _ALERT_EVENT,
        _DOMINO_REPORT,
    )
}

WIRE_KINDS: Tuple[str, ...] = tuple(sorted(WIRE_CODECS))

_CODEC_BY_TYPE: Dict[Type, WireCodec] = {
    codec.cls: codec for codec in WIRE_CODECS.values()
}


# -- generic dispatch -----------------------------------------------------------


def kind_of(obj: Any) -> str:
    """The registry kind name of a canonical object."""
    codec = _CODEC_BY_TYPE.get(type(obj))
    if codec is None:
        raise SchemaError(
            f"no canonical wire form for {type(obj).__name__!r}; "
            f"known kinds: {', '.join(WIRE_KINDS)}"
        )
    return codec.kind


def to_wire(obj: Any) -> dict:
    """Canonical wire dict of any registered type (dispatch on type)."""
    return WIRE_CODECS[kind_of(obj)].to_wire(obj)


def from_wire(kind: str, data: Any) -> Any:
    """Decode a wire dict of the named *kind* back to its object."""
    codec = WIRE_CODECS.get(kind)
    if codec is None:
        raise SchemaError(
            f"unknown wire kind {kind!r}; known kinds: "
            f"{', '.join(WIRE_KINDS)}"
        )
    return codec.from_wire(data)


def check_schema_version(found: Any, *, where: str = "artifact") -> None:
    """Raise :class:`SchemaVersionError` unless *found* is compatible.

    ``None`` passes: artifacts written before the schema stamp existed
    are version-1 by construction, and ``SCHEMA_VERSION`` starts at 1.
    """
    if found is None:
        return
    if found != SCHEMA_VERSION:
        raise SchemaVersionError(found, SCHEMA_VERSION, where)


# -- per-type helpers (the names the subsystems wire through) -------------------


def scenario_spec_to_wire(spec: ScenarioSpec) -> dict:
    return _SCENARIO_SPEC.to_wire(spec)


def scenario_spec_from_wire(data: Any) -> ScenarioSpec:
    return _SCENARIO_SPEC.from_wire(data)


def detector_config_to_wire(
    config: Optional[DetectorConfig],
) -> Optional[dict]:
    """``None`` passes through: "use the defaults" is wire-expressible."""
    return None if config is None else _DETECTOR_CONFIG.to_wire(config)


def detector_config_from_wire(data: Any) -> Optional[DetectorConfig]:
    return None if data is None else _DETECTOR_CONFIG.from_wire(data)


def detections_to_wire(
    detections: Sequence[WindowDetection],
) -> List[dict]:
    return [_WINDOW_DETECTION.to_wire(w) for w in detections]


def detections_from_wire(data: Sequence[Any]) -> List[WindowDetection]:
    try:
        items = list(data)
    except TypeError as exc:
        raise SchemaError(f"malformed detection batch: {exc}")
    return [_WINDOW_DETECTION.from_wire(w) for w in items]


def chains_to_wire(chains: Sequence[Tuple[str, ...]]) -> List[List[str]]:
    return [list(chain) for chain in chains]


def chains_from_wire(data: Sequence[Sequence[str]]) -> List[Tuple[str, ...]]:
    try:
        return _chain_tuples(data)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed chain list: {exc}")


# -- versioned artifacts --------------------------------------------------------


def dumps(obj: Any, **json_kwargs: Any) -> str:
    """``json.dumps(to_wire(obj))`` with stable key order."""
    json_kwargs.setdefault("sort_keys", True)
    return json.dumps(to_wire(obj), **json_kwargs)


def loads(kind: str, text: str) -> Any:
    """Inverse of :func:`dumps` for the named kind."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{kind}: undecodable JSON: {exc}")
    return from_wire(kind, data)


def save_snapshot(snapshot: FleetSnapshot, path: str) -> None:
    """Atomically write a fleet snapshot artifact (for ``repro watch``):
    watchers never observe a torn write."""
    atomic_write(path, json.dumps(_FLEET_SNAPSHOT.to_wire(snapshot)))


def load_snapshot(path: str) -> FleetSnapshot:
    """Read a fleet snapshot artifact, schema version checked."""
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: undecodable snapshot: {exc}")
    return _FLEET_SNAPSHOT.from_wire(data)


__all__ = [
    "SCHEMA_VERSION",
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
