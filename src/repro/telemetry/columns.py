"""Typed columns for the four telemetry sources.

Telemetry travels from its producers to
:class:`~repro.telemetry.timeline.Timeline` as :class:`RecordColumns`,
one typed array per record field.  One :class:`Schema` per source
lists its fields, each mapping a JSONL key to a record attribute and a
column dtype.  The table drives:

* decoding JSONL rows straight into typed column arrays
  (:meth:`Schema.decode`), which is how
  :func:`~repro.telemetry.io.load_bundle` reads a trace;
* the one rows→columns function (:meth:`Schema.from_rows`): a row is
  a record's field values in schema order (:meth:`Schema.row`), which
  is what the :class:`~repro.telemetry.collect.TelemetryCollector`
  takes from every producer, and a record list enters as its rows;
* building record objects from columns, lazily and once, in
  :class:`RecordColumns`;
* the JSON values of every row (:meth:`Schema.json_rows`), which is how
  :func:`~repro.telemetry.io.dump_lines` writes a trace.

Column dtypes: ``int64``, ``bool`` and ``float64`` as declared; a
string field is an object array of ``str``; an enum field holds
``int8`` codes, the member's position in its enum (:func:`code`).  An
optional integer holds :data:`NONE` where the record has ``None``, and
a presence mask beside it (:attr:`Field.present_key`), so records
rebuild exactly.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.telemetry.records import (
    DciRecord,
    GnbLogKind,
    GnbLogRecord,
    PacketRecord,
    StreamKind,
    WebRtcStatsRecord,
)

#: Column value of an optional integer that is ``None`` (a lost
#: packet's receive time, a packet outside any video frame).
NONE = -1

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: Rows :meth:`Schema.json_rows` converts at a time.
_JSON_ROWS = 4096


class Irregular(Exception):
    """A chunk of rows that the array decoder does not take as is.

    Not an error by itself: the reader then parses those lines one at a
    time, which either accepts them or names the offending line.
    """


def code(member: enum.Enum) -> int:
    """The column code of an enum member: its position in its enum."""
    return list(type(member)).index(member)


# -- per-value checks (the one-line parser) ---------------------------------


def _number(value):
    if isinstance(value, int):  # bools included
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {value!r}")
        return value
    raise TypeError(f"expected a number, got {type(value).__name__}")


def as_int(value) -> int:
    """*value* as an int64: floats truncate toward zero, as numpy casts."""
    value = int(_number(value))
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ValueError(f"{value} is outside the int64 range")
    return value


def as_bool(value) -> bool:
    return bool(_number(value))


def as_float(value) -> float:
    return float(_number(value))


def as_str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class Field:
    """One record field.

    Attributes:
        key: the JSONL key.
        attr: the record attribute.
        dtype: ``np.int64``, ``np.bool_``, ``np.float64``, ``str``, or
            an enum class.
        optional: ``None`` is a valid value (integer fields only).
    """

    key: str
    attr: str
    dtype: object
    optional: bool = False

    @property
    def is_enum(self) -> bool:
        return isinstance(self.dtype, type) and issubclass(
            self.dtype, enum.Enum
        )

    @property
    def present_key(self) -> str:
        """Key of an optional field's presence mask among the columns."""
        return f"{self.attr}.present"

    @property
    def column_dtype(self):
        if self.is_enum:
            return np.int8
        if self.dtype is str:
            return object
        return self.dtype

    def columns(self, values: Sequence) -> Dict[str, np.ndarray]:
        """The column of *values*, this field's row values (an enum as
        its code, an absent optional as ``None``), and the presence mask
        of an optional field."""
        if not self.optional:
            n = len(values)
            return {self.attr: np.fromiter(values, self.column_dtype, n)}
        present = [value is not None for value in values]
        filled = [NONE if value is None else value for value in values]
        return {
            self.present_key: np.array(present, np.bool_),
            self.attr: np.array(filled, np.int64),
        }

    def parse(self, value):
        """The record value of one JSON value; raises on a bad one."""
        if self.optional and value is None:
            return None
        if self.is_enum:
            return self.dtype(value)
        return _PARSERS[self.dtype](value)


_PARSERS = {
    np.int64: as_int,
    np.bool_: as_bool,
    np.float64: as_float,
    str: as_str,
}


def _typed(values: list, kinds: str, shape: Tuple[int, ...]) -> np.ndarray:
    """*values* as an array of *shape*, of an inferred dtype kind among
    *kinds* (so a nested list or a stray string never passes)."""
    array = np.array(values)
    if array.dtype.kind not in kinds or array.shape != shape:
        raise Irregular(f"values of dtype {array.dtype}, shape {array.shape}")
    return array


class Schema:
    """The fields of one telemetry source, in record-constructor order;
    *source* names its bundle attribute and *time* the attribute its
    rows are ordered and cut on."""

    def __init__(
        self,
        kind: str,
        source: str,
        record: type,
        fields: Tuple[Field, ...],
        time: str = "ts_us",
    ):
        self.kind = kind
        self.source = source
        self.record = record
        self.fields = fields
        self.time = time
        plain = [f for f in fields if not f.optional]
        self._ints = [f for f in plain if f.dtype in (np.int64, np.bool_)]
        self._floats = [f for f in plain if f.dtype is np.float64]
        self._others = [f for f in fields if f not in self._ints + self._floats]

    def __reduce__(self):
        return (_named, (self.kind,))

    # -- rows ----------------------------------------------------------------

    def row(self, record) -> tuple:
        """*record*'s field values in order, an enum as its :func:`code`."""
        values = (getattr(record, f.attr) for f in self.fields)
        return tuple(
            code(value) if f.is_enum else value
            for f, value in zip(self.fields, values)
        )

    # -- JSON ----------------------------------------------------------------

    def parse(self, data: dict):
        """One record from a JSONL object; raises on any bad field."""
        return self.record(*(f.parse(data[f.key]) for f in self.fields))

    def decode(self, rows: List[dict]) -> Dict[str, np.ndarray]:
        """Typed columns of *rows*, all of this kind, without records.

        Returns column arrays by attribute, and the presence mask of
        each optional field by its ``present_key``.  Accepts exactly the
        plainest rows :meth:`parse` accepts — integers and bools in
        integer and bool fields, finite numbers in float fields, the
        right strings elsewhere — and raises :class:`Irregular` (or a
        ``KeyError``/``TypeError``/``ValueError``) on anything else.
        """
        n = len(rows)
        columns: Dict[str, np.ndarray] = {}
        for group, kinds in ((self._ints, "bi"), (self._floats, "biuf")):
            if not group:
                continue
            getter = operator.itemgetter(*(f.key for f in group))
            shape = (n, len(group)) if len(group) > 1 else (n,)
            array = _typed(list(map(getter, rows)), kinds, shape)
            array = array.reshape(n, -1)
            if kinds == "biuf" and not np.isfinite(array).all():
                raise Irregular("non-finite float")
            for j, f in enumerate(group):
                columns[f.attr] = array[:, j].astype(f.dtype)
        for f in self._others:
            values = list(map(operator.itemgetter(f.key), rows))
            if f.optional:
                mask = [value is not None for value in values]
                columns[f.present_key] = np.array(mask, dtype=np.bool_)
                filled = [NONE if value is None else value for value in values]
                columns[f.attr] = _typed(filled, "bi", (n,)).astype(np.int64)
            elif f.is_enum:
                lookup = {member.value: i for i, member in enumerate(f.dtype)}
                columns[f.attr] = np.array(
                    list(map(lookup.__getitem__, values)), dtype=np.int8
                )
            else:
                if set(map(type, values)) != {str}:
                    raise Irregular(f"non-string {f.key!r}")
                columns[f.attr] = np.array(values, dtype=object)
        return columns

    def json_rows(self, rows: "RecordColumns") -> Iterator[tuple]:
        """The JSON values of each of *rows*, in field order, read from
        its columns without building records.

        An enum is its member's value and an absent optional ``None``.
        """
        for start in range(0, len(rows), _JSON_ROWS):
            yield from zip(*rows.values(start, start + _JSON_ROWS, as_json=True))

    # -- rows → columns ------------------------------------------------------

    def from_rows(self, rows: Iterable[tuple]) -> "RecordColumns":
        """Typed columns of *rows*, each a tuple of field values as
        :meth:`row` gives them: the one rows→columns function."""
        rows = list(rows)
        values = zip(*rows) if rows else [()] * len(self.fields)
        columns: Dict[str, np.ndarray] = {}
        for f, column in zip(self.fields, values):
            columns.update(f.columns(column))
        return RecordColumns(self, columns)

    def columns(self, records: Sequence) -> "RecordColumns":
        """*records* as typed columns: a :class:`RecordColumns` as is,
        any other sequence of records through its rows."""
        if isinstance(records, RecordColumns):
            return records
        return self.from_rows(map(self.row, records))

    def concat(self, parts: List["RecordColumns"]) -> "RecordColumns":
        """One :class:`RecordColumns` of *parts* in order: the only one
        as is, none as empty columns."""
        if len(parts) == 1:
            return parts[0]
        parts = parts or [self.from_rows(())]
        return RecordColumns(
            self,
            {
                key: np.concatenate([part.arrays[key] for part in parts])
                for key in parts[0].arrays
            },
        )


class RecordColumns(Sequence):
    """One source's records held as typed columns.

    A read-only sequence of records: ``len()`` is free, and the records
    are built from the columns, once, when first indexed or iterated.
    Equal to any sequence holding equal records.  ``arrays`` holds the
    columns as :meth:`Schema.decode` returns them.
    """

    def __init__(self, schema: Schema, arrays: Dict[str, np.ndarray]) -> None:
        self.schema = schema
        self.arrays = arrays
        self._len = len(arrays[schema.fields[0].attr])
        self._records: Optional[list] = None

    def column(self, attr: str) -> np.ndarray:
        return self.arrays[attr]

    @property
    def times(self) -> np.ndarray:
        """The column rows are ordered and cut on (:attr:`Schema.time`)."""
        return self.arrays[self.schema.time]

    def take(self, rows) -> "RecordColumns":
        """The rows *rows* selects: a slice, an index array or a mask."""
        return RecordColumns(
            self.schema, {key: array[rows] for key, array in self.arrays.items()}
        )

    def in_time_order(self) -> "RecordColumns":
        """These rows stably sorted on :attr:`times`: ``self`` when they
        already are, so ordered rows pay one comparison pass."""
        times = self.times
        if not (times[1:] < times[:-1]).any():
            return self
        return self.take(np.argsort(times, kind="stable"))

    def values(
        self, start: int = 0, stop: Optional[int] = None, as_json: bool = False
    ) -> List[list]:
        """Rows [*start*, *stop*) as one list of record values per field.

        An enum is its member, or with *as_json* its member's value; an
        absent optional is ``None``.
        """
        values = []
        for f in self.schema.fields:
            column = self.arrays[f.attr][start:stop].tolist()
            if f.is_enum:
                members = list(f.dtype)
                if as_json:
                    members = [member.value for member in members]
                column = list(map(members.__getitem__, column))
            elif f.optional:
                present = self.arrays[f.present_key][start:stop].tolist()
                column = [
                    value if here else None
                    for value, here in zip(column, present)
                ]
            values.append(column)
        return values

    def _built(self) -> list:
        if self._records is None:
            self._records = list(map(self.schema.record, *self.values()))
        return self._records

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RecordColumns({self.schema.kind!r}, {self._len} records)"

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_records"] = None
        return state


def _i(key: str, attr: str, optional: bool = False) -> Field:
    return Field(key, attr, np.int64, optional)


def _b(key: str, attr: str) -> Field:
    return Field(key, attr, np.bool_)


def _f(key: str, attr: str) -> Field:
    return Field(key, attr, np.float64)


DCI = Schema(
    "dci",
    "dci",
    DciRecord,
    (
        _i("ts_us", "ts_us"),
        _i("slot", "slot"),
        _i("rnti", "rnti"),
        _b("ul", "is_uplink"),
        _i("prb", "n_prb"),
        _i("mcs", "mcs"),
        _i("tbs", "tbs_bits"),
        _b("retx", "is_retx"),
        _i("attempt", "harq_attempt"),
        _b("crc", "crc_ok"),
        _b("proactive", "proactive"),
        _i("used", "used_bytes"),
    ),
)

GNB_LOG = Schema(
    "gnb",
    "gnb_log",
    GnbLogRecord,
    (
        _i("ts_us", "ts_us"),
        Field("kind", "kind", GnbLogKind),
        _b("ul", "is_uplink"),
        _i("buffer", "buffer_bytes"),
        _i("rnti", "rnti"),
    ),
)

PACKETS = Schema(
    "pkt",
    "packets",
    PacketRecord,
    (
        _i("id", "packet_id"),
        Field("stream", "stream", StreamKind),
        _i("size", "size_bytes"),
        _i("sent_us", "sent_us"),
        _i("recv_us", "received_us", optional=True),
        _b("ul", "is_uplink"),
        _i("frame", "frame_id", optional=True),
    ),
    # A packet enters the feed at its sender-side capture point.
    time="sent_us",
)

WEBRTC_STATS = Schema(
    "webrtc",
    "webrtc_stats",
    WebRtcStatsRecord,
    (
        _i("ts_us", "ts_us"),
        Field("client", "client", str),
        _f("out_fps", "outbound_fps"),
        _i("out_res", "outbound_resolution_p"),
        _f("target", "target_bitrate_bps"),
        _f("pushback", "pushback_bitrate_bps"),
        Field("state", "gcc_state", str),
        _f("slope", "gcc_trend_slope"),
        _f("threshold", "gcc_threshold"),
        _i("outstanding", "outstanding_bytes"),
        _i("cwnd", "congestion_window_bytes"),
        _f("in_fps", "inbound_fps"),
        _i("in_res", "inbound_resolution_p"),
        _f("vjb_ms", "video_jitter_buffer_ms"),
        _f("ajb_ms", "audio_jitter_buffer_ms"),
        _b("frozen", "frozen"),
        _f("freeze_ms", "freeze_duration_ms"),
        _i("concealed", "concealed_samples"),
        _i("samples", "total_samples"),
    ),
)

#: Every source, in bundle and file order, keyed by JSONL type.
SCHEMAS = {s.kind: s for s in (DCI, GNB_LOG, PACKETS, WEBRTC_STATS)}

#: Every source's schema, keyed by its record class.
RECORD_SCHEMAS = {s.record: s for s in SCHEMAS.values()}


def _named(kind: str) -> Schema:
    """The schema of JSONL record type *kind*."""
    return SCHEMAS[kind]


def typed_sources(holder) -> None:
    """Hold each of *holder*'s four sources (a bundle's or a live
    batch's) as :class:`RecordColumns`, converting any held as records."""
    for schema in SCHEMAS.values():
        rows = getattr(holder, schema.source)
        setattr(holder, schema.source, schema.columns(rows))
