"""Telemetry bundle serialization (JSON-lines interchange format).

Operators deploying Domino feed it traces collected elsewhere (NR-Scope
captures, gNB logs, pcaps, WebRTC stats dumps).  This module defines a
simple, stable on-disk format: one JSON object per record, each tagged
with its source, plus a header line carrying session metadata.  Files
round-trip exactly through :func:`save_bundle` / :func:`load_bundle`.

:func:`iter_chunks` reads a trace in chunks of ``_CHUNK_LINES`` lines.
Each chunk is one ``orjson.loads`` of its lines joined into a JSON
array, and each source's rows go straight into typed column arrays
(:meth:`repro.telemetry.columns.Schema.decode`) without building a
record object.  A chunk the array decoder does not take as is — a
blank line, a float where an integer belongs, anything malformed, and
anything ``orjson`` refuses (NaN, Infinity, 1E400, a lone surrogate) —
is parsed again line by line through :func:`_parse_line`, the parser
:func:`iter_records` uses.  That parser stays on the standard
library's ``json`` and is the reference: both readers accept the same
files with the same values, and an error names the same line in both.
``orjson`` reads an integer outside [-2**63, 2**64 - 1] as a float
where ``json`` keeps an exact ``int``: an integer column or a header
duration refuses that float, so the line path decides, and a float
column gets the same correctly rounded value either way.
:func:`load_bundle` concatenates the chunks into a column-backed
bundle: its ``dci``, ``gnb_log``, ``packets`` and ``webrtc_stats`` are
:class:`~repro.telemetry.columns.RecordColumns`, which build records
only when a consumer indexes or iterates them.  A live replay reads one
record type per pass through the same chunks
(:class:`~repro.live.sources.ReplaySource`).

:func:`dump_lines` renders each field of a block of rows as a list of
``json``'s text for its values, and one ``%`` template per source joins
them into the bytes ``json.dumps`` gives each record's dict, whose
``": "`` spacing :func:`_kept_lines` and the golden lines rely on.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import IO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np
import orjson

from repro.errors import TelemetryError
from repro.telemetry.columns import (
    RECORD_SCHEMAS,
    SCHEMAS,
    Irregular,
    RecordColumns,
    Schema,
    as_bool,
    as_int,
    as_str,
)
from repro.telemetry.records import (
    DciRecord,
    GnbLogRecord,
    PacketRecord,
    TelemetryBundle,
    WebRtcStatsRecord,
)

FORMAT_VERSION = 1

#: Lines per chunk :func:`iter_chunks` decodes with one ``orjson.loads``.
#: Measured on a 12 s busy-cell trace: 1024-line chunks were slower,
#: and 16384-line chunks raised peak memory with no gain.
_CHUNK_LINES = 4096


@dataclass(frozen=True)
class TraceHeader:
    """The session metadata line of a JSONL telemetry trace."""

    session_name: str
    duration_us: int
    cellular_client: str = "cellular"
    wired_client: str = "wired"
    gnb_log_available: bool = False
    version: int = FORMAT_VERSION


def _header_line(bundle: TelemetryBundle) -> dict:
    return {
        "type": "header",
        "version": FORMAT_VERSION,
        "session_name": bundle.session_name,
        "duration_us": bundle.duration_us,
        "cellular_client": bundle.cellular_client,
        "wired_client": bundle.wired_client,
        "gnb_log_available": bundle.gnb_log_available,
    }


#: Rows of one source :func:`_line_blocks` renders at a time.
_BLOCK_ROWS = 4096


def _template(schema: Schema) -> str:
    """The ``%`` template of one *schema* line: ``json.dumps``'s keys,
    spacing and order, with a ``%s`` for each field's text."""
    items = [("type", json.dumps(schema.kind))]
    items += [(f.key, "%s") for f in schema.fields]
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in items) + "}"


_TEMPLATES = {schema: _template(schema) for schema in SCHEMAS.values()}


def _texts(rows: RecordColumns, f, start: int, stop: int) -> list:
    """Field *f* of rows [*start*, *stop*) as ``json.dumps`` writes each
    value, for ``%s``: its text, or an ``int`` (whose ``str`` it is)."""
    column = rows.arrays[f.attr][start:stop]
    values = column.tolist()
    if f.optional:
        present = rows.arrays[f.present_key][start:stop].tolist()
        return [v if here else "null" for v, here in zip(values, present)]
    if f.is_enum:
        texts = [json.dumps(member.value) for member in f.dtype]
        return list(map(texts.__getitem__, values))
    if f.dtype is np.bool_:
        return list(map(("false", "true").__getitem__, values))
    if f.dtype is np.float64:
        finite = np.isfinite(column).all()
        return list(map(float.__repr__ if finite else json.dumps, values))
    if f.dtype is str:
        return list(map(encode_basestring_ascii, values))
    return values


def _line_blocks(bundle: TelemetryBundle) -> Iterator[List[str]]:
    """:func:`dump_lines` in blocks of at most ``_BLOCK_ROWS`` lines."""
    yield [json.dumps(_header_line(bundle))]
    for schema in SCHEMAS.values():
        rows = getattr(bundle, schema.source)
        render = _TEMPLATES[schema].__mod__
        for start in range(0, len(rows), _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            texts = [_texts(rows, f, start, stop) for f in schema.fields]
            yield list(map(render, zip(*texts)))


def dump_lines(bundle: TelemetryBundle) -> Iterable[str]:
    """Yield the JSONL lines for *bundle* (header first).

    A line's keys follow its schema's field order after ``"type"``.
    Every source is rendered from its columns, building no records,
    into exactly the bytes ``json.dumps`` gives each record's dict.
    """
    return itertools.chain.from_iterable(_line_blocks(bundle))


def save_bundle(bundle: TelemetryBundle, path_or_file: Union[str, IO[str]]) -> None:
    """Write *bundle* as JSON lines to a path or open text file."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as handle:
            save_bundle(bundle, handle)
        return
    for block in _line_blocks(bundle):
        path_or_file.write("\n".join(block) + "\n")


#: Union of everything :func:`iter_records` can yield.
TraceItem = Union[
    TraceHeader, DciRecord, GnbLogRecord, PacketRecord, WebRtcStatsRecord
]


def iter_records(path_or_file: Union[str, IO[str]]) -> Iterator[TraceItem]:
    """Incrementally parse a JSONL telemetry trace, one record at a time.

    Yields the :class:`TraceHeader` when its line is reached (first, for
    anything :func:`save_bundle` wrote), then each typed record in file
    order — so a consumer can stream an arbitrarily large trace without
    materializing it the way :func:`load_bundle` does.  Raises
    :class:`~repro.errors.TelemetryError` exactly where
    :func:`load_bundle` would: malformed lines immediately, a missing
    header at exhaustion.
    """
    if isinstance(path_or_file, str):
        with open(path_or_file) as handle:
            yield from iter_records(handle)
        return
    saw_header = False
    for line_number, line in enumerate(path_or_file, start=1):
        item = _parse_line(line_number, line)
        if isinstance(item, TraceHeader):
            saw_header = True
        if item is not None:
            yield item
    if not saw_header:
        raise TelemetryError("missing header line")


def _header_from_json(data: dict) -> TraceHeader:
    if data.get("version") != FORMAT_VERSION:
        raise TelemetryError(
            f"unsupported format version {data.get('version')!r}"
        )
    return TraceHeader(
        session_name=as_str(data["session_name"]),
        duration_us=as_int(data["duration_us"]),
        cellular_client=as_str(data["cellular_client"]),
        wired_client=as_str(data["wired_client"]),
        gnb_log_available=as_bool(data["gnb_log_available"]),
        version=data["version"],
    )


def _parse_line(
    line_number: int, line: str, kind: Optional[str] = None
) -> Optional[TraceItem]:
    """Line *line_number* of a trace as a header or record.

    None for a blank line, or for a record of a type other than *kind*
    when one is given.  Raises :class:`~repro.errors.TelemetryError`
    naming the line for anything malformed.
    """
    line = line.strip()
    if not line:
        return None
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TelemetryError(
            f"line {line_number}: invalid JSON: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise TelemetryError(
            f"line {line_number}: malformed record: expected a JSON "
            f"object, got {type(data).__name__}"
        )
    line_kind = data.get("type")
    if line_kind == "header":
        parse = _header_from_json
    else:
        try:
            parse = SCHEMAS[line_kind].parse
        except (KeyError, TypeError):
            raise TelemetryError(
                f"line {line_number}: unknown record type {line_kind!r}"
            ) from None
        if kind is not None and line_kind != kind:
            return None
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TelemetryError(
            f"line {line_number}: malformed {line_kind} record: {exc}"
        ) from exc


_TYPE = operator.itemgetter("type")

#: One chunk of a trace: the last header line in it, if any, and the
#: columns of each record type present.
Chunk = Tuple[Optional[TraceHeader], Dict[str, RecordColumns]]


def _decode_chunk(lines: List[str], kind: Optional[str]) -> Chunk:
    """The header and per-source columns of a chunk, in one JSON decode.

    Raises on anything the array decoder does not take as is, without
    saying which line: the caller then parses the chunk line by line.
    """
    rows = orjson.loads("[" + ",".join(lines) + "]")
    kinds = list(map(_TYPE, rows))
    if kinds and kinds.count(kinds[0]) == len(kinds):
        groups = {kinds[0]: rows}
    else:
        groups = {}
        for row_kind, row in zip(kinds, rows):
            groups.setdefault(row_kind, []).append(row)
    header = None
    parts = {}
    for row_kind, group in groups.items():
        if row_kind == "header":
            # Every header is checked; the last one wins, as line by line.
            for row in group:
                if not isinstance(row.get("duration_us"), int):
                    # orjson reads an integer past 64 bits as a float,
                    # which as_int would truncate instead of refusing.
                    raise Irregular("non-integer duration_us")
                header = _header_from_json(row)
        else:
            schema = SCHEMAS[row_kind]
            if kind is None or row_kind == kind:
                parts[row_kind] = RecordColumns(schema, schema.decode(group))
    return header, parts


def _parse_chunk(
    lines: List[str], first_line: int, kind: Optional[str], keep
) -> Chunk:
    """:func:`_decode_chunk`'s result, one line at a time."""
    header = None
    records: Dict[Schema, list] = {}
    for line_number, line in enumerate(lines, start=first_line):
        if keep is not None and not keep(line):
            continue
        item = _parse_line(line_number, line, kind)
        if isinstance(item, TraceHeader):
            header = item
        elif item is not None:
            records.setdefault(RECORD_SCHEMAS[type(item)], []).append(item)
    parts = {s.kind: s.columns(items) for s, items in records.items()}
    return header, parts


def _kept_lines(kind: str):
    """A filter for the lines that may hold a header or a *kind* record.

    It matches the exact tokens :func:`save_bundle` writes and drops only
    a line bearing another kind's token and no wanted one, unparsed, so
    malformed content there goes unreported until a read of every kind.
    """
    wanted = (f'"type": "{kind}"', '"type": "header"')
    others = [f'"type": "{other}"' for other in SCHEMAS if other != kind]
    return lambda line: any(t in line for t in wanted) or not any(
        t in line for t in others
    )


def iter_chunks(
    path_or_file: Union[str, IO[str]], kind: Optional[str] = None
) -> Iterator[Chunk]:
    """Read a JSONL trace as ``(header, {kind: columns})`` chunks of
    ``_CHUNK_LINES`` lines each, in file order; errors name the file's
    true line.  With *kind* (a JSONL record type such as ``"pkt"``),
    only headers and that type's records are read, and lines of other
    types are skipped before JSON decoding (:func:`_kept_lines`).
    """
    if isinstance(path_or_file, str):
        with open(path_or_file) as handle:
            yield from iter_chunks(handle, kind)
        return
    keep = None if kind is None else _kept_lines(kind)
    first_line = 1
    while True:
        lines = list(itertools.islice(path_or_file, _CHUNK_LINES))
        if not lines:
            return
        kept = lines if keep is None else list(filter(keep, lines))
        try:
            chunk = _decode_chunk(kept, kind)
        except (Irregular, TelemetryError, KeyError, TypeError, ValueError):
            chunk = _parse_chunk(lines, first_line, kind, keep)
        yield chunk
        first_line += len(lines)


def load_bundle(path_or_file: Union[str, IO[str]]) -> TelemetryBundle:
    """Read a JSONL telemetry file back into a column-backed bundle."""
    header = None
    parts: Dict[str, List[RecordColumns]] = {kind: [] for kind in SCHEMAS}
    for chunk_header, chunk in iter_chunks(path_or_file):
        header = chunk_header or header
        for kind, part in chunk.items():
            parts[kind].append(part)
    if header is None:
        raise TelemetryError("missing header line")
    return TelemetryBundle(
        session_name=header.session_name,
        duration_us=header.duration_us,
        cellular_client=header.cellular_client,
        wired_client=header.wired_client,
        gnb_log_available=header.gnb_log_available,
        **{
            schema.source: schema.concat(parts[kind])
            for kind, schema in SCHEMAS.items()
        },
    )
