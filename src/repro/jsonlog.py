"""The append-only JSONL log every durable record file goes through.

A :class:`JsonLog` is one file of one JSON value per line: the campaign
journal, a store segment, the ``--events-file`` trace, an outcomes file.
``append`` writes a line and flushes it, ``sync`` fsyncs (the journal's
write-ahead contract), and ``replay`` yields ``(line number, value)``.

One rule covers the damage a crash mid-append leaves: an unterminated
last line is torn.  Replay skips it and the next append truncates it,
so a new record never fuses with the fragment; either way it is logged
and counted once (``repro_jsonl_lines_skipped_total{reason="torn"}``).
A damaged line in mid-file follows the caller's policy, for JSON and
record decode errors alike (:meth:`JsonLog.skip`): a ``strict`` log
raises :class:`~repro.errors.TelemetryError` naming ``path:line``, a
tolerant one logs and counts it (``reason="damaged"``) and moves on.

:func:`atomic_write` is the whole-file counterpart.  This module is a
leaf (``repro.schema`` and ``repro.obs`` import it).
"""

from __future__ import annotations

import json
import logging
import os
from typing import Any, BinaryIO, Iterator, Optional, Tuple

from repro.errors import TelemetryError

logger = logging.getLogger(__name__)

#: Counter of log lines skipped on replay or truncated before an
#: append, labelled by ``reason`` (``torn`` / ``damaged``).
SKIPPED_METRIC = "repro_jsonl_lines_skipped_total"


def _count_skip(reason: str) -> None:
    from repro.obs.metrics import get_registry

    get_registry().counter(
        SKIPPED_METRIC,
        help="JSONL log lines skipped or truncated, by reason.",
    ).inc(reason=reason)


def _torn_start(handle: BinaryIO) -> Optional[int]:
    """Offset where an unterminated last line starts, or None."""
    end = pos = handle.seek(0, os.SEEK_END)
    while pos > 0:
        step = min(pos, 4096)
        pos -= step
        handle.seek(pos)
        chunk = handle.read(step)
        if pos + step == end and chunk.endswith(b"\n"):
            return None
        cut = chunk.rfind(b"\n")
        if cut >= 0:
            return pos + cut + 1
    return 0 if end else None


class JsonLog:
    """One append-only JSONL file (see module docstring)."""

    def __init__(self, path: str, *, strict: bool = False) -> None:
        self.path = path
        self.strict = strict
        #: Lines the last replay skipped, the torn tail included.
        self.skipped = 0
        self._handle: Optional[BinaryIO] = None
        self._torn_counted = False

    def _torn(self, action: str, size: int) -> None:
        if not self._torn_counted:
            self._torn_counted = True
            logger.warning(
                "%s: %s torn trailing line (%d byte(s) a crash left "
                "mid-append)",
                self.path,
                action,
                size,
            )
            _count_skip("torn")

    def open(self) -> None:
        """Open for appending (once), truncating a torn tail first."""
        if self._handle is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            handle = open(self.path, "a+b")
            start = _torn_start(handle)
            if start is not None:
                self._torn("truncating", handle.seek(0, os.SEEK_END) - start)
                handle.truncate(start)
            self._handle = handle

    def append(self, line: str) -> None:
        """Write one line (no newline in *line*) and flush it."""
        self.open()
        self._handle.write(line.encode("utf-8") + b"\n")
        self._handle.flush()

    def sync(self) -> None:
        if self._handle is not None:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def skip(self, lineno: int, reason: str) -> None:
        """Apply the damaged-line policy to line *lineno*."""
        if self.strict:
            raise TelemetryError(f"{self.path}:{lineno}: {reason}")
        self.skipped += 1
        logger.warning(
            "%s:%d: skipping damaged line: %s", self.path, lineno, reason
        )
        _count_skip("damaged")

    def replay(self) -> Iterator[Tuple[int, Any]]:
        """Yield ``(line number, value)`` per intact line; blank lines
        are skipped silently."""
        self.skipped = 0
        with open(self.path, "rb") as handle:
            for lineno, raw in enumerate(handle, 1):
                if not raw.endswith(b"\n"):
                    self.skipped += 1
                    self._torn("skipping", len(raw))
                    return
                if not raw.strip():
                    continue
                try:
                    value = json.loads(raw)
                except ValueError as exc:  # bad JSON or bad UTF-8
                    self.skip(lineno, f"undecodable (invalid JSON): {exc}")
                    continue
                yield lineno, value


def atomic_write(path: str, text: str) -> None:
    """Replace *path* with *text* (UTF-8) through a renamed temp file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


__all__ = ["JsonLog", "SKIPPED_METRIC", "atomic_write"]
