"""Write-ahead campaign journal: the durability layer of the cluster.

A :class:`CampaignJournal` is an append-only JSONL file of
schema-versioned :class:`JournalRecord` lines.  The coordinator writes
each record *before* mutating its in-memory campaign state (classic
write-ahead ordering), and every append is flushed and ``fsync``'d — so
after any crash the journal is a prefix of the truth, never ahead of a
state the coordinator did not reach:

* ``CAMPAIGN_OPEN`` — a campaign was accepted: its scenario specs,
  detector config, trace/cache dirs and fail-fast flag ride in the
  payload, enough to re-create the campaign from the journal alone.
* ``OUTCOME_SETTLED`` — one scenario index settled, with either its
  :class:`~repro.fleet.executor.SessionOutcome` or an error string.
* ``CAMPAIGN_CLOSED`` — the campaign finished (completed / failed /
  cancelled); a journal without this record is an interrupted campaign.

:func:`replay` folds a journal back into per-campaign state.  The file
is a :class:`~repro.jsonlog.JsonLog`: a torn trailing record (the line
a crash mid-``write`` leaves) is logged, counted and truncated before
the next append; an undecodable record in mid-file is logged, counted
and skipped.  Records decode through the :mod:`repro.schema` codec, so
journals carry the same ``"schema"`` stamp as every other artifact.

This module stays a leaf on purpose: ``repro.schema.wire`` imports
:class:`JournalRecord` to register its codec, so nothing here may
import :mod:`repro.schema` (or anything above it) at module level —
serialization helpers lazy-import schema inside the call, the same
pattern :class:`~repro.obs.events.ObsEvent` uses.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import ClusterError
from repro.jsonlog import JsonLog
from repro.obs.logs import get_logger
from repro.obs.metrics import get_registry

logger = get_logger(__name__)

#: Journal record types (see module docstring for semantics).
CAMPAIGN_OPEN = "campaign_open"
OUTCOME_SETTLED = "outcome_settled"
CAMPAIGN_CLOSED = "campaign_closed"

RECORD_TYPES = frozenset((CAMPAIGN_OPEN, OUTCOME_SETTLED, CAMPAIGN_CLOSED))


@dataclass(frozen=True)
class JournalRecord:
    """One journal line.

    ``seq`` is the journal-wide append sequence (monotonic per file);
    ``index`` is the scenario index for ``OUTCOME_SETTLED`` records and
    ``-1`` otherwise.  The payload is record-type-specific (see module
    docstring).
    """

    type: str
    campaign_id: str
    seq: int
    index: int = -1
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        """Versioned wire form (lazy schema import to avoid a cycle)."""
        from repro import schema

        return schema.to_wire(self)

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "JournalRecord":
        from repro import schema

        return schema.from_wire("journal_record", data)


class ReplayedCampaign:
    """Everything :func:`replay` recovered about one journaled campaign."""

    def __init__(self, campaign_id: str, payload: Dict[str, Any]) -> None:
        from repro.schema import (
            detector_config_from_wire,
            scenario_spec_from_wire,
        )

        self.campaign_id = campaign_id
        self.scenarios = [
            scenario_spec_from_wire(spec)
            for spec in payload.get("scenarios", [])
        ]
        self.detector_config = detector_config_from_wire(
            payload.get("detector_config")
        )
        self.trace_dir: Optional[str] = payload.get("trace_dir")
        self.cache_dir: Optional[str] = payload.get("cache_dir")
        self.fail_fast = bool(payload.get("fail_fast", False))
        #: scenario index → settled outcome / error, recovered in order.
        self.settled: Dict[int, Any] = {}
        self.errors: Dict[int, str] = {}
        self.closed = False
        self.close_reason: Optional[str] = None

    @property
    def n_settled(self) -> int:
        return len(self.settled) + len(self.errors)

    @property
    def complete(self) -> bool:
        return self.n_settled >= len(self.scenarios)


class CampaignJournal:
    """Append-only, fsync'd campaign journal over one JSONL file.

    Opening an *existing* journal for appending must go through
    :meth:`replay` first so the append sequence continues where the
    previous process stopped (the coordinator always does).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._log = JsonLog(path)
        self._seq = 0
        #: Records appended by this process / recovered by replay.
        self.records_written = 0
        self.records_replayed = 0

    @property
    def records_total(self) -> int:
        return self.records_written + self.records_replayed

    # -- writing -----------------------------------------------------------------

    def append(self, record: JournalRecord) -> None:
        """Durably append one record: write, flush, fsync."""
        self._log.append(json.dumps(record.to_json(), sort_keys=True))
        self._log.sync()
        self.records_written += 1
        get_registry().counter(
            "repro_journal_records_total",
            help="Records appended to the campaign journal.",
        ).inc()

    def _write(
        self,
        kind: str,
        campaign_id: str,
        payload: Dict[str, Any],
        index: int = -1,
    ) -> None:
        """Append the next record in this journal's sequence."""
        self._seq += 1
        self.append(
            JournalRecord(kind, campaign_id, self._seq, index, payload)
        )

    def open_campaign(
        self,
        campaign_id: str,
        scenarios: Sequence[Any],
        *,
        detector_config: Any = None,
        trace_dir: Optional[str] = None,
        cache_dir: Optional[str] = None,
        fail_fast: bool = False,
    ) -> None:
        from repro.schema import (
            detector_config_to_wire,
            scenario_spec_to_wire,
        )

        payload = {
            "scenarios": [scenario_spec_to_wire(spec) for spec in scenarios],
            "detector_config": detector_config_to_wire(detector_config),
            "trace_dir": trace_dir,
            "cache_dir": cache_dir,
            "fail_fast": fail_fast,
        }
        self._write(CAMPAIGN_OPEN, campaign_id, payload)

    def settle(
        self,
        campaign_id: str,
        index: int,
        *,
        outcome: Any = None,
        error: Optional[str] = None,
    ) -> None:
        if (outcome is None) == (error is None):
            raise ClusterError(
                "a settled scenario carries exactly one of outcome/error"
            )
        payload: Dict[str, Any] = (
            {"error": error} if error is not None else {"outcome": outcome.to_json()}
        )
        self._write(OUTCOME_SETTLED, campaign_id, payload, index)

    def close_campaign(self, campaign_id: str, reason: str) -> None:
        self._write(CAMPAIGN_CLOSED, campaign_id, {"reason": reason})

    def close(self) -> None:
        self._log.close()

    # -- reading -----------------------------------------------------------------

    def replay(self) -> Dict[str, ReplayedCampaign]:
        """Fold the journal back into per-campaign state; resume seq."""
        campaigns, last_seq, n_records = _replay(self._log)
        self._seq = max(self._seq, last_seq)
        self.records_replayed = n_records
        return campaigns


def replay_journal(path: str) -> Dict[str, ReplayedCampaign]:
    """Read-only replay of a journal file (missing file = no campaigns)."""
    return _replay(JsonLog(path))[0]


def _replay(log: JsonLog) -> Tuple[Dict[str, ReplayedCampaign], int, int]:
    from repro.errors import SchemaError
    from repro.fleet.executor import SessionOutcome

    campaigns: Dict[str, ReplayedCampaign] = {}
    last_seq = 0
    n_records = 0
    if not os.path.exists(log.path):
        return campaigns, last_seq, n_records
    replayed = get_registry().counter(
        "repro_journal_replayed_total",
        help="Journal records recovered by replay on startup.",
    )
    for lineno, data in log.replay():
        try:
            record = JournalRecord.from_json(data)
        except SchemaError as exc:
            log.skip(lineno, f"undecodable journal record: {exc}")
            continue
        last_seq = max(last_seq, record.seq)
        n_records += 1
        replayed.inc()
        if record.type == CAMPAIGN_OPEN:
            campaigns[record.campaign_id] = ReplayedCampaign(
                record.campaign_id, record.payload
            )
            continue
        campaign = campaigns.get(record.campaign_id)
        if campaign is None:
            logger.warning(
                "%s: line %d settles campaign %r with no "
                "CAMPAIGN_OPEN record; skipping",
                log.path,
                lineno,
                record.campaign_id,
            )
            continue
        if record.type == OUTCOME_SETTLED:
            index = record.index
            if index in campaign.settled or index in campaign.errors:
                continue  # idempotent: first settle wins
            error = record.payload.get("error")
            if error is not None:
                campaign.errors[index] = str(error)
            else:
                campaign.settled[index] = SessionOutcome.from_json(
                    record.payload["outcome"]
                )
        elif record.type == CAMPAIGN_CLOSED:
            campaign.closed = True
            campaign.close_reason = record.payload.get("reason")
    return campaigns, last_seq, n_records


def campaign_id_for(
    scenarios: Sequence[Any], detector_config: Any = None
) -> str:
    """Deterministic campaign id: digest of specs + detector config.

    The id a restarted coordinator derives for the same submission
    matches the journaled one, which is what lets a resubmitted
    campaign resume from its settled records instead of re-running.
    """
    from repro.fleet.executor import detector_config_hash, scenario_fingerprint

    hasher = hashlib.blake2b(digest_size=12)
    for spec in scenarios:
        hasher.update(scenario_fingerprint(spec).encode())
    hasher.update(detector_config_hash(detector_config).encode())
    return hasher.hexdigest()


__all__ = [
    "CAMPAIGN_CLOSED",
    "CAMPAIGN_OPEN",
    "CampaignJournal",
    "JournalRecord",
    "OUTCOME_SETTLED",
    "RECORD_TYPES",
    "ReplayedCampaign",
    "campaign_id_for",
    "replay_journal",
]
