"""repro.jsonlog: one fault table over every durable JSONL log.

The campaign journal, a store segment, the ``--events-file`` trace and
a fleet outcomes file all append and replay through
:class:`repro.jsonlog.JsonLog`.  Each row below drives one of them
through its own public writer and reader:

* a torn tail (the unterminated line a crash mid-append leaves), then
  a reopen and an append: the new record reads back, and the fragment
  is logged and counted once;
* a garbage line in mid-file: the journal and the store skip and count
  it, the events file raises naming ``path:line``, an outcomes file
  raises (strict) or counts it (tolerant).

The bytes each writer produces are pinned by digest, so the shared
path writes exactly what the four hand-rolled writers wrote.
"""

import hashlib
import logging
import os
import re

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.cluster.journal import (
    CampaignJournal,
    JournalRecord,
    replay_journal,
)
from repro.errors import TelemetryError
from repro.fleet.executor import (
    SessionOutcome,
    iter_outcomes,
    load_outcomes,
    save_outcomes,
)
from repro.jsonlog import SKIPPED_METRIC, JsonLog, atomic_write
from repro.obs.events import ObsEvent, iter_events
from repro.obs.spans import JsonlSink
from repro.store import RcaStore

FRAGMENT = '{"type": "outcome_settled", "campaign_id": "ca'


@pytest.fixture(autouse=True)
def _clean_registry():
    obs.get_registry().reset()
    yield
    obs.get_registry().reset()


def _skipped(reason):
    counter = obs.get_registry().get(SKIPPED_METRIC)
    return 0 if counter is None else counter.value(reason=reason)


def _outcome(i):
    return SessionOutcome(
        scenario=f"s{i}",
        profile="tmobile_fdd",
        impairment="none",
        seed=10**20 + i,
        duration_s=12.0,
        n_windows=20 + i,
        n_detected_windows=3,
        degradation_events_per_min=1.25 * i,
        chain_counts={"a --> b": 2, "c --> d": i},
        cause_counts={"a": 2},
        consequence_counts={"b": 1},
        qoe={"ul_delay_p50_ms": 31.5 + i},
        event_rates={"a": 0.5},
    )


def _event(i):
    return ObsEvent(
        name=f"n{i}",
        path=f"p/n{i}",
        ts_s=100.0 + i,
        duration_s=0.25 * i,
        attrs={"k": i, "s": "v"},
        trace_id="t" * 32 if i else "",
        span_id="s" * 16 if i else "",
    )


def _record(i):
    return JournalRecord(
        "outcome_settled",
        "camp",
        i + 1,
        index=i,
        payload={"error": f"e{i}", "x": [1.5, "é"]},
    )


# -- one adapter per log: its own writer, reopen-and-append, reader ----------


class JournalLog:
    name = "journal"

    def __init__(self, tmp_path):
        self.path = str(tmp_path / "campaigns.journal")

    def write(self, items):
        journal = CampaignJournal(self.path)
        journal.open_campaign("camp", [])
        for i in items:
            journal.settle("camp", i, error=f"e{i}")
        journal.close()

    def append(self, i):
        journal = CampaignJournal(self.path)
        journal.replay()  # the coordinator's resume order
        journal.settle("camp", i, error=f"e{i}")
        journal.close()

    def read(self):
        return sorted(replay_journal(self.path)["camp"].errors)


class StoreSegment:
    name = "store"

    def __init__(self, tmp_path):
        self.root = str(tmp_path / "store")
        self.path = os.path.join(
            self.root, "segments", "p0", "outcomes.jsonl"
        )

    def write(self, items):
        with RcaStore.open(self.root, partition_s=1000.0) as store:
            store.ingest_outcomes([_outcome(i) for i in items], ts=500.0)

    def append(self, i):
        with RcaStore.open(self.root) as store:
            store.ingest_outcomes([_outcome(i)], ts=500.0)

    def read(self):
        with RcaStore.open(self.root) as store:
            counts = store.reindex()
            rows = store._conn.execute("SELECT scenario FROM outcomes")
            scenarios = sorted(int(name[1:]) for (name,) in rows)
        assert counts["outcomes"] == len(scenarios)
        return scenarios


class EventsFile:
    name = "events"

    def __init__(self, tmp_path):
        self.path = str(tmp_path / "events.jsonl")

    def write(self, items):
        self.append(*items)

    def append(self, *items):
        sink = JsonlSink(self.path)
        for i in items:
            sink.emit(_event(i))
        sink.close()

    def read(self):
        return [int(event.name[1:]) for event in iter_events(self.path)]


class OutcomesFile:
    """A whole-file artifact: "append" is a tolerant read of what
    survived plus a save of it with the new outcome."""

    name = "outcomes"
    tolerant = False

    def __init__(self, tmp_path):
        self.path = str(tmp_path / "outcomes.jsonl")
        self.stats = {}

    def write(self, items):
        save_outcomes([_outcome(i) for i in items], self.path)

    def append(self, i):
        stats = {}
        kept = list(iter_outcomes(self.path, tolerant=True, stats=stats))
        assert stats == {"skipped_lines": 1, "missing_outcomes": 0}
        save_outcomes(kept + [_outcome(i)], self.path)

    def read(self):
        self.stats = {}
        outcomes = iter_outcomes(
            self.path, tolerant=self.tolerant, stats=self.stats
        )
        return [int(outcome.scenario[1:]) for outcome in outcomes]


class TolerantOutcomesFile(OutcomesFile):
    name = "outcomes-tolerant"
    tolerant = True


LOGS = [JournalLog, StoreSegment, EventsFile, OutcomesFile]


@pytest.mark.parametrize("log_type", LOGS, ids=lambda t: t.name)
def test_torn_tail_then_append(tmp_path, log_type, caplog):
    """A crash mid-append leaves a torn trailing line: reopening and
    appending truncates it, the new record reads back, and the fragment
    is logged and counted once."""
    log = log_type(tmp_path)
    log.write([0, 1])
    with open(log.path, "a", encoding="utf-8") as handle:
        handle.write(FRAGMENT)
    with caplog.at_level(logging.WARNING, logger="repro"):
        log.append(2)
        assert log.read() == [0, 1, 2]
    assert caplog.text.count("torn trailing") == 1
    assert _skipped("torn") == 1
    assert _skipped("damaged") == 0
    with open(log.path, "rb") as handle:
        assert FRAGMENT.encode() not in handle.read()


@pytest.mark.parametrize(
    "log_type, policy",
    [
        (JournalLog, "skip"),
        (StoreSegment, "skip"),
        (EventsFile, "raise"),
        (OutcomesFile, "raise"),
        (TolerantOutcomesFile, "skip"),
    ],
    ids=lambda v: getattr(v, "name", v),
)
def test_garbage_line_in_mid_file(tmp_path, log_type, policy):
    """Damage a crash cannot leave: each log follows its own policy."""
    log = log_type(tmp_path)
    log.write([0, 1])
    with open(log.path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    lines.insert(len(lines) - 1, b"{garbage\n")
    with open(log.path, "wb") as handle:
        handle.writelines(lines)
    lineno = len(lines) - 1
    if policy == "raise":
        where = re.escape(f"{log.path}:{lineno}: ")
        with pytest.raises(TelemetryError, match=where):
            log.read()
        return
    assert log.read() == [0, 1]
    assert _skipped("damaged") == 1
    assert _skipped("torn") == 0
    if log_type is TolerantOutcomesFile:
        assert log.stats == {"skipped_lines": 1, "missing_outcomes": 0}


# -- the defects one shared path mends ---------------------------------------


def test_store_reindex_keeps_every_intact_record_before_a_torn_tail(
    tmp_path,
):
    segment = StoreSegment(tmp_path)
    segment.write([0, 1])
    with open(segment.path, "a") as handle:
        handle.write(FRAGMENT)
    assert segment.read() == [0, 1]
    assert _skipped("torn") == 1


def test_obs_report_reads_events_appended_after_a_torn_tail(
    tmp_path, capsys
):
    events = EventsFile(tmp_path)
    events.write([0, 1])
    with open(events.path, "a") as handle:
        handle.write('{"name": "n2", "pa')
    events.append(2)
    assert cli_main(["obs", "report", events.path]) == 0
    stages = {
        line.split()[0]
        for line in capsys.readouterr().out.splitlines()
        if line.strip()
    }
    assert {"n0", "n1", "n2"} <= stages


def test_outcomes_torn_tail_fails_a_strict_read(tmp_path):
    outcomes = OutcomesFile(tmp_path)
    outcomes.write([0, 1])
    with open(outcomes.path, "a") as handle:
        handle.write(FRAGMENT)
    # The header promises two outcomes and both survive: the fragment
    # alone is not a shortfall.
    assert load_outcomes(outcomes.path) == [_outcome(0), _outcome(1)]
    outcomes.write([0, 1])
    with open(outcomes.path, "rb+") as handle:
        handle.truncate(os.path.getsize(outcomes.path) - 20)
    with pytest.raises(TelemetryError, match="truncated"):
        load_outcomes(outcomes.path)


def test_torn_tail_longer_than_one_read_chunk(tmp_path):
    path = str(tmp_path / "log.jsonl")
    log = JsonLog(path)
    log.append('{"a": 1}')
    log.close()
    with open(path, "a") as handle:
        handle.write('{"b": "' + "x" * 10000)
    log = JsonLog(path)
    log.append('{"c": 3}')
    log.close()
    assert list(JsonLog(path).replay()) == [(1, {"a": 1}), (2, {"c": 3})]
    assert _skipped("torn") == 1


def test_atomic_write_leaves_no_temp_file_on_failure(tmp_path):
    path = str(tmp_path / "artifact.json")
    atomic_write(path, "old")
    with pytest.raises(TypeError):
        atomic_write(path, None)  # fails mid-write
    assert os.listdir(tmp_path) == ["artifact.json"]
    with open(path) as handle:
        assert handle.read() == "old"


# -- byte identity: the shared path writes what the four writers wrote -------


def _digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


#: sha256 of each file below, as the per-module writers wrote it.
PINNED_DIGESTS = {
    "journal": (
        "ddb91c4a7cfa3d29fbb567610ad3d20279588873649c28fc8bf3c9139a914d0f"
    ),
    "store": (
        "1d768ef0c076ec8392a9941c87e033bee74233d92ac99dd6920dac972af4f7d7"
    ),
    "events": (
        "34c367f7f120d647ce075f5a53156dd2f6ae664fbb5eddfbf69c0ba6446e3043"
    ),
    "outcomes": (
        "1d3dba6f87c4c1447d93562af86105481b8ae428d54a4bba792ce06bf728d6d2"
    ),
}


def test_log_bytes_are_unchanged(tmp_path):
    """Fixed records through each public writer give the bytes the
    per-module writers gave (digests recorded before they shared one
    path): the journal's and the store's ``sort_keys``, the events
    file's compact separators, and the outcomes file."""
    journal_path = str(tmp_path / "j.journal")
    journal = CampaignJournal(journal_path)
    for i in range(3):
        journal.append(_record(i))
    journal.close()
    with RcaStore.open(str(tmp_path / "store")) as store:
        store.ingest_outcomes([_outcome(0), _outcome(1)], ts=500.0)
        store.ingest_outcomes([_outcome(2)], ts=1500.0)
    segment = os.path.join(
        tmp_path, "store", "segments", "p0", "outcomes.jsonl"
    )
    events = EventsFile(tmp_path)
    events.write([0, 1, 2])
    outcomes = OutcomesFile(tmp_path)
    outcomes.write([0, 1, 2])
    assert {
        "journal": _digest(journal_path),
        "store": _digest(segment),
        "events": _digest(events.path),
        "outcomes": _digest(outcomes.path),
    } == PINNED_DIGESTS
