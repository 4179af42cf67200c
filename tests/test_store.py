"""repro.store: lifecycle, ingest, queries, alerting, and retention.

Exercises the historical RCA store end to end over hand-built
outcomes (no simulation needed): segment + index layout, time-range
rollups and movers, reindex-from-segments recovery, partition
retention, declarative alert rules with firing/resolved transitions,
incident reports, and the mixed-schema-version ingest semantics that
mirror ``fleet-report`` (tolerant skip-and-count on damage, a clear
versioned diagnostic on major drift).
"""

import json
import math
import os

import pytest

from repro import obs
from repro.cli import main
from repro.errors import (
    ConfigError,
    SchemaError,
    SchemaVersionError,
    TelemetryError,
)
from repro.fleet.executor import SessionOutcome, save_outcomes
from repro.live.aggregator import FleetSnapshot
from repro.store import (
    ALERT_FIRING,
    ALERT_RESOLVED,
    ROWS_METRIC,
    STORE_LAYOUT_VERSION,
    AlertEngine,
    AlertEvent,
    AlertRule,
    MetricSample,
    RcaStore,
    StoreQuery,
    load_rules,
    render_alerts_pane,
    render_incident_report,
)

CHAIN_PUSH = (
    "dl_harq_retx --> dl_delay_up --> local_pushback_rate_down"
)
CHAIN_JITTER = (
    "ul_harq_retx --> ul_delay_up --> remote_jitter_buffer_drain"
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.get_registry().reset()
    yield
    obs.get_registry().reset()


def _outcome(
    scenario="s",
    profile="tmobile_fdd",
    impairment="none",
    duration_s=600.0,
    chain_counts=None,
    cause_counts=None,
    degradation=1.0,
    qoe=None,
):
    return SessionOutcome(
        scenario=scenario,
        profile=profile,
        impairment=impairment,
        seed=0,
        duration_s=duration_s,
        n_windows=100,
        n_detected_windows=10,
        degradation_events_per_min=degradation,
        chain_counts=chain_counts or {},
        cause_counts=cause_counts or {},
        consequence_counts={},
        qoe=qoe or {"ul_delay_p50_ms": 20.0},
        event_rates={},
    )


def _snapshot(seq, total_minutes, chain_totals):
    return FleetSnapshot(
        seq=seq,
        wall_s=float(seq),
        n_sessions=4,
        n_running=4,
        n_done=0,
        n_evicted=0,
        n_failed=0,
        total_minutes=total_minutes,
        windows=10 * seq,
        detected_windows=seq,
        lag_events=0,
        degradation_events_per_min=0.5,
        chain_totals=chain_totals,
    )


@pytest.fixture()
def store(tmp_path):
    with RcaStore.open(
        str(tmp_path / "store"), partition_s=1000.0
    ) as opened:
        yield opened


def _seed_two_windows(store):
    """Quiet window at t=500, pushback surge at t=1500."""
    store.ingest_outcomes(
        [
            _outcome(
                "quiet",
                chain_counts={CHAIN_PUSH: 1, CHAIN_JITTER: 2},
                cause_counts={"HARQ ReTX": 3.0},
                qoe={"ul_delay_p50_ms": 20.0},
            )
        ],
        ts=500.0,
    )
    store.ingest_outcomes(
        [
            _outcome(
                "surge",
                impairment="ul_fade",
                chain_counts={CHAIN_PUSH: 50, CHAIN_JITTER: 2},
                cause_counts={"HARQ ReTX": 52.0},
                degradation=6.0,
                qoe={"ul_delay_p50_ms": 80.0},
            )
        ],
        ts=1500.0,
    )


# -- lifecycle -------------------------------------------------------------


class TestLifecycle:
    def test_open_creates_manifest_and_reopens(self, tmp_path):
        root = str(tmp_path / "store")
        with RcaStore.open(root) as store:
            assert store.manifest.layout == STORE_LAYOUT_VERSION
        with open(os.path.join(root, "manifest.json")) as handle:
            data = json.load(handle)
        assert data["layout"] == STORE_LAYOUT_VERSION
        with RcaStore.open(root, create=False) as store:
            assert store.rows_total()["outcomes"] == 0

    def test_open_missing_without_create_raises(self, tmp_path):
        with pytest.raises(TelemetryError, match="not a store"):
            RcaStore.open(str(tmp_path / "nope"), create=False)

    def test_foreign_layout_raises_versioned_diagnostic(self, tmp_path):
        root = str(tmp_path / "store")
        RcaStore.open(root).close()
        manifest_path = os.path.join(root, "manifest.json")
        with open(manifest_path) as handle:
            data = json.load(handle)
        data["layout"] = 99
        with open(manifest_path, "w") as handle:
            json.dump(data, handle)
        with pytest.raises(SchemaVersionError, match="99"):
            RcaStore.open(root)

    def test_partition_assignment_follows_manifest(self, store):
        assert store.partition_of(500.0) == 0
        assert store.partition_of(1500.0) == 1
        assert store.partition_of(999.999) == 0


# -- ingest + query --------------------------------------------------------


class TestIngestAndQuery:
    def test_outcome_counts_and_minutes(self, store):
        _seed_two_windows(store)
        query = StoreQuery(store)
        assert query.outcome_count() == 2
        assert query.outcome_count(0.0, 1000.0) == 1
        assert query.outcome_count(impairment="ul_fade") == 1
        assert query.outcome_minutes(1000.0, 2000.0) == pytest.approx(10.0)

    def test_rollup_episode_rates_per_observed_minute(self, store):
        _seed_two_windows(store)
        query = StoreQuery(store)
        rows = query.rollup_episodes(
            "chain", since=1000.0, until=2000.0
        )
        # 600 s of telemetry = 10 observed minutes in the surge window.
        assert rows[0]["name"] == CHAIN_PUSH
        assert rows[0]["episodes_per_min"] == pytest.approx(5.0)
        matched = query.rollup_episodes(
            "chain", match="*local_pushback_rate_down"
        )
        assert [row["name"] for row in matched] == [CHAIN_PUSH]
        assert matched[0]["episodes"] == pytest.approx(51.0)

    def test_rollup_outcomes_by_impairment(self, store):
        _seed_two_windows(store)
        rows = StoreQuery(store).rollup_outcomes("impairment")
        by_name = {row["name"]: row for row in rows}
        assert by_name["ul_fade"]["outcomes"] == 1
        assert by_name["ul_fade"]["minutes"] == pytest.approx(10.0)
        assert by_name["none"]["detected_frac"] == pytest.approx(0.1)

    def test_rollup_outcomes_rejects_unknown_grouping(self, store):
        with pytest.raises(ValueError, match="group_by"):
            StoreQuery(store).rollup_outcomes("seed")

    def test_episode_rate_series_zero_fills_gaps(self, store):
        _seed_two_windows(store)
        series = StoreQuery(store).episode_rate_series(
            CHAIN_PUSH, bucket_s=1000.0, since=0.0, until=4000.0
        )
        assert [ts for ts, _ in series] == [0.0, 1000.0, 2000.0, 3000.0]
        assert [rate for _, rate in series] == pytest.approx(
            [0.1, 5.0, 0.0, 0.0]
        )

    def test_qoe_trend_percentiles(self, store):
        _seed_two_windows(store)
        trend = StoreQuery(store).qoe_trend(
            "ul_delay_p50_ms", bucket_s=1000.0, since=0.0, until=2000.0
        )
        assert trend[0]["p50"] == pytest.approx(20.0)
        assert trend[1]["p50"] == pytest.approx(80.0)
        assert math.isnan(
            StoreQuery(store).qoe_trend(
                "absent_metric", bucket_s=1000.0, since=0.0, until=1000.0
            )[0]["p50"]
        )

    def test_top_movers_ranks_by_absolute_delta(self, store):
        _seed_two_windows(store)
        movers = StoreQuery(store).top_movers(
            "chain", window_a=(0.0, 1000.0), window_b=(1000.0, 2000.0)
        )
        assert movers[0]["name"] == CHAIN_PUSH
        assert movers[0]["delta"] == pytest.approx(5.0 - 0.1)
        # The jitter chain held steady at 0.2/min: smallest mover.
        assert movers[-1]["name"] == CHAIN_JITTER
        assert movers[-1]["delta"] == pytest.approx(0.0)

    def test_snapshot_ingest_indexes_chain_totals(self, store):
        store.ingest_snapshot(
            _snapshot(7, 12.0, {CHAIN_PUSH: 9}), ts=500.0
        )
        rows = store.rows_total()
        assert rows["snapshots"] == 1
        assert rows["snapshot_chains"] == 1

    def test_prom_text_ingest_and_metric_series(self, store):
        registry = obs.MetricsRegistry()
        registry.gauge("repro_workers", help="W.").set(3, role="sim")
        n = store.ingest_prom_text(registry.render_prom(), ts=500.0)
        assert n == 1
        series = StoreQuery(store).metric_series("repro_workers")
        assert series == [(500.0, 3.0)]

    def test_rows_metric_counts_index_inserts(self, store):
        _seed_two_windows(store)
        counter = obs.get_registry().counter(ROWS_METRIC)
        assert counter.value(table="outcomes") == 2
        # 2 chains + 1 cause per outcome land as episode rows.
        assert counter.value(table="episodes") == 6
        assert counter.value(table="qoe_samples") == 2


# -- reindex + retention ---------------------------------------------------


class TestReindexAndRetention:
    def test_reindex_rebuilds_identical_index(self, store):
        _seed_two_windows(store)
        store.ingest_snapshot(_snapshot(1, 5.0, {CHAIN_PUSH: 2}), ts=600.0)
        store.ingest_metric_samples(
            [MetricSample(ts=700.0, name="m", value=1.0)]
        )
        before = store.rows_total()
        counts = store.reindex()
        assert counts == {
            "outcomes": 2,
            "snapshots": 1,
            "metrics": 1,
            "alerts": 0,
            "trace_spans": 0,
        }
        assert store.rows_total() == before
        # Queries answer identically from the rebuilt index.
        assert StoreQuery(store).outcome_count() == 2

    def test_failing_item_leaves_no_line_and_no_rows(self, store):
        """An outcome the index rejects (a count too large for a float)
        leaves neither a segment line nor rows: the item before it
        commits, its error propagates, and the segments still
        reindex."""
        bad = _outcome("bad", chain_counts={CHAIN_JITTER: 10**400})
        with pytest.raises(OverflowError):
            store.ingest_outcomes([_outcome("good"), bad], ts=500.0)
        store.ingest_outcomes([_outcome("later")], ts=500.0)
        path = os.path.join(store.root, "segments", "p0", "outcomes.jsonl")
        with open(path) as handle:
            lines = [json.loads(line)["data"]["scenario"] for line in handle]
        assert lines == ["good", "later"]
        before = store.rows_total()
        assert before["outcomes"] == before["qoe_samples"] == 2
        assert store.reindex()["outcomes"] == 2
        assert store.rows_total() == before

    def test_reindex_rejects_foreign_envelope_version(self, store):
        """A foreign envelope fails the reindex, and the reindex is one
        transaction: the persisted index stays as it was."""
        _seed_two_windows(store)
        before = store.rows_total()
        path = os.path.join(
            store.root, "segments", "p0", "outcomes.jsonl"
        )
        with open(path, "a") as handle:
            handle.write(
                json.dumps(
                    {"kind": "session_outcome", "v": 99, "ts": 1, "data": {}}
                )
                + "\n"
            )
        with pytest.raises(SchemaVersionError, match="99"):
            store.reindex()
        assert store.rows_total() == before
        store.close()
        with RcaStore.open(store.root, create=False) as reopened:
            assert reopened.rows_total() == before
            assert before["outcomes"] == 2

    def test_compact_by_age_drops_whole_partitions(self, store):
        _seed_two_windows(store)
        summary = store.compact(max_age_s=1000.0, now=2500.0)
        assert summary["partitions_removed"] == 1
        assert summary["bytes_removed"] > 0
        query = StoreQuery(store)
        assert query.outcome_count() == 1
        assert query.rollup_episodes("chain")[0]["name"] == CHAIN_PUSH

    def test_compact_by_bytes_keeps_newest_partition(self, store):
        _seed_two_windows(store)
        summary = store.compact(max_bytes=0, now=2500.0)
        assert summary["partitions_removed"] == 1
        assert StoreQuery(store).outcome_count() == 1
        assert store.size_bytes() > 0  # the newest partition survives


# -- mixed-schema ingest (fleet-report semantics) --------------------------


class TestMixedSchemaIngest:
    def _write_outcomes(self, tmp_path, name="outcomes.jsonl"):
        path = str(tmp_path / name)
        save_outcomes(
            [_outcome("a"), _outcome("b", impairment="ul_fade")], path
        )
        return path

    def test_tolerant_ingest_skips_and_counts_damage(self, store, tmp_path):
        path = self._write_outcomes(tmp_path)
        with open(path) as handle:
            header, first, second = handle.read().splitlines()
        header = json.loads(header)
        header["n_outcomes"] = 4  # promise more than survives
        damaged = str(tmp_path / "damaged.jsonl")
        with open(damaged, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write(first + "\n")
            handle.write('{"not": "an outcome"}\n')
            handle.write(second[: len(second) // 2] + "\n")  # truncated
        stats = store.ingest_outcomes_file(damaged, ts=500.0, tolerant=True)
        assert stats["ingested"] == 1
        assert stats["skipped_lines"] == 2
        assert stats["missing_outcomes"] == 3
        assert StoreQuery(store).outcome_count() == 1

    def test_strict_ingest_raises_on_first_damage(self, store, tmp_path):
        path = self._write_outcomes(tmp_path)
        with open(path, "a") as handle:
            handle.write("{broken json\n")
        with pytest.raises(TelemetryError, match="invalid JSON"):
            store.ingest_outcomes_file(path, ts=500.0, tolerant=False)

    def test_major_version_raises_even_tolerant(self, store, tmp_path):
        path = self._write_outcomes(tmp_path)
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        foreign = str(tmp_path / "foreign.jsonl")
        with open(foreign, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for line in lines[1:]:
                handle.write(line + "\n")
        for tolerant in (True, False):
            with pytest.raises(SchemaVersionError, match="99"):
                store.ingest_outcomes_file(
                    foreign, ts=500.0, tolerant=tolerant
                )

    def test_cli_ingest_exits_1_on_major_version(self, tmp_path):
        path = self._write_outcomes(tmp_path)
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for line in lines[1:]:
                handle.write(line + "\n")
        code = main(["store", "ingest", str(tmp_path / "st"), path])
        assert code == 1

    def test_cli_ingest_reports_tolerant_counts(self, tmp_path, capsys):
        path = self._write_outcomes(tmp_path)
        with open(path, "a") as handle:
            handle.write("{broken json\n")
        code = main(
            ["store", "ingest", str(tmp_path / "st"), path, "--at", "500"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ingested 2 outcome(s)" in out
        assert "skipped 1 line(s)" in out

    def _write_non_numeric_qoe(self, tmp_path):
        """An outcomes file whose second outcome has ``"qoe": {"x":
        "slow"}``."""
        path = self._write_outcomes(tmp_path)
        header, first, second = open(path).read().splitlines()
        bad = json.loads(second)
        bad["qoe"] = {"x": "slow"}
        with open(path, "w") as handle:
            handle.write(f"{header}\n{first}\n{json.dumps(bad)}\n")
        return path

    def test_save_refuses_non_numeric_map_values(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        with pytest.raises(SchemaError, match=r"session_outcome\.qoe\['x'\]"):
            save_outcomes([_outcome(qoe={"x": "slow"})], path)
        assert not os.path.exists(path)

    def test_non_numeric_map_value_never_reaches_the_index(
        self, store, tmp_path
    ):
        with pytest.raises(SchemaError, match="qoe"):
            store.ingest_outcomes([_outcome(qoe={"x": "slow"})], ts=500.0)
        path = self._write_non_numeric_qoe(tmp_path)
        stats = store.ingest_outcomes_file(path, ts=500.0, tolerant=True)
        assert stats == {
            "ingested": 1,
            "skipped_lines": 1,
            "missing_outcomes": 1,
        }
        assert StoreQuery(store).outcome_count() == 1
        with pytest.raises(TelemetryError, match="qoe"):
            store.ingest_outcomes_file(path, ts=500.0, tolerant=False)

    def test_cli_ingest_of_non_numeric_map_value(self, tmp_path, capsys):
        path = self._write_non_numeric_qoe(tmp_path)
        store_dir = str(tmp_path / "st")
        assert main(["store", "ingest", store_dir, path, "--at", "500"]) == 0
        assert "skipped 1 line(s)" in capsys.readouterr().out
        assert main(["store", "ingest", store_dir, path, "--strict"]) == 1

    def test_cli_ingest_with_nothing_to_do_exits_2(self, tmp_path):
        assert main(["store", "ingest", str(tmp_path / "st")]) == 2


# -- alert rules -----------------------------------------------------------


RULES_TOML = f"""
[[rule]]
name = "pushback-surge"
signal = "chain_rate"
match = "*local_pushback_rate_down"
threshold = 1.0
window_s = 1000.0
severity = "page"

[[rule]]
name = "never-fires"
signal = "chain_rate"
match = "no_such_chain*"
threshold = 0.5
window_s = 1000.0
"""


class TestAlertRules:
    def test_load_rules_toml(self, tmp_path):
        path = tmp_path / "rules.toml"
        path.write_text(RULES_TOML)
        rules = load_rules(str(path))
        assert [rule.name for rule in rules] == [
            "pushback-surge",
            "never-fires",
        ]
        assert rules[0].severity == "page"

    def test_load_rules_json(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(
            json.dumps(
                {
                    "rule": [
                        {
                            "name": "r",
                            "signal": "qoe",
                            "match": "ul_delay_p50_ms",
                            "threshold": 50.0,
                        }
                    ]
                }
            )
        )
        (rule,) = load_rules(str(path))
        assert rule.signal == "qoe"
        assert rule.window_s == 3600.0  # default

    @pytest.mark.parametrize(
        "body,match",
        [
            ("", "no \\[\\[rule\\]\\] entries"),
            (
                '[[rule]]\nname = "r"\nsignal = "chain_rate"\n'
                'threshold = 1.0\nfrobnicate = true\n',
                "unknown fields: frobnicate",
            ),
            ('[[rule]]\nname = "r"\nsignal = "chain_rate"\n', "needs name"),
            (
                '[[rule]]\nname = "r"\nsignal = "chain_rate"\n'
                'threshold = 1.0\n[[rule]]\nname = "r"\n'
                'signal = "chain_rate"\nthreshold = 2.0\n',
                "duplicate rule name",
            ),
            ("not [ valid toml", "undecodable TOML"),
        ],
    )
    def test_load_rules_diagnostics(self, tmp_path, body, match):
        path = tmp_path / "rules.toml"
        path.write_text(body)
        with pytest.raises(ConfigError, match=match):
            load_rules(str(path))

    def test_rule_validation(self):
        with pytest.raises(ConfigError, match="unknown signal"):
            AlertRule(name="r", signal="vibes", threshold=1.0)
        with pytest.raises(ConfigError, match="unknown kind"):
            AlertRule(
                name="r", signal="qoe", threshold=1.0, kind="spline"
            )
        with pytest.raises(ConfigError, match="window_s"):
            AlertRule(
                name="r", signal="qoe", threshold=1.0, window_s=0.0
            )

    def test_crossed_directions_and_nan(self):
        above = AlertRule(name="a", signal="qoe", threshold=1.0)
        below = AlertRule(
            name="b", signal="qoe", threshold=1.0, direction="below"
        )
        assert above.crossed(2.0) and not above.crossed(0.5)
        assert below.crossed(0.5) and not below.crossed(2.0)
        assert not above.crossed(math.nan)  # no data never alarms


# -- alert engine ----------------------------------------------------------


class TestAlertEngine:
    def _rules(self, tmp_path):
        path = tmp_path / "rules.toml"
        path.write_text(RULES_TOML)
        return load_rules(str(path))

    def test_threshold_fires_and_resolves(self, store, tmp_path):
        _seed_two_windows(store)
        store.ingest_outcomes(
            [_outcome("calm", chain_counts={CHAIN_PUSH: 1})], ts=2500.0
        )
        engine = AlertEngine(self._rules(tmp_path), store=store)
        events = engine.evaluate_range(
            StoreQuery(store), since=0.0, until=3000.0, step_s=1000.0
        )
        assert [(e.rule, e.state) for e in events] == [
            ("pushback-surge", ALERT_FIRING),
            ("pushback-surge", ALERT_RESOLVED),
        ]
        assert events[0].ts == pytest.approx(2000.0)
        assert events[0].value == pytest.approx(5.0)
        assert engine.firing == []
        # The decoy rule matching no chain stayed silent throughout.
        assert all(e.rule != "never-fires" for e in events)

    def test_transitions_only_no_reemission(self, store, tmp_path):
        _seed_two_windows(store)
        store.ingest_outcomes(
            [_outcome("surge2", chain_counts={CHAIN_PUSH: 50})], ts=2500.0
        )
        engine = AlertEngine(self._rules(tmp_path))
        events = engine.evaluate_range(
            StoreQuery(store), since=0.0, until=3000.0, step_s=1000.0
        )
        # Two consecutive hot windows emit exactly one firing event.
        assert [(e.rule, e.state) for e in events] == [
            ("pushback-surge", ALERT_FIRING)
        ]
        assert engine.firing == ["pushback-surge"]

    def test_firing_gauge_tracks_state(self, store, tmp_path):
        _seed_two_windows(store)
        engine = AlertEngine(self._rules(tmp_path))
        gauge = obs.get_registry().gauge("repro_alerts_firing")
        assert gauge.value(rule="pushback-surge") == 0.0
        engine.evaluate_range(
            StoreQuery(store), since=0.0, until=2000.0, step_s=1000.0
        )
        assert gauge.value(rule="pushback-surge") == 1.0
        assert gauge.value(rule="never-fires") == 0.0

    def test_trend_rule_needs_baseline(self, store, tmp_path):
        _seed_two_windows(store)
        rule = AlertRule(
            name="push-trend",
            signal="chain_rate",
            match="*local_pushback_rate_down",
            threshold=3.0,
            kind="trend",
            window_s=1000.0,
        )
        engine = AlertEngine([rule])
        events = engine.evaluate_range(
            StoreQuery(store), since=0.0, until=2000.0, step_s=1000.0
        )
        # At t=1000 there is no preceding window (NaN, silent); at
        # t=2000 the rate grew 0.1 -> 5.0, a 50x trend: fires.
        assert [(e.rule, e.state) for e in events] == [
            ("push-trend", ALERT_FIRING)
        ]
        assert events[0].value == pytest.approx(50.0)

    def test_recorded_transitions_round_trip(self, store, tmp_path):
        _seed_two_windows(store)
        engine = AlertEngine(self._rules(tmp_path), store=store)
        engine.evaluate_range(
            StoreQuery(store), since=0.0, until=2000.0, step_s=1000.0
        )
        recorded = StoreQuery(store).alerts(rule="pushback-surge")
        assert len(recorded) == 1
        event = recorded[0]
        assert event.state == ALERT_FIRING
        assert event.window_s == pytest.approx(1000.0)
        assert event.labels["match"] == "*local_pushback_rate_down"
        # Reindex rebuilds the alert from its segment envelope too.
        store.reindex()
        assert StoreQuery(store).alerts(rule="pushback-surge") == recorded

    def test_observe_snapshot_live_differences_totals(self, tmp_path):
        rule = AlertRule(
            name="live-push",
            signal="chain_rate",
            match="*local_pushback_rate_down",
            threshold=1.0,
            window_s=100.0,
        )
        engine = AlertEngine([rule])
        events = []
        # Cumulative totals: a burst of 10 episodes over 2 telemetry
        # minutes, then nothing while minutes keep accruing.
        frames = [
            (0.0, _snapshot(0, 0.0, {CHAIN_PUSH: 0})),
            (50.0, _snapshot(1, 2.0, {CHAIN_PUSH: 10})),
            (100.0, _snapshot(2, 12.0, {CHAIN_PUSH: 10})),
            (150.0, _snapshot(3, 22.0, {CHAIN_PUSH: 10})),
        ]
        for ts, snapshot in frames:
            events += engine.observe_snapshot(snapshot, ts=ts)
        # Fires at t=50 (10 episodes / 2 min = 5/min); resolves at
        # t=100 once the window's minutes dilute the burst (10/12).
        assert [(e.state, e.ts) for e in events] == [
            (ALERT_FIRING, 50.0),
            (ALERT_RESOLVED, 100.0),
        ]
        assert events[0].value == pytest.approx(5.0)


# -- reports ---------------------------------------------------------------


class TestReports:
    def test_incident_report_contains_context(self, store, tmp_path):
        _seed_two_windows(store)
        path = tmp_path / "rules.toml"
        path.write_text(RULES_TOML)
        engine = AlertEngine(load_rules(str(path)), store=store)
        (event,) = engine.evaluate_range(
            StoreQuery(store), since=0.0, until=2000.0, step_s=1000.0
        )
        report = render_incident_report(event, StoreQuery(store))
        assert "# Incident: `pushback-surge` firing" in report
        assert "page" in report
        assert CHAIN_PUSH in report
        assert "ul_fade" in report
        assert "## Triggering series" in report  # the sparkline line

    def test_incident_report_degrades_without_query(self):
        event = AlertEvent(
            rule="r",
            state=ALERT_FIRING,
            ts=100.0,
            signal="qoe",
            value=2.0,
            threshold=1.0,
            window_s=60.0,
        )
        report = render_incident_report(event)
        assert "# Incident: `r` firing" in report

    def test_alerts_pane_lists_firing_rules(self):
        pane = render_alerts_pane(
            ["pushback-surge"],
            [],
        )
        assert "pushback-surge" in pane

    def test_alerts_pane_lists_recent_transitions(self):
        recent = [
            AlertEvent(
                rule=f"r{i}",
                state=ALERT_FIRING,
                ts=float(i),
                signal="qoe",
                value=2.0,
                threshold=1.0,
                window_s=60.0,
                message=f"crossed {i}",
            )
            for i in range(6)
        ]
        pane = render_alerts_pane([], recent, max_rows=2)
        assert pane.splitlines() == [
            "Alerts: none firing",
            "  [1970-01-01 00:00:04Z] r4 firing: crossed 4",
            "  [1970-01-01 00:00:05Z] r5 firing: crossed 5",
        ]


# -- CLI surface -----------------------------------------------------------


class TestStoreCli:
    @pytest.fixture()
    def populated(self, tmp_path, capsys):
        """A store dir built entirely through the CLI: two campaigns."""
        store_dir = str(tmp_path / "store")
        quiet = str(tmp_path / "quiet.jsonl")
        surge = str(tmp_path / "surge.jsonl")
        save_outcomes(
            [_outcome("quiet", chain_counts={CHAIN_PUSH: 1})], quiet
        )
        save_outcomes(
            [
                _outcome(
                    "surge",
                    impairment="ul_fade",
                    chain_counts={CHAIN_PUSH: 50},
                )
            ],
            surge,
        )
        assert main(
            ["store", "ingest", store_dir, quiet, "--at", "500"]
        ) == 0
        assert main(
            ["store", "ingest", store_dir, surge, "--at", "1500"]
        ) == 0
        capsys.readouterr()
        return store_dir

    def test_query_totals(self, populated, capsys):
        assert main(["store", "query", populated, "totals"]) == 0
        out = capsys.readouterr().out
        assert "outcomes" in out

    def test_query_rollup_json(self, populated, capsys):
        assert (
            main(["store", "query", populated, "rollup", "--json"]) == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["name"] == CHAIN_PUSH
        assert rows[0]["episodes"] == pytest.approx(51.0)

    def test_query_movers_split(self, populated, capsys):
        assert (
            main(
                [
                    "store",
                    "query",
                    populated,
                    "movers",
                    "--split",
                    "1000",
                    "--json",
                ]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["name"] == CHAIN_PUSH
        assert rows[0]["delta"] > 0

    def test_query_on_missing_store_exits_1(self, tmp_path):
        assert (
            main(["store", "query", str(tmp_path / "nope"), "totals"]) == 1
        )

    def test_alerts_evaluate_record_report(
        self, populated, tmp_path, capsys
    ):
        rules = tmp_path / "rules.toml"
        rules.write_text(RULES_TOML)
        code = main(
            [
                "store",
                "alerts",
                populated,
                "--rules",
                str(rules),
                "--since",
                "500",
                "--until",
                "2500",
                "--step",
                "1000",
                "--record",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pushback-surge firing" in out
        assert "firing at end: pushback-surge" in out
        # Recorded transitions list without a rule file.
        assert main(["store", "alerts", populated]) == 0
        assert "pushback-surge" in capsys.readouterr().out
        # And render the incident report for the recorded alert.
        report_path = str(tmp_path / "incident.md")
        code = main(
            [
                "store",
                "report",
                populated,
                "--rule",
                "pushback-surge",
                "--out",
                report_path,
            ]
        )
        assert code == 0
        report = open(report_path).read()
        assert "# Incident: `pushback-surge` firing" in report

    def test_recorded_alerts_are_the_evaluated_events(
        self, populated, tmp_path
    ):
        """`store alerts --record` stores the events evaluate_range
        returns, and StoreQuery.alerts() gives those same AlertEvents
        back, before and after a reindex."""
        rules = tmp_path / "rules.toml"
        rules.write_text(RULES_TOML)
        window = ["--since", "500", "--until", "2500", "--step", "1000"]
        assert main(
            ["store", "alerts", populated, "--rules", str(rules), *window,
             "--record"]
        ) == 0
        with RcaStore.open(populated, create=False) as store:
            events = AlertEngine(load_rules(str(rules))).evaluate_range(
                StoreQuery(store), since=500.0, until=2500.0, step_s=1000.0
            )
            assert [e.rule for e in events] == ["pushback-surge"]
            assert StoreQuery(store).alerts() == events
            store.reindex()
            assert StoreQuery(store).alerts() == events

    def test_watch_rules_pane_lists_the_transition(self, tmp_path, capsys):
        from repro.schema import save_snapshot

        snap = str(tmp_path / "snap.json")
        save_snapshot(_snapshot(1, 2.0, {CHAIN_PUSH: 3}), snap)
        rules = tmp_path / "rules.toml"
        rules.write_text(
            '[[rule]]\nname = "degraded"\nsignal = "degradation_rate"\n'
            'match = "*"\nthreshold = 0.25\nwindow_s = 60.0\n'
        )
        assert main(["watch", snap, "--rules", str(rules)]) == 0
        out = capsys.readouterr().out
        assert "Alerts: 1 FIRING — degraded" in out
        pane_row = "] degraded firing: degraded: degradation_rate[*] = 0.5 >"
        assert pane_row in out

    def test_report_without_recorded_alert_exits_1(self, populated):
        assert main(["store", "report", populated]) == 1

    def test_reindex_of_a_foreign_segment_exits_1(self, populated, capsys):
        """A segment reindex cannot decode ends the command with exit 1
        and one message, and leaves the index as it was."""
        with RcaStore.open(populated, create=False) as store:
            before = store.rows_total()
            (segment,) = [
                os.path.join(pdir, "outcomes.jsonl")
                for _pid, pdir in store._partitions()
            ]
        with open(segment, "a") as handle:
            handle.write('{"kind": "session_outcome", "v": 99, "data": {}}\n')
        assert main(["store", "reindex", populated]) == 1
        err = capsys.readouterr().err
        assert "schema version 99" in err
        assert "Traceback" not in err
        with RcaStore.open(populated, create=False) as store:
            assert store.rows_total() == before

    def test_reindex_and_compact(self, populated, tmp_path, capsys):
        assert main(["store", "reindex", populated]) == 0
        assert "reindexed 2 outcome(s)" in capsys.readouterr().out
        # Both campaigns landed in the default day-wide partition; add
        # one in the next partition so retention has something to keep.
        late = str(tmp_path / "late.jsonl")
        save_outcomes(
            [_outcome("late", chain_counts={CHAIN_PUSH: 7})], late
        )
        assert main(
            ["store", "ingest", populated, late, "--at", "90000"]
        ) == 0
        capsys.readouterr()
        assert (
            main(["store", "compact", populated, "--max-bytes", "0"]) == 0
        )
        assert "removed 1 partition(s)" in capsys.readouterr().out
        assert main(["store", "query", populated, "rollup", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["episodes"] == pytest.approx(7.0)

    def test_fleet_store_tee_matches_outcome_file(self, tmp_path, capsys):
        """--store tees the campaign without touching the outcome file."""
        out_teed = str(tmp_path / "teed.jsonl")
        out_plain = str(tmp_path / "plain.jsonl")
        store_dir = str(tmp_path / "store")
        # A shared cache keeps the second campaign from re-simulating;
        # the written outcome files must still match byte for byte.
        base = [
            "fleet",
            "--preset",
            "smoke",
            "--workers",
            "2",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(
            base
            + ["--out", out_teed, "--store", store_dir, "--store-at", "500"]
        ) == 0
        assert main(base + ["--out", out_plain]) == 0
        # Byte-identical detections with the tee on or off.
        assert open(out_teed).read() == open(out_plain).read()
        with RcaStore.open(store_dir, create=False) as store:
            n = StoreQuery(store).outcome_count()
        with open(out_plain) as handle:
            header = json.loads(handle.readline())
        assert n == header["n_outcomes"]
