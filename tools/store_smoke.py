#!/usr/bin/env python3
"""CI gate for the historical store + alert plane (exit 1 on failure).

Two end-to-end assertions nothing unit-sized can cover:

1. **The store and the exposition are truthful.** A real fleet
   campaign run through the CLI with ``--store`` and
   ``--metrics-file`` must leave a Prometheus snapshot whose
   ``repro_scenarios_completed_total`` equals the outcomes file's
   count and the store's, and whose ``repro_windows_analyzed_total``
   equals the outcomes' summed ``n_windows``.  That the tee leaves
   the outcomes file byte-identical is tier-1's
   ``test_fleet_store_tee_matches_outcome_file`` (tests/test_store.py).
2. **Alerting is deterministic.** A seeded uplink-fade degradation
   campaign must fire exactly the pushback-chain rule — calibrated to
   the midpoint between the smoke window's measured rate and the
   degraded window's — while the smoke window itself and a decoy rule
   stay silent; the recorded transition must render an incident
   report.

That top-k movers over a 100-scenario store answer in under 100 ms is
the ``store_movers`` row of ``benchmarks/check_perf.py``.

Run from the repository root: ``PYTHONPATH=src python
tools/store_smoke.py``.
"""

import sys
import tempfile

from repro import api, obs
from repro.cli import main as cli_main
from repro.fleet.executor import load_outcomes
from repro.fleet.scenarios import ImpairmentSpec, ScenarioMatrix
from repro.store import StoreQuery, render_incident_report

#: Disjoint 1 h comparison windows: [W, 2W) holds the smoke
#: campaign, [2W, 3W) the seeded degradation campaign.
WINDOW_S = 3600.0
TS_SMOKE = 1.5 * WINDOW_S
TS_DEGRADED = 2.5 * WINDOW_S

#: Every chain terminating in a remote pushback consequence — the
#: far end throttling because our uplink degraded, which is exactly
#: what seeded uplink fades drive hardest.
PUSHBACK_GLOB = "*remote_pushback_rate_down"

#: Heavier, longer uplink fades than the smoke preset's ul_fade —
#: the "seeded degradation" arm of the alert calibration.
DEGRADED = ScenarioMatrix(
    name="store_smoke_degraded",
    profiles=("tmobile_fdd", "amarisoft"),
    durations_s=(12.0,),
    impairments=(
        ImpairmentSpec(
            name="ul_fade_heavy",
            ul_fades=((2.0, 2.0, 25.0), (5.5, 2.0, 25.0), (9.0, 2.0, 25.0)),
        ),
    ),
)


def run_campaign(tmp: str) -> list:
    """One campaign with the store tee and the metrics file: check 1."""
    metrics_path = f"{tmp}/metrics.prom"
    outcomes_path = f"{tmp}/outcomes.jsonl"
    obs.get_registry().reset()
    status = cli_main(
        [
            "--metrics-file",
            metrics_path,
            "fleet",
            "--preset",
            "smoke",
            "--workers",
            "2",
            "--no-cache",
            "--out",
            outcomes_path,
            "--store",
            f"{tmp}/store",
            "--store-at",
            str(TS_SMOKE),
        ]
    )
    if status != 0:
        return [f"fleet --store campaign exited {status}"]
    outcomes = load_outcomes(outcomes_path)
    with open(metrics_path) as fh:
        parsed = obs.parse_prom(fh.read())
    with api.store_open(f"{tmp}/store", create=False) as store:
        stored = StoreQuery(store).outcome_count(WINDOW_S, 2 * WINDOW_S)
    failures = []
    scenarios = parsed.get("repro_scenarios_completed_total")
    if not scenarios == len(outcomes) == stored:
        failures.append(
            f"repro_scenarios_completed_total={scenarios}, but the "
            f"outcomes file holds {len(outcomes)} and the store indexed "
            f"{stored}"
        )
    windows = parsed.get("repro_windows_analyzed_total")
    if windows != sum(o.n_windows for o in outcomes):
        failures.append(
            f"repro_windows_analyzed_total={windows}, but the outcomes "
            f"sum to {sum(o.n_windows for o in outcomes)} windows"
        )
    return failures


def check_alerts(tmp: str) -> list:
    """Seeded degradation fires exactly one calibrated rule: check 2."""
    failures = []
    degraded = api.campaign(DEGRADED, cache_dir=f"{tmp}/cache")
    store = api.store_open(f"{tmp}/store", create=False)
    try:
        store.ingest_outcomes(degraded, ts=TS_DEGRADED)
        query = api.store_query(store)
        rate = {}
        for label, lo in (("smoke", WINDOW_S), ("degraded", 2 * WINDOW_S)):
            rows = query.rollup_episodes(
                "chain",
                since=lo,
                until=lo + WINDOW_S,
                match=PUSHBACK_GLOB,
            )
            rate[label] = sum(row["episodes_per_min"] for row in rows)
        print(
            f"pushback chain rate: smoke {rate['smoke']:.3f}/min, "
            f"degraded {rate['degraded']:.3f}/min"
        )
        if rate["degraded"] <= rate["smoke"]:
            return [
                f"seeded degradation did not raise the pushback rate "
                f"({rate['degraded']:.3f} <= {rate['smoke']:.3f}/min) — "
                f"cannot calibrate the alert threshold"
            ]
        threshold = (rate["smoke"] + rate["degraded"]) / 2.0
        rules_path = f"{tmp}/rules.toml"
        with open(rules_path, "w") as fh:
            fh.write(
                f'[[rule]]\n'
                f'name = "pushback-surge"\n'
                f'signal = "chain_rate"\n'
                f'match = "{PUSHBACK_GLOB}"\n'
                f"threshold = {threshold}\n"
                f"window_s = {WINDOW_S}\n"
                f'severity = "page"\n\n'
                f'[[rule]]\n'
                f'name = "decoy-never-fires"\n'
                f'signal = "chain_rate"\n'
                f'match = "no_such_chain*"\n'
                f"threshold = 0.001\n"
                f"window_s = {WINDOW_S}\n"
            )
        engine = api.store_alerts(rules_path, store=store)
        # Evaluations at 2W (trailing window = smoke, must stay
        # silent) and 3W (trailing window = degraded, must fire).
        events = engine.evaluate_range(
            query,
            since=WINDOW_S,
            until=3 * WINDOW_S,
            step_s=WINDOW_S,
        )
        transitions = [(e.rule, e.state, e.ts) for e in events]
        if transitions != [("pushback-surge", "firing", 3 * WINDOW_S)]:
            failures.append(
                f"expected exactly [pushback-surge firing @ "
                f"{3 * WINDOW_S:.0f}] (silent on the smoke window), "
                f"got {transitions}"
            )
        if engine.firing != ["pushback-surge"]:
            failures.append(
                f"firing set at end is {engine.firing}, expected "
                f"['pushback-surge']"
            )
        recorded = query.alerts(rule="pushback-surge", state="firing")
        if not recorded:
            failures.append("firing transition was not recorded durably")
        else:
            report = render_incident_report(events[0], query)
            if "pushback-surge" not in report or "page" not in report:
                failures.append("incident report lacks the alert facts")
    finally:
        store.close()
    return failures


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        failures += run_campaign(tmp)
        if not failures:
            failures += check_alerts(tmp)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("store smoke: metric parity and calibrated alert OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
