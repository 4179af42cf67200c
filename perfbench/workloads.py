"""The benchmark's three workloads: inputs, one pass, and its outputs.

Each workload has three parts:

* :func:`build_inputs` is the set-up: it simulates and writes what a
  pass reads.  ``make_inputs.py`` runs it in a child process, so its
  time is ``setup_s`` and its memory stays out of the measured peak.
* :func:`load` reads those inputs back into a :class:`Workload`.
* :meth:`Workload.run_pass` is one repetition of the measured work;
  :meth:`Workload.canonical` turns what it returned into one canonical
  text per checked output, outside the timed region.

A pass does the same work every time for one seed, so each count a
traced pass records repeats exactly.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pickle
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import api, schema
from repro.causal.confounders import ConfounderSpec
from repro.fleet.scenarios import ImpairmentSpec, ScenarioSpec, derive_seed
from repro.live.service import canonical_detections
from repro.telemetry.io import save_bundle

DIGESTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "digests.json"
)

# -- campaign -------------------------------------------------------------

_UL_FADE = ImpairmentSpec(
    name="ul_fade", ul_fades=((4.0, 1.5, 20.0), (9.0, 1.2, 18.0))
)
_RRC_RELEASE = ImpairmentSpec(name="rrc_release", rrc_releases_s=(4.0, 9.0))
_DL_BURST = ImpairmentSpec(
    name="dl_burst", dl_bursts=((4.0, 2.0, 180), (9.0, 1.5, 140))
)

#: (profile, impairment, confounders): the four cells and the wired
#: baseline, every impairment kind, and one reactive-control confounder
#: so causal attribution runs.  Each commercial cell runs twice, so the
#: median scenario is one of theirs: their cost, set by cross traffic,
#: varies least from seed to seed, while the private cells' follows the
#: call's bitrate and would make the p50 jump between two scenarios.
CAMPAIGN_MIX = (
    ("tmobile_fdd", ImpairmentSpec(), ()),
    ("tmobile_fdd", _DL_BURST, ()),
    ("tmobile_tdd", ImpairmentSpec(), ()),
    ("tmobile_tdd", _DL_BURST, ()),
    ("amarisoft", _UL_FADE, (ConfounderSpec(axis="reactive_control"),)),
    ("mosolabs", _RRC_RELEASE, ()),
    ("wired", ImpairmentSpec(), ()),
)
CAMPAIGN_DURATION_S = 12.0

#: The store's time axis.  The first half of a pass's outcomes is
#: ingested at STORE_TS[0] and the rest at STORE_TS[1], so top_movers
#: compares two real windows; pinned, so every query result repeats.
STORE_TS = (1000.0, 2000.0)

# -- analyze_jsonl --------------------------------------------------------

#: (key, profile, duration_s): two calls on a busy commercial FDD cell
#: and one on the idle private cell.  The unit-latency p50 and p90 read
#: the busy traces, whose record count varies by ~5% from seed to seed;
#: an idle trace's varies by ~20%, too much for a percentile to rest on.
ANALYZE_MIX = (
    ("busy_a", "tmobile_fdd", 12.0),
    ("busy_b", "tmobile_fdd", 12.0),
    ("idle", "amarisoft", 12.0),
)

# -- live_replay ----------------------------------------------------------

#: (key, profile, duration_s) of each replayed bundle; the lengths
#: straddle the 30 s streaming chunk.
LIVE_BUNDLES = (
    ("private_6s_a", "amarisoft", 6.0),
    ("private_6s_b", "amarisoft", 6.0),
    ("private_32s", "mosolabs", 32.0),
    ("busy_6s", "tmobile_fdd", 6.0),
)
#: Concurrent sessions per bundle: 64, mostly private-cell traces.  Of
#: a pass's ~200 advances, three quarters are a 6 s private session's,
#: so advance_p50_ms reads those, and a fifth the costliest ones, of a
#: busy-cell session, so advance_p90_ms reads those.  Two private
#: bundles halve the seed-to-seed variance of the p50.  One busy bundle
#: only: a few busy-cell bundles (1 in ~45 tried) replay to detections
#: that differ from offline analysis, and every operation must pass.
LIVE_SESSIONS = (
    ("private_6s_a", 25),
    ("private_6s_b", 24),
    ("private_32s", 1),
    ("busy_6s", 14),
)

Digests = Dict[str, str]


def digest(text: str) -> str:
    """Short, stable digest of one canonical output."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(outputs: Dict[str, str]) -> Digests:
    return {key: digest(text) for key, text in outputs.items()}


def load_digests() -> dict:
    """The committed table: ``{workload: {seed: {output key: digest}}}``."""
    if not os.path.exists(DIGESTS_PATH):
        return {}
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


def save_digests(workload: str, seed: int, entry: Digests) -> None:
    """Merge one (workload, seed) entry into the committed table."""
    table = load_digests()
    table.setdefault(workload, {})[str(seed)] = entry
    tmp = f"{DIGESTS_PATH}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, DIGESTS_PATH)


def _spec(
    seed: int,
    key: str,
    profile: str,
    duration_s: float,
    impairment: ImpairmentSpec = ImpairmentSpec(),
    confounders: tuple = (),
) -> ScenarioSpec:
    name = f"perfbench/{key}"
    return ScenarioSpec(
        name=name,
        profile=profile,
        seed=derive_seed(seed, name),
        duration_s=duration_s,
        impairment=impairment,
        confounders=confounders,
    )


def _simulate(spec: ScenarioSpec):
    return spec.build_session().run(spec.duration_us).bundle


def _offline_digest(bundle) -> str:
    return digest(canonical_detections(api.analyze(bundle).windows))


def build_inputs(workload: str, seed: int, workdir: str) -> None:
    """Simulate and write one workload's inputs under *workdir*."""
    os.makedirs(workdir, exist_ok=True)
    manifest: dict = {"workload": workload, "seed": seed}
    if workload == "campaign":
        specs = []
        for profile, impairment, confounders in CAMPAIGN_MIX:
            key = "/".join(
                ("campaign", profile, impairment.name)
                + tuple(c.axis for c in confounders)
            )
            specs.append(
                _spec(seed, key, profile, CAMPAIGN_DURATION_S, impairment,
                      confounders)
            )
        manifest["specs"] = [schema.scenario_spec_to_wire(s) for s in specs]
    elif workload == "analyze_jsonl":
        traces = []
        for key, profile, duration_s in ANALYZE_MIX:
            bundle = _simulate(
                _spec(seed, f"analyze/{key}", profile, duration_s)
            )
            path = os.path.join(workdir, f"{key}.jsonl")
            save_bundle(bundle, path)
            traces.append(
                {
                    "key": key,
                    "path": path,
                    "duration_s": duration_s,
                    "reference": _offline_digest(bundle),
                }
            )
        manifest["traces"] = traces
    elif workload == "live_replay":
        bundles = {
            key: _simulate(_spec(seed, f"live/{key}", profile, duration_s))
            for key, profile, duration_s in LIVE_BUNDLES
        }
        with open(os.path.join(workdir, "bundles.pkl"), "wb") as handle:
            pickle.dump(bundles, handle, protocol=pickle.HIGHEST_PROTOCOL)
        manifest["references"] = {
            key: _offline_digest(bundle) for key, bundle in bundles.items()
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(os.path.join(workdir, "inputs.json"), "w") as handle:
        json.dump(manifest, handle, sort_keys=True)


@dataclass
class PassResult:
    """What one pass returned.

    Attributes:
        raw: the program's outputs; :meth:`Workload.canonical` renders
            them after the timed region.
        telemetry_s: telemetry seconds the pass completed.
        unit_ms: wall ms per unit of settled work, when the pass times
            its units itself (the other workloads read a program span).
    """

    raw: object
    telemetry_s: float
    unit_ms: Dict[str, float] = field(default_factory=dict)


class Workload:
    """The inputs of one workload and the pass that measures them."""

    #: Program span whose durations are the unit latency, and the span
    #: attribute naming the unit's owner; None when the pass times its
    #: units itself.
    unit_span: Optional[str] = None
    unit_key: Optional[str] = None

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def canonical(self, raw) -> Dict[str, str]:
        """One canonical text per checked output of a pass."""
        raise NotImplementedError

    def cleanup_pass(self) -> None:
        """Remove what a pass left on disk."""

    def setup_digests(self) -> Digests:
        """Offline references computed at set-up, if any."""
        return {}

    def expected(
        self, first: Digests, committed: Optional[Digests]
    ) -> Digests:
        """The digest each output of every pass must have."""
        return committed if committed is not None else first

    def committed_form(self) -> Digests:
        """What ``record_digests.py`` commits for this seed."""
        return self.setup_digests()


class CampaignWorkload(Workload):
    unit_span = "fleet.scenario"
    unit_key = "scenario"

    def __init__(self, workdir: str, manifest: dict) -> None:
        # The first confounder scenario and the store tee import these
        # lazily; importing them here makes that cost set-up.
        import repro.causal.score  # noqa: F401
        import repro.store  # noqa: F401

        self.specs = [
            schema.scenario_spec_from_wire(data) for data in manifest["specs"]
        ]
        self.store_dir = os.path.join(workdir, "store")

    def run_pass(self) -> PassResult:
        outcomes = api.campaign(self.specs, backend=api.InlineBackend())
        half = len(outcomes) // 2
        with api.store_open(self.store_dir) as store:
            store.ingest_outcomes(outcomes[:half], ts=STORE_TS[0])
            store.ingest_outcomes(outcomes[half:], ts=STORE_TS[1])
            query = api.store_query(store)
            grid = {"bucket_s": 500.0, "since": 0.0, "until": 3000.0}
            results = {
                "rollup_chain": query.rollup_episodes("chain"),
                "rollup_cause": query.rollup_episodes("cause"),
                "rollup_consequence": query.rollup_episodes(
                    "consequence", top=5
                ),
                "rollup_profile": query.rollup_outcomes("profile"),
                "rollup_impairment": query.rollup_outcomes("impairment"),
                "series": query.episode_rate_series("*", **grid),
                "qoe_trend": query.qoe_trend("ul_delay_p99_ms", **grid),
                "top_movers": query.top_movers(
                    "cause",
                    window_a=(0.0, 1500.0),
                    window_b=(1500.0, 3000.0),
                    k=5,
                ),
            }
        return PassResult(
            raw=(outcomes, results),
            telemetry_s=sum(spec.duration_s for spec in self.specs),
        )

    def canonical(self, raw) -> Dict[str, str]:
        outcomes, results = raw
        out = {
            f"outcome:{o.scenario}": json.dumps(o.to_json(), sort_keys=True)
            for o in outcomes
        }
        for name, result in results.items():
            out[f"query:{name}"] = json.dumps(result, sort_keys=True)
        return out

    def cleanup_pass(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def committed_form(self) -> Digests:
        result = self.run_pass()
        self.cleanup_pass()
        return digests(self.canonical(result.raw))


class AnalyzeJsonlWorkload(Workload):
    def __init__(self, workdir: str, manifest: dict) -> None:
        self.traces = manifest["traces"]

    def run_pass(self) -> PassResult:
        reports, unit_ms = {}, {}
        for trace in self.traces:
            t0 = time.perf_counter()
            reports[trace["key"]] = api.analyze(trace["path"])
            unit_ms[trace["key"]] = (time.perf_counter() - t0) * 1e3
        return PassResult(
            raw=reports,
            telemetry_s=sum(trace["duration_s"] for trace in self.traces),
            unit_ms=unit_ms,
        )

    def canonical(self, raw) -> Dict[str, str]:
        return {
            key: canonical_detections(report.windows)
            for key, report in raw.items()
        }

    def setup_digests(self) -> Digests:
        return {trace["key"]: trace["reference"] for trace in self.traces}

    def expected(
        self, first: Digests, committed: Optional[Digests]
    ) -> Digests:
        return self.setup_digests()


class LiveReplayWorkload(Workload):
    unit_span = "live.advance"
    unit_key = "session"

    def __init__(self, workdir: str, manifest: dict) -> None:
        # Unpickles only the bundles this benchmark's set-up wrote.
        with open(os.path.join(workdir, "bundles.pkl"), "rb") as handle:
            self.bundles = pickle.load(handle)
        self.references: Digests = manifest["references"]
        profiles = {key: profile for key, profile, _ in LIVE_BUNDLES}
        keys = [key for key, count in LIVE_SESSIONS for _ in range(count)]
        self.sessions = [
            (f"s{index:02d}-{key}", key, profiles[key])
            for index, key in enumerate(keys)
        ]

    def run_pass(self) -> PassResult:
        collected: Dict[str, list] = {sid: [] for sid, _, _ in self.sessions}

        def tap(session_id, detections, chains, watermark_us):
            collected[session_id].extend(detections)

        sources = [
            api.ReplaySource(
                self.bundles[key], session_id=sid, profile=profile
            )
            for sid, key, profile in self.sessions
        ]
        service = api.serve(sources, backpressure="block", detection_sink=tap)
        asyncio.run(service.run())
        return PassResult(
            raw=collected,
            telemetry_s=sum(
                self.bundles[key].duration_us / 1e6
                for _, key, _ in self.sessions
            ),
        )

    def canonical(self, raw) -> Dict[str, str]:
        return {
            sid: canonical_detections(detections)
            for sid, detections in raw.items()
        }

    def setup_digests(self) -> Digests:
        return dict(self.references)

    def expected(
        self, first: Digests, committed: Optional[Digests]
    ) -> Digests:
        return {sid: self.references[key] for sid, key, _ in self.sessions}


_WORKLOADS = {
    "campaign": CampaignWorkload,
    "analyze_jsonl": AnalyzeJsonlWorkload,
    "live_replay": LiveReplayWorkload,
}


def load(workload: str, seed: int, workdir: str) -> Workload:
    """Read the inputs :func:`build_inputs` wrote into a workload."""
    with open(os.path.join(workdir, "inputs.json")) as handle:
        manifest = json.load(handle)
    if (manifest["workload"], manifest["seed"]) != (workload, seed):
        raise ValueError(f"{workdir} holds the inputs of another run")
    return _WORKLOADS[workload](workdir, manifest)
