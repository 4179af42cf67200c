"""repro — reproduction of Domino (IMC 2025).

Automated, cross-layer root cause analysis of 5G video-conferencing
quality degradation: a full simulation substrate (5G RAN, network paths,
WebRTC + GCC) plus the Domino causal-chain detection tool, scaled out to
fleet campaigns, an always-on live service, and multi-host clusters —
all behind one facade.

Quickstart (the public API lives in :mod:`repro.api`)::

    from repro import api
    from repro.core.stats import DominoStats
    from repro.datasets import TMOBILE_FDD, run_cellular_session

    result = run_cellular_session(TMOBILE_FDD, duration_s=60, seed=1)
    report = api.analyze(result.bundle)
    stats = DominoStats.from_report(report)
    print(stats.degradation_events_per_min())

    # Many sessions, pluggable execution:
    outcomes = api.campaign("smoke", backend=api.ProcessPoolBackend(8))

Everything that crosses a process, host, or disk boundary serializes
through the canonical versioned registry in :mod:`repro.schema`.
The pre-2.0 top-level names (``repro.DominoDetector`` and friends) were
removed in 3.0 — see the README's "removed in 3.0" table.

All public names resolve lazily (PEP 562): ``import repro`` stays
lightweight — the facade, the schema registry, and the simulation
substrate behind them load on first attribute access.
"""

import importlib as _importlib

from repro.errors import ReproError, SchemaError, SchemaVersionError

__version__ = "3.0.0"

__all__ = [
    "ClusterBackend",
    "DetectorConfig",
    "DominoReport",
    "ExecutionBackend",
    "FleetSnapshot",
    "ImpairmentSpec",
    "InlineBackend",
    "ProcessPoolBackend",
    "ReproError",
    "SCHEMA_VERSION",
    "ScenarioMatrix",
    "ScenarioSpec",
    "SchemaError",
    "SchemaVersionError",
    "SessionOutcome",
    "SessionSnapshot",
    "WindowDetection",
    "__version__",
    "analyze",
    "api",
    "campaign",
    "obs",
    "open_stream",
    "read_snapshot",
    "schema",
    "serve",
    "watch",
]

#: Public surface → defining module (``None`` attr = the module
#: itself).  Resolved lazily and cached in module globals, so the cost
#: of the facade's import chain is paid on first use, not at
#: ``import repro``.
_PUBLIC_EXPORTS = {
    "api": ("repro.api", None),
    "obs": ("repro.obs", None),
    "schema": ("repro.schema", None),
    "SCHEMA_VERSION": ("repro.schema", "SCHEMA_VERSION"),
    "analyze": ("repro.api", "analyze"),
    "campaign": ("repro.api", "campaign"),
    "open_stream": ("repro.api", "open_stream"),
    "read_snapshot": ("repro.api", "read_snapshot"),
    "serve": ("repro.api", "serve"),
    "watch": ("repro.api", "watch"),
    "ExecutionBackend": ("repro.api", "ExecutionBackend"),
    "InlineBackend": ("repro.api", "InlineBackend"),
    "ProcessPoolBackend": ("repro.api", "ProcessPoolBackend"),
    "ClusterBackend": ("repro.api", "ClusterBackend"),
    "DetectorConfig": ("repro.core.detector", "DetectorConfig"),
    "DominoReport": ("repro.core.detector", "DominoReport"),
    "WindowDetection": ("repro.core.detector", "WindowDetection"),
    "ScenarioMatrix": ("repro.fleet.scenarios", "ScenarioMatrix"),
    "ScenarioSpec": ("repro.fleet.scenarios", "ScenarioSpec"),
    "ImpairmentSpec": ("repro.fleet.scenarios", "ImpairmentSpec"),
    "SessionOutcome": ("repro.fleet.executor", "SessionOutcome"),
    "SessionSnapshot": ("repro.live.supervisor", "SessionSnapshot"),
    "FleetSnapshot": ("repro.live.aggregator", "FleetSnapshot"),
}


def __getattr__(name: str):
    """Resolve public names lazily (PEP 562)."""
    if name in _PUBLIC_EXPORTS:
        module_name, attr = _PUBLIC_EXPORTS[name]
        module = _importlib.import_module(module_name)
        value = module if attr is None else getattr(module, attr)
        globals()[name] = value  # cache: later accesses skip this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(__all__) | set(globals()))
