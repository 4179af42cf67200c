"""Fleet campaigns: many sessions in parallel, one root-cause picture.

The paper frames Domino as a tool operators run continuously over many
users and cells; this package scales the single-session pipeline
(`repro.datasets.runner` → `DominoDetector` → `DominoStats`) to
*campaigns*:

* :mod:`repro.fleet.scenarios` — declarative scenario matrices sweeping
  cell profile × seed × duration × impairment knobs, with named presets.
* :mod:`repro.fleet.executor` — one scenario end to end
  (:func:`run_scenario`), returning a compact per-session
  :class:`SessionOutcome`; :func:`repro.api.campaign` runs many.
* :mod:`repro.fleet.aggregate` — fleet-level rollups (chain frequencies
  per profile/impairment, degradation distributions, QoE percentiles).
* :mod:`repro.fleet.report` — terminal rendering of an aggregate.
"""

from repro.fleet.aggregate import FleetAggregate
from repro.fleet.executor import (
    SessionOutcome,
    detector_config_hash,
    iter_outcomes,
    load_outcomes,
    run_scenario,
    save_outcomes,
    scenario_fingerprint,
)
from repro.fleet.report import render_fleet_report
from repro.fleet.scenarios import (
    PRESETS,
    ImpairmentSpec,
    ScenarioMatrix,
    ScenarioSpec,
    derive_seed,
    get_preset,
)

__all__ = [
    "FleetAggregate",
    "ImpairmentSpec",
    "PRESETS",
    "ScenarioMatrix",
    "ScenarioSpec",
    "SessionOutcome",
    "derive_seed",
    "detector_config_hash",
    "get_preset",
    "iter_outcomes",
    "load_outcomes",
    "scenario_fingerprint",
    "render_fleet_report",
    "run_scenario",
    "save_outcomes",
]
