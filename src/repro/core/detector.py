"""The Domino detector: sliding-window causal-chain detection engine.

Ties the pipeline together: telemetry bundle → timeline → feature
windows → compiled backward trace → per-window detections, collected in
a :class:`DominoReport` that the statistics module summarises into the
paper's Fig. 10 / Table 2 / Table 4 outputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.chains import DEFAULT_CHAINS_TEXT
from repro.core.codegen import TraceFn, compile_chains
from repro.core.dsl import parse_chains
from repro.core.events import EventConfig
from repro.core.features import BatchFeatureExtractor
from repro.core.graph import CausalGraph
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.telemetry.records import TelemetryBundle
from repro.telemetry.timeline import Timeline


@dataclass
class DetectorConfig:
    """Configuration of one Domino instance.

    Attributes:
        window_us / step_us: sliding window W and step Δt (paper: 5 s /
            0.5 s).
        dt_us: resampling bin width (paper's stats rate: 50 ms).
        events: event-condition thresholds.
        chains_text: causal-chain definitions in the text DSL; defaults
            to the paper's 24 canonical chains (direction-resolved).

    Detection always runs the vectorized batch engine
    (:class:`~repro.core.features.BatchFeatureExtractor`) and the
    generated backward trace (Fig. 11).  The per-window
    :class:`~repro.core.features.FeatureExtractor` and the interpreted
    :func:`~repro.core.trace.evaluate_chains` are the oracles the
    equivalence tests compare them against.
    """

    window_us: int = 5_000_000
    step_us: int = 500_000
    dt_us: int = 50_000
    events: EventConfig = field(default_factory=EventConfig)
    chains_text: str = DEFAULT_CHAINS_TEXT


@dataclass
class WindowDetection:
    """Detections for one window position."""

    start_us: int
    end_us: int
    features: dict
    consequences: List[str]
    causes: List[str]
    chain_ids: List[int]  # indices into DominoReport.chains


@dataclass
class DominoReport:
    """All detections for one session."""

    session_name: str
    duration_us: int
    step_us: int
    chains: List[Tuple[str, ...]]
    windows: List[WindowDetection]

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    def windows_with_detections(self) -> List[WindowDetection]:
        return [w for w in self.windows if w.chain_ids]


@functools.lru_cache(maxsize=32)
def _compiled_chains(
    chains_text: str, feature_names: Tuple[str, ...]
) -> Tuple[Tuple[Tuple[str, ...], ...], TraceFn]:
    """The parsed chains and the compiled backward trace for one chain
    text over one feature vocabulary.

    Cached per process, so every detector built from the same text
    (one per streaming session, one per ``api.analyze`` call) shares
    one compiled trace.  The chains are validated as a
    :class:`CausalGraph` (no cycle, each ends in a consequence).  A DSL
    or graph error is not cached: it is raised again on every
    construction.
    """
    chains = parse_chains(chains_text, known_events=feature_names)
    CausalGraph.from_chains(chains)
    return tuple(chains), compile_chains(chains)


class DominoDetector:
    """End-to-end Domino analysis over telemetry bundles.

    *extra_detectors* maps custom feature names to per-window callables
    (see :class:`~repro.core.extension.ExtensibleDomino`); the chains in
    ``config.chains_text`` may reference them alongside the 36 built-in
    features.

    Example::

        detector = DominoDetector()
        report = detector.analyze(bundle)
        stats = DominoStats.from_report(report)
    """

    def __init__(
        self,
        config: Optional[DetectorConfig] = None,
        extra_detectors: Optional[Dict[str, Callable[..., bool]]] = None,
    ) -> None:
        self.config = config or DetectorConfig()
        self.extractor = BatchFeatureExtractor(
            window_us=self.config.window_us,
            step_us=self.config.step_us,
            config=self.config.events,
            extra_detectors=dict(extra_detectors or {}),
        )
        chains, self._trace = _compiled_chains(
            self.config.chains_text, self.extractor.feature_names
        )
        # A list of its own: a caller mutating report.chains cannot
        # reach another detector's.
        self.chains = list(chains)

    # -- evaluation -----------------------------------------------------------

    def analyze_timeline(
        self, timeline: Timeline, session_name: str = "", duration_us: int = 0
    ) -> DominoReport:
        """Run detection over an already-built timeline."""
        # extract_all instead of the extract generator so feature
        # extraction and the backward trace get distinct spans.
        with span("detect.features", session=session_name):
            feature_windows = self.extractor.extract_all(timeline)
        windows: List[WindowDetection] = []
        with span("detect.trace", session=session_name):
            for feature_window in feature_windows:
                consequences, causes, chain_ids = self._trace(
                    feature_window.features
                )
                windows.append(
                    WindowDetection(
                        start_us=feature_window.start_us,
                        end_us=feature_window.end_us,
                        features=feature_window.features,
                        consequences=sorted(consequences),
                        causes=sorted(causes),
                        chain_ids=sorted(chain_ids),
                    )
                )
        get_registry().counter(
            "repro_windows_detected_total",
            help="Sliding windows evaluated by the detector (this process).",
        ).inc(len(windows))
        return DominoReport(
            session_name=session_name,
            duration_us=duration_us or timeline.n_bins * timeline.dt_us,
            step_us=self.config.step_us,
            chains=self.chains,
            windows=windows,
        )

    def analyze(self, bundle: TelemetryBundle) -> DominoReport:
        """Run the full pipeline on a telemetry bundle."""
        timeline = Timeline.from_bundle(bundle, dt_us=self.config.dt_us)
        return self.analyze_timeline(
            timeline,
            session_name=bundle.session_name,
            duration_us=bundle.duration_us,
        )
