"""Causal-inference baselines: Granger precedence and PCMCI-style CI.

Both reason over the same candidate-cause / consequence-indicator series
as :class:`~repro.baselines.correlation.CorrelationRca`, but add exactly
the machinery correlation lacks:

- :class:`GrangerRca` asks whether a cause's *lagged past* improves
  prediction of the effect beyond the effect's own past (temporal
  precedence).  This defeats zero-lag coincidence confounds but is still
  fooled by lagged mimics and common drivers.
- :class:`PcmciRca` runs a PCMCI-style conditional-independence pruning
  pass (PC condition selection + momentary-CI scoring, after Runge et
  al.): each candidate's lagged link to the effect is tested *given* the
  effect's own past and the strongest competing parents.  Conditioning
  on the effect's past kills reverse-causation (reactive interventions),
  and conditioning on competing parents kills common-cause and mimic
  confounds — the true cause explains the spurious one away, not vice
  versa.

Pure numpy (least-squares residualization for partial correlations);
deterministic; no external causal-discovery dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.correlation import (
    _normalize,
    cause_series,
    consequence_series,
)
from repro.core.chains import CauseKind
from repro.telemetry.records import TelemetryBundle
from repro.telemetry.timeline import Timeline

#: Metric-series stem → the CauseKind family a top-ranked hit names.
SERIES_CAUSE_LABELS: Dict[str, str] = {
    "harq_retx": CauseKind.HARQ_RETX.value,
    "rlc_retx": CauseKind.RLC_RETX.value,
    "other_prbs": CauseKind.CROSS_TRAFFIC.value,
    "mcs_deficit": CauseKind.POOR_CHANNEL.value,
    "rlc_buffer_bytes": CauseKind.UL_SCHEDULING.value,
    "rrc_events": CauseKind.RRC_STATE.value,
}


def cause_label_for_series(series_name: str) -> Optional[str]:
    """Map a ranked series name (``ul_other_prbs``) to a cause label."""
    stem = series_name
    for prefix in ("ul_", "dl_"):
        if stem.startswith(prefix):
            stem = stem[len(prefix):]
            break
    return SERIES_CAUSE_LABELS.get(stem)


@dataclass
class CausalResult:
    """Ranked cause attribution for one consequence indicator."""

    consequence: str
    ranking: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def top_cause(self) -> str:
        return self.ranking[0][0] if self.ranking else "none"


def _lag_matrix(series: np.ndarray, lags: int) -> np.ndarray:
    """Columns ``series[t-1] ... series[t-lags]`` aligned to ``t >= lags``."""
    n = len(series)
    return np.column_stack(
        [series[lags - k : n - k] for k in range(1, lags + 1)]
    )


def _rss(design: np.ndarray, target: np.ndarray) -> float:
    coef, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    return float(resid @ resid)


class GrangerRca:
    """Lag-aware Granger precedence over the shared candidate series.

    Score per candidate = F-statistic of the restricted-vs-full lagged
    regression (does x's past reduce y's residual variance beyond y's
    own past?).  Coarser bins than the correlator (200 ms) so a few
    lags span the multi-second impairment dynamics.
    """

    def __init__(
        self, max_lag_s: float = 2.0, dt_us: int = 200_000
    ) -> None:
        self.max_lag_s = max_lag_s
        self.dt_us = dt_us

    def analyze(self, bundle: TelemetryBundle) -> List[CausalResult]:
        timeline = Timeline.from_bundle(bundle, dt_us=self.dt_us)
        lags = max(1, int(self.max_lag_s * 1e6 / self.dt_us))
        causes = {
            name: _normalize(series)
            for name, series in cause_series(timeline).items()
        }
        results: List[CausalResult] = []
        for consequence, series in consequence_series(timeline).items():
            effect = _normalize(series)
            n = len(effect)
            if n <= 3 * lags + 4:
                results.append(CausalResult(consequence=consequence))
                continue
            target = effect[lags:]
            own_past = _lag_matrix(effect, lags)
            intercept = np.ones((len(target), 1))
            restricted = np.column_stack([intercept, own_past])
            rss_restricted = _rss(restricted, target)
            ranking: List[Tuple[str, float]] = []
            for name, cause in causes.items():
                if cause.std() == 0.0:
                    ranking.append((name, 0.0))
                    continue
                full = np.column_stack(
                    [restricted, _lag_matrix(cause, lags)]
                )
                rss_full = _rss(full, target)
                dof = len(target) - full.shape[1]
                if rss_full <= 0.0 or dof <= 0:
                    ranking.append((name, 0.0))
                    continue
                f_stat = ((rss_restricted - rss_full) / lags) / (
                    rss_full / dof
                )
                ranking.append((name, max(0.0, float(f_stat))))
            ranking.sort(key=lambda item: item[1], reverse=True)
            results.append(
                CausalResult(consequence=consequence, ranking=ranking)
            )
        return results


def _partial_corr(
    x: np.ndarray, y: np.ndarray, conditions: np.ndarray
) -> float:
    """corr(x, y | Z) via least-squares residualization."""
    design = np.column_stack([np.ones(len(y)), conditions])
    coef_x, _, _, _ = np.linalg.lstsq(design, x, rcond=None)
    coef_y, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    rx = x - design @ coef_x
    ry = y - design @ coef_y
    if rx.std() == 0.0 or ry.std() == 0.0:
        return 0.0
    corr = float(np.corrcoef(rx, ry)[0, 1])
    return 0.0 if np.isnan(corr) else corr


class PcmciRca:
    """PCMCI-style conditional-independence pruning baseline.

    Per consequence: (1) find each candidate's best lag by plain lagged
    correlation; (2) PC-style pruning — re-test each candidate's lagged
    link conditioned on the effect's own past plus the 1..``max_conds``
    strongest *other* candidate links, removing it when any conditional
    partial correlation drops below ``alpha``; (3) score survivors by
    their weakest (most conservative) conditional partial correlation.
    """

    def __init__(
        self,
        max_lag_s: float = 2.0,
        dt_us: int = 200_000,
        alpha: float = 0.08,
        max_conds: int = 3,
        own_lags: int = 2,
    ) -> None:
        self.max_lag_s = max_lag_s
        self.dt_us = dt_us
        self.alpha = alpha
        self.max_conds = max_conds
        self.own_lags = own_lags

    def analyze(self, bundle: TelemetryBundle) -> List[CausalResult]:
        timeline = Timeline.from_bundle(bundle, dt_us=self.dt_us)
        max_lag = max(1, int(self.max_lag_s * 1e6 / self.dt_us))
        causes = {
            name: _normalize(series)
            for name, series in cause_series(timeline).items()
        }
        results: List[CausalResult] = []
        for consequence, series in consequence_series(timeline).items():
            effect = _normalize(series)
            results.append(
                self._analyze_one(consequence, effect, causes, max_lag)
            )
        return results

    def _analyze_one(
        self,
        consequence: str,
        effect: np.ndarray,
        causes: Dict[str, np.ndarray],
        max_lag: int,
    ) -> CausalResult:
        n = len(effect)
        head = max_lag + self.own_lags
        if n <= head + 8:
            return CausalResult(consequence=consequence)
        target = effect[head:]
        # Effect's own past — always conditioned on (kills reverse
        # causation: an intervention driven by the symptom is explained
        # by the symptom's own history).
        own = np.column_stack(
            [effect[head - k : n - k] for k in range(1, self.own_lags + 1)]
        )

        def lagged(series: np.ndarray, lag: int) -> np.ndarray:
            return series[head - lag : n - lag]

        # Step 1: best lag per candidate by unconditional correlation.
        links: Dict[str, Tuple[int, float]] = {}
        for name, cause in causes.items():
            if cause.std() == 0.0:
                links[name] = (1, 0.0)
                continue
            best_lag, best = 1, 0.0
            for lag in range(1, max_lag + 1):
                x = lagged(cause, lag)
                if x.std() == 0.0 or target.std() == 0.0:
                    continue
                corr = float(np.corrcoef(x, target)[0, 1])
                if np.isnan(corr):
                    continue
                if abs(corr) > abs(best):
                    best_lag, best = lag, corr
            links[name] = (best_lag, best)

        strength_order = sorted(
            links, key=lambda name: abs(links[name][1]), reverse=True
        )

        # Steps 2–3: prune conditioned on own past + strongest rivals.
        scores: Dict[str, float] = {}
        for name in strength_order:
            lag, base = links[name]
            x = lagged(causes[name], lag)
            rivals = [
                lagged(causes[other], links[other][0])
                for other in strength_order
                if other != name and abs(links[other][1]) > 0.0
            ]
            min_abs = abs(_partial_corr(x, target, own))
            survived = min_abs >= self.alpha
            for k in range(1, self.max_conds + 1):
                if not survived or k > len(rivals):
                    break
                conditions = np.column_stack([own] + rivals[:k])
                pcorr = abs(_partial_corr(x, target, conditions))
                min_abs = min(min_abs, pcorr)
                survived = pcorr >= self.alpha
            scores[name] = min_abs if survived else 0.0
        ranking = sorted(
            scores.items(), key=lambda item: item[1], reverse=True
        )
        return CausalResult(consequence=consequence, ranking=ranking)
