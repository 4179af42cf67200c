"""Baselines vs Domino: what causal-chain analysis adds.

Compares on the same commercial-cell telemetry:
* app-only monitoring — sees consequences, resolves one cause bucket;
* lag-correlation RCA — structure-free attribution;
* single-layer alerting — raw alarm volume without consolidation;
* Domino — consequence-anchored chains down to six cause families.
"""

from conftest import save_result

from repro.analysis.ascii import render_table
from repro.baselines.app_only import AppOnlyDetector
from repro.baselines.correlation import CorrelationRca
from repro.baselines.single_layer import SingleLayerAlerts
from repro.core.detector import DominoDetector
from repro.core.stats import DominoStats


def test_baseline_comparison(fdd_results):
    bundle = fdd_results[0].bundle

    domino_report = DominoDetector().analyze(bundle)
    domino_stats = DominoStats.from_report(domino_report)
    app_only = AppOnlyDetector().analyze(bundle)
    correlation = CorrelationRca().analyze(bundle)
    alerts = SingleLayerAlerts().analyze(bundle)

    domino_consequence_windows = sum(
        1 for w in domino_report.windows if w.consequences
    )
    domino_explained = sum(
        1 for w in domino_report.windows if w.chain_ids
    )
    domino_cause_kinds = len(
        {
            kind
            for kind, share in domino_stats.cause_attribution_shares().items()
            if share > 0
        }
    )
    rows = [
        [
            "Domino",
            float(domino_consequence_windows),
            float(domino_explained),
            float(domino_cause_kinds),
        ],
        [
            "app-only",
            float(app_only.consequence_windows()),
            float(app_only.attributed_windows()),
            float(app_only.root_cause_resolution()),
        ],
        [
            "correlation RCA",
            float(len(correlation)),
            float(sum(1 for r in correlation if abs(r.top_correlation) > 0.3)),
            float(len({r.top_cause for r in correlation})),
        ],
        [
            "single-layer alerts",
            float(alerts.total_alerts),
            0.0,
            0.0,
        ],
    ]
    text = render_table(
        ["method", "signals", "attributed", "cause resolution"], rows
    )
    reduction = alerts.reduction_vs(domino_report)
    save_result(
        "baseline_comparison",
        text
        + f"\nalert volume: {alerts.total_alerts} raw alerts vs "
        f"{sum(len(w.chain_ids) for w in domino_report.windows)} Domino chain "
        f"detections (x{reduction:.1f} consolidation)",
    )

    # Domino distinguishes multiple cause families; app-only cannot.
    assert domino_cause_kinds > app_only.root_cause_resolution()
    # Both see a similar consequence footprint (same app-layer events).
    assert domino_consequence_windows >= app_only.consequence_windows() * 0.5
    # Uncorrelated alerting produces far more signals than Domino's
    # consolidated chains.
    assert alerts.total_alerts > domino_explained
