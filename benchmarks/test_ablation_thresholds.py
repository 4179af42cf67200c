"""Ablation: event-condition thresholds (Table 5 rows 15-17).

Sweeps the cross-traffic PRB ratio (paper: 20%), the HARQ ReTX count
(paper: 20 per window), and the delay-up magnitude (paper: 80 ms),
showing each threshold's effect on event prevalence — the knobs a
network operator would tune when deploying Domino elsewhere.
"""

from dataclasses import replace

from conftest import save_result

from repro.analysis.ascii import render_table
from repro.core.detector import DetectorConfig, DominoDetector
from repro.core.events import EventConfig


def _event_rate(bundle, config: EventConfig, feature: str) -> float:
    detector = DominoDetector(DetectorConfig(events=config))
    report = detector.analyze(bundle)
    hits = sum(1 for w in report.windows if w.features[feature])
    return hits / max(report.n_windows, 1)


def test_ablation_event_thresholds(fdd_results):
    bundle = fdd_results[0].bundle
    base = EventConfig()

    rows = []
    for fraction in (0.1, 0.2, 0.4):
        config = replace(base, cross_traffic_fraction=fraction)
        rows.append(
            [
                f"cross_traffic_fraction={fraction}",
                _event_rate(bundle, config, "dl_cross_traffic"),
            ]
        )
    for count in (5, 20, 80):
        config = replace(base, harq_retx_count=count)
        rows.append(
            [
                f"harq_retx_count={count}",
                _event_rate(bundle, config, "ul_harq_retx"),
            ]
        )
    for delay_ms in (40.0, 80.0, 160.0):
        config = replace(base, delay_up_min_ms=delay_ms)
        rows.append(
            [
                f"delay_up_min_ms={delay_ms:.0f}",
                _event_rate(bundle, config, "ul_delay_up"),
            ]
        )
    text = render_table(["threshold", "window hit rate"], rows)
    save_result("ablation_thresholds", text)

    by_label = {row[0]: row[1] for row in rows}
    # Monotonicity: loosening a threshold can only increase prevalence.
    assert (
        by_label["cross_traffic_fraction=0.1"]
        >= by_label["cross_traffic_fraction=0.4"]
    )
    assert by_label["harq_retx_count=5"] >= by_label["harq_retx_count=80"]
    assert by_label["delay_up_min_ms=40"] >= by_label["delay_up_min_ms=160"]
