"""Fig. 6: campus Zoom dataset — packet loss rate by access type.

Paper: cellular shows significantly higher loss rates than wired/Wi-Fi;
the log x-axis spans 0.1%-100%.
"""

from conftest import save_result

from repro.analysis.ascii import render_cdf
from repro.analysis.cdf import compute_cdf
from repro.datasets.zoom import (
    AccessType,
    ZoomDatasetConfig,
    ZoomDatasetGenerator,
    records_by_access,
)


def test_fig6_zoom_loss():
    records = ZoomDatasetGenerator(ZoomDatasetConfig(seed=13)).generate()
    grouped = records_by_access(records)
    curves = {}
    for direction, attr in (
        ("outbound", "outbound_loss_pct"),
        ("inbound", "inbound_loss_pct"),
    ):
        for access in AccessType:
            curves[f"{direction} {access.value}"] = compute_cdf(
                [getattr(r, attr) for r in grouped[access]]
            )
    text = render_cdf(curves, quantiles=(25, 50, 75, 90, 99), unit="%")
    save_result("fig6_zoom_loss", text)

    for direction in ("outbound", "inbound"):
        cellular = curves[f"{direction} cellular"]
        wired = curves[f"{direction} wired"]
        assert cellular.median > wired.median
        assert cellular.percentile(90) > wired.percentile(90)
        # Loss spans orders of magnitude (log-axis shape).
        assert cellular.percentile(99) / max(cellular.percentile(25), 1e-3) > 10
