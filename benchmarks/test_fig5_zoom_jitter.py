"""Fig. 5: campus Zoom dataset — network jitter by access type.

Paper: jitter is consistently higher on cellular than on wired or Wi-Fi,
in both directions.  The x-axis spans 0-50 ms.
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


def test_fig5_zoom_jitter():
    records = ZoomDatasetGenerator(ZoomDatasetConfig(seed=11)).generate()
    grouped = records_by_access(records)
    curves = {}
    for direction, attr in (
        ("outbound", "outbound_jitter_ms"),
        ("inbound", "inbound_jitter_ms"),
    ):
        for access in AccessType:
            curves[f"{direction} {access.value}"] = compute_cdf(
                [getattr(r, attr) for r in grouped[access]]
            )
    text = render_cdf(curves, quantiles=(25, 50, 75, 90, 99), unit="ms")
    save_result("fig5_zoom_jitter", text)

    for direction in ("outbound", "inbound"):
        cellular = curves[f"{direction} cellular"]
        wifi = curves[f"{direction} wifi"]
        wired = curves[f"{direction} wired"]
        assert cellular.median > wifi.median > wired.median
        assert cellular.percentile(90) > wifi.percentile(90)
