"""Table 3 (Appendix B): video resolution distribution, UL vs DL.

Paper: UL streams generally hold higher resolutions than DL (540p
dominates UL on three cells; DL sits mostly at 360p), with Amarisoft's
poor UL channel dragging a large UL share down to 360p.
"""

from paper_tables import save_result

from repro.analysis.ascii import render_table
from repro.analysis.summarize import stats_series


def _distribution(results, client_attr):
    values = []
    for result in results:
        bundle = result.bundle
        client = getattr(bundle, client_attr)
        series = stats_series(bundle, client, "outbound_resolution_p")
        values.extend(int(v) for v in series if v > 0)
    total = max(len(values), 1)
    return {
        p: sum(1 for v in values if v == p) / total
        for p in (180, 360, 540, 720, 1080)
    }


def test_table3_resolution_distribution(cell_results):
    table = {}
    for key, results in cell_results.items():
        # UL stream = cellular client's outbound resolution.
        table[key] = {
            "ul": _distribution(results, "cellular_client"),
            "dl": _distribution(results, "wired_client"),
        }
    rows = []
    for key, dists in table.items():
        for direction in ("ul", "dl"):
            dist = dists[direction]
            rows.append(
                [f"{key} {direction.upper()}"]
                + [dist[p] * 100 for p in (180, 360, 540, 720, 1080)]
            )
    text = render_table(
        ["stream", "180p%", "360p%", "540p%", "720p%", "1080p%"], rows
    )
    save_result("table3_resolution", text)

    def mean_resolution(dist):
        return sum(p * share for p, share in dist.items())

    # UL resolution >= DL resolution on cells with a healthy UL channel
    # (Appendix B).  Amarisoft is excluded: its simulated UL GCC
    # equilibrium (~0.6 Mbps) sits below the testbed's (~1 Mbps), which
    # pulls its UL below 360p part of the time — see EXPERIMENTS.md.
    for key in ("tmobile_fdd", "tmobile_tdd", "mosolabs"):
        dists = table[key]
        assert mean_resolution(dists["ul"]) >= mean_resolution(dists["dl"]), key
    # The UL reaches high rungs (540p) that the biased DL never does.
    for key, dists in table.items():
        assert dists["ul"][540] >= dists["dl"][540]
    # Amarisoft UL degraded vs the healthy cells' UL (poor UL channel).
    amarisoft_ul = mean_resolution(table["amarisoft"]["ul"])
    tdd_ul = mean_resolution(table["tmobile_tdd"]["ul"])
    assert amarisoft_ul < tdd_ul
