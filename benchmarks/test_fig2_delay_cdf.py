"""Fig. 2: 5G vs wired one-way packet delay CDFs.

Paper: 5G inflates the median delay by 1-2 orders of magnitude relative
to wired, with 99th-percentile delays of 352 ms (UL) and 381 ms (DL) on
the commercial cell.  Reproduction target: cellular median >> wired
median in both directions, with a long cellular tail.
"""

import numpy as np
from conftest import save_result

from repro.analysis.ascii import render_cdf
from repro.analysis.cdf import compute_cdf
from repro.analysis.summarize import packet_delays_ms


def _pooled_delays(results, uplink):
    return np.concatenate(
        [packet_delays_ms(r.bundle, uplink=uplink) for r in results]
    )


def test_fig2_delay_cdfs(fdd_results, wired_results):
    curves = {
        "UL cellular": compute_cdf(_pooled_delays(fdd_results, True)),
        "UL wired": compute_cdf(_pooled_delays(wired_results, True)),
        "DL cellular": compute_cdf(_pooled_delays(fdd_results, False)),
        "DL wired": compute_cdf(_pooled_delays(wired_results, False)),
    }
    text = render_cdf(curves, quantiles=(25, 50, 75, 90, 99), unit="ms")
    save_result("fig2_delay_cdf", text)

    # Shape assertions (the paper's qualitative claims).  Both paths
    # share the same ~9 ms internet leg here, so the access-network gap
    # shows as a solid median ratio and an order-of-magnitude tail gap
    # (the paper's wired endpoint had a near-zero access delay, which is
    # where its 1-2 order median gap comes from).
    assert curves["UL cellular"].median > 1.3 * curves["UL wired"].median
    assert curves["DL cellular"].median > curves["DL wired"].median
    assert curves["UL cellular"].percentile(99) > 80.0  # long tail
    assert curves["UL wired"].percentile(99) < 40.0
    assert (
        curves["UL cellular"].percentile(99)
        > 5 * curves["UL wired"].percentile(99)
    )
