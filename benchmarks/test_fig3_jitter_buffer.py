"""Fig. 3: minimum jitter-buffer delay, 5G vs wired, audio and video.

Paper: cellular jitter-buffer delays exceed wired for both media types
and both directions, pushing mouth-to-ear delay past the ITU-T G.114
interactivity thresholds (150 ms impacted / 400 ms unacceptable) far
more often than wired.
"""

import numpy as np
from conftest import save_result

from repro.analysis.ascii import render_cdf
from repro.analysis.cdf import compute_cdf
from repro.analysis.summarize import stats_series


def _pooled(results, client, fieldname):
    return np.concatenate(
        [stats_series(r.bundle, client, fieldname) for r in results]
    )


def test_fig3_jitter_buffer_delay(fdd_results, wired_results):
    curves = {}
    for label, results in (("cellular", fdd_results), ("wired", wired_results)):
        bundle = results[0].bundle
        local, remote = bundle.cellular_client, bundle.wired_client
        # UL stream buffers live at the remote receiver, DL at local.
        curves[f"UL video {label}"] = compute_cdf(
            _pooled(results, remote, "video_jitter_buffer_ms")
        )
        curves[f"DL video {label}"] = compute_cdf(
            _pooled(results, local, "video_jitter_buffer_ms")
        )
        curves[f"UL audio {label}"] = compute_cdf(
            _pooled(results, remote, "audio_jitter_buffer_ms")
        )
        curves[f"DL audio {label}"] = compute_cdf(
            _pooled(results, local, "audio_jitter_buffer_ms")
        )
    text = render_cdf(curves, quantiles=(25, 50, 75, 90, 99), unit="ms")
    itu = []
    for label, cdf in curves.items():
        above_150 = 1.0 - cdf.probability_at(150.0)
        above_400 = 1.0 - cdf.probability_at(400.0)
        itu.append(
            f"{label:<22} >150ms: {above_150 * 100:5.1f}%   "
            f">400ms: {above_400 * 100:5.1f}%"
        )
    save_result(
        "fig3_jitter_buffer", text + "\n\nITU-T G.114 exposure:\n" + "\n".join(itu)
    )

    # Cellular holds media in the buffer longer than wired.
    assert (
        curves["UL video cellular"].percentile(90)
        > curves["UL video wired"].percentile(90)
    )
    assert (
        curves["DL video cellular"].percentile(90)
        >= curves["DL video wired"].percentile(90)
    )
    # Cellular exceeds the 150 ms interactivity threshold more often.
    cellular_exposure = 1.0 - curves["DL video cellular"].probability_at(150.0)
    wired_exposure = 1.0 - curves["DL video wired"].probability_at(150.0)
    assert cellular_exposure >= wired_exposure
