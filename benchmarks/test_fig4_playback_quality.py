"""Fig. 4: concealed audio samples and video freezes, cellular vs wired.

Paper (5-minute commercial-cell experiment): ~12% of audio samples
concealed and ~6 s of video freeze on cellular; near-zero on wired.
Reproduction target: cellular strictly worse on both axes, wired ≈ 0.
"""

from paper_tables import save_result

from repro.analysis.ascii import render_table
from repro.analysis.summarize import summarize_session


def test_fig4_concealment_and_freezes(fdd_results, wired_results):
    rows = []
    for label, results in (("cellular", fdd_results), ("wired", wired_results)):
        concealed_ul = concealed_dl = frozen_ul = frozen_dl = 0.0
        for result in results:
            summary = summarize_session(result.bundle)
            concealed_ul += summary.ul_concealed_fraction
            concealed_dl += summary.dl_concealed_fraction
            frozen_ul += summary.ul_freeze_fraction
            frozen_dl += summary.dl_freeze_fraction
        n = len(results)
        rows.append(
            [label, concealed_ul / n, frozen_ul / n, concealed_dl / n, frozen_dl / n]
        )
    text = render_table(
        [
            "network",
            "UL concealed",
            "UL frozen",
            "DL concealed",
            "DL frozen",
        ],
        rows,
    )
    save_result("fig4_playback_quality", text)

    cellular, wired = rows[0], rows[1]
    # Cellular conceals more audio than wired in both directions.
    assert cellular[1] >= wired[1]
    assert cellular[3] >= wired[3]
    # Wired shows essentially no freezes (paper: zero).
    assert wired[2] < 0.01 and wired[4] < 0.01
    # Cellular shows measurable degradation on at least one axis.
    assert max(cellular[1], cellular[2], cellular[3], cellular[4]) > 0.001
