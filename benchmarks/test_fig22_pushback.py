"""Fig. 22: reverse-path (RTCP) delay alone triggers the pushback
controller.

Paper annotations: ① forward media delay stays stable, ② RTCP delay
rises past 300 ms, ③ outstanding bytes exceed the congestion window,
④ the pushback rate drops while the target bitrate stays high, ⑤ the
outbound frame rate drops.
"""

import numpy as np
from paper_tables import save_result

from repro.analysis.ascii import render_series
from repro.datasets.workloads import pushback_session
from repro.telemetry.timeline import Timeline

FADE_START_S = 4.0
FADE_END_S = 5.5


def test_fig22_pushback():
    session = pushback_session(seed=2)
    result = session.run(11_000_000)
    timeline = Timeline.from_bundle(result.bundle)
    t = timeline.t_us / 1e6
    series = {
        "media_delay_ms": timeline["ul_packet_delay_ms"],
        "rtcp_delay_ms": timeline["dl_rtcp_delay_ms"],
        "outstanding_kB": timeline["local_outstanding_bytes"] / 1e3,
        "cwnd_kB": timeline["local_congestion_window_bytes"] / 1e3,
        "target_Mbps": timeline["local_target_bitrate_bps"] / 1e6,
        "pushback_Mbps": timeline["local_pushback_bitrate_bps"] / 1e6,
        "out_fps": timeline["local_outbound_fps"],
    }
    text = render_series(
        t,
        series,
        n_points=26,
        annotations={
            FADE_START_S - 0.5: "(1) media delay stable",
            FADE_START_S + 0.4: "(2) RTCP delay rises",
            FADE_START_S + 0.8: "(3) outstanding > cwnd",
            FADE_START_S + 1.2: "(4) pushback rate drops",
            FADE_START_S + 1.8: "(5) frame rate drops",
        },
    )
    save_result("fig22_pushback", text)

    before = (t > 1.5) & (t < FADE_START_S)
    during = (t >= FADE_START_S + 0.2) & (t < FADE_END_S + 1.0)

    media_delay = np.nan_to_num(timeline["ul_packet_delay_ms"])
    # (1) the forward path stays comparatively stable.
    assert media_delay[during].max() < 150.0
    rtcp_delay = np.nan_to_num(timeline["dl_rtcp_delay_ms"])
    assert rtcp_delay[during].max() > 3 * max(rtcp_delay[before].mean(), 1.0)  # (2)
    outstanding = np.nan_to_num(timeline["local_outstanding_bytes"])
    cwnd = np.nan_to_num(timeline["local_congestion_window_bytes"])
    assert (outstanding[during] > cwnd[during]).any()  # (3)
    target = timeline["local_target_bitrate_bps"]
    pushback = timeline["local_pushback_bitrate_bps"]
    gap = (target[during] - pushback[during]) / np.maximum(target[during], 1.0)
    assert np.nanmax(gap) > 0.05  # (4) pushback diverges below target
