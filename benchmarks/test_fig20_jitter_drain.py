"""Fig. 20: a rapid delay surge drains the jitter buffer, freezing video.

Paper annotations: ① one-way delay rises to ~280 ms, ② the jitter
buffer drains to 0, ③ the video freezes, ④ the frame rate drops below
30 fps while the buffer rebuilds, recovering fully a couple of seconds
after the network does.
"""

import numpy as np
from conftest import save_result

from repro.analysis.ascii import render_series
from repro.datasets.workloads import jitter_drain_session
from repro.telemetry.timeline import Timeline

FADE_START_S = 5.0
FADE_END_S = 6.2


def test_fig20_jitter_buffer_drain():
    session = jitter_drain_session(seed=2)
    result = session.run(12_000_000)
    timeline = Timeline.from_bundle(result.bundle)
    t = timeline.t_us / 1e6
    series = {
        "delay_ms": timeline["dl_packet_delay_ms"],
        "jb_ms": timeline["local_video_jitter_buffer_ms"],
        "frozen": timeline["local_frozen"],
        "inbound_fps": timeline["local_inbound_fps"],
    }
    text = render_series(
        t,
        series,
        n_points=26,
        annotations={
            FADE_START_S + 0.3: "(1) delay increases",
            FADE_START_S + 0.7: "(2) jitter buffer drains",
            FADE_START_S + 1.0: "(3) video freezes",
            FADE_END_S + 0.5: "(4) frame rate recovering",
        },
    )
    save_result("fig20_jitter_drain", text)

    before = (t > 2.0) & (t < FADE_START_S)
    event = (t >= FADE_START_S) & (t < FADE_END_S + 1.5)

    delay = np.nan_to_num(timeline["dl_packet_delay_ms"])
    assert delay[event].max() > 3 * delay[before].mean()  # (1)
    jb = np.nan_to_num(timeline["local_video_jitter_buffer_ms"], nan=np.inf)
    assert (jb[event] <= 0.5).any()  # (2) buffer hits zero
    assert timeline["local_frozen"][event].sum() > 0  # (3)
    assert result.client_a.receiver.video.freeze_count >= 1
    fps = timeline["local_inbound_fps"]
    assert np.nanmin(fps[event]) < 25.0  # (4)
    # Recovery: fps returns to ~30 after the buffer rebuilds.
    tail = t > FADE_END_S + 3.0
    assert np.nanmedian(fps[tail]) > 25.0
