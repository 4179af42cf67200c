"""Fig. 13: cross traffic → PRB squeeze → delay → GCC overuse → rate cut.

Paper annotations: ① cross traffic starts (other UEs' PRBs jump, test
UE's shrink), ② delay increases, ③ GCC detects overuse ~0.8 s later and
multiplicatively decreases the target bitrate, ④ delay decreases once
the sending rate falls below the constrained capacity.
"""

import numpy as np
from paper_tables import save_result

from repro.analysis.ascii import render_series
from repro.datasets.workloads import cross_traffic_session
from repro.telemetry.timeline import Timeline

BURST_START_S = 4.0
BURST_END_S = 7.0


def test_fig13_cross_traffic():
    session = cross_traffic_session(
        burst_start_s=BURST_START_S,
        burst_duration_s=BURST_END_S - BURST_START_S,
        burst_prbs=260,
        seed=3,
    )
    result = session.run(12_000_000)
    timeline = Timeline.from_bundle(result.bundle)
    t = timeline.t_us / 1e6
    series = {
        "exp_PRB": timeline["dl_exp_prbs"],
        "other_PRB": timeline["dl_other_prbs"],
        "delay_ms": timeline["dl_packet_delay_ms"],
        "gcc_state": timeline["remote_gcc_state"],
        "target_Mbps": timeline["remote_target_bitrate_bps"] / 1e6,
    }
    text = render_series(
        t,
        series,
        n_points=24,
        annotations={
            BURST_START_S: "(1) cross traffic starts",
            BURST_START_S + 0.5: "(2) delay increases",
            BURST_START_S + 1.0: "(3) GCC detects overuse",
            BURST_END_S: "(4) delay decreases",
        },
    )
    save_result("fig13_cross_traffic", text)

    before = (t > 1.0) & (t < BURST_START_S)
    during = (t >= BURST_START_S) & (t < BURST_END_S)

    other = timeline["dl_other_prbs"]
    assert other[before].sum() == 0 and other[during].sum() > 0  # (1)
    delay = np.nan_to_num(timeline["dl_packet_delay_ms"])
    assert delay[during].max() > 1.5 * delay[before].mean()  # (2)
    overuse = timeline["remote_gcc_state"] > 0.5
    assert overuse[during].any()  # (3)
    first_overuse_s = float(t[np.argmax(overuse)])
    # GCC reacts after the burst starts, within a couple of seconds.
    assert BURST_START_S <= first_overuse_s <= BURST_START_S + 2.5
    target = timeline["remote_target_bitrate_bps"]
    assert np.nanmin(target[during]) < np.nanmax(target[before])  # rate cut
