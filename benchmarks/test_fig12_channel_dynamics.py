"""Fig. 12: channel condition dynamics → RLC buffer build-up → delay.

Paper annotations on an Amarisoft UL trace: ① channel degrades (MCS
drops, PRBs also drop without cross traffic), ② RLC buffer builds up,
③ one-way delay rises to ~380 ms, ④ channel recovers, ⑤ delay drains
back to ~30 ms.
"""

import numpy as np
from conftest import save_result

from repro.analysis.ascii import render_series
from repro.datasets.workloads import channel_degradation_session
from repro.telemetry.timeline import Timeline

FADE_START_S = 4.0
FADE_END_S = 7.0


def test_fig12_channel_degradation():
    session = channel_degradation_session(
        fade_start_s=FADE_START_S,
        fade_duration_s=FADE_END_S - FADE_START_S,
        fade_depth_db=12.0,  # partial fade, like the paper's trace
        seed=6,
    )
    result = session.run(12_000_000)
    timeline = Timeline.from_bundle(result.bundle)
    t = timeline.t_us / 1e6
    series = {
        "PRB": timeline["ul_exp_prbs"],
        "MCS": timeline["ul_mcs_mean"],
        "rate_gap_Mbps": (
            np.nan_to_num(timeline["ul_app_bitrate_bps"])
            - np.nan_to_num(timeline["ul_tbs_bitrate_bps"])
        )
        / 1e6,
        "rlc_buffer_kB": timeline["ul_rlc_buffer_bytes"] / 1e3,
        "delay_ms": timeline["ul_packet_delay_ms"],
    }
    text = render_series(
        t,
        series,
        n_points=24,
        annotations={
            FADE_START_S: "(1) channel degrades",
            FADE_START_S + 0.8: "(2) buffer builds up",
            FADE_START_S + 1.5: "(3) delay increases",
            FADE_END_S: "(4) channel recovers",
            FADE_END_S + 1.0: "(5) delay decreases",
        },
    )
    save_result("fig12_channel_dynamics", text)

    before = (t > 1.0) & (t < FADE_START_S)
    during = (t > FADE_START_S + 0.5) & (t < FADE_END_S)
    after = t > FADE_END_S + 2.0

    mcs = timeline["ul_mcs_mean"]
    assert np.nanmean(mcs[during]) < np.nanmean(mcs[before]) - 3  # (1)
    buffer = np.nan_to_num(timeline["ul_rlc_buffer_bytes"])
    # (2) the RLC queue grows well past its pre-fade peak (GCC's rate
    # adaptation bounds how far; the paper's trace shows the same burst
    # then partial drain pattern).
    assert buffer[during].max() > 2 * max(buffer[before].max(), 1.0)
    delay = np.nan_to_num(timeline["ul_packet_delay_ms"])
    assert delay[during].max() > 3 * delay[before].mean()  # (3)
    assert np.nanmean(mcs[after]) > np.nanmean(mcs[during]) + 2  # (4)
    assert delay[after].mean() < delay[during].max() / 2  # (5)
