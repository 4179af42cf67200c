"""Fig. 19: RRC state transitions halt PHY transmission and spike delay.

Paper annotations: ① RRC release (PRB/MCS series go silent, RNTI
changes), ② the UE keeps generating data during the ~300 ms outage,
③ one-way delay surges to ~400 ms, then drains after re-establishment.
"""

import numpy as np
from paper_tables import save_result

from repro.analysis.ascii import render_series
from repro.datasets.workloads import rrc_transition_session
from repro.telemetry.timeline import Timeline

RELEASES_S = (4.0, 9.0)


def test_fig19_rrc_transitions():
    session = rrc_transition_session(release_times_s=RELEASES_S, seed=2)
    result = session.run(13_000_000)
    timeline = Timeline.from_bundle(result.bundle)
    t = timeline.t_us / 1e6
    series = {
        "PRB": timeline["ul_exp_prbs"],
        "scheduled": timeline["ul_scheduled"],
        "RNTI": timeline["ul_rnti"],
        "delay_ms": timeline["ul_packet_delay_ms"],
    }
    text = render_series(
        t,
        series,
        n_points=26,
        annotations={
            RELEASES_S[0]: "(1) RRC release",
            RELEASES_S[0] + 0.15: "(2) UE stops transmitting",
            RELEASES_S[0] + 0.35: "(3) delay surges",
        },
    )
    save_result("fig19_rrc_transitions", text)

    transitions = session.access_a.ran.rrc.transitions
    assert len(transitions) == len(RELEASES_S)
    outage_ms = transitions[0].outage_us / 1000.0
    assert outage_ms == 300.0

    rnti = timeline["ul_rnti"]
    distinct_rntis = len(np.unique(rnti[rnti > 0]))
    assert distinct_rntis == len(RELEASES_S) + 1  # new RNTI per flap

    for release_s in RELEASES_S:
        outage = (t >= release_s + 0.05) & (t < release_s + 0.25)
        assert timeline["ul_scheduled"][outage].sum() == 0  # (2)
        window = (t >= release_s) & (t < release_s + 1.0)
        delay = np.nan_to_num(timeline["ul_packet_delay_ms"])
        # Delay surges to roughly the outage duration (paper: ~400 ms
        # for a ~300 ms outage).
        assert delay[window].max() > outage_ms * 0.8  # (3)
