"""Fig. 10: absolute occurrence frequency per minute of 5G causes and
application consequences, commercial vs private cells.

Paper (events/min): commercial — poor channel 0.97, cross traffic 2.23,
UL scheduling 1.39, HARQ 3.28, RLC 0, RRC 0.10; private — poor channel
5.83, cross 0, UL sched 5.83, HARQ 4.24, RLC 0.07, RRC 0.
Consequences: commercial jitter-drain 0.16 / target 1.78 / pushback
1.28; private 0.11 / 3.09 / 2.94.  Plus the §1 headline of ~5
degradation events per minute.

Reproduction targets: commercial shows cross traffic + RRC (absent on
private); private shows more poor-channel and RLC visibility; target /
pushback drops outnumber jitter-buffer drains.
"""

from paper_tables import save_result

from repro.core.chains import CauseKind, ConsequenceKind
from repro.core.detector import DominoDetector
from repro.core.report import render_frequency_table
from repro.core.stats import DominoStats


def test_fig10_frequencies(commercial_results, private_results):
    detector = DominoDetector()

    commercial = DominoStats.from_reports(
        detector.analyze(r.bundle) for r in commercial_results
    )
    private = DominoStats.from_reports(
        detector.analyze(r.bundle) for r in private_results
    )
    text = render_frequency_table(
        {"Commercial 5G": commercial, "Private 5G": private}
    )
    deg = (
        f"\nDegradation events/min: commercial "
        f"{commercial.degradation_events_per_min():.2f}, private "
        f"{private.degradation_events_per_min():.2f} (paper: ~5)"
    )
    save_result("fig10_frequencies", text + deg)

    commercial_causes = commercial.cause_frequencies_per_min()
    private_causes = private.cause_frequencies_per_min()
    # Cross traffic is a commercial phenomenon; private cells are idle.
    assert commercial_causes[CauseKind.CROSS_TRAFFIC] > 0
    assert private_causes[CauseKind.CROSS_TRAFFIC] == 0
    # RRC flaps only on the commercial FDD cell.
    assert private_causes[CauseKind.RRC_STATE] == 0
    # Poor channel is more frequent on private cells (Amarisoft UL).
    assert (
        private_causes[CauseKind.POOR_CHANNEL]
        >= commercial_causes[CauseKind.POOR_CHANNEL]
    )
    # RLC retransmissions are only *visible* on private cells (gNB log).
    assert commercial_causes[CauseKind.RLC_RETX] == 0

    for stats in (commercial, private):
        consequences = stats.consequence_frequencies_per_min()
        # GCC's proactive control: rate reductions outnumber actual
        # jitter-buffer drains (§4.2).
        assert (
            consequences[ConsequenceKind.TARGET_BITRATE_DOWN]
            + consequences[ConsequenceKind.PUSHBACK_RATE_DOWN]
            >= consequences[ConsequenceKind.JITTER_BUFFER_DRAIN]
        )
    # Headline: a handful of degradation events per minute.
    assert 1.0 <= commercial.degradation_events_per_min() <= 15.0
