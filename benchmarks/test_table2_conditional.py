"""Table 2: conditional probability of each 5G cause given a WebRTC
consequence, commercial (blue) vs private (red) cells.

Paper highlights reproduced as assertions: UL scheduling and HARQ are
prevalent across both deployments; RLC ReTX appears only on private
cells (commercial RLC telemetry is unavailable); RRC transitions appear
only on the commercial FDD cell; private cells show more poor-channel
involvement.
"""

from paper_tables import save_result

from repro.core.chains import CauseKind, ConsequenceKind
from repro.core.detector import DominoDetector
from repro.core.report import render_conditional_table
from repro.core.stats import DominoStats


def test_table2_conditional_probabilities(
    commercial_results, private_results
):
    detector = DominoDetector()

    commercial = DominoStats.from_reports(
        detector.analyze(r.bundle) for r in commercial_results
    )
    private = DominoStats.from_reports(
        detector.analyze(r.bundle) for r in private_results
    )
    text = render_conditional_table(commercial, private)
    save_result("table2_conditional", text)

    commercial_table = commercial.conditional_probabilities()
    private_table = private.conditional_probabilities()

    for consequence in ConsequenceKind:
        # RLC causes invisible on commercial cells (no gNB log).
        assert commercial_table[consequence][CauseKind.RLC_RETX] == 0.0
        # No RRC flaps on private cells.
        assert private_table[consequence][CauseKind.RRC_STATE] == 0.0
        # UL scheduling is prevalent in both deployments (paper: tens of
        # percent in every row).
        assert commercial_table[consequence][CauseKind.UL_SCHEDULING] > 0.2
        assert private_table[consequence][CauseKind.UL_SCHEDULING] > 0.2

    # Private cells: poor channel accompanies consequences more often.
    poor_private = sum(
        private_table[c][CauseKind.POOR_CHANNEL] for c in ConsequenceKind
    )
    poor_commercial = sum(
        commercial_table[c][CauseKind.POOR_CHANNEL] for c in ConsequenceKind
    )
    assert poor_private > poor_commercial
