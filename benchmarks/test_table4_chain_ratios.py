"""Table 4 (Appendix C): each causal chain's detection ratio given that
its consequence occurred, commercial vs private.

Reproduction targets: full-chain ratios are bounded by the Table 2
co-occurrence probabilities; RLC chains appear only on private cells;
UL-scheduling and HARQ chains are present in both deployments.
"""

from conftest import save_result

from repro.core.chains import CauseKind, ConsequenceKind
from repro.core.detector import DominoDetector
from repro.core.report import render_chain_ratio_table
from repro.core.stats import DominoStats


def test_table4_chain_ratios(commercial_results, private_results):
    detector = DominoDetector()

    commercial = DominoStats.from_reports(
        detector.analyze(r.bundle) for r in commercial_results
    )
    private = DominoStats.from_reports(
        detector.analyze(r.bundle) for r in private_results
    )
    text = render_chain_ratio_table(commercial, private)
    save_result("table4_chain_ratios", text)

    commercial_ratios = commercial.chain_ratios()
    commercial_conditional = commercial.conditional_probabilities()
    private_ratios = private.chain_ratios()

    for consequence in ConsequenceKind:
        for cause in CauseKind:
            # A full chain requires cause + intermediates + consequence,
            # so its ratio cannot exceed bare co-occurrence.
            assert (
                commercial_ratios[consequence][cause]
                <= commercial_conditional[consequence][cause] + 1e-9
            )
        # RLC chains cannot be detected without RLC telemetry.
        assert commercial_ratios[consequence][CauseKind.RLC_RETX] == 0.0

    # Both deployments produce at least one UL-scheduling and one HARQ
    # chain somewhere (the paper's "prevalent across both" finding).
    assert any(
        commercial_ratios[c][CauseKind.UL_SCHEDULING] > 0
        for c in ConsequenceKind
    )
    assert any(
        private_ratios[c][CauseKind.UL_SCHEDULING] > 0
        for c in ConsequenceKind
    )
    assert any(
        commercial_ratios[c][CauseKind.HARQ_RETX] > 0 for c in ConsequenceKind
    )
