"""Ablation: Domino's sliding-window length W and step Δt.

The paper fixes W = 5 s and Δt = 0.5 s (§4.2).  This sweep shows the
design trade-off: short windows miss cause→consequence co-occurrence
(the chain needs both inside one window), long windows blur distinct
events together; a finer step raises time resolution at linear cost.
"""

from paper_tables import save_result

from repro.analysis.ascii import render_table
from repro.core.detector import DetectorConfig, DominoDetector

WINDOWS_S = (2.0, 5.0, 10.0)
STEPS_S = (0.25, 0.5, 1.0)


def test_ablation_window_and_step(fdd_results):
    bundle = fdd_results[0].bundle

    rows = []
    for window_s in WINDOWS_S:
        for step_s in STEPS_S:
            detector = DominoDetector(
                DetectorConfig(
                    window_us=int(window_s * 1e6),
                    step_us=int(step_s * 1e6),
                )
            )
            report = detector.analyze(bundle)
            detections = sum(len(w.chain_ids) for w in report.windows)
            explained = sum(
                1 for w in report.windows if w.chain_ids
            )
            rows.append(
                [
                    f"W={window_s:.2g}s dt={step_s:.2g}s",
                    float(report.n_windows),
                    float(detections),
                    float(explained),
                ]
            )
    text = render_table(
        ["configuration", "windows", "chain hits", "hit windows"], rows
    )
    save_result("ablation_window", text)

    by_config = {row[0]: row for row in rows}
    # Smaller step -> more window positions.
    assert (
        by_config["W=5s dt=0.25s"][1] > by_config["W=5s dt=1s"][1]
    )
    # Longer windows catch at least as many chain co-occurrences per
    # window position (more data in each window).
    w2 = by_config["W=2s dt=0.5s"]
    w10 = by_config["W=10s dt=0.5s"]
    assert w10[2] / max(w10[1], 1) >= w2[2] / max(w2[1], 1)
