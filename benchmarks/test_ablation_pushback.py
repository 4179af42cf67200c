"""Ablation: GCC's pushback controller on vs off.

DESIGN.md design-choice ablation: with the pushback controller disabled
the sender ignores the congestion window, so pushback-rate consequences
disappear — and the outstanding-byte protection against feedback-path
delay is lost.
"""

from conftest import save_result

from repro.analysis.ascii import render_table
from repro.core.chains import ConsequenceKind
from repro.core.detector import DominoDetector
from repro.core.stats import DominoStats
from repro.datasets.cells import TMOBILE_FDD
from repro.datasets.runner import make_cellular_session


def test_ablation_pushback_controller():
    out = {}
    for label, enabled in (("enabled", True), ("disabled", False)):
        session = make_cellular_session(
            TMOBILE_FDD, seed=6, pushback_enabled=enabled
        )
        result = session.run(40_000_000)
        report = DominoDetector().analyze(result.bundle)
        out[label] = (report, DominoStats.from_report(report))
    rows = []
    divergence = {}
    for label, (report, stat) in out.items():
        freq = stat.consequence_frequencies_per_min()
        diverged = sum(
            1
            for w in report.windows
            if w.features["local_pushback_neq_target"]
            or w.features["remote_pushback_neq_target"]
        )
        divergence[label] = diverged
        rows.append(
            [
                label,
                freq[ConsequenceKind.JITTER_BUFFER_DRAIN],
                freq[ConsequenceKind.TARGET_BITRATE_DOWN],
                freq[ConsequenceKind.PUSHBACK_RATE_DOWN],
                float(diverged),
            ]
        )
    text = render_table(
        [
            "pushback ctrl",
            "jb drains/min",
            "target drops/min",
            "pushback drops/min",
            "diverged windows",
        ],
        rows,
    )
    save_result("ablation_pushback", text)

    # With the controller disabled the pushback rate is the target rate
    # by construction, so pushback-vs-target divergence disappears.
    assert divergence["disabled"] == 0
    assert divergence["enabled"] >= divergence["disabled"]
