"""Cause-attribution extraction and ground-truth scoring.

:func:`attribute_detectors` runs every detector/baseline over one
session's telemetry and reduces each to a single root-cause attribution
(a ``CauseKind`` value string, ``"Congestion"`` for the app-only
baseline's coarse bucket, or ``"none"``).  It executes inside the fleet
worker (:func:`repro.fleet.executor.run_scenario`), so attributions ride
home in the picklable :class:`~repro.fleet.executor.SessionOutcome` on
process-pool and cluster backends alike.

:func:`score_outcomes` folds labelled outcomes into a
:class:`CausalReport` — per-detector precision/recall/F1 against the
simulator's ground truth plus a per-confounder-axis confusion breakdown
— and :func:`render_leaderboard` renders the Markdown table ``repro
causal bench`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.chains import classify_cause

#: Detector/baseline column order of the leaderboard.
DETECTORS: Tuple[str, ...] = (
    "domino",
    "pcmci",
    "granger",
    "correlation",
    "single_layer",
    "app_only",
)


def _argmax_label(counts: Dict[str, int]) -> str:
    """Deterministic argmax: highest count, label as tie-break."""
    best: Optional[Tuple[int, str]] = None
    for label, count in counts.items():
        if count <= 0:
            continue
        key = (-count, label)
        if best is None or key < (-best[0], best[1]):
            best = (count, label)
    return best[1] if best else "none"


def _domino_attribution(stats) -> str:
    """Cause family of Domino's dominant *detected chain*.

    Uses complete chains rather than bare cause-event counts: a
    confounder burst can fire a cross-traffic event without completing
    any chain to the app-layer consequence, and chain completion is
    exactly the causal structure Domino adds.
    """
    counts: Dict[str, int] = {}
    for chain, count in stats.chain_episode_counts().items():
        kind = classify_cause(chain[0])
        if kind is None:
            continue
        counts[kind.value] = counts.get(kind.value, 0) + count
    return _argmax_label(counts)


def _ranked_attribution(results, score_of) -> str:
    """Strongest top-ranked cause across a baseline's consequence results."""
    from repro.baselines.causal import cause_label_for_series

    best_label, best_score = "none", 0.0
    for result in results:
        if not result.ranking:
            continue
        name, score = result.ranking[0]
        label = cause_label_for_series(name)
        if label is None:
            continue
        if abs(score_of(score)) > best_score:
            best_label, best_score = label, abs(score_of(score))
    return best_label


def attribute_detectors(
    bundle, stats, include: Sequence[str] = DETECTORS
) -> Dict[str, str]:
    """Run each detector over *bundle* and extract its attribution."""
    from repro.baselines import (
        AppOnlyDetector,
        CorrelationRca,
        GrangerRca,
        PcmciRca,
        SingleLayerAlerts,
    )

    out: Dict[str, str] = {}
    for name in include:
        if name == "domino":
            out[name] = _domino_attribution(stats)
        elif name == "correlation":
            out[name] = _ranked_attribution(
                CorrelationRca().analyze(bundle), float
            )
        elif name == "granger":
            out[name] = _ranked_attribution(
                GrangerRca().analyze(bundle), float
            )
        elif name == "pcmci":
            out[name] = _ranked_attribution(
                PcmciRca().analyze(bundle), float
            )
        elif name == "app_only":
            report = AppOnlyDetector().analyze(bundle)
            out[name] = (
                "Congestion" if report.attributed_windows else "none"
            )
        elif name == "single_layer":
            report = SingleLayerAlerts().analyze(bundle)
            counts: Dict[str, int] = {}
            for feature, count in report.alert_counts.items():
                kind = classify_cause(feature)
                if kind is not None and count:
                    counts[kind.value] = counts.get(kind.value, 0) + count
            out[name] = _argmax_label(counts)
        else:
            raise ValueError(f"unknown detector {name!r}")
    return out


@dataclass(frozen=True)
class CausalReport:
    """Scored causal-validation campaign (a stamped schema artifact).

    Attributes:
        campaign: campaign/preset label.
        n_scenarios: outcomes considered.
        n_labeled: outcomes carrying ground truth + attributions.
        detectors: leaderboard rows, in rank order (best F1 first).
        scores: detector → {"precision", "recall", "f1", "accuracy"}
            (macro-averaged over the true cause classes).
        per_axis: confounder axis → detector → {"correct", "spurious",
            "other", "total"} attribution tallies.
    """

    campaign: str
    n_scenarios: int
    n_labeled: int
    detectors: Tuple[str, ...] = ()
    scores: Dict[str, Dict[str, float]] = field(default_factory=dict)
    per_axis: Dict[str, Dict[str, Dict[str, int]]] = field(
        default_factory=dict
    )

    def f1(self, detector: str) -> float:
        return self.scores.get(detector, {}).get("f1", 0.0)

    def to_json(self) -> dict:
        from repro import schema

        return schema.to_wire(self)

    @classmethod
    def from_json(cls, data: dict) -> "CausalReport":
        from repro import schema

        return schema.from_wire("causal_report", data)


def _macro_scores(
    pairs: List[Tuple[str, str]]
) -> Dict[str, float]:
    """Macro precision/recall/F1 over truth classes, plus accuracy."""
    classes = sorted({truth for truth, _ in pairs})
    precisions: List[float] = []
    recalls: List[float] = []
    f1s: List[float] = []
    for cls in classes:
        tp = sum(1 for t, p in pairs if t == cls and p == cls)
        fp = sum(1 for t, p in pairs if t != cls and p == cls)
        fn = sum(1 for t, p in pairs if t == cls and p != cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
    n = len(classes) or 1
    correct = sum(1 for t, p in pairs if t == p)
    return {
        "precision": sum(precisions) / n,
        "recall": sum(recalls) / n,
        "f1": sum(f1s) / n,
        "accuracy": correct / len(pairs) if pairs else 0.0,
    }


def _axis_of(label) -> str:
    return "+".join(label.axes) if label.axes else "unlabelled"


def score_outcomes(outcomes: Iterable, campaign: str = "") -> CausalReport:
    """Score every labelled outcome's attributions against ground truth."""
    outcomes = list(outcomes)
    labeled = [
        o
        for o in outcomes
        if o.ground_truth is not None and o.attributions
    ]
    detectors = [
        d
        for d in DETECTORS
        if any(d in o.attributions for o in labeled)
    ]
    scores: Dict[str, Dict[str, float]] = {}
    per_axis: Dict[str, Dict[str, Dict[str, int]]] = {}
    for detector in detectors:
        pairs: List[Tuple[str, str]] = []
        for outcome in labeled:
            label = outcome.ground_truth
            prediction = outcome.attributions.get(detector, "none")
            # Mechanism-aware credit: naming any family on the true
            # causal pathway (label.accepted) counts as the true cause;
            # only off-pathway attributions — the injected confounder
            # above all — stay wrong.
            if prediction == label.cause or prediction in label.accepted:
                prediction = label.cause
            pairs.append((label.cause, prediction))
            axis = _axis_of(label)
            tally = per_axis.setdefault(axis, {}).setdefault(
                detector,
                {"correct": 0, "spurious": 0, "other": 0, "total": 0},
            )
            tally["total"] += 1
            if prediction == label.cause:
                tally["correct"] += 1
            elif prediction in label.spurious:
                tally["spurious"] += 1
            else:
                tally["other"] += 1
        scores[detector] = _macro_scores(pairs)
    ranked = tuple(
        sorted(detectors, key=lambda d: (-scores[d]["f1"], d))
    )
    return CausalReport(
        campaign=campaign,
        n_scenarios=len(outcomes),
        n_labeled=len(labeled),
        detectors=ranked,
        scores=scores,
        per_axis=per_axis,
    )


def render_leaderboard(report: CausalReport) -> str:
    """Markdown leaderboard + per-axis confusion breakdown."""
    lines: List[str] = []
    title = report.campaign or "causal bench"
    lines.append(f"# Causal validation — {title}")
    lines.append("")
    lines.append(
        f"{report.n_labeled} labelled scenario(s) of "
        f"{report.n_scenarios} scored."
    )
    lines.append("")
    lines.append("| rank | detector | F1 | precision | recall | accuracy |")
    lines.append("|---:|---|---:|---:|---:|---:|")
    for rank, detector in enumerate(report.detectors, start=1):
        s = report.scores[detector]
        lines.append(
            f"| {rank} | {detector} | {s['f1']:.3f} | "
            f"{s['precision']:.3f} | {s['recall']:.3f} | "
            f"{s['accuracy']:.3f} |"
        )
    if report.per_axis:
        lines.append("")
        lines.append("## Per confounder axis (correct / spurious / other)")
        lines.append("")
        header = "| axis | " + " | ".join(report.detectors) + " |"
        lines.append(header)
        lines.append("|---|" + "---|" * len(report.detectors))
        for axis in sorted(report.per_axis):
            cells = []
            for detector in report.detectors:
                tally = report.per_axis[axis].get(detector)
                if tally is None:
                    cells.append("–")
                    continue
                cells.append(
                    f"{tally['correct']}/{tally['spurious']}"
                    f"/{tally['other']}"
                )
            lines.append(f"| {axis} | " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)
