"""Macro-averaged multi-class metrics for multiple-choice predictions.

Abstentions (predicted ``None``) form a distinct predicted class that can
never be a gold label, so they depress recall of the true label without
inflating any precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError


@dataclass(frozen=True)
class LabelMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class Metrics:
    per_label: dict[str, LabelMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    accuracy: float
    abstain_count: int
    n: int

    def to_dict(self) -> dict:
        return {**vars(self), "per_label": {label: dict(vars(scores)) for label, scores in self.per_label.items()}}


def compute_metrics(golds: Sequence[str], predictions: Sequence[str | None]) -> Metrics:
    """Per-label precision/recall/F1 plus unweighted macro means and accuracy.

    Macro averages run over the labels present in ``golds`` only. A label's
    precision (or recall) is 0 when it has no predictions (or no gold
    items); F1 is 0 when precision + recall is 0.
    """
    if len(golds) != len(predictions):
        raise ValidationError("gold and prediction lists differ in length")
    if not golds:
        raise ValidationError("cannot compute metrics over zero records")

    labels = sorted(set(golds))
    per_label: dict[str, LabelMetrics] = {}
    for label in labels:
        tp = sum(1 for g, p in zip(golds, predictions) if g == label and p == label)
        fp = sum(1 for g, p in zip(golds, predictions) if g != label and p == label)
        fn = sum(1 for g, p in zip(golds, predictions) if g == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_label[label] = LabelMetrics(
            precision=precision, recall=recall, f1=f1, support=golds.count(label)
        )

    count = len(labels)
    return Metrics(
        per_label=per_label,
        macro_precision=sum(m.precision for m in per_label.values()) / count,
        macro_recall=sum(m.recall for m in per_label.values()) / count,
        macro_f1=sum(m.f1 for m in per_label.values()) / count,
        accuracy=sum(1 for g, p in zip(golds, predictions) if g == p) / len(golds),
        abstain_count=sum(1 for p in predictions if p is None),
        n=len(golds),
    )
