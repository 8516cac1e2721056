"""Evaluation quantities: confusion counts, accuracies, recall, and ICC(2,1).

Average accuracy is the mean per-class recall over classes that actually
appear in the evaluation set; absent classes are excluded rather than counted
as zero, and their recall is reported as NaN (null in JSON).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .featurepipe import N_CLASSES, EngagementLevel

CLASS_NAMES = tuple(level.name for level in EngagementLevel)


@dataclass
class MetricsReport:
    confusion: np.ndarray      # (4, 4) counts, rows = truth, cols = prediction
    acc: float
    avg_acc: float
    recall: np.ndarray         # (4,), NaN for classes with no true samples

    def as_dict(self) -> dict:
        return {
            "confusion": self.confusion.astype(int).tolist(),
            "acc": self.acc,
            "avg_acc": self.avg_acc,
            "recall": [None if np.isnan(r) else float(r) for r in self.recall],
            "classes": list(CLASS_NAMES),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    @property
    def n_samples(self) -> int:
        return int(self.confusion.sum())


@dataclass
class RatingMatrix:
    """Complete n x k table of ordinal ratings (subjects by raters)."""

    ratings: np.ndarray

    def __post_init__(self):
        self.ratings = np.asarray(self.ratings, dtype=np.float64)
        if self.ratings.ndim != 2:
            raise ValueError("ratings must be a 2D subjects-by-raters matrix")
        n, k = self.ratings.shape
        if n < 2 or k < 2:
            raise ValueError("need at least 2 subjects and 2 raters")
        if not np.all(np.isfinite(self.ratings)):
            raise ValueError("ratings must have no missing cells")


def confusion_matrix(preds, labels) -> np.ndarray:
    """Count (truth, prediction) pairs into a 4x4 matrix."""
    preds = np.asarray(preds, dtype=np.int64).reshape(-1)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if preds.shape != labels.shape:
        raise ValueError("preds and labels must have equal length")
    for name, arr in (("prediction", preds), ("label", labels)):
        if np.any((arr < 0) | (arr >= N_CLASSES)):
            raise ValueError(f"{name} out of range 0..{N_CLASSES - 1}")
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(counts, (labels, preds), 1)
    return counts


def accuracy_metrics(confusion: np.ndarray) -> MetricsReport:
    """Overall accuracy plus mean per-class recall over populated classes."""
    confusion = np.asarray(confusion, dtype=np.int64)
    if confusion.shape != (N_CLASSES, N_CLASSES):
        raise ValueError(f"confusion matrix must be {N_CLASSES}x{N_CLASSES}")
    total = confusion.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    acc = float(np.trace(confusion) / total)
    row_sums = confusion.sum(axis=1)
    populated = row_sums > 0
    recall = np.full(N_CLASSES, np.nan)
    recall[populated] = np.diag(confusion)[populated] / row_sums[populated]
    avg_acc = float(recall[populated].mean())
    return MetricsReport(confusion=confusion, acc=acc, avg_acc=avg_acc, recall=recall)


def icc_2_1(ratings) -> float:
    """Two-way random single-rater agreement from the ANOVA decomposition.

    Returns (MSR - MSE) / (MSR + (k-1) MSE + k (MSC - MSE) / n).  A table
    where every cell is identical is perfect agreement (1.0); any other table
    with a zero denominator raises "degenerate variance".
    """
    if not isinstance(ratings, RatingMatrix):
        ratings = RatingMatrix(np.asarray(ratings))
    x = ratings.ratings
    n, k = x.shape
    if np.all(x == x.flat[0]):
        return 1.0
    grand = x.mean()
    row_means = x.mean(axis=1)
    col_means = x.mean(axis=0)
    ss_total = float(((x - grand) ** 2).sum())
    ss_rows = float(k * ((row_means - grand) ** 2).sum())
    ss_cols = float(n * ((col_means - grand) ** 2).sum())
    ss_err = ss_total - ss_rows - ss_cols
    msr = ss_rows / (n - 1)
    msc = ss_cols / (k - 1)
    mse = ss_err / ((n - 1) * (k - 1))
    denom = msr + (k - 1) * mse + k * (msc - mse) / n
    if denom == 0.0:
        raise ValueError("degenerate variance")
    return float((msr - mse) / denom)


def write_recall_csv(path, reports: dict[str, MetricsReport]) -> None:
    """Plot-ready per-class recall table: one row per class, one column per run."""
    names = list(reports)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class"] + names)
        for c, cname in enumerate(CLASS_NAMES):
            row = [cname]
            for name in names:
                r = reports[name].recall[c]
                row.append("" if np.isnan(r) else f"{r:.6f}")
            writer.writerow(row)
