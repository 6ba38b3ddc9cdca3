"""Imbalance-aware evaluation: confusion counts, precision/recall/F1, ROC AUC.

The positive class is the outlier (label 1) throughout. Zero-denominator
precision and recall return 0, the usual convention when a detector flags
nothing on heavily imbalanced data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricSet:
    precision: float
    recall: float
    f1: float
    support_outliers: int


def confusion(flags, labels) -> Confusion:
    """Count the confusion cells of binary predictions against binary truth."""
    flags = np.asarray(flags, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if flags.shape != labels.shape:
        raise ValueError(f"length mismatch: {flags.shape} vs {labels.shape}")
    return Confusion(
        tp=int(((flags == 1) & (labels == 1)).sum()),
        fp=int(((flags == 1) & (labels == 0)).sum()),
        tn=int(((flags == 0) & (labels == 0)).sum()),
        fn=int(((flags == 0) & (labels == 1)).sum()),
    )


def prf1(c: Confusion) -> MetricSet:
    """Precision, recall, and F1 from confusion counts (AUC needs scores: :func:`roc_auc`)."""
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return MetricSet(
        precision=precision,
        recall=recall,
        f1=f1,
        support_outliers=c.tp + c.fn,
    )


def _fractional_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    new_group = np.r_[True, sorted_x[1:] != sorted_x[:-1]]
    group = np.cumsum(new_group) - 1
    counts = np.bincount(group)
    firsts = np.r_[0, np.cumsum(counts)[:-1]]
    mean_rank = firsts + (counts + 1) / 2.0
    ranks = np.empty(x.shape[0], dtype=np.float64)
    ranks[order] = mean_rank[group]
    return ranks


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative.

    Ties count one half, which makes this the trapezoidal area under the ROC
    curve. Computed by rank sums in O(n log n).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape:
        raise ValueError(f"length mismatch: {scores.shape} vs {labels.shape}")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs at least one positive and one negative label")
    ranks = _fractional_ranks(scores)
    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
