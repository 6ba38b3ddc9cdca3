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


@dataclass(frozen=True)
class MetricSet:
    precision: float
    recall: float
    f1: float


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
    return MetricSet(precision=precision, recall=recall, f1=f1)


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative.

    Ties count one half, which makes this the trapezoidal area under the ROC
    curve. It is the Mann-Whitney U over n_pos * n_neg, counted per group of
    tied scores in O(n log n): each positive beats every negative of a lower
    group and ties with each negative of its own. Twice U is an integer, so
    the only rounding is the final division.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape:
        raise ValueError(f"length mismatch: {scores.shape} vs {labels.shape}")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs at least one positive and one negative label")
    levels, group = np.unique(scores, return_inverse=True)
    pos, neg = (np.bincount(group[labels == c], minlength=levels.size) for c in (1, 0))
    wins = pos @ (2 * (np.cumsum(neg) - neg) + neg)  # twice U: a win counts 2, a tie 1
    return float(wins / (2 * n_pos * n_neg))
