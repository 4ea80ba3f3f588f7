"""Skeleton-recovery metrics and the sample -> experiment -> replicate
aggregation protocol.

Ranking metrics operate on flat score/label vectors (one entry per
unordered node pair). AUROC uses midranks, equivalent to exact
Mann-Whitney pair counting with half-credit ties; AUPRC is step-wise
average precision with tied scores handled as one group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, ShapeMismatch

REPORT_COLUMNS = ["setting", "replicate", "method", "n_train", "threshold",
                  "auroc", "auprc", "f1", "ba", "runtime_s"]


def _check_binary(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeMismatch("scores and labels must be equal-length vectors")
    labels = labels.astype(bool)
    return scores, labels


def _tie_groups(scores) -> tuple[np.ndarray, np.ndarray]:
    """Stable descending sort order of ``scores`` and one past the last
    sorted position of every tie group."""
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    return order, np.append(np.flatnonzero(s_sorted[1:] != s_sorted[:-1]) + 1, scores.size)


def _per_score(order, ends, group_values) -> np.ndarray:
    """Scatter one value per tie group back to every score."""
    out = np.empty(order.size)
    out[order] = np.repeat(group_values, np.diff(ends, prepend=0))
    return out


def _midranks(scores) -> np.ndarray:
    """Ascending ranks with ties averaged, all NaN if any score is NaN
    (``scipy.stats.rankdata(scores, method="average")``).

    Sorted descending, a group at positions ``start..end-1`` holds the
    ascending ranks ``n-end+1..n-start``; their mean is a multiple of 1/2,
    so sums of midranks are exact below 2**53.
    """
    if np.isnan(scores).any():
        return np.full(scores.size, np.nan)
    order, ends = _tie_groups(scores)
    starts = np.append(0, ends[:-1])
    return _per_score(order, ends, (2 * scores.size + 1 - starts - ends) / 2)


def auroc(scores, labels) -> float:
    """P(score_pos > score_neg) + 0.5 P(tie), via midranks."""
    scores, labels = _check_binary(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("need at least one positive and one negative")
    ranks = _midranks(scores)
    pos_rank_sum = float(np.sum(ranks[labels]))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auprc(scores, labels) -> float:
    """Step-wise average precision.

    Each positive contributes the precision at its rank, with every tied
    score group collapsed to the precision at the group boundary.
    """
    scores, labels = _check_binary(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise DegenerateLabels("need at least one positive")
    order, ends = _tie_groups(scores)
    seen = np.cumsum(labels[order])[ends - 1]
    return float(np.mean(_per_score(order, ends, seen / ends)[labels]))


def f1_ba(predicted, truth) -> tuple[float, float]:
    """F1 and balanced accuracy over unordered off-diagonal pairs."""
    predicted = np.asarray(predicted).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if predicted.shape != truth.shape or predicted.ndim != 2:
        raise ShapeMismatch("skeletons must share a (p, p) shape")
    if not (predicted == predicted.T).all() or not (truth == truth.T).all():
        raise ShapeMismatch("skeletons must be symmetric")
    iu = np.triu_indices(predicted.shape[0], k=1)
    a, b = predicted[iu], truth[iu]
    tp = int(np.sum(a & b))
    fp = int(np.sum(a & ~b))
    fn = int(np.sum(~a & b))
    tn = int(np.sum(~a & ~b))
    f1 = 2.0 * tp / (2.0 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0
    sens = tp / (tp + fn) if (tp + fn) > 0 else 1.0
    spec = tn / (tn + fp) if (tn + fp) > 0 else 1.0
    return f1, (sens + spec) / 2.0


def distinct_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D array in first-seen order, and the index of
    each row among them, so that each distinct case is scored once."""
    rows = np.asarray(rows)
    slot: dict[bytes, int] = {}
    inverse = np.array([slot.setdefault(r.tobytes(), len(slot)) for r in rows], dtype=np.intp)
    return rows[np.unique(inverse, return_index=True)[1]], inverse


def _fmean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values)


@dataclass
class MetricsReport:
    """Per-sample values, per-experiment means, and replicate mean/std."""

    per_sample: dict
    per_experiment: dict
    mean: dict
    std: dict


def aggregate(replicate_samples: list[dict]) -> MetricsReport:
    """Aggregate per-sample metric values.

    ``replicate_samples`` holds one dict per replicate experiment mapping
    metric name -> per-sample values. Means use exact summation so the
    report is invariant to sample ordering; the replicate spread is the
    sample standard deviation (0 for a single replicate).
    """
    if not replicate_samples:
        raise ShapeMismatch("at least one replicate required")
    names = list(replicate_samples[0].keys())
    per_sample = {m: [np.asarray(r[m], dtype=np.float64) for r in replicate_samples]
                  for m in names}
    per_experiment = {m: [_fmean(vals) for vals in per_sample[m]] for m in names}
    mean = {m: _fmean(per_experiment[m]) for m in names}
    std = {}
    for m in names:
        vals = per_experiment[m]
        if len(vals) < 2:
            std[m] = 0.0
        else:
            mu = mean[m]
            std[m] = math.sqrt(math.fsum((v - mu) ** 2 for v in vals) / (len(vals) - 1))
    return MetricsReport(per_sample=per_sample, per_experiment=per_experiment,
                         mean=mean, std=std)
