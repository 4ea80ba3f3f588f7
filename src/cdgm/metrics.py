"""Skeleton-recovery metrics and the sample -> experiment -> replicate
aggregation protocol.

All skeleton metrics come from one row-wise kernel, ``score_rows``: one
row of scores per graph (one entry per unordered node pair) against the
distinct label rows. AUROC uses midranks, equivalent to exact
Mann-Whitney pair counting with half-credit ties; AUPRC is step-wise
average precision with tied scores handled as one group; F1 and balanced
accuracy score thresholded skeletons. The scalar ``auroc``, ``auprc``
and ``f1_ba`` are the kernel's one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import graphops
from .errors import DegenerateLabels, ShapeMismatch


def _check_binary(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeMismatch("scores and labels must be equal-length vectors")
    labels = labels.astype(bool)
    return scores, labels


def _tie_groups(scores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Descending sort order of every row of ``scores`` (m, n), as flat
    indices into ``scores``, and the start and one-past-end of the tie
    group at each sorted position.

    Every value derived from these depends only on the groups, so the
    order inside a group, and with it the sort's stability, is free.
    """
    m, n = scores.shape
    order = np.argsort(-scores, axis=1)
    order += (n * np.arange(m))[:, None]
    s_sorted = scores.ravel()[order]
    first = np.ones((m, n), dtype=bool)  # a tie group starts here
    first[:, 1:] = s_sorted[:, 1:] != s_sorted[:, :-1]
    last = np.ones((m, n), dtype=bool)
    last[:, :-1] = first[:, 1:]
    pos = np.arange(n)
    starts = np.maximum.accumulate(np.where(first, pos, 0), axis=1)
    ends = np.minimum.accumulate(np.where(last, pos + 1, n)[:, ::-1], axis=1)[:, ::-1]
    return order, starts, ends


def _unsort(order, sorted_values) -> np.ndarray:
    """Scatter values given in sorted position back to every score."""
    out = np.empty(sorted_values.shape)
    out.ravel()[order] = sorted_values
    return out


ROW_BLOCK = 1 << 18  # score entries the kernel works on at once


def score_rows(scores, patterns, inverse, peaks=None, thresholds=(),
               rank=("auroc", "auprc")) -> dict:
    """Skeleton-recovery metrics of many score rows in one pass.

    Row i of ``scores`` (m, pairs) holds one graph's symmetric edge scores
    (``graphops.pair_scores``) and is labelled by ``patterns[inverse[i]]``,
    one of the distinct label rows (``harness.truth_vectors``). Returns a
    dict of arrays: ``auroc`` and ``auprc`` (m,) for the metrics named in
    ``rank``, and ``f1`` and ``ba`` (m, len(thresholds)) for the AND-rule
    skeletons of the rows normalised by their ``peaks``. Every value
    equals the one-row ``auroc``, ``auprc`` and ``f1_ba`` bit for bit; a
    row holding a NaN score gets NaN for both rank metrics.
    """
    scores = np.asarray(scores, dtype=np.float64)
    patterns = np.asarray(patterns, dtype=bool)
    inverse = np.asarray(inverse, dtype=np.intp)
    m, n = scores.shape
    if patterns.ndim != 2 or patterns.shape[1] != n or inverse.shape != (m,):
        raise ShapeMismatch("need (m, pairs) scores, (k, pairs) patterns and (m,) inverse")
    n_pos = np.count_nonzero(patterns, axis=1)
    used = n_pos[np.unique(inverse)]
    if "auroc" in rank and np.any((used == 0) | (used == n)):
        raise DegenerateLabels("need at least one positive and one negative")
    if "auprc" in rank and np.any(used == 0):
        raise DegenerateLabels("need at least one positive")
    out = {name: np.empty(m) for name in rank}
    out["f1"], out["ba"] = np.empty((m, len(thresholds))), np.empty((m, len(thresholds)))
    step = max(1, ROW_BLOCK // max(n, 1))
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        s, inv = scores[rows], inverse[rows]
        labels = patterns[inv]
        if rank:
            for name, values in _rank_block(s, labels, inv, n_pos[inv], rank).items():
                out[name][rows] = values
        if len(thresholds):
            scaled = graphops.normalize_pairs(s, peaks[rows])
            for i, tau in enumerate(thresholds):
                out["f1"][rows, i], out["ba"][rows, i] = _f1_ba_counts(
                    graphops.threshold_pairs(scaled, tau), labels, n_pos[inv])
    return out


def _rank_block(s, labels, inv, n_pos, rank) -> dict:
    """The rank metrics named in ``rank`` for one block of rows."""
    m, n = s.shape
    order, starts, ends = _tie_groups(s)
    hit = labels.ravel()[order]  # labels in sorted position
    out = {}
    if "auroc" in rank:
        pos_rank_sum = np.where(hit, (2 * n + 1 - starts - ends) / 2, 0.0).sum(axis=1)
        out["auroc"] = (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))
    if "auprc" in rank:
        # positives seen up to each group's end, over the group's end
        seen = np.cumsum(hit, axis=1).ravel()[ends - 1 + n * np.arange(m)[:, None]]
        precision = _unsort(order, seen / ends)
        out["auprc"] = np.empty(m)
        for k in np.unique(inv):
            members = np.flatnonzero(inv == k)
            # one C-contiguous (rows, n_pos) block, so each row's mean sums
            # its positives in the order a 1-D mean would
            gathered = precision[members[:, None], np.flatnonzero(labels[members[0]])]
            out["auprc"][members] = gathered.mean(axis=1)
    nan_rows = np.isnan(s).any(axis=1)
    for values in out.values():
        values[nan_rows] = np.nan
    return out


def _f1_ba_counts(pred, truth, n_pos) -> tuple[np.ndarray, np.ndarray]:
    """F1 and balanced accuracy per row from the confusion counts of
    predicted and true pair rows."""
    tp = np.count_nonzero(pred & truth, axis=1)
    fp = np.count_nonzero(pred, axis=1) - tp
    fn = n_pos - tp
    tn = pred.shape[1] - tp - fp - fn
    f1 = np.divide(2.0 * tp, 2.0 * tp + fp + fn, out=np.zeros(len(tp)),
                   where=(2 * tp + fp + fn) > 0)
    sens = np.divide(tp, tp + fn, out=np.ones(len(tp)), where=(tp + fn) > 0)
    spec = np.divide(tn, tn + fp, out=np.ones(len(tp)), where=(tn + fp) > 0)
    return f1, (sens + spec) / 2.0


def auroc(scores, labels) -> float:
    """P(score_pos > score_neg) + 0.5 P(tie), via midranks: the one-row
    case of ``score_rows``."""
    scores, labels = _check_binary(scores, labels)
    return float(score_rows(scores[None], labels[None], [0], rank=("auroc",))["auroc"][0])


def auprc(scores, labels) -> float:
    """Step-wise average precision: the one-row case of ``score_rows``.

    Each positive contributes the precision at its rank, with every tied
    score group collapsed to the precision at the group boundary. NaN if
    any score is NaN.
    """
    scores, labels = _check_binary(scores, labels)
    return float(score_rows(scores[None], labels[None], [0], rank=("auprc",))["auprc"][0])


def f1_ba(predicted, truth) -> tuple[float, float]:
    """F1 and balanced accuracy over unordered off-diagonal pairs: the
    one-row case of ``score_rows``, with the prediction as 0/1 scores."""
    predicted = np.asarray(predicted).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if predicted.shape != truth.shape or predicted.ndim != 2:
        raise ShapeMismatch("skeletons must share a (p, p) shape")
    if not (predicted == predicted.T).all() or not (truth == truth.T).all():
        raise ShapeMismatch("skeletons must be symmetric")
    iu = np.triu_indices(predicted.shape[0], k=1)
    res = score_rows(predicted[iu][None].astype(np.float64), truth[iu][None], [0],
                     peaks=np.ones(1), thresholds=(0.0,), rank=())
    return float(res["f1"][0, 0]), float(res["ba"][0, 0])


def mean(values) -> float:
    """Correctly rounded mean: the exact sum of ``values`` divided by their
    count, rounded once (``math.fsum(v) / len(v)`` rounds twice). NaN if
    any value is NaN.

    The exact sum S is taken as a float expansion: ``fsum`` rounds S to
    the first part, and each next part is S less the parts so far, again
    rounded by ``fsum``, until a part is 0. The parts add up to S exactly,
    so their ``Fraction`` sum over n is the exact mean.
    """
    values = [float(v) for v in values]
    n = len(values)
    total = math.fsum(values)
    guess = total / n
    if total == 0.0 or not math.isfinite(guess):
        return guess
    parts = [total]
    while parts[-1] != 0.0:
        parts.append(math.fsum(values + [-x for x in parts]))
    return float(sum(map(Fraction, parts)) / n)


@dataclass
class MetricsReport:
    """Per-experiment means, and replicate mean/std."""

    per_experiment: dict
    mean: dict
    std: dict


def aggregate(replicate_samples: list[dict]) -> MetricsReport:
    """Aggregate per-sample metric values.

    ``replicate_samples`` holds one dict per replicate experiment mapping
    metric name -> per-sample values. Means are correctly rounded
    (``mean``), so the report is invariant to sample ordering; the
    replicate spread is the sample standard deviation (0 for a single
    replicate).
    """
    if not replicate_samples:
        raise ShapeMismatch("at least one replicate required")
    names = list(replicate_samples[0].keys())
    per_experiment = {m: [mean(r[m]) for r in replicate_samples] for m in names}
    means = {m: mean(per_experiment[m]) for m in names}
    std = {}
    for m in names:
        vals = per_experiment[m]
        if len(vals) < 2:
            std[m] = 0.0
        else:
            mu = means[m]
            std[m] = math.sqrt(math.fsum((v - mu) ** 2 for v in vals) / (len(vals) - 1))
    return MetricsReport(per_experiment=per_experiment, mean=means, std=std)
