"""Post-processing of per-sample coefficient matrices into skeletons.

Estimated graphs are normalized so the largest off-diagonal magnitude is
one, scored symmetrically, and sparsified with a hard threshold under the
AND rule: an undirected edge survives only if both directed coefficients
do.

The pipeline scores and thresholds whole stacks (``pair_scores``,
``normalize_pairs``, ``threshold_pairs``). The per-graph ``normalize``,
``symmetric_scores`` and ``threshold_and`` state the same rules on one
matrix. Besides ``magnitude_histogram``'s per-graph ``normalize``, only
tests call them, as references for the stacked path, and the
benchmark's tracer times them by name.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .files import write_atomic

HISTOGRAM_BINS = 50  # equal-width bins of magnitude_histogram over [0, 1]


def normalize(w) -> np.ndarray:
    """Scale so the maximum off-diagonal magnitude equals one; a graph with
    no nonzero off-diagonal entry comes back unchanged. A NaN peak still
    divides, so a NaN graph stays NaN."""
    w = np.asarray(w, dtype=np.float64)
    off = np.abs(w).copy()
    np.fill_diagonal(off, 0.0)
    peak = off.max()
    if peak == 0.0:
        return w
    return w / peak


def symmetric_scores(w) -> np.ndarray:
    """Symmetric edge scores min(|w_jk|, |w_kj|) of an asymmetric
    coefficient matrix, consistent with the AND rule."""
    w = np.abs(np.asarray(w, dtype=np.float64))
    s = np.minimum(w, w.T)
    np.fill_diagonal(s, 0.0)
    return s


def threshold_pairs(scores, tau: float) -> np.ndarray:
    """Pairs whose symmetric score reaches ``tau``; exact zeros never survive."""
    if tau < 0:
        raise ShapeMismatch("threshold must be nonnegative")
    return (scores >= tau) & (scores > 0.0)


def threshold_and(w, tau: float) -> np.ndarray:
    """Boolean skeleton: edge (j, k) iff both |w_jk| and |w_kj| reach tau.

    Entries that are exactly zero never survive hard-thresholding, so at
    tau = 0 the skeleton contains the pairs with both entries nonzero.
    """
    skel = threshold_pairs(symmetric_scores(w), tau)
    np.fill_diagonal(skel, False)
    return skel


def pair_scores(graphs) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric ``min`` scores of a (m, p, p) stack over the upper-triangle
    pairs j < k, one row per graph, and each graph's normalising peak
    (its largest off-diagonal magnitude, as in ``normalize``)."""
    graphs = np.asarray(graphs, dtype=np.float64)
    m, p = graphs.shape[0], graphs.shape[-1]
    j, k = np.triu_indices(p, k=1)
    flat = graphs.reshape(m, p * p)
    upper, lower = np.abs(flat[:, j * p + k]), np.abs(flat[:, k * p + j])
    return np.minimum(upper, lower), np.maximum(upper, lower).max(axis=1, initial=0.0)


def normalize_pairs(scores, peaks) -> np.ndarray:
    """Rows of ``pair_scores`` as scored on ``normalize``'d graphs.

    Dividing by a positive peak is monotone and |a|/p = |a/p|, so it
    commutes with the pair minimum: ``threshold_pairs`` of row i equals
    ``threshold_and(normalize(g_i), tau)`` over the pairs. A zero peak
    leaves the row as is.
    """
    return scores / np.where(peaks == 0.0, 1.0, peaks)[:, None]


def write_edge_list(j, k, path) -> None:
    """Edge-list CSV: header j,k then one row per undirected edge
    (``j[i]``, ``k[i]``) of the index arrays ``j`` and ``k``, in order."""
    lines = ["j,k"] + [f"{a},{b}" for a, b in zip(j.tolist(), k.tolist())]
    write_atomic(path, "\n".join(lines) + "\n")


def histogram_csv(counts, edges) -> str:
    """Histogram CSV text: header bin_low,bin_high,count then one row per bin."""
    lines = ["bin_low,bin_high,count"] + [
        f"{lo:.10g},{hi:.10g},{c}" for lo, hi, c in zip(edges[:-1], edges[1:], counts)]
    return "\n".join(lines) + "\n"


def magnitude_histogram(graphs):
    """Pooled histogram of off-diagonal magnitudes across a (m, p, p) stack
    of normalized graphs, in ``HISTOGRAM_BINS`` bins over [0, 1].

    Emitted so a thresholding level can be picked where the histogram
    shows a gap; no automatic gap detection is attempted.
    """
    values = []
    for g in graphs:
        a = np.abs(normalize(g))
        p = a.shape[0]
        mask = ~np.eye(p, dtype=bool)
        values.append(a[mask])
    pooled = np.concatenate(values)
    counts, edges = np.histogram(pooled, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return counts, edges
