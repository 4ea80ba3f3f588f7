"""Nodewise Lasso baseline via cyclic coordinate descent.

Each node is regressed on all others over a descending penalty grid; the
per-penalty coefficient matrices form a path of candidate graphs. The
method has no covariate dependence, so a single graph (per cluster, when
cluster labels are supplied) applies to every sample. All regressions
share one Gram matrix and advance together in one coordinate-descent
kernel (covariance updates, Friedman, Hastie & Tibshirani 2010, 2.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graphops
from . import metrics as metrics_mod
from .errors import CdgmError, ShapeMismatch


@dataclass
class LassoConfig:
    """Options of the nodewise-lasso baseline: the ``lasso.*`` config keys."""

    n_lambdas: int = 50
    lambda_min_ratio: float = 0.001
    tol: float = 1e-10
    max_iter: int = 100_000
    export_paths: bool = False

    def __post_init__(self):
        if self.n_lambdas < 1 or self.max_iter < 1:
            raise ShapeMismatch("n_lambdas and max_iter must be >= 1")
        if not 0 < self.lambda_min_ratio < 1:
            raise ShapeMismatch("lambda_min_ratio must be in (0, 1)")
        if not self.tol > 0:
            raise ShapeMismatch("tol must be > 0")


def soft_threshold(v, lam):
    """Elementwise sign(v) * max(|v| - lam, 0), exactly zero inside [-lam, lam]."""
    return v - np.minimum(np.maximum(v, -lam), lam)


def _kkt_residual(grad, b, lam) -> np.ndarray:
    """Largest stationarity violation per column of ``b``; ``grad`` is corr - G b."""
    viol = np.where(b != 0, np.abs(grad - np.copysign(lam, b)),
                    np.maximum(np.abs(grad) - lam, 0.0))
    return viol.max(axis=0, initial=0.0)


def _coordinate_descent(gram, corr, b, lam, tol: float,
                        max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic coordinate descent on a stack of lasso problems sharing ``gram``.

    Column r of ``b`` (d, m) minimizes b'Gb/2 - corr[:, r]'b + sum_c lam[c, r] |b[c, r]|;
    ``lam`` is a scalar or (d, m), and an infinite penalty pins its coefficient at zero.
    Sweeps visit coordinates 0..d-1 in order, updating all unfinished
    columns at once; a column is frozen after a sweep that moved no
    coefficient by ``tol`` or more and left its KKT residual <= 1e-8.
    Returns (b, converged per column).
    """
    b = np.array(b, dtype=np.float64)
    lam = np.broadcast_to(lam, b.shape)
    diag = np.diag(gram)
    todo = np.arange(b.shape[1])
    for _ in range(max_iter):
        start, cw, lw = b[:, todo], corr[:, todo], lam[:, todo]
        bw = start.copy()  # each coordinate moves once per sweep, from start
        for c, gcc in enumerate(diag):
            if gcc > 0.0:
                bw[c] = soft_threshold(cw[c] - gram[c] @ bw + gcc * start[c], lw[c]) / gcc
        b[:, todo] = bw
        kkt = _kkt_residual(cw - gram @ bw, bw, lw)
        done = (np.abs(bw - start).max(axis=0) < tol) & (kkt <= 1e-8)
        todo = todo[~done]
        if len(todo) == 0:
            break
    return b, ~np.isin(np.arange(b.shape[1]), todo)


def lasso_cd(x_design, y, lam: float, tol: float = LassoConfig.tol,
             max_iter: int = LassoConfig.max_iter, warm_start=None) -> tuple[np.ndarray, bool]:
    """Minimize (1/2n)||y - Xb||^2 + lam ||b||_1 by cyclic coordinate descent.

    The one-column case of the shared kernel, with its stopping rule.
    Returns (coefficients, converged); when ``max_iter`` sweeps run out the
    last iterate comes back flagged False.
    """
    x, y = np.asarray(x_design, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"bad design {x.shape} / target {y.shape}")
    if lam < 0:
        raise ShapeMismatch("penalty must be nonnegative")
    n, d = x.shape
    b = np.zeros(d) if warm_start is None else warm_start
    b, converged = _coordinate_descent(x.T @ x / n, (x.T @ y / n)[:, None],
                                       np.reshape(b, (d, 1)), lam, tol, max_iter)
    return b[:, 0], bool(converged[0])


def kkt_violation(x_design, y, b, lam: float) -> float:
    """Largest stationarity violation of the lasso optimality conditions."""
    x, b = np.asarray(x_design, dtype=np.float64), np.asarray(b, dtype=np.float64)
    grad = x.T @ (np.asarray(y, dtype=np.float64) - x @ b) / x.shape[0]
    return float(_kkt_residual(grad[:, None], b[:, None], lam)[0])


@dataclass
class LassoPath:
    """Descending penalty grid with one (p, p) weight matrix per value."""

    lambdas: np.ndarray
    graphs: list[np.ndarray]
    nonconverged: int = 0  # (node, penalty) fits that ran out of sweeps

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=np.float64)
        if lam.ndim != 1 or len(lam) != len(self.graphs):
            raise ShapeMismatch("one graph per penalty value required")
        if np.any(lam <= 0) or np.any(np.diff(lam) >= 0):
            raise ShapeMismatch("penalties must be positive and strictly descending")
        self.lambdas = lam


def lambda_grid(lam_max: float, n_lambdas: int,
                min_ratio: float = LassoConfig.lambda_min_ratio) -> np.ndarray:
    return lam_max * np.logspace(0.0, math.log10(min_ratio), n_lambdas)


def nodewise_lasso_graphs(x, lambdas=None, **options) -> LassoPath:
    """Regress each node on the rest over a shared penalty path.

    ``options`` are ``LassoConfig`` fields. Columns are scaled to unit
    root-mean-square internally and the coefficients are unscaled on
    return. The grid defaults to ``n_lambdas`` log-spaced values from the
    smallest penalty that zeroes every regression down to
    ``lambda_min_ratio`` of it. The p fits run as one stack on the Gram
    matrix of the scaled columns.
    """
    opts = LassoConfig(**options)
    x = np.asarray(x, dtype=np.float64)
    n, p = x.shape
    if n < 2:
        raise ShapeMismatch("need more than one sample")
    scale = np.sqrt(np.mean(x * x, axis=0))
    scale[scale == 0.0] = 1.0
    xs = x / scale

    if lambdas is None:
        lam_max = max(np.max(np.abs(xs[:, np.arange(p) != j].T @ xs[:, j])) / n
                      for j in range(p))
        lambdas = lambda_grid(lam_max, opts.n_lambdas, opts.lambda_min_ratio)
    lambdas = np.asarray(lambdas, dtype=np.float64)

    gram = xs.T @ xs / n
    b = np.zeros((p, p))  # column j: node j's coefficients
    graphs, nonconverged = [], 0
    for lam in lambdas:
        penalty = np.where(np.eye(p, dtype=bool), np.inf, lam)  # no self-regression
        b, converged = _coordinate_descent(gram, gram, b, penalty, opts.tol, opts.max_iter)
        nonconverged += int(np.count_nonzero(~converged))
        # unscale: coefficients on the original columns of x, node j in row j
        graphs.append(b.T * scale[:, None] / scale[None, :])
    return LassoPath(lambdas=lambdas, graphs=graphs, nonconverged=nonconverged)


def write_path_csv(path: LassoPath, out_file) -> None:
    """Debug export: one row per penalty with the flattened weight matrix."""
    p = path.graphs[0].shape[0]
    header = "lambda," + ",".join(f"w_{j}_{k}" for j in range(p) for k in range(p))
    lines = [header]
    for lam, w in zip(path.lambdas, path.graphs):
        lines.append(f"{lam:.10g}," + ",".join(f"{v:.10g}" for v in w.ravel()))
    with open(out_file, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def score_graphs(graphs, patterns, thresholds=(), rank=("auroc", "auprc")) -> dict:
    """``metrics.score_rows`` of every graph against every label pattern:
    each array comes back shaped (graphs, patterns, ...)."""
    scores, peaks = graphops.pair_scores(graphs)
    g, k = len(scores), len(patterns)
    res = metrics_mod.score_rows(np.repeat(scores, k, axis=0), patterns,
                                 np.tile(np.arange(k), g), np.repeat(peaks, k),
                                 thresholds, rank)
    return {name: v.reshape(g, k, *v.shape[1:]) for name, v in res.items()}


def best_penalty(values, inverse) -> int:
    """Index of the penalty whose per-sample values ``values[g][inverse]``
    (one row of per-pattern values per penalty) have the largest mean
    (``metrics.mean``): the first mean strictly above every earlier one, so
    ties go to the larger penalty and a NaN mean is never picked."""
    best, best_val = None, -np.inf
    for g, distinct in enumerate(values):
        val = metrics_mod.mean(distinct[inverse])
        if val > best_val:
            best, best_val = g, val
    if best is None:
        raise CdgmError("every penalty's mean is NaN")
    return best
