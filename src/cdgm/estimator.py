"""Covariate-dependent graphical model estimator.

A single shared-backbone network maps each covariate to the full set of
p(p-1) nodewise regression coefficients. Each node is predicted as a
coefficient-weighted sum of the other nodes, the mean squared error over
samples is minimized, and per-sample graphs are read off as the negated
coefficients.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import neuralnet as nn
from .datagen import Dataset
from .errors import NonFiniteLoss, ShapeMismatch, UsageError
from .files import reading, write_atomic
from .numerics import run_pair, seeded_rng

INDEX_MAP_CONVENTION = "row-major over (j,k), k!=j, k ascending"
MODEL_FAMILIES = ("dnn", "linear")  # the network families train fits
PREDICT_ROWS = 32  # samples per scatter-and-einsum pass of _predict
VAL_ROWS = 2048  # validation samples per forward pass
GRAPH_ROWS = 512  # samples per forward pass of estimate_graphs


def offdiag_indices(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/col indices of off-diagonal cells in output-coordinate order."""
    return np.nonzero(~np.eye(p, dtype=bool))


def coef_index(p: int, j: int, k: int) -> int:
    """Output coordinate of coefficient (j, k), k != j."""
    if j == k or not (0 <= j < p and 0 <= k < p):
        raise ShapeMismatch(f"invalid pair ({j}, {k}) for p={p}")
    return j * (p - 1) + (k if k < j else k - 1)


def _scatter(out: np.ndarray, p: int, beta: np.ndarray) -> np.ndarray:
    """(n, p(p-1)) head outputs written into ``beta``, a C-contiguous
    (n, p, p) stack whose diagonal is already zero; only the off-diagonal
    cells are written."""
    n = out.shape[0]
    # Past cell 0, a row-major p x p matrix is rows of p+1 cells, each ending on the diagonal.
    beta.reshape(n, p * p)[:, 1:].reshape(n, p - 1, p + 1)[:, :, :p] = out.reshape(n, p - 1, p)
    return beta


def _predict(out: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Each node as the coefficient-weighted sum of the other nodes.

    einsum's sum for one row does not depend on which rows share the
    call, so the rows go in small passes, half of them on each thread.
    """
    n, p = X.shape
    xhat = np.empty((n, p))
    mid = n // 2
    run_pair(partial(_predict_rows, out, X, xhat, 0, mid),
             partial(_predict_rows, out, X, xhat, mid, n))
    return xhat


def _predict_rows(out, X, xhat, lo, hi):
    p = X.shape[1]
    beta = np.zeros((min(PREDICT_ROWS, hi - lo), p, p))  # _scatter keeps the zero diagonal
    for s in range(lo, hi, PREDICT_ROWS):
        e = min(s + PREDICT_ROWS, hi)
        np.einsum("njk,nk->nj", _scatter(out[s:e], p, beta[:e - s]), X[s:e], out=xhat[s:e])


@dataclass
class CdgmModel:
    p: int
    q: int
    spec: nn.MlpSpec
    params: nn.ParamSet


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 512
    lr: float = 5e-4
    lr_step: int = 20
    lr_decay: float = 0.25
    clip_norm: float = 1.0
    seed: int = 0
    family: str = "dnn"  # one of MODEL_FAMILIES
    block1: tuple[int, ...] = (128, 64)
    block2: tuple[int, ...] = (128,)
    dropout: float = 0.3

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise UsageError("batch_size and epochs must be >= 1")
        if self.family not in MODEL_FAMILIES:
            raise UsageError(f"unknown model family {self.family!r}")
        if self.lr_step < 1:
            raise UsageError("lr_step must be >= 1")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if not self.clip_norm > 0:
            raise UsageError("clip_norm must be > 0 (inf turns clipping off)")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise UsageError("lr must be finite and >= 0")
        if not (math.isfinite(self.lr_decay) and self.lr_decay > 0):
            raise UsageError("lr_decay must be finite and > 0")


# Where a setting departs from the TrainConfig defaults: wide Gaussian/NPN
# settings train longer, DAG settings also use the smaller architecture
# and lighter dropout.
_SETTING_DEFAULTS = {
    "G2": dict(epochs=80),
    "N2": dict(epochs=80),
    "D1": dict(block1=(64, 32), block2=(64,), dropout=0.1, epochs=80),
    "D2": dict(block1=(64, 32), block2=(64,), dropout=0.1, epochs=80),
}


def default_train_config(setting: str, **overrides) -> TrainConfig:
    base = dict(_SETTING_DEFAULTS.get(setting, {}))
    base.update(overrides)
    return TrainConfig(**base)


def scheduled_lr(cfg: TrainConfig, epoch: int) -> float:
    """Step decay: lr * lr_decay^floor(epoch / lr_step)."""
    if epoch < 0:
        raise ShapeMismatch("epoch must be >= 0")
    return cfg.lr * cfg.lr_decay ** (epoch // cfg.lr_step)


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    init_val_loss: float = float("nan")
    best_epoch: int = 0  # 0 means the initialization snapshot was kept
    wall_time_s: float = 0.0


def _network_spec(cfg: TrainConfig, p: int, q: int) -> nn.MlpSpec:
    if cfg.family == "linear":
        return nn.MlpSpec(input_dim=q, block1=(), block2=(), output_dim=p * (p - 1), dropout=0.0)
    return nn.MlpSpec(input_dim=q, block1=cfg.block1, block2=cfg.block2,
                      output_dim=p * (p - 1), dropout=cfg.dropout)


def predict_nodes(model: CdgmModel, Z, X, head_out: np.ndarray | None = None) -> np.ndarray:
    """Predicted node vectors (n, p) for covariates ``Z`` (n, q) and
    observations ``X`` (n, p): each coordinate is the coefficient-weighted
    sum of the other coordinates; a node never contributes to itself.

    ``head_out``, if given, is ``forward``'s ``out`` for the head outputs.
    """
    Z = np.asarray(Z, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.p or Z.shape != (X.shape[0], model.q):
        raise ShapeMismatch(f"bad shapes X={X.shape}, Z={Z.shape} for (p={model.p}, q={model.q})")
    return _predict(nn.forward(model.spec, model.params, Z, out=head_out)[0], X)


def _validation_mse(model: CdgmModel, X, Z, ws: np.ndarray) -> float:
    """Mean squared node-prediction error; each chunk's head outputs go
    into the leading rows of the workspace ``ws``."""
    total = 0.0
    for lo in range(0, X.shape[0], VAL_ROWS):
        hi = min(lo + VAL_ROWS, X.shape[0])
        xhat = predict_nodes(model, Z[lo:hi], X[lo:hi], head_out=ws[:hi - lo])
        total += float(np.sum((xhat - X[lo:hi]) ** 2))
    return total / X.shape[0]


def train(data: Dataset, cfg: TrainConfig) -> tuple[CdgmModel, TrainHistory]:
    """Fit the coefficient network on the train split.

    Returns the parameter snapshot with the lowest validation MSE seen at
    initialization or after any epoch. Deterministic given cfg.seed.
    """
    t0 = time.perf_counter()
    Xtr, Ztr = data.part("train")
    Xval, Zval = data.part("val")
    if Xtr.shape[0] == 0 or Xval.shape[0] == 0:
        raise UsageError(f"train and validation splits must be nonempty, got {data.splits}")
    p, q = Xtr.shape[1], Ztr.shape[1]

    spec = _network_spec(cfg, p, q)
    params = nn.init_params(spec, seeded_rng(cfg.seed, stream=0))
    shuffle_rng = seeded_rng(cfg.seed, stream=1)
    dropout_rng = seeded_rng(cfg.seed, stream=2)
    state = nn.OptimState(n_params=spec.n_params,
                          clip_norm=cfg.clip_norm)
    model = CdgmModel(p=p, q=q, spec=spec, params=params)
    n = Xtr.shape[0]
    # The fit's one head workspace: a training batch's head outputs, then its
    # gradient, and each validation chunk's head outputs, in the leading rows.
    ws = np.empty((max(min(cfg.batch_size, n), min(Xval.shape[0], VAL_ROWS)), p * (p - 1)))

    history = TrainHistory()
    best_val = _validation_mse(model, Xval, Zval, ws)
    history.init_val_loss = best_val
    best_params = params.copy()
    best_epoch = 0

    for epoch in range(cfg.epochs):
        lr = scheduled_lr(cfg, epoch)
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            B = len(idx)
            xb, zb = Xtr[idx], Ztr[idx]
            out, cache = nn.forward(spec, params, zb, training=True, rng=dropout_rng,
                                    out=ws[:B])
            resid = _predict(out, xb)  # joins both halves: out is read in full
            resid -= xb
            batch_loss = float(np.mean(np.sum(resid * resid, axis=1)))
            if not np.isfinite(batch_loss):
                raise NonFiniteLoss(f"non-finite training loss at epoch {epoch}")
            epoch_loss += batch_loss * B
            # d loss / d beta_jk = (2/B) * resid_j * x_k, built over the head outputs
            # just read. Row j*(p-1) + i of the (p(p-1), B) view holds output
            # coordinate (j, k), k != j ascending.
            xT = np.ascontiguousarray(xb.T)
            rT = np.ascontiguousarray((resid * (2.0 / B)).T)
            gT = ws.reshape(-1)[:p * (p - 1) * B].reshape(p, p - 1, B)
            run_pair(partial(_gradient_rows, gT, xT, rT, 0, p // 2),
                     partial(_gradient_rows, gT, xT, rT, p // 2, p))
            # Handed over column-major, strides (8, 8B): backward's h_in.T @ grad_out
            # and column sums run in a layout-dependent order, so a C-ordered
            # gradient with equal values moves the last bits of the parameters.
            nn.optimizer_step(params, nn.backward(cache, gT.reshape(p * (p - 1), B).T), state,
                              lr=lr)
            del cache  # not alive during the next batch's forward pass
        history.train_loss.append(epoch_loss / n)

        val = _validation_mse(model, Xval, Zval, ws)
        if not np.isfinite(val):
            raise NonFiniteLoss(f"non-finite validation loss at epoch {epoch}")
        history.val_loss.append(val)
        if val < best_val:
            best_val = val
            np.copyto(best_params.flat, params.flat)
            best_epoch = epoch + 1

    model.params = best_params
    history.best_epoch = best_epoch
    history.wall_time_s = time.perf_counter() - t0
    return model, history


def _gradient_rows(gT, xT, rT, lo, hi):
    for j in range(lo, hi):
        np.multiply(xT[:j], rT[j], out=gT[j, :j])
        np.multiply(xT[j + 1:], rT[j], out=gT[j, j:])


def estimate_graphs(model: CdgmModel, Z) -> np.ndarray:
    """Per-sample graphs for covariates ``Z`` (n, q): entry (j, k) is the
    negated coefficient of node k in node j's regression; diagonal
    identically zero."""
    Z = np.asarray(Z, dtype=np.float64)
    graphs = np.zeros((Z.shape[0], model.p, model.p))
    for lo in range(0, Z.shape[0], GRAPH_ROWS):
        _scatter(nn.forward(model.spec, model.params, Z[lo:lo + GRAPH_ROWS])[0], model.p,
                 graphs[lo:lo + GRAPH_ROWS])
    return np.negative(graphs, out=graphs)  # the zero diagonal reads -0.0


def save_model(model: CdgmModel, out_dir) -> None:
    out = Path(out_dir)
    nn.save_params(model.params, out / "params.bin")
    sidecar = {
        "p": model.p,
        "q": model.q,
        "block1": list(model.spec.block1),
        "block2": list(model.spec.block2),
        "dropout": model.spec.dropout,
        "index_map": INDEX_MAP_CONVENTION,
    }
    write_atomic(out / "model.json", json.dumps(sidecar, indent=2) + "\n")


def load_model(in_dir) -> CdgmModel:
    src = Path(in_dir)
    path = src / "model.json"
    with reading(path):
        meta = json.loads(path.read_text())
        if meta.get("index_map") != INDEX_MAP_CONVENTION:
            raise ShapeMismatch(f"index_map {meta.get('index_map')!r} is "
                                f"not {INDEX_MAP_CONVENTION!r}")
        p, q = meta["p"], meta["q"]
        spec = nn.MlpSpec(input_dim=q, block1=tuple(meta["block1"]),
                          block2=tuple(meta["block2"]), output_dim=p * (p - 1),
                          dropout=meta["dropout"])
    params = nn.load_params(src / "params.bin", spec)
    return CdgmModel(p=p, q=q, spec=spec, params=params)
