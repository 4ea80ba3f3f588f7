"""Training, prediction and graph export against the dense reference step.

The reference below is the training step the output-coordinate kernel
replaced: a fancy-index scatter of the head output into a dense
(B, p, p) tensor, an einsum prediction, a second dense gradient tensor
and a gather back into output coordinates. ``estimator.train``,
``predict_nodes`` and ``estimate_graphs`` must reproduce it bit for bit
at canonical dimensions.
"""

import numpy as np
import pytest

import cdgm.neuralnet as nn
from cdgm import datagen, estimator
from cdgm.numerics import SeededRng

N_TRAIN, N_VAL, N_TEST = 300, 80, 60
BATCH = 128  # leaves a partial last batch of 44


# --- dense reference ---------------------------------------------------------


def _ref_coefficients(spec, params, Z, p):
    out, _ = nn.forward(spec, params, Z)
    beta = np.zeros((out.shape[0], p, p))
    jj, kk = estimator.offdiag_indices(p)
    beta[:, jj, kk] = out
    return beta


def _ref_predict(spec, params, Z, X):
    return np.einsum("njk,nk->nj", _ref_coefficients(spec, params, Z, X.shape[1]), X)


def _ref_graphs(spec, params, Z, p, batch):
    chunks = [-_ref_coefficients(spec, params, Z[lo:lo + batch], p)
              for lo in range(0, Z.shape[0], batch)]
    return np.concatenate(chunks, axis=0)


def _ref_validation_mse(spec, params, X, Z, batch=2048):
    total = 0.0
    for lo in range(0, X.shape[0], batch):
        hi = min(lo + batch, X.shape[0])
        xhat = _ref_predict(spec, params, Z[lo:hi], X[lo:hi])
        total += float(np.sum((xhat - X[lo:hi]) ** 2))
    return total / X.shape[0]


def _ref_train(data, cfg):
    Xtr, Ztr = data.part("train")
    Xval, Zval = data.part("val")
    p, q = Xtr.shape[1], Ztr.shape[1]
    spec = estimator._network_spec(cfg, p, q)
    params = nn.init_params(spec, SeededRng(cfg.seed, stream=0))
    shuffle_rng = SeededRng(cfg.seed, stream=1)
    dropout_rng = SeededRng(cfg.seed, stream=2)
    state = nn.OptimState(base_lr=cfg.base_lr, n_params=spec.n_params,
                          clip_norm=cfg.clip_norm, lr_step=cfg.lr_step,
                          lr_decay=cfg.lr_decay)
    jj, kk = estimator.offdiag_indices(p)
    best_val = init_val = _ref_validation_mse(spec, params, Xval, Zval)
    best_params, best_epoch = params.copy(), 0
    train_loss, val_loss = [], []
    n = Xtr.shape[0]
    for epoch in range(cfg.epochs):
        lr = nn.scheduled_lr(state, epoch)
        order = shuffle_rng.generator.permutation(n) if cfg.shuffle else np.arange(n)
        epoch_loss = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            xb, zb = Xtr[idx], Ztr[idx]
            out, cache = nn.forward(spec, params, zb, training=True, rng=dropout_rng)
            beta = np.zeros((len(idx), p, p))
            beta[:, jj, kk] = out
            xhat = np.einsum("njk,nk->nj", beta, xb)
            resid = xhat - xb
            epoch_loss += float(np.mean(np.sum(resid * resid, axis=1))) * len(idx)
            gbeta = np.einsum("nj,nk->njk", resid * (2.0 / len(idx)), xb)
            grads = nn.backward(cache, gbeta[:, jj, kk])
            nn.optimizer_step(params, grads, state, lr=lr)
        train_loss.append(epoch_loss / n)
        val = _ref_validation_mse(spec, params, Xval, Zval)
        val_loss.append(val)
        if val < best_val:
            best_val, best_params, best_epoch = val, params.copy(), epoch + 1
    return spec, best_params, dict(train_loss=train_loss, val_loss=val_loss,
                                   init_val_loss=init_val, best_epoch=best_epoch)


# --- checks ------------------------------------------------------------------


@pytest.mark.parametrize("setting,family", [("G1", "dnn"), ("G1", "linear"), ("D2", "dnn")])
def test_training_matches_dense_reference(setting, family):
    spec = datagen.make_setting(setting, seed=7)
    assert spec.p == 50
    ds = datagen.generate_dataset(spec, N_TRAIN + N_VAL + N_TEST, (N_TRAIN, N_VAL, N_TEST))
    cfg = estimator.default_train_config(setting, epochs=2, batch_size=BATCH,
                                         base_lr=1e-3, seed=3, family=family)
    model, hist = estimator.train(ds, cfg)
    ref_spec, ref_params, ref_hist = _ref_train(ds, cfg)

    assert model.spec == ref_spec
    assert np.array_equal(model.params.flat, ref_params.flat)
    assert hist.train_loss == ref_hist["train_loss"]
    assert hist.val_loss == ref_hist["val_loss"]
    assert hist.init_val_loss == ref_hist["init_val_loss"]
    assert hist.best_epoch == ref_hist["best_epoch"]

    Xte, Zte = ds.part("test")
    assert np.array_equal(estimator.predict_nodes(model, Zte, Xte),
                          _ref_predict(ref_spec, ref_params, Zte, Xte))
    assert np.array_equal(estimator.predict_nodes(model, Zte[0], Xte[0]),
                          _ref_predict(ref_spec, ref_params, Zte[:1], Xte[:1])[0])
    for batch in (25, 512):
        assert np.array_equal(estimator.estimate_graphs(model, Zte, batch=batch),
                              _ref_graphs(ref_spec, ref_params, Zte, spec.p, batch))


def test_strided_scatter_hand_cases():
    # p=2: outputs are (beta_01, beta_10)
    beta = estimator._scatter(np.array([[3.0, -2.0], [0.5, 7.0]]), 2)
    assert np.array_equal(beta, [[[0.0, 3.0], [-2.0, 0.0]], [[0.0, 0.5], [7.0, 0.0]]])
    assert np.array_equal(estimator._predict(np.array([[3.0, -2.0]]), np.array([[1.0, 2.0]])),
                          [[6.0, -2.0]])
    # every output lands on the cell coef_index names, for several p
    for p in (1, 3, 5, 8):
        out = np.arange(1.0, 1.0 + 2 * p * (p - 1)).reshape(2, p * (p - 1))
        beta = estimator._scatter(out, p)
        assert beta.shape == (2, p, p)
        for j in range(p):
            assert np.all(beta[:, j, j] == 0.0)
            for k in range(p):
                if k != j:
                    assert np.array_equal(beta[:, j, k], out[:, estimator.coef_index(p, j, k)])
