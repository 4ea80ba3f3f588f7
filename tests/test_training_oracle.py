"""Training, prediction and graph export against the dense reference step.

The reference below is the training step the output-coordinate kernel
replaced: a fancy-index scatter of the head output into a dense
(B, p, p) tensor, an einsum prediction, a second dense gradient tensor
and a gather back into output coordinates. It runs on frozen copies of
the allocating ``forward``, ``backward`` and ``optimizer_step`` that the
in-place kernels replaced. ``estimator.train``, ``predict_nodes``,
``estimate_graphs`` and the ``neuralnet`` kernels must reproduce it bit
for bit at canonical dimensions.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import cdgm.neuralnet as nn
from cdgm import datagen, estimator, numerics
from cdgm.errors import NonFiniteGradient
from cdgm.numerics import SeededRng

N_TRAIN, N_VAL, N_TEST = 300, 80, 60
BATCH = 128  # leaves a partial last batch of 44


# --- frozen allocating network kernels ---------------------------------------


def _ref_forward(spec, params, Z, training=False, rng=None):
    Z = np.asarray(Z, dtype=np.float64)
    use_dropout = training and spec.dropout > 0.0
    layers = params.layers()
    inputs, relu_masks, drop_masks = [], [], []
    h = Z
    for li, (w, b) in enumerate(layers):
        if li == spec.concat_layer:
            h = np.concatenate([h, Z], axis=1)
        inputs.append(h)
        pre = h @ w + b
        if li == len(layers) - 1:
            h = pre
            relu_masks.append(None)
            drop_masks.append(None)
        else:
            mask = pre > 0.0
            h = pre * mask
            relu_masks.append(mask)
            if use_dropout:
                keep = rng.generator.random(h.shape) >= spec.dropout
                h = h * keep / (1.0 - spec.dropout)
                drop_masks.append(keep)
            else:
                drop_masks.append(None)
    cache = {"spec": spec, "dims": params.dims, "inputs": inputs, "relu_masks": relu_masks,
             "drop_masks": drop_masks, "weights": [w for w, _ in layers]}
    return h, cache


def _ref_backward(cache, grad_outputs):
    g = np.asarray(grad_outputs, dtype=np.float64)
    spec, dims = cache["spec"], cache["dims"]
    gparams = nn.ParamSet(spec, np.zeros(sum(i * o + o for i, o in dims)))
    for li in range(len(dims) - 1, -1, -1):
        h_in = cache["inputs"][li]
        if cache["relu_masks"][li] is not None:
            keep = cache["drop_masks"][li]
            if keep is not None:
                g = g * keep / (1.0 - spec.dropout)
            g = g * cache["relu_masks"][li]
        gw, gb = gparams.layers()[li]
        gw[...] = h_in.T @ g
        gb[...] = g.sum(axis=0)
        if li > 0:
            g = g @ cache["weights"][li].T
            if li == spec.concat_layer:
                g = g[:, : dims[li][0] - spec.input_dim]
    return gparams.flat


def _ref_optimizer_step(params, gradients, state, lr=None):
    g = np.asarray(gradients, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradient("gradients contain NaN or inf")
    norm = float(np.linalg.norm(g))
    if np.isfinite(state.clip_norm) and norm > state.clip_norm and norm > 0.0:
        g = g * (state.clip_norm / norm)
    state.step_count += 1
    t = state.step_count
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = state.m / (1.0 - state.beta1 ** t)
    v_hat = state.v / (1.0 - state.beta2 ** t)
    step_lr = state.base_lr if lr is None else lr
    params.flat -= step_lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


# --- dense reference ---------------------------------------------------------


def _ref_coefficients(spec, params, Z, p):
    out, _ = _ref_forward(spec, params, Z)
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
            out, cache = _ref_forward(spec, params, zb, training=True, rng=dropout_rng)
            beta = np.zeros((len(idx), p, p))
            beta[:, jj, kk] = out
            xhat = np.einsum("njk,nk->nj", beta, xb)
            resid = xhat - xb
            epoch_loss += float(np.mean(np.sum(resid * resid, axis=1))) * len(idx)
            gbeta = np.einsum("nj,nk->njk", resid * (2.0 / len(idx)), xb)
            grads = _ref_backward(cache, gbeta[:, jj, kk])
            _ref_optimizer_step(params, grads, state, lr=lr)
        train_loss.append(epoch_loss / n)
        val = _ref_validation_mse(spec, params, Xval, Zval)
        val_loss.append(val)
        if val < best_val:
            best_val, best_params, best_epoch = val, params.copy(), epoch + 1
    return spec, best_params, dict(train_loss=train_loss, val_loss=val_loss,
                                   init_val_loss=init_val, best_epoch=best_epoch)


# --- checks ------------------------------------------------------------------


def _train_both(setting, family, n_train, batch):
    spec = datagen.make_setting(setting, seed=7)
    assert spec.p == 50
    ds = datagen.generate_dataset(spec, n_train + N_VAL + N_TEST, (n_train, N_VAL, N_TEST))
    cfg = estimator.default_train_config(setting, epochs=2, batch_size=batch,
                                         base_lr=1e-3, seed=3, family=family)
    model, hist = estimator.train(ds, cfg)
    ref_spec, ref_params, ref_hist = _ref_train(ds, cfg)
    assert model.spec == ref_spec
    assert np.array_equal(model.params.flat, ref_params.flat)
    assert hist.train_loss == ref_hist["train_loss"]
    assert hist.val_loss == ref_hist["val_loss"]
    assert hist.init_val_loss == ref_hist["init_val_loss"]
    assert hist.best_epoch == ref_hist["best_epoch"]
    return ds, spec, model, ref_spec, ref_params


@pytest.mark.parametrize("setting,family", [("G1", "dnn"), ("G1", "linear"), ("D2", "dnn")])
def test_training_matches_dense_reference(setting, family):
    ds, spec, model, ref_spec, ref_params = _train_both(setting, family, N_TRAIN, BATCH)

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


@pytest.mark.parametrize("setting,family,n_train,batch", [
    ("D2", "dnn", 400, 512),     # batch larger than the train split: one short batch per epoch
    ("G1", "dnn", 300, 100),     # train split an exact multiple of the batch
    ("G1", "dnn", 1300, 512),    # canonical batch, partial last batch of 276
    ("G1", "linear", 1300, 512),
])
def test_training_workspace_edge_cases(setting, family, n_train, batch):
    _train_both(setting, family, n_train, batch)


def _g1_network():
    spec = estimator._network_spec(estimator.default_train_config("G1"), p=50, q=2)
    assert spec.n_params == 333_266
    return spec, nn.init_params(spec, SeededRng(11, stream=0))


@pytest.mark.parametrize("setting,family", [("G1", "dnn"), ("G1", "linear"), ("D2", "dnn")])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_forward_backward_match_frozen_kernels(setting, family, layout):
    cfg = estimator.default_train_config(setting, family=family)
    spec = estimator._network_spec(cfg, p=50, q=2)
    params = nn.init_params(spec, SeededRng(11, stream=0))
    gen = np.random.default_rng(12)
    Z = gen.normal(size=(300, 2))
    for training in (False, True):
        out, cache = nn.forward(spec, params, Z, training=training, rng=SeededRng(13, stream=2))
        ref_out, ref_cache = _ref_forward(spec, params, Z, training=training,
                                          rng=SeededRng(13, stream=2))
        assert np.array_equal(out, ref_out)
        grad_out = np.asarray(gen.normal(size=out.shape), order=layout)
        given = grad_out.copy(order="A")  # same layout: backward's sums depend on it
        grads = nn.backward(cache, grad_out)
        assert np.array_equal(grads, _ref_backward(ref_cache, given))
        assert np.array_equal(grad_out, given)  # the caller's gradient is left alone


@pytest.mark.parametrize("scale,clip_norm", [
    (1e-5, 1.0),     # norm ~ 0.006: clipping inactive
    (1.0, 1.0),      # norm ~ 577: clipped every step
    (1.0, np.inf),   # clipping off
])
def test_adam_matches_frozen_step_for_40_steps(scale, clip_norm):
    spec, params = _g1_network()
    ref_params = params.copy()
    state = nn.OptimState(base_lr=1e-3, n_params=spec.n_params, clip_norm=clip_norm)
    ref_state = nn.OptimState(base_lr=1e-3, n_params=spec.n_params, clip_norm=clip_norm)
    gen = np.random.default_rng(14)
    for step in range(40):
        g = gen.normal(scale=scale, size=spec.n_params)
        given = g.copy()
        lr = None if step % 2 else nn.scheduled_lr(state, step)
        nn.optimizer_step(params, g, state, lr=lr)
        _ref_optimizer_step(ref_params, given, ref_state, lr=lr)
        assert np.array_equal(g, given)  # the caller's gradient is left alone
    assert np.array_equal(params.flat, ref_params.flat)
    assert np.array_equal(state.m, ref_state.m)
    assert np.array_equal(state.v, ref_state.v)
    assert state.step_count == ref_state.step_count == 40


def test_adam_rejects_each_kind_of_non_finite_entry():
    spec, params = _g1_network()
    before = params.flat.copy()
    for bad in (np.nan, np.inf, -np.inf):
        state = nn.OptimState(base_lr=1e-3, n_params=spec.n_params)
        g = np.zeros(spec.n_params)
        g[123_456] = bad
        with pytest.raises(NonFiniteGradient):
            nn.optimizer_step(params, g, state)
        assert state.step_count == 0
    assert np.array_equal(params.flat, before)
    # finite entries whose squares overflow the norm raise nothing and step as before
    state = nn.OptimState(base_lr=1e-3, n_params=spec.n_params)
    g = np.full(spec.n_params, 1e300)
    ref_params, ref_state = params.copy(), nn.OptimState(base_lr=1e-3, n_params=spec.n_params)
    with np.errstate(over="ignore"):
        nn.optimizer_step(params, g, state)
        _ref_optimizer_step(ref_params, g, ref_state)
    assert np.array_equal(params.flat, ref_params.flat)


# --- the helper thread -------------------------------------------------------

# A G1 fit at canonical p, then the same fit with one usable CPU; prints
# whether the first fit made the helper, whether the second started no
# thread, and whether the parameters and validation losses agree.
HELPER_VS_INLINE = f"""
import os
import threading
import numpy as np
from cdgm import datagen, estimator, numerics

def fit():
    ds = datagen.generate_dataset(datagen.make_setting("G1", seed=7),
                                  {N_TRAIN + N_VAL + N_TEST}, ({N_TRAIN}, {N_VAL}, {N_TEST}))
    cfg = estimator.default_train_config("G1", epochs=2, batch_size={BATCH}, seed=3)
    return estimator.train(ds, cfg)

threaded, threaded_hist = fit()
helper = numerics._helper  # kept alive, so its thread cannot exit during the count
numerics._helper = None
os.sched_getaffinity = lambda pid: {{0}}
threads = threading.active_count()
inline, inline_hist = fit()
print(helper is not None, numerics._helper is None and threading.active_count() == threads,
      np.array_equal(threaded.params.flat, inline.params.flat),
      threaded_hist.val_loss == inline_hist.val_loss)
"""


def test_one_usable_cpu_trains_inline_with_the_same_bits():
    # At two BLAS threads each GEMM is split across threads; the helper's
    # GEMMs, run beside the main thread's, must still split the same way.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", HELPER_VS_INLINE], capture_output=True,
                          text=True, env=env, timeout=600, check=True)
    helper, no_thread, same_params, same_val = proc.stdout.split()
    assert helper == str(numerics._usable_cpus() >= 2)
    assert (no_thread, same_params, same_val) == ("True", "True", "True")


def test_run_pair_joins_the_helper_when_either_side_raises():
    done = []

    def slow():
        threading.Event().wait(0.05)
        done.append("helper")

    def fail():
        raise ValueError("inline")

    with pytest.raises(ValueError, match="inline"):
        numerics.run_pair(slow, fail)
    assert done == ["helper"]  # joined before the error left run_pair
    with pytest.raises(ZeroDivisionError):
        numerics.run_pair(lambda: 1 / 0, lambda: done.append("inline"))
    assert done == ["helper", "inline"]
    assert numerics.run_pair(lambda: 1, lambda: 2) == (1, 2)
