import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdgm.neuralnet as nn
from cdgm import datagen, estimator
from cdgm.errors import CdgmError, ShapeMismatch, UsageError
from cdgm.numerics import seeded_rng


def linear_model(p, q, weights=None, bias=None):
    spec = nn.MlpSpec(input_dim=q, block1=(), block2=(), output_dim=p * (p - 1))
    params = nn.ParamSet(spec)
    w, b = params.layers()[0]
    if weights is not None:
        w[...] = weights
    if bias is not None:
        b[...] = bias
    return estimator.CdgmModel(p=p, q=q, spec=spec, params=params)


def test_coef_index_row_major_k_ascending():
    p = 4
    seen = []
    for j in range(p):
        for k in range(p):
            if k != j:
                seen.append(estimator.coef_index(p, j, k))
    assert seen == list(range(p * (p - 1)))
    jj, kk = estimator.offdiag_indices(p)
    assert estimator.coef_index(p, jj[5], kk[5]) == 5
    with pytest.raises(ShapeMismatch):
        estimator.coef_index(p, 1, 1)


def test_predict_nodes_hand_example():
    # p=2: coefficients (1->2) = 0.5, (2->1) = -1; x = (1, 2)
    model = linear_model(2, 1)
    bias = np.array([0.5, -1.0])  # outputs with zero weights: pure bias
    model.params.layers()[0][1][...] = bias
    xhat = estimator.predict_nodes(model, np.zeros((1, 1)), np.array([[1.0, 2.0]]))
    assert np.allclose(xhat, [[1.0, -1.0]])
    with pytest.raises(ShapeMismatch):  # one sample is a stack of one
        estimator.predict_nodes(model, np.zeros(1), np.array([1.0, 2.0]))


def test_predict_nodes_zero_coefficients():
    model = linear_model(3, 2)
    xhat = estimator.predict_nodes(model, np.ones((1, 2)), np.array([[5.0, -1.0, 2.0]]))
    assert np.array_equal(xhat, np.zeros((1, 3)))


def test_predict_nodes_excludes_own_value():
    gen = np.random.default_rng(0)
    p, q = 5, 2
    model = linear_model(p, q, weights=gen.normal(size=(q, p * (p - 1))),
                         bias=gen.normal(size=p * (p - 1)))
    z = gen.normal(size=(1, q))
    x = gen.normal(size=(1, p))
    base = estimator.predict_nodes(model, z, x)
    for j in range(p):
        bumped = x.copy()
        bumped[0, j] += 100.0
        assert estimator.predict_nodes(model, z, bumped)[0, j] == pytest.approx(base[0, j])


def test_predict_nodes_permutation_equivariance():
    gen = np.random.default_rng(1)
    p, q = 4, 2
    model = linear_model(p, q, weights=gen.normal(size=(q, p * (p - 1))))
    z = gen.normal(size=q)
    x = gen.normal(size=p)
    perm = gen.permutation(p)
    beta = -estimator.estimate_graphs(model, z[None])[0]  # graphs are negated coefficients
    permuted_model = linear_model(p, q)
    pw, _ = permuted_model.params.layers()[0]
    jj, kk = estimator.offdiag_indices(p)
    beta_perm = beta[np.ix_(perm, perm)]
    pw[...] = 0.0
    bias = beta_perm[jj, kk]
    permuted_model.params.layers()[0][1][...] = bias
    lhs = estimator.predict_nodes(permuted_model, np.zeros((1, q)), x[None, perm])
    # compare against permuting the original prediction with beta fixed at z
    fixed_model = linear_model(p, q, bias=beta[jj, kk])
    rhs = estimator.predict_nodes(fixed_model, np.zeros((1, q)), x[None])[:, perm]
    assert np.allclose(lhs, rhs, atol=1e-12)


@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
@settings(max_examples=100, deadline=None)
def test_squared_loss_strong_convexity_and_lipschitz(a1, a2, b):
    # single-prediction squared loss on [-1, 1]-bounded values
    l1, l2 = (a1 - b) ** 2, (a2 - b) ** 2
    assert l1 - l2 <= 4.0 * abs(a1 - a2) + 1e-12
    grad2 = 2.0 * (a2 - b)
    assert l1 - l2 >= grad2 * (a1 - a2) + 0.5 * (a1 - a2) ** 2 - 1e-12


def _tiny_dataset(p=4, q=2, n=120, seed=0):
    spec = datagen.make_setting("G1", seed=seed, p=p)
    return datagen.generate_dataset(spec, n, (n - 40, 20, 20))


def test_train_zero_lr_keeps_initialization():
    ds = _tiny_dataset()
    cfg = estimator.TrainConfig(epochs=1, batch_size=32, lr=0.0, seed=5,
                                family="dnn", block1=(4,), block2=(3,), dropout=0.1)
    model, hist = estimator.train(ds, cfg)
    fresh = nn.init_params(model.spec, seeded_rng(5, 0))
    assert np.array_equal(model.params.flat, fresh.flat)
    assert len(hist.train_loss) == 1 and len(hist.val_loss) == 1


def test_train_is_deterministic_given_seed():
    ds = _tiny_dataset()
    cfg = estimator.TrainConfig(epochs=3, batch_size=32, lr=1e-3, seed=9,
                                family="dnn", block1=(6,), block2=(4,), dropout=0.2)
    m1, h1 = estimator.train(ds, cfg)
    m2, h2 = estimator.train(ds, cfg)
    assert np.array_equal(m1.params.flat, m2.params.flat)
    assert h1.val_loss == h2.val_loss


def test_train_snapshot_never_worse_than_initialization():
    ds = _tiny_dataset(seed=3)
    cfg = estimator.TrainConfig(epochs=4, batch_size=32, lr=0.05, seed=1,
                                family="dnn", block1=(8,), block2=(4,), dropout=0.0)
    model, hist = estimator.train(ds, cfg)
    Xval, Zval = ds.part("val")
    init_model = estimator.CdgmModel(
        p=model.p, q=model.q, spec=model.spec,
        params=nn.init_params(model.spec, seeded_rng(1, 0)))
    ws = np.empty((len(Xval), model.p * (model.p - 1)))
    init_val = estimator._validation_mse(init_model, Xval, Zval, ws)
    final_val = estimator._validation_mse(model, Xval, Zval, ws)
    assert final_val <= init_val + 1e-12


@pytest.mark.parametrize("setting,family,n_train,n_val", [
    ("G1", "dnn", 1300, 250), ("G1", "linear", 1300, 250), ("D2", "dnn", 400, 120)])
def test_train_peak_allocation_holds_one_head_block(setting, family, n_train, n_val):
    # The benchmark workloads' split sizes at the default batch of 512. A fit
    # holds one (rows, p(p-1)) head workspace and a few parameter-sized arrays
    # (parameters, best snapshot, Adam moments, gradients, Adam scratch); the
    # bound leaves half a workspace of headroom, less than one more head block.
    spec = datagen.make_setting(setting, seed=3)
    ds = datagen.generate_dataset(spec, n_train + n_val + 10, (n_train, n_val, 10))
    cfg = estimator.default_train_config(setting, epochs=2, family=family, seed=1)
    tracemalloc.start()
    try:
        model, _ = estimator.train(ds, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ws_bytes = max(min(cfg.batch_size, n_train), min(n_val, 2048)) * spec.p * (spec.p - 1) * 8
    bound = 1.5 * ws_bytes + 7 * model.spec.n_params * 8 + 4 * 2**20
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_train_linear_family_recovers_known_coefficients():
    # precision linear in z with symmetric pair structure, so the true
    # nodewise coefficient functions are exactly linear; compare the
    # fitted weight matrix against the analytic one
    gen = np.random.default_rng(0)
    p, q, n = 4, 2, 200_000
    pairs = [(j, k) for j in range(p) for k in range(j + 1, p)]
    bmap = {pr: gen.uniform(-0.3, 0.3, q) for pr in pairs}
    Z = gen.uniform(-1.0, 1.0, (n, q))
    S = np.zeros((n, p, p))
    for (j, k), b in bmap.items():
        v = Z @ b
        S[:, j, k] = v
        S[:, k, j] = v
    theta = 2.0 * np.eye(p)[None] + S
    low = np.linalg.cholesky(theta)
    u = gen.standard_normal((n, p))
    X = np.linalg.solve(np.transpose(low, (0, 2, 1)), u[..., None])[..., 0]
    spec = datagen.make_setting("G1", seed=0, p=p)
    ds = datagen.Dataset(spec=spec, X=X, Z=Z, splits=(n - 20_000, 10_000, 10_000))
    cfg = estimator.TrainConfig(epochs=80, batch_size=4096, lr=0.08,
                                lr_step=5, lr_decay=0.3, seed=1, family="linear")
    model, _ = estimator.train(ds, cfg)
    w, b = model.params.layers()[0]
    jj, kk = estimator.offdiag_indices(p)
    w_true = np.zeros((q, p * (p - 1)))
    for c, (j, k) in enumerate(zip(jj, kk)):
        w_true[:, c] = -bmap[(min(j, k), max(j, k))] / 2.0  # beta = -theta_jk/theta_jj
    assert np.abs(w - w_true).max() < 1e-2
    assert np.abs(b).max() < 1e-2


def test_estimate_graphs_zero_head():
    model = linear_model(3, 2)
    graphs = estimator.estimate_graphs(model, np.random.default_rng(3).normal(size=(4, 2)))
    assert graphs.shape == (4, 3, 3)
    assert np.array_equal(graphs, np.zeros((4, 3, 3)))


def test_estimate_graphs_identical_covariates_identical_graphs():
    gen = np.random.default_rng(4)
    model = linear_model(4, 2, weights=gen.normal(size=(2, 12)))
    z = gen.normal(size=2)
    graphs = estimator.estimate_graphs(model, np.stack([z, z]))
    assert np.array_equal(graphs[0], graphs[1])


def test_estimate_graphs_linear_head_exact_negation():
    gen = np.random.default_rng(5)
    p, q = 4, 3
    weights = gen.normal(size=(q, p * (p - 1)))
    model = linear_model(p, q, weights=weights)
    Z = gen.normal(size=(6, q))
    graphs = estimator.estimate_graphs(model, Z)
    jj, kk = estimator.offdiag_indices(p)
    for i in range(6):
        expect = np.zeros((p, p))
        expect[jj, kk] = -(Z[i] @ weights)
        assert np.allclose(graphs[i], expect, rtol=0.0, atol=1e-13)
        assert np.all(np.diag(graphs[i]) == 0.0)


def test_model_roundtrip(tmp_path):
    gen = np.random.default_rng(6)
    spec = nn.MlpSpec(input_dim=2, block1=(5,), block2=(4,), output_dim=12, dropout=0.2)
    params = nn.init_params(spec, seeded_rng(2, 0))
    model = estimator.CdgmModel(p=4, q=2, spec=spec, params=params)
    estimator.save_model(model, tmp_path / "m")
    back = estimator.load_model(tmp_path / "m")
    assert back.p == 4 and back.q == 2
    assert back.spec == spec
    assert np.array_equal(back.params.flat, params.flat)
    Z = gen.normal(size=(3, 2))
    assert np.array_equal(estimator.estimate_graphs(back, Z),
                          estimator.estimate_graphs(model, Z))


def test_load_model_rejects_another_index_map(tmp_path):
    # a model.json with another coefficient layout used to load and score without a word
    spec = nn.MlpSpec(input_dim=2, block1=(5,), block2=(4,), output_dim=12, dropout=0.2)
    model = estimator.CdgmModel(p=4, q=2, spec=spec, params=nn.init_params(spec, seeded_rng(2, 0)))
    estimator.save_model(model, tmp_path / "m")
    meta_path = tmp_path / "m" / "model.json"
    meta = json.loads(meta_path.read_text())
    for index_map in ("column-major, anything", None):
        meta["index_map"] = index_map
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CdgmError, match="model.json: ShapeMismatch: index_map"):
            estimator.load_model(tmp_path / "m")


@pytest.mark.parametrize("damage,message", [
    (lambda text: text[:60], "JSONDecodeError: "),
    (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "p"}),
     "KeyError: 'p'")], ids=["cut-to-60-bytes", "without-p"])
def test_load_model_names_a_model_json_it_cannot_read(tmp_path, damage, message):
    # a cut model.json, or one without p, used to reach the CLI without its path
    spec = nn.MlpSpec(input_dim=2, block1=(5,), block2=(4,), output_dim=12, dropout=0.2)
    model = estimator.CdgmModel(p=4, q=2, spec=spec, params=nn.init_params(spec, seeded_rng(2, 0)))
    estimator.save_model(model, tmp_path / "m")
    path = tmp_path / "m" / "model.json"
    path.write_text(damage(path.read_text()))
    with pytest.raises(CdgmError) as err:
        estimator.load_model(tmp_path / "m")
    assert str(err.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("field,value", [("lr_step", 0), ("clip_norm", 0.0),
                                         ("clip_norm", -1.0), ("clip_norm", np.nan),
                                         ("lr", -1e-3), ("lr", np.inf),
                                         ("lr", np.nan), ("lr_decay", 0.0),
                                         ("lr_decay", np.inf)])
def test_train_config_rejects_bad_schedule_values(field, value):
    with pytest.raises(UsageError, match=field):
        estimator.TrainConfig(**{field: value})


def test_train_config_accepts_zero_lr_and_no_clipping():
    cfg = estimator.TrainConfig(lr=0.0, clip_norm=np.inf, lr_step=1, lr_decay=1.0)
    assert cfg.clip_norm == np.inf and cfg.lr == 0.0


def test_default_config_per_setting():
    g1 = estimator.default_train_config("G1")
    assert g1.epochs == 50 and g1.block1 == (128, 64) and g1.dropout == 0.3
    d2 = estimator.default_train_config("D2")
    assert d2.epochs == 80 and d2.block1 == (64, 32) and d2.dropout == 0.1
    assert d2.lr == 5e-4 and d2.batch_size == 512 and d2.clip_norm == 1.0
    custom = estimator.default_train_config("G2", epochs=3)
    assert custom.epochs == 3
