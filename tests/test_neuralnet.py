import numpy as np
import pytest

import cdgm.neuralnet as nn
from cdgm import estimator
from cdgm.errors import CdgmError, NonFiniteGradient, ShapeMismatch, UsageError
from cdgm.numerics import seeded_rng


def small_spec(dropout=0.0):
    return nn.MlpSpec(input_dim=3, block1=(4,), block2=(5,), output_dim=6, dropout=dropout)


def test_spec_validation():
    with pytest.raises(UsageError):
        nn.MlpSpec(input_dim=2, block1=(4,), block2=(), output_dim=6, dropout=1.0)
    with pytest.raises(UsageError):
        nn.MlpSpec(input_dim=2, block1=(0,), block2=(), output_dim=6)


def test_layer_dims_with_concat():
    spec = small_spec()
    # block1 output (4) is concatenated with the 3-dim input before block2
    assert spec.layer_dims() == [(3, 4), (7, 5), (5, 6)]
    bare = nn.MlpSpec(input_dim=3, block1=(), block2=(), output_dim=6)
    assert bare.layer_dims() == [(3, 6)]
    assert bare.concat_layer is None


def test_forward_zero_params_zero_output():
    spec = small_spec()
    params = nn.ParamSet(spec)  # zeros
    out, _ = nn.forward(spec, params, np.random.default_rng(0).normal(size=(5, 3)))
    assert np.array_equal(out, np.zeros((5, 6)))


def test_forward_pure_linear_head_matches_hand_computation():
    spec = nn.MlpSpec(input_dim=2, block1=(), block2=(), output_dim=3)
    params = nn.init_params(spec, seeded_rng(0, 0))
    w, b = params.layers()[0]
    z = np.array([[0.5, -1.5], [2.0, 0.25]])
    out, _ = nn.forward(spec, params, z)
    assert np.allclose(out, z @ w + b, atol=1e-15)


def test_forward_shape_mismatch():
    spec = small_spec()
    with pytest.raises(ShapeMismatch):
        nn.forward(spec, nn.ParamSet(spec), np.zeros((4, 2)))


@pytest.mark.parametrize("training", [False, True])
def test_forward_into_out_matches_fresh_outputs_bit_for_bit(training):
    spec = nn.MlpSpec(input_dim=2, block1=(128, 64), block2=(128,), output_dim=2450,
                      dropout=0.3)
    params = nn.init_params(spec, seeded_rng(4, 0))
    z = np.random.default_rng(5).normal(size=(300, 2))
    fresh, cache = nn.forward(spec, params, z, training=training, rng=seeded_rng(6, 2))
    buf = np.full((300, 2450), np.nan)
    out, buf_cache = nn.forward(spec, params, z, training=training, rng=seeded_rng(6, 2), out=buf)
    assert out is buf
    assert np.array_equal(out, fresh)
    g = np.random.default_rng(7).normal(size=fresh.shape)
    assert np.array_equal(nn.backward(buf_cache, g), nn.backward(cache, g))


@pytest.mark.parametrize("n_out", [2450, 8010])
@pytest.mark.parametrize("fan_in", [2, 64, 128])
def test_head_split_by_columns_matches_whole_products_bit_for_bit(monkeypatch, fan_in, n_out):
    # A head that is the whole network, like the linear family's: forward and
    # backward both split it. Each result must equal one whole product.
    spec = nn.MlpSpec(input_dim=fan_in, block1=(), block2=(), output_dim=n_out)
    params = nn.init_params(spec, seeded_rng(21, 0))
    w, b = params.layers()[0]
    b[...] = np.random.default_rng(22).normal(size=n_out)
    pairs = []
    run_pair = nn.run_pair
    monkeypatch.setattr(nn, "run_pair", lambda *work: pairs.append(work) or run_pair(*work))
    mid = n_out // 2 // 64 * 64
    gen = np.random.default_rng(23)
    for rows in [*range(1, 65), 512, 2048]:
        split = rows * fan_in * mid > nn.SPLIT_MADDS
        assert split or rows < 512  # the large shapes do take the split
        pairs.clear()
        h = gen.normal(size=(rows, fan_in))
        out, cache = nn.forward(spec, params, h)
        assert out.tobytes() == (np.matmul(h, w) + b).tobytes()
        for layout in "CF":
            g = np.asarray(gen.normal(size=out.shape), order=layout)
            whole = np.concatenate([(h.T @ g).ravel(), g.sum(axis=0)])
            assert nn.backward(cache, g).tobytes() == whole.tobytes()
        assert len(pairs) == (3 if split else 0)  # below the bound: the whole product, here


@pytest.mark.parametrize("bad", [np.empty((4, 5)), np.empty((3, 6)), np.empty((4, 6), order="F"),
                                 np.empty((4, 12))[:, ::2], np.empty((4, 6), dtype=np.float32)])
def test_forward_rejects_out_it_would_copy_into(bad):
    spec = small_spec()
    with pytest.raises(ShapeMismatch, match="out must be"):
        nn.forward(spec, nn.ParamSet(spec), np.zeros((4, 3)), out=bad)


def test_dropout_mask_recomputation():
    spec = small_spec(dropout=0.3)
    params = nn.init_params(spec, seeded_rng(1, 0))
    z = np.random.default_rng(2).normal(size=(8, 3))
    out, cache = nn.forward(spec, params, z, training=True, rng=seeded_rng(3, 0))
    # replay the pass from the cached masks
    h = z
    layers = params.layers()
    for li, (w, b) in enumerate(layers):
        if li == spec.concat_layer:
            h = np.concatenate([h, z], axis=1)
        pre = h @ w + b
        if li < len(layers) - 1:
            h = pre * cache["relu_masks"][li]
            h = h * cache["drop_masks"][li] / 0.7
        else:
            h = pre
    assert np.allclose(out, h, atol=1e-15)


def test_dropout_requires_rng_and_eval_is_deterministic():
    spec = small_spec(dropout=0.5)
    params = nn.init_params(spec, seeded_rng(1, 0))
    z = np.zeros((2, 3))
    with pytest.raises(ShapeMismatch):
        nn.forward(spec, params, z, training=True)
    a, _ = nn.forward(spec, params, z, training=False)
    b, _ = nn.forward(spec, params, z, training=False)
    assert np.array_equal(a, b)


def test_dropout_preserves_expectation_for_positive_linear_net():
    # positive weights and inputs keep ReLU in its linear regime, so the
    # mask average should approach the eval-mode output
    spec = nn.MlpSpec(input_dim=2, block1=(3,), block2=(), output_dim=2, dropout=0.4)
    params = nn.ParamSet(spec)
    for w, b in params.layers():
        w[...] = np.abs(np.random.default_rng(4).normal(size=w.shape)) + 0.1
        b[...] = 0.1
    z = np.abs(np.random.default_rng(5).normal(size=(3, 2))) + 0.1
    eval_out, _ = nn.forward(spec, params, z, training=False)
    rng = seeded_rng(6, 0)
    acc = np.zeros_like(eval_out)
    n_draws = 20_000
    for _ in range(n_draws):
        out, _ = nn.forward(spec, params, z, training=True, rng=rng)
        acc += out
    assert np.abs(acc / n_draws - eval_out).max() < 0.05 * np.abs(eval_out).max()


def test_backward_zero_upstream_gives_zero_grads():
    spec = small_spec()
    params = nn.init_params(spec, seeded_rng(2, 0))
    out, cache = nn.forward(spec, params, np.random.default_rng(1).normal(size=(4, 3)))
    grads = nn.backward(cache, np.zeros_like(out))
    assert np.array_equal(grads, np.zeros_like(params.flat))


def test_backward_linear_layer_matches_closed_form():
    spec = nn.MlpSpec(input_dim=3, block1=(), block2=(), output_dim=2)
    params = nn.init_params(spec, seeded_rng(3, 0))
    gen = np.random.default_rng(7)
    z = gen.normal(size=(20, 3))
    y = gen.normal(size=(20, 2))
    out, cache = nn.forward(spec, params, z)
    grad_out = 2.0 / 20 * (out - y)  # d/d out of mean squared residual
    grads = nn.backward(cache, grad_out)
    gparams = nn.ParamSet(spec, grads)
    gw, gb = gparams.layers()[0]
    assert np.allclose(gw, z.T @ (2.0 / 20 * (out - y)), atol=1e-12)
    assert np.allclose(gb, (2.0 / 20 * (out - y)).sum(axis=0), atol=1e-12)


def _finite_difference(spec, params, z, weights, h=1e-5):
    fd = np.zeros_like(params.flat)
    for i in range(len(fd)):
        params.flat[i] += h
        up, _ = nn.forward(spec, params, z)
        params.flat[i] -= 2 * h
        down, _ = nn.forward(spec, params, z)
        params.flat[i] += h
        fd[i] = (np.sum(up * weights) - np.sum(down * weights)) / (2 * h)
    return fd


def test_gradient_matches_central_differences():
    spec = nn.MlpSpec(input_dim=3, block1=(4,), block2=(), output_dim=6)
    params = nn.init_params(spec, seeded_rng(4, 0))
    gen = np.random.default_rng(8)
    z = gen.normal(size=(9, 3))
    weights = gen.normal(size=(9, 6))
    out, cache = nn.forward(spec, params, z)
    analytic = nn.backward(cache, weights)
    fd = _finite_difference(spec, params, z, weights)
    rel = np.abs(analytic - fd) / np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    assert rel.max() < 1e-5


def test_backward_stale_cache():
    spec = small_spec()
    params = nn.init_params(spec, seeded_rng(5, 0))
    out, cache = nn.forward(spec, params, np.zeros((4, 3)))
    with pytest.raises(ShapeMismatch, match="does not match cached"):
        nn.backward(cache, np.zeros((5, 6)))


def test_optimizer_zero_gradient_keeps_params():
    spec = small_spec()
    params = nn.init_params(spec, seeded_rng(6, 0))
    before = params.flat.copy()
    state = nn.OptimState(n_params=spec.n_params, clip_norm=1.0)
    nn.optimizer_step(params, np.zeros_like(before), state, lr=0.1)
    assert np.array_equal(params.flat, before)
    assert state.step_count == 1


def test_optimizer_clips_global_norm():
    spec = nn.MlpSpec(input_dim=1, block1=(), block2=(), output_dim=1)
    params = nn.ParamSet(spec)
    state = nn.OptimState(n_params=2, clip_norm=1.0)
    g = np.array([6.0, 8.0])  # norm 10 -> scaled by 0.1
    nn.optimizer_step(params, g, state, lr=1.0)
    assert np.allclose(state.m, 0.1 * np.array([0.6, 0.8]))


def test_optimizer_rejects_non_finite():
    spec = nn.MlpSpec(input_dim=1, block1=(), block2=(), output_dim=1)
    params = nn.ParamSet(spec)
    state = nn.OptimState(n_params=2, clip_norm=1.0)
    with pytest.raises(NonFiniteGradient):
        nn.optimizer_step(params, np.array([np.nan, 0.0]), state, lr=0.1)


def test_optimizer_converges_on_quadratic():
    # minimize (theta - 3)^2 with analytic gradient
    spec = nn.MlpSpec(input_dim=1, block1=(), block2=(), output_dim=1)
    params = nn.ParamSet(spec)
    state = nn.OptimState(n_params=2, clip_norm=np.inf)
    for _ in range(200):
        g = np.array([2.0 * (params.flat[0] - 3.0), 0.0])
        nn.optimizer_step(params, g, state, lr=0.1)
    assert abs(params.flat[0] - 3.0) < 1e-3


def test_scheduled_lr_step_decay():
    cfg = estimator.TrainConfig(lr=0.0005, lr_step=20, lr_decay=0.25)
    assert estimator.scheduled_lr(cfg, 0) == 0.0005
    assert estimator.scheduled_lr(cfg, 19) == 0.0005
    assert estimator.scheduled_lr(cfg, 20) == pytest.approx(0.000125)
    assert estimator.scheduled_lr(cfg, 45) == pytest.approx(0.0005 * 0.25 ** 2)
    with pytest.raises(ShapeMismatch):
        estimator.scheduled_lr(cfg, -1)


def test_gradient_invariant_to_batch_order():
    spec = small_spec()
    params = nn.init_params(spec, seeded_rng(7, 0))
    gen = np.random.default_rng(9)
    z = gen.normal(size=(16, 3))
    gw = gen.normal(size=(16, 6))
    out, cache = nn.forward(spec, params, z)
    g1 = nn.backward(cache, gw)
    perm = gen.permutation(16)
    out2, cache2 = nn.forward(spec, params, z[perm])
    g2 = nn.backward(cache2, gw[perm])
    assert np.allclose(g1, g2, rtol=1e-12, atol=1e-12)


def test_params_roundtrip(tmp_path):
    spec = small_spec()
    params = nn.init_params(spec, seeded_rng(8, 0))
    path = tmp_path / "net.bin"
    nn.save_params(params, path)
    raw = path.read_bytes()
    assert raw.startswith(b"CDGM-PARAMS-1\nlayers 3x4 7x5 5x6\n\n")
    back = nn.load_params(path, spec)
    assert np.array_equal(back.flat, params.flat)
    other = nn.MlpSpec(input_dim=3, block1=(4, 2), block2=(5,), output_dim=6)
    with pytest.raises(CdgmError, match="net.bin: ShapeMismatch: stored shapes"):
        nn.load_params(path, other)


@pytest.mark.parametrize("damage", ["no_blank_line", "bad_magic", "bad_shape", "truncated",
                                    "odd_length", "extra"])
def test_load_params_rejects_damaged_file(tmp_path, damage):
    spec = small_spec()
    path = tmp_path / "net.bin"
    nn.save_params(nn.init_params(spec, seeded_rng(8, 0)), path)
    raw = path.read_bytes()
    head, body = raw.split(b"\n\n", 1)
    raw = {"no_blank_line": head + b"\n" + body,
           "bad_magic": raw.replace(b"CDGM-PARAMS-1", b"CDGM-PARAMS-9"),
           "bad_shape": raw.replace(b"3x4", b"3xfour"),
           "truncated": raw[:-8],
           "odd_length": raw[:-3],
           "extra": raw + bytes(8)}[damage]
    path.write_bytes(raw)
    with pytest.raises(CdgmError, match="net.bin"):
        nn.load_params(path, spec)
