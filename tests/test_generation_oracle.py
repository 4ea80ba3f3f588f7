"""Batched generation against a per-sample reference at canonical dimensions.

The reference below is the per-sample generator the batched one replaced:
one covariate, one mix, one factorisation or one SEM pass per sample,
with the scalar branch rules. Each sample's stream comes straight from
numpy's ``SeedSequence``, not from cdgm's batch seeding, and each mix is a
dense sum. ``generate_dataset`` must reproduce it bit for bit in X, Z and
the resample count.
"""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from cdgm import datagen, harness
from cdgm.errors import NotPositiveDefinite
from cdgm.numerics import cholesky

SETTINGS = ("G1", "G2", "N1", "N2", "D1", "D2")
N_SAMPLES = 300


# --- per-sample reference --------------------------------------------------


def _ref_sigmoid(v):
    if v >= 0:
        return 1.0 / (1.0 + np.exp(-v))
    e = np.exp(v)
    return e / (1.0 + e)


def _ref_rbf(alphas, betas, centers, z):
    sq = np.sum((np.asarray(centers) - z) ** 2, axis=1)
    return float(np.dot(np.asarray(alphas), np.exp(-np.asarray(betas) * sq)))


def _ref_weights(spec, z):
    z = np.asarray(z, dtype=np.float64)
    s = spec.setting
    if s in ("G1", "N1"):
        z1, z2 = float(z[0]), float(z[1])
        if z2 <= 1.0 / 3.0:
            return np.array([z1, 1.0 - z1, 0.0]), 1
        if z2 <= 2.0 / 3.0:
            return np.array([0.0, z1, 1.0 - z1]), 2
        return np.array([z1, 0.0, 1.0 - z1]), 3
    if s in ("G2", "N2"):
        zt = _ref_sigmoid(_ref_rbf(*spec.rbf_params, z))
        if zt > 0.9 or zt <= 0.1:
            return np.array([zt, 0.0, 1.0 - zt]), 1
        return np.array([zt, 0.5, 0.5 - zt]), 2
    z1, z2 = float(z[0]), float(z[1])
    if 0.0 < z1 <= 0.5:
        return np.array([1.0, 0.0]), 1
    if -0.5 < z1 <= 0.0:
        return np.array([0.0, 1.0]), 2
    w1 = z2 * z2
    return np.array([w1, 1.0 - w1]), 3


def _ref_mix(weights, candidates):
    theta = np.zeros_like(candidates[0])
    for w, psi in zip(weights, candidates):
        theta += w * psi
    if np.any(weights < 0.0):
        cholesky(theta)
    return theta


def _ref_sem(a, family, coeffs, noise_sd, gen):
    order = datagen.topological_order(a)
    p = a.shape[0]
    noise = gen.normal(0.0, noise_sd, size=p)
    x = np.zeros(p)
    for j in order:
        if family == "linear":
            x[j] = a[j] @ x + noise[j]
            continue
        parents = np.nonzero(a[j])[0]
        total = 0.0
        if len(parents):
            basis = datagen.hermite_functions(x[parents])
            alpha = a[j, parents, None] * coeffs[j, parents, :]
            total = float(np.sum(alpha * basis))
        x[j] = total + noise[j]
    return x


def _ref_draw_sample(spec, gen):
    resamples = 0
    while True:
        if spec.setting in ("G2", "N2"):
            z = gen.standard_normal(spec.q)
        elif spec.mechanism == "dag":
            z = gen.uniform(-1.0, 1.0, spec.q)
        else:
            z = gen.uniform(0.0, 1.0, spec.q)
        weights, _ = _ref_weights(spec, z)
        if spec.mechanism == "dag":
            b1, b2 = spec.candidates
            a_tilde = weights[0] * b1 + weights[1] * b2
            family = "hermite" if spec.setting == "D2" else "linear"
            x = _ref_sem(a_tilde, family, spec.hermite_coeffs, spec.noise_sd, gen)
            return z, x, resamples
        try:
            low = cholesky(_ref_mix(weights, spec.candidates))
        except NotPositiveDefinite:
            resamples += 1
            continue
        u = gen.standard_normal(spec.p)
        x = solve_triangular(low.T, u, lower=False)
        if spec.npn_kind is not None:
            x = datagen.npn_transform(x, spec.npn_kind)
        return z, x, resamples


def _reference_dataset(spec, n):
    X = np.empty((n, spec.p))
    Z = np.empty((n, spec.q))
    total = 0
    for i in range(n):
        gen = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(i + 1,)))
        Z[i], X[i], resamples = _ref_draw_sample(spec, gen)
        total += resamples
    return X, Z, total


# --- generation --------------------------------------------------------------


@pytest.mark.parametrize("setting", SETTINGS)
def test_generation_matches_per_sample_reference_bit_for_bit(setting):
    # N_SAMPLES spans several factor chunks and ends in a partial one
    assert N_SAMPLES % datagen.FACTOR_CHUNK and N_SAMPLES > 2 * datagen.FACTOR_CHUNK
    for seed in (0, 1, 2, 3, 4, 5, 2**40 + 5):  # the last seed takes two 32-bit words
        spec = datagen.make_setting(setting, seed=seed)
        ds = datagen.generate_dataset(spec, N_SAMPLES, (N_SAMPLES - 100, 50, 50))
        X, Z, resamples = _reference_dataset(spec, N_SAMPLES)
        assert np.array_equal(ds.Z, Z), (setting, seed)
        assert np.array_equal(ds.X, X), (setting, seed)
        assert ds.resample_count == resamples, (setting, seed)
        assert ds.X.flags.c_contiguous


def test_g2_factors_each_draw_exactly_once(monkeypatch):
    spec = datagen.make_setting("G2", seed=2)
    factored = []

    def counting(m):
        factored.append(1 if np.ndim(m) == 2 else len(m))
        return cholesky(m)

    monkeypatch.setattr(datagen, "cholesky", counting)
    ds = datagen.generate_dataset(spec, 200, (100, 50, 50))
    monkeypatch.undo()
    # 200 accepted draws plus 72 redrawn indefinite mixes, one matrix each
    assert ds.resample_count == 72
    assert sum(factored) == 272
    X, Z, resamples = _reference_dataset(spec, 200)
    assert np.array_equal(ds.X, X) and np.array_equal(ds.Z, Z)
    assert ds.resample_count == resamples


def test_chunk_of_only_negative_weight_mixes():
    spec = datagen.make_setting("G2", seed=0, p=9, block_size=3)
    ds = datagen.generate_dataset(spec, 1, (1, 0, 0))
    assert datagen.covariate_to_weights(spec, ds.Z[:1])[0].min() < 0.0
    X, Z, _ = _reference_dataset(spec, 1)
    assert np.array_equal(ds.X, X) and np.array_equal(ds.Z, Z)


# --- weights and truth ---------------------------------------------------------


def _probe_covariates(spec, gen, n=400):
    if spec.setting in ("G2", "N2"):
        return gen.standard_normal((n, spec.q)) * 2.0
    if spec.mechanism == "dag":
        Z = gen.uniform(-1.0, 1.0, (n, spec.q))
        edges = [[0.5, 0.3], [0.0, -0.2], [-0.5, 0.9], [0.7, 1.0], [0.7, 0.0], [-0.8, -1.0]]
    else:
        Z = gen.uniform(0.0, 1.0, (n, spec.q))
        edges = [[0.4, 1.0 / 3.0], [0.6, 2.0 / 3.0], [0.0, 0.2], [1.0, 0.5], [1e-12, 0.1]]
    return np.vstack([Z, edges])


@pytest.mark.parametrize("setting", SETTINGS)
def test_batched_weights_equal_scalar_rule(setting):
    spec = datagen.make_setting(setting, seed=4)
    Z = _probe_covariates(spec, np.random.default_rng(5))
    weights, labels = datagen.covariate_to_weights(spec, Z)
    for z, w, c in zip(Z, weights, labels):
        ref_w, ref_c = _ref_weights(spec, z)
        assert np.array_equal(w, ref_w) and c == ref_c
        one_w, one_c = datagen.covariate_to_weights(spec, z[None])
        assert np.array_equal(one_w[0], ref_w) and one_c[0] == ref_c
    assert np.array_equal(datagen.cluster_labels(spec, Z), labels)


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("pseudo", (False, True))
def test_grouped_truth_equals_per_sample_truth(setting, pseudo):
    spec = datagen.make_setting(setting, seed=6)
    Z = datagen.generate_dataset(spec, 150, (150, 0, 0)).Z
    Z = np.vstack([Z, _probe_covariates(spec, np.random.default_rng(7), n=20)])
    iu = np.triu_indices(spec.p, k=1)
    per_sample = np.array([datagen.truth_skeleton(spec, z, pseudo=pseudo)[iu] for z in Z])
    patterns, inverse = harness.truth_vectors(spec, Z, pseudo)
    assert np.array_equal(patterns[inverse], per_sample)


def test_tiny_weight_leaves_its_candidate_out_of_truth():
    spec = datagen.make_setting("G1", seed=0)
    Z = np.array([[1e-12, 0.1], [0.3, 0.1]])
    keys = datagen.support_keys(spec, Z)
    assert keys.tolist() == [[False, True, False], [True, True, False]]
    patterns, inverse = harness.truth_vectors(spec, Z, False)
    truths = patterns[inverse]
    assert not np.array_equal(truths[0], truths[1])
    assert np.array_equal(truths[0], datagen.truth_skeleton(spec, Z[0])[np.triu_indices(50, 1)])
