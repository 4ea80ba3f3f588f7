import os
import subprocess
import sys

import numpy as np
import pytest

from cdgm.errors import NotPositiveDefinite, ShapeMismatch
from cdgm.numerics import (cholesky, sample_from_precision, seeded_rng, seeded_rngs,
                           solve_lt)


def test_cholesky_identity():
    assert np.array_equal(cholesky(np.eye(3)), np.eye(3))


def test_cholesky_reconstruction_2x2():
    m = np.array([[4.0, 2.0], [2.0, 3.0]])
    low = cholesky(m)
    assert np.allclose(low, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    assert np.abs(low @ low.T - m).max() < 1e-8


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1


def test_cholesky_rejects_tiny_pivot():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.diag([1.0, 1e-13]))


def test_cholesky_rejects_asymmetric_and_nonsquare():
    with pytest.raises(ShapeMismatch):
        cholesky(np.array([[1.0, 0.5], [0.3, 1.0]]))
    with pytest.raises(ShapeMismatch):
        cholesky(np.ones((2, 3)))


@pytest.mark.parametrize("p", [5, 40, 200])
def test_cholesky_reconstructs_random_spd(p):
    gen = np.random.default_rng(p)
    a = gen.normal(size=(p, p))
    m = a @ a.T + p * np.eye(p)
    low = cholesky(m)
    assert np.abs(low @ low.T - m).max() < 1e-8
    assert np.abs(np.triu(low, 1)).max() == 0.0


def _spd_stack(count, p, seed):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(count, p, p))
    return a @ a.transpose(0, 2, 1) + p * np.eye(p)


def test_cholesky_stack_equals_one_matrix_calls():
    ms = _spd_stack(7, 9, 0)
    low = cholesky(ms)
    assert low.shape == ms.shape
    for m, l in zip(ms, low):
        assert np.array_equal(l, cholesky(m))


def test_cholesky_stack_checks_every_matrix():
    ms = _spd_stack(4, 3, 1)
    bad = ms.copy()
    bad[2] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(NotPositiveDefinite):
        cholesky(bad)
    tiny = ms.copy()
    tiny[3] = np.diag([1.0, 1.0, 1e-13])
    with pytest.raises(NotPositiveDefinite):
        cholesky(tiny)
    skew = ms.copy()
    skew[1, 0, 2] += 1e-9
    with pytest.raises(ShapeMismatch):
        cholesky(skew)
    nan = ms.copy()
    nan[0, 1, 1] = np.nan
    with pytest.raises(ShapeMismatch):
        cholesky(nan)
    with pytest.raises(ShapeMismatch):
        cholesky(np.ones((2, 3, 4)))


NON_FINITE = "^matrix contains non-finite entries$"
ASYMMETRIC = "^cholesky needs a symmetric matrix$"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(1, 1), (0, 2), (2, 0)])
def test_cholesky_names_non_finite_entries(value, where):
    m = _spd_stack(1, 3, 2)[0]
    m[where] = value
    with pytest.raises(ShapeMismatch, match=NON_FINITE):
        cholesky(m)
    m[where[::-1]] = value  # also when its mirror holds the same value
    with pytest.raises(ShapeMismatch, match=NON_FINITE):
        cholesky(m)


def test_cholesky_names_opposite_infinities():
    m = np.eye(3)
    m[0, 1], m[1, 0] = np.inf, -np.inf
    with pytest.raises(ShapeMismatch, match=NON_FINITE):
        cholesky(m)


def test_cholesky_symmetry_tolerance_is_1e_10():
    m = np.eye(3)
    m[0, 2] = m[2, 0] = 0.5
    skew = m.copy()
    skew[2, 0] += 2e-10
    with pytest.raises(ShapeMismatch, match=ASYMMETRIC):
        cholesky(skew)
    skew[2, 0] = 0.5 - 2e-10  # either side of the mirror
    with pytest.raises(ShapeMismatch, match=ASYMMETRIC):
        cholesky(skew)
    near = m.copy()
    near[2, 0] += 0.5e-10
    assert np.array_equal(cholesky(near), np.linalg.cholesky(near))


def test_cholesky_non_finite_wins_over_asymmetric():
    m = np.eye(3)
    m[0, 1] = 0.7  # asymmetric: m[1, 0] stays 0
    m[2, 2] = np.nan
    with pytest.raises(ShapeMismatch, match=NON_FINITE):
        cholesky(m)


def test_cholesky_checks_the_last_matrix_of_a_stack():
    ms = _spd_stack(5, 4, 3)
    nan, skew = ms.copy(), ms.copy()
    nan[-1, 3, 3] = np.nan
    skew[-1, 3, 0] += 1e-9
    with pytest.raises(ShapeMismatch, match=NON_FINITE):
        cholesky(nan)
    with pytest.raises(ShapeMismatch, match=ASYMMETRIC):
        cholesky(skew)


def test_sampler_identity_precision_covariance():
    x = sample_from_precision(np.eye(4), 100_000, seeded_rng(0, 9))
    emp = x.T @ x / len(x)
    assert np.abs(emp - np.eye(4)).max() < 0.05


def test_sampler_banded_precision_matches_explicit_inverse():
    p = 5
    theta = np.eye(p)
    idx = np.arange(p - 1)
    theta[idx, idx + 1] = 0.4
    theta[idx + 1, idx] = 0.4
    x = sample_from_precision(theta, 200_000, seeded_rng(1, 2))
    emp = x.T @ x / len(x)
    assert np.abs(emp - np.linalg.inv(theta)).max() < 0.05


def test_sampler_deterministic_for_same_stream():
    a = sample_from_precision(np.eye(3), 50, seeded_rng(7, 3))
    b = sample_from_precision(np.eye(3), 50, seeded_rng(7, 3))
    assert np.array_equal(a, b)
    c = sample_from_precision(np.eye(3), 50, seeded_rng(7, 4))
    assert not np.array_equal(a, c)


def test_sampler_error_shrinks_with_sample_size():
    theta = np.array([[1.0, 0.3], [0.3, 1.0]])
    truth = np.linalg.inv(theta)

    def err(n, stream):
        x = sample_from_precision(theta, n, seeded_rng(5, stream))
        return np.abs(x.T @ x / n - truth).max()

    small = np.median([err(4_000, s) for s in range(5)])
    large = np.median([err(64_000, s) for s in range(5, 10)])
    # quadrupling n halves the error; 16x gives 4x, letting noise breathe
    assert large < small / 2.0


# numpy's SeedSequence is the reference for the batch seeding: one-word,
# two-word and five-word seeds, and streams up to the largest one-word key.
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**40 + 5, 2**128 + 3)
STREAMS = (0, 1, 2, 31, 32, 1000, 2**32 - 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_seeding_equals_numpy_seed_sequence(seed):
    for stream, gen in zip(STREAMS, seeded_rngs(seed, STREAMS), strict=True):
        ref = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
        assert gen.bit_generator.state == ref.bit_generator.state, stream
        assert seeded_rng(seed, stream).bit_generator.state == ref.bit_generator.state, stream
        assert np.array_equal(gen.standard_normal(5), ref.standard_normal(5)), stream


@pytest.mark.parametrize("seed,streams", [(-1, [0]), (0, [2**32]), (0, [-1]), (3, [5, 2**40])])
def test_seeding_refuses_negative_seeds_and_streams_past_one_word(seed, streams):
    with pytest.raises(ShapeMismatch, match="every stream in"):
        seeded_rngs(seed, streams)


def test_solve_checks_shapes_and_a_singular_factor():
    with pytest.raises(ShapeMismatch):
        solve_lt(np.eye(3), np.ones((2, 4)))
    with pytest.raises(ShapeMismatch):
        solve_lt(np.stack([np.eye(3)] * 2), np.ones((3, 1, 3)))
    with pytest.raises(NotPositiveDefinite, match="dtrtrs returned info 2"):
        solve_lt(np.diag([1.0, 0.0, 1.0]), np.ones((1, 3)))


# scipy's triangular solve (LAPACK trtrs) is the reference for the solves
# against the Cholesky factor: the stacked form datagen uses on
# FACTOR_CHUNK factors, and sample_from_precision. The bits may depend on
# the BLAS thread count, so each count runs in a fresh process.
SOLVE_ORACLE = """
import numpy as np
from scipy.linalg import solve_triangular

from cdgm.datagen import FACTOR_CHUNK
from cdgm.numerics import cholesky, sample_from_precision, seeded_rng, solve_lt

gen = np.random.default_rng(3)
checked = differ = 0
for p in (1, 2, 7, 50, 90, 200):
    a = gen.normal(size=(FACTOR_CHUNK, p, p))
    low = cholesky(a @ a.transpose(0, 2, 1) + p * np.eye(p))
    u = gen.standard_normal((FACTOR_CHUNK, p))
    ref = solve_triangular(low.transpose(0, 2, 1), u[:, :, None], lower=False,
                           check_finite=False)[:, :, 0]
    got = solve_lt(low, u[:, None, :])[:, 0, :]
    checked, differ = checked + 1, differ + (not np.array_equal(got, ref))
for p in (1, 7, 50, 200):
    a = gen.normal(size=(p, p))
    theta = a @ a.T + p * np.eye(p)
    low = cholesky(theta)
    for count in (1, 5, 200, 3000):
        x = sample_from_precision(theta, count, seeded_rng(p, count))
        u = seeded_rng(p, count).standard_normal((count, p))
        ref = solve_triangular(low.T, u.T, lower=False).T
        checked, differ = checked + 1, differ + (not np.array_equal(x, ref))
print(checked, differ)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_solves_match_scipy_triangular_solve_bit_for_bit(threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
    proc = subprocess.run([sys.executable, "-c", SOLVE_ORACLE], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.split() == ["22", "0"]


# Without numpy's dtrtrs symbol the solves fall back to np.linalg.solve;
# generation and sampling must give the same bits either way.
FALLBACK_ORACLE = """
import numpy as np

from cdgm import datagen, numerics


def draws():
    out = []
    for p in (6, 50, 90):
        for setting in ("G1", "G2"):
            spec = datagen.make_setting(setting, seed=p, p=p)
            out.append(datagen._generate_gaussian(spec, 70)[0])
        a = np.random.default_rng(p).normal(size=(p, p))
        out.append(numerics.sample_from_precision(a @ a.T + p * np.eye(p), 40,
                                                  numerics.seeded_rng(p, 1)))
    return out


library = draws()
assert numerics._trtrs, "numpy's dtrtrs was not found"
numerics._trtrs, numerics._find_trtrs = None, lambda: None
fallback = draws()
assert numerics._trtrs is False
print(len(library), sum(not np.array_equal(a, b) for a, b in zip(library, fallback)))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_solve_fallback_gives_the_dtrtrs_bits(threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
    proc = subprocess.run([sys.executable, "-c", FALLBACK_ORACLE], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.split() == ["9", "0"]
