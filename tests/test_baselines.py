import numpy as np
import pytest

from cdgm import baselines, datagen, metrics
from cdgm.errors import CdgmError, ShapeMismatch
from cdgm.graphops import symmetric_scores
from cdgm.numerics import sample_from_precision, seeded_rng


def test_soft_threshold():
    assert baselines.soft_threshold(2.0, 0.5) == 1.5
    assert baselines.soft_threshold(-2.0, 0.5) == -1.5
    assert baselines.soft_threshold(0.3, 0.5) == 0.0


def test_soft_threshold_vectorized_exact_zeros():
    out = baselines.soft_threshold(np.array([2.0, -2.0, 0.3, -0.5, -0.2]), 0.5)
    assert np.array_equal(out, [1.5, -1.5, 0.0, 0.0, 0.0])
    assert not np.signbit(out[2:]).any()  # no negative zeros in exported paths


@pytest.mark.parametrize("v, lam", [
    (np.array([0.5, -0.5, 1.5, -1.5, 0.25]), 0.5),  # ties at exactly +-lam
    (np.array([0.0, -0.0, 0.0, -0.0]), np.array([0.5, 0.5, 1e-300, 1e-300])),
    (np.array([0.0, -0.0, 3.0, -3.0]), np.inf),  # the pinned self-coefficient
    (np.array([np.nan, 1.0, -np.nan]), 0.5),
    (np.array([1.0, -2.0]), np.nan),
    (2.0, 0.5),
    (-0.0, 0.5),
    (np.linspace(-2.0, 2.0, 9)[:, None], np.array([0.5, 1.0, np.inf])),  # broadcast
])
def test_soft_threshold_is_max_then_min_byte_for_byte(v, lam):
    ref = np.asarray(v - np.minimum(np.maximum(v, -lam), lam))
    out = np.asarray(baselines.soft_threshold(v, lam))
    assert out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


def test_soft_threshold_zero_penalty_keeps_no_negative_zero():
    # max then min would keep -0.0 here; clip returns sign(-0.0) * 0 = +0.0
    out = baselines.soft_threshold(np.array([-0.0, 0.0, -1.0]), 0.0)
    assert out.tobytes() == np.array([0.0, 0.0, -1.0]).tobytes()


def test_kernel_clip_is_the_three_input_ufunc():
    assert isinstance(baselines._clip, np.ufunc)
    assert baselines._clip.nin == 3


def test_lasso_null_model_above_lambda_max():
    gen = np.random.default_rng(0)
    x = gen.normal(size=(50, 6))
    y = gen.normal(size=50)
    lam_max = np.abs(x.T @ y / 50).max()
    b, converged = baselines.lasso_cd(x, y, lam_max * 1.0001)
    assert converged
    assert np.array_equal(b, np.zeros(6))


def test_lasso_orthonormal_design_closed_form():
    gen = np.random.default_rng(1)
    n, d = 64, 8
    q, _ = np.linalg.qr(gen.normal(size=(n, d)))
    x = q * np.sqrt(n)  # columns orthonormal in the 1/n inner product
    y = gen.normal(size=n)
    lam = 0.15
    b, converged = baselines.lasso_cd(x, y, lam)
    assert converged
    corr = x.T @ y / n
    expect = np.sign(corr) * np.maximum(np.abs(corr) - lam, 0.0)
    assert np.abs(b - expect).max() < 1e-10


def test_lasso_zero_penalty_matches_least_squares():
    gen = np.random.default_rng(2)
    x = gen.normal(size=(80, 5))
    y = x @ np.array([1.0, -0.5, 0.0, 2.0, 0.3]) + 0.1 * gen.normal(size=80)
    b, converged = baselines.lasso_cd(x, y, 0.0, tol=1e-12)
    assert converged
    ls, *_ = np.linalg.lstsq(x, y, rcond=None)
    assert np.abs(b - ls).max() < 1e-6


def test_lasso_kkt_along_path():
    gen = np.random.default_rng(3)
    x = gen.normal(size=(100, 10))
    y = x[:, 0] - 0.7 * x[:, 3] + 0.3 * gen.normal(size=100)
    lam_max = np.abs(x.T @ y / 100).max()
    b = None
    for lam in baselines.lambda_grid(lam_max, 25):
        b, converged = baselines.lasso_cd(x, y, lam, warm_start=b)
        assert converged
        assert baselines.kkt_violation(x, y, b, lam) <= 1e-8


def test_lasso_warm_start_agrees_with_cold_start():
    gen = np.random.default_rng(4)
    x = gen.normal(size=(60, 7))
    y = x @ gen.normal(size=7) + 0.2 * gen.normal(size=60)
    lam_max = np.abs(x.T @ y / 60).max()
    grid = baselines.lambda_grid(lam_max, 10)
    warm = None
    for lam in grid:
        warm, _ = baselines.lasso_cd(x, y, lam, warm_start=warm)
        cold, _ = baselines.lasso_cd(x, y, lam)
        assert np.abs(warm - cold).max() < 1e-8


def test_lasso_coefficients_continuous_in_lambda():
    gen = np.random.default_rng(5)
    x = gen.normal(size=(120, 6))
    y = x @ gen.normal(size=6) + 0.1 * gen.normal(size=120)
    lam_max = np.abs(x.T @ y / 120).max()
    grid = baselines.lambda_grid(lam_max, 30)
    sols = []
    b = None
    for lam in grid:
        b, _ = baselines.lasso_cd(x, y, lam, warm_start=b)
        sols.append(b.copy())
    deltas = [np.abs(s2 - s1).max() / abs(l1 - l2)
              for s1, s2, l1, l2 in zip(sols, sols[1:], grid, grid[1:])]
    assert max(deltas) < 50.0  # bounded sensitivity on this fixture


def test_lasso_max_iter_flag():
    gen = np.random.default_rng(6)
    x = gen.normal(size=(40, 5))
    y = gen.normal(size=40)
    b, converged = baselines.lasso_cd(x, y, 0.01, tol=1e-14, max_iter=1)
    assert not converged
    assert b.shape == (5,)


def test_lasso_path_validation():
    with pytest.raises(ShapeMismatch):
        baselines.LassoPath(lambdas=np.array([0.1, 0.2]), graphs=[np.eye(2), np.eye(2)])
    with pytest.raises(ShapeMismatch):
        baselines.LassoPath(lambdas=np.array([0.2, 0.1]), graphs=[np.eye(2)])
    for bad in ([np.nan, 0.1], [0.2, np.nan], [np.nan]):
        with pytest.raises(ShapeMismatch):
            baselines.LassoPath(lambdas=np.array(bad), graphs=[np.eye(2)] * len(bad))


def test_nodewise_rejects_non_finite_design():
    x = np.random.default_rng(8).normal(size=(60, 50))
    for bad in (np.nan, np.inf):
        x[17, 3] = bad
        with pytest.raises(ShapeMismatch, match="NaN or inf"):
            baselines.nodewise_lasso_graphs(x, n_lambdas=4, max_iter=50)


def test_nodewise_independent_columns_stay_sparse():
    x = sample_from_precision(np.eye(6), 2000, seeded_rng(7, 0))
    path = baselines.nodewise_lasso_graphs(x, n_lambdas=8, lambda_min_ratio=0.05)
    mid = path.graphs[3]
    assert np.abs(mid).max() < 0.12  # no conditional dependence to find


def _best_over_path(path, truths, metric):
    """Best-over-path as ``harness.fit_eval_lasso`` runs it on one cluster:
    each distinct truth scored once per penalty, then ``best_penalty``.
    Returns the best penalty's index and its per-sample values."""
    iu = np.triu_indices(path.graphs[0].shape[0], k=1)
    patterns, inverse = np.unique(np.array([t[iu] for t in truths]), axis=0,
                                  return_inverse=True)
    inverse = inverse.reshape(-1)
    scored = baselines.score_graphs(path.graphs, patterns)[metric]
    best = baselines.best_penalty(scored, inverse)
    return best, scored[best][inverse].tolist()


def test_nodewise_recovers_banded_support():
    theta = datagen.banded_precision(8, 1, 1.0, 0.45)
    x = sample_from_precision(theta, 6000, seeded_rng(8, 0))
    path = baselines.nodewise_lasso_graphs(x, n_lambdas=20)
    truth = np.abs(theta) > 1e-10
    np.fill_diagonal(truth, False)
    iu = np.triu_indices(8, 1)
    best, (value,) = _best_over_path(path, [truth], "auroc")
    assert value > 0.99
    # top-|weight| pairs align with the band at the best penalty
    w = path.graphs[best]
    scores = symmetric_scores(w)[iu]
    top = np.argsort(-scores)[: truth[iu].sum()]
    assert truth[iu][top].mean() > 0.9


def test_best_over_path_single_and_tie_rules():
    g = np.zeros((3, 3))
    g[0, 1] = g[1, 0] = 1.0
    truth = g.astype(bool)
    path = baselines.LassoPath(lambdas=np.array([0.5]), graphs=[g])
    assert _best_over_path(path, [truth], "auroc") == (0, [1.0])
    # constant metric: tie resolves to the larger penalty, the first index
    path2 = baselines.LassoPath(lambdas=np.array([0.5, 0.1]), graphs=[g, g])
    assert _best_over_path(path2, [truth], "auroc") == (0, [1.0])
    # equal means from different per-sample values tie too; a larger later mean wins
    values = np.array([[0.75, 0.25], [0.25, 0.75], [0.5, 0.5 + 2.0 ** -51]])
    assert baselines.best_penalty(values[:2], [0, 1]) == 0
    assert baselines.best_penalty(values, [0, 1]) == 2
    # a NaN mean is never picked, first or later; a path of NaN means has no best
    nan = np.array([[np.nan, 1.0], [0.25, 0.25], [np.nan, 0.0]])
    assert baselines.best_penalty(nan, [0, 1]) == 1
    with pytest.raises(CdgmError, match="every penalty's mean is NaN"):
        baselines.best_penalty(nan[[0, 2]], [0, 1])


def test_best_over_path_matches_exhaustive_scan():
    gen = np.random.default_rng(9)
    theta = datagen.banded_precision(6, 1, 1.0, 0.4)
    x = sample_from_precision(theta, 1500, seeded_rng(10, 0))
    path = baselines.nodewise_lasso_graphs(x, n_lambdas=12)
    truth = np.abs(theta) > 1e-10
    np.fill_diagonal(truth, False)
    iu = np.triu_indices(6, 1)
    per_lambda = [metrics.auroc(symmetric_scores(w)[iu], truth[iu]) for w in path.graphs]
    best, (value,) = _best_over_path(path, [truth], "auroc")
    assert value == max(per_lambda)
    assert best == int(np.argmax(per_lambda))


def test_nodewise_single_graph_for_all_samples():
    # the baseline is covariate-independent: one path of graphs regardless
    # of which sample is being scored
    x = sample_from_precision(datagen.banded_precision(5, 1, 1.0, 0.3), 400, seeded_rng(11, 0))
    path = baselines.nodewise_lasso_graphs(x, n_lambdas=5)
    assert len(path.graphs) == 5
    assert all(g.shape == (5, 5) for g in path.graphs)


def test_write_path_csv(tmp_path):
    g1 = np.zeros((3, 3)); g1[0, 1] = 0.5
    g2 = np.zeros((3, 3))
    path = baselines.LassoPath(lambdas=np.array([0.4, 0.2]), graphs=[g1, g2])
    out = tmp_path / "path.csv"
    baselines.write_path_csv(path, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("lambda,w_0_0,w_0_1")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0.4"


def _scalar_lasso_cd(x, y, lam, b, tol=1e-10):
    """Reference: one regression, one coordinate at a time, same stopping rule."""
    n = len(y)
    gram, corr, b = x.T @ x / n, x.T @ y / n, b.copy()
    for _ in range(100_000):
        max_delta = 0.0
        for k in range(len(b)):
            old = b[k]
            rho = corr[k] - gram[k] @ b + gram[k, k] * old
            b[k] = np.sign(rho) * max(abs(rho) - lam, 0.0) / gram[k, k]
            max_delta = max(max_delta, abs(b[k] - old))
        if max_delta < tol and baselines.kkt_violation(x, y, b, lam) <= 1e-8:
            return b
    raise AssertionError("reference coordinate descent did not converge")


def test_stacked_path_matches_scalar_reference():
    # every node's path equals the one-regression loop, up to summation order
    theta = datagen.banded_precision(7, 2, 1.0, 0.3)
    x = sample_from_precision(theta, 300, seeded_rng(12, 0))
    path = baselines.nodewise_lasso_graphs(x, n_lambdas=10)
    scale = np.sqrt(np.mean(x * x, axis=0))
    xs = x / scale
    for j in range(7):
        others = np.delete(np.arange(7), j)
        design, target = xs[:, others], xs[:, j]
        ref = cd = np.zeros(6)
        for lam, w in zip(path.lambdas, path.graphs):
            ref = _scalar_lasso_cd(design, target, lam, ref)
            cd, converged = baselines.lasso_cd(design, target, lam, warm_start=cd)
            assert converged
            assert np.abs(cd - ref).max() < 1e-12
            assert np.abs(w[j, others] - ref * scale[j] / scale[others]).max() < 1e-12
            assert w[j, j] == 0.0


def test_nodewise_counts_nonconverged_regressions():
    x = sample_from_precision(datagen.banded_precision(6, 1, 1.0, 0.4), 300, seeded_rng(13, 0))
    assert baselines.nodewise_lasso_graphs(x, n_lambdas=8).nonconverged == 0
    capped = baselines.nodewise_lasso_graphs(x, n_lambdas=8, max_iter=1)
    assert 0 < capped.nonconverged <= 6 * 8


def test_nodewise_path_at_canonical_g1_dimensions():
    # one G1 cluster (p=50, ~400 samples) through the default 50-penalty path
    spec = datagen.make_setting("G1", seed=3)
    x_all, z = datagen.generate_dataset(spec, 1200, (1200, 0, 0)).part("train")
    x = x_all[datagen.cluster_labels(spec, z) == 1]
    n, p = x.shape
    assert p == 50 and 350 <= n <= 450
    path = baselines.nodewise_lasso_graphs(x)
    assert len(path.lambdas) == 50
    assert path.nonconverged == 0

    scale = np.sqrt(np.mean(x * x, axis=0))
    xs = x / scale
    lam_max = 0.0
    for j in range(p):
        others = np.delete(np.arange(p), j)
        lam_max = max(lam_max, np.max(np.abs(xs[:, others].T @ xs[:, j])) / n)
    assert np.array_equal(path.lambdas, baselines.lambda_grid(lam_max, 50))

    worst = 0.0
    for j in range(p):
        others = np.delete(np.arange(p), j)
        design, target = xs[:, others], xs[:, j]
        for lam, w in zip(path.lambdas, path.graphs):
            b = w[j, others] * scale[others] / scale[j]
            worst = max(worst, baselines.kkt_violation(design, target, b, lam))
    assert worst <= 1e-8


def test_best_over_path_per_sample_values():
    theta = datagen.banded_precision(6, 1, 1.0, 0.4)
    path = baselines.nodewise_lasso_graphs(
        sample_from_precision(theta, 800, seeded_rng(14, 0)), n_lambdas=8)
    band = np.abs(theta) > 1e-10
    np.fill_diagonal(band, False)
    wide = band | (np.abs(datagen.banded_precision(6, 2, 1.0, 0.4)) > 1e-10)
    np.fill_diagonal(wide, False)
    truths = [band, wide, band]
    best, vals = _best_over_path(path, truths, "auprc")
    assert len(vals) == 3 and vals[0] == vals[2]
    iu = np.triu_indices(6, k=1)
    means = [metrics.mean([metrics.auprc(symmetric_scores(w)[iu], t[iu]) for t in truths])
             for w in path.graphs]
    assert metrics.mean(vals) == max(means) == means[best]
