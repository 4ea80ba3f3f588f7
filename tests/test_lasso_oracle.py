"""The lasso kernel against a verbatim copy of its plain form, bit for bit.

``_ref_coordinate_descent`` is the kernel as it was written before it
gathered its unfinished columns into work buffers: it re-gathers
``b[:, todo]`` and computes the KKT residual on every sweep, and
soft-thresholds through freshly allocated temporaries. The buffered
kernel must return the same bits for ``b``, the same ``converged`` flags
and, over a path, the same count of non-converged fits.
"""

import numpy as np
import pytest

from cdgm import baselines, datagen
from cdgm.numerics import sample_from_precision, seeded_rng


def _ref_soft_threshold(v, lam):
    return v - np.minimum(np.maximum(v, -lam), lam)


def _ref_coordinate_descent(gram, corr, b, lam, tol: float,
                            max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    b = np.array(b, dtype=np.float64)
    lam = np.broadcast_to(lam, b.shape)
    diag = np.diag(gram)
    todo = np.arange(b.shape[1])
    for _ in range(max_iter):
        start, cw, lw = b[:, todo], corr[:, todo], lam[:, todo]
        bw = start.copy()  # each coordinate moves once per sweep, from start
        own = diag[:, None] * start  # G[c, c] * start[c], each coordinate's own term
        v = np.empty(len(todo))
        for gcc, row, bc, cc, oc, lc in zip(diag, gram, bw, cw, own, lw):
            if gcc > 0.0:  # bc = soft_threshold(cc - row @ bw + oc, lc) / gcc, in place
                np.matmul(row, bw, out=v)
                np.subtract(cc, v, out=v)
                v += oc
                np.divide(_ref_soft_threshold(v, lc), gcc, out=bc)
        b[:, todo] = bw
        kkt = baselines._kkt_residual(cw - gram @ bw, bw, lw)
        done = (np.abs(bw - start).max(axis=0) < tol) & (kkt <= 1e-8)
        todo = todo[~done]
        if len(todo) == 0:
            break
    return b, ~np.isin(np.arange(b.shape[1]), todo)


def _assert_same_path(monkeypatch, x, **options):
    """``nodewise_lasso_graphs`` with the buffered kernel and with the
    reference: every kernel call, every graph and the non-converged count
    agree bit for bit."""
    calls = []
    kernel = baselines._coordinate_descent

    def recording(gram, corr, b, lam, tol, max_iter):
        out = kernel(gram, corr, b, lam, tol, max_iter)
        calls.append(((gram, corr, np.array(b), lam, tol, max_iter), out))
        return out

    monkeypatch.setattr(baselines, "_coordinate_descent", recording)
    path = baselines.nodewise_lasso_graphs(x, **options)
    for args, (b, converged) in calls:
        ref_b, ref_converged = _ref_coordinate_descent(*args)
        assert np.array_equal(b, ref_b)
        assert np.array_equal(converged, ref_converged)
    monkeypatch.setattr(baselines, "_coordinate_descent", _ref_coordinate_descent)
    ref = baselines.nodewise_lasso_graphs(x, **options)
    assert path.nonconverged == ref.nonconverged
    assert all(np.array_equal(g, r) for g, r in zip(path.graphs, ref.graphs))
    return path


@pytest.fixture(scope="module")
def g1_clusters():
    """The training clusters of the ``g1-lasso`` workload's first replicate."""
    ds = datagen.generate_dataset(datagen.make_setting("G1", seed=1000), 1200, (1200, 0, 0))
    labels = datagen.cluster_labels(ds.spec, ds.Z)
    return [ds.X[labels == k] for k in sorted(set(labels.tolist()))]


@pytest.mark.parametrize("n_lambdas", [6, 50])
def test_g1_clusters_match_reference(monkeypatch, g1_clusters, n_lambdas):
    assert len(g1_clusters) == 3
    for x in g1_clusters:
        _assert_same_path(monkeypatch, x, n_lambdas=n_lambdas)


def test_wide_g2_cluster_matches_reference(monkeypatch):
    spec = datagen.make_setting("G2", seed=2)
    ds = datagen.generate_dataset(spec, 300, (300, 0, 0))
    labels = datagen.cluster_labels(spec, ds.Z)
    x = ds.X[labels == np.bincount(labels).argmax()]
    assert x.shape[1] == 90
    _assert_same_path(monkeypatch, x, n_lambdas=6, lambda_min_ratio=0.1)


def test_zero_column_is_skipped_as_in_reference(monkeypatch):
    x = sample_from_precision(datagen.banded_precision(8, 2, 1.0, 0.3), 200, seeded_rng(21, 0))
    x[:, 3] = 0.0  # gram[3, 3] == 0: coordinate 3 never moves
    path = _assert_same_path(monkeypatch, x, n_lambdas=8)
    assert all(not g[3].any() and not g[:, 3].any() for g in path.graphs)


def test_capped_sweeps_match_reference(monkeypatch):
    x = sample_from_precision(datagen.banded_precision(10, 2, 1.0, 0.3), 150, seeded_rng(22, 0))
    for max_iter in (1, 2):
        path = _assert_same_path(monkeypatch, x, n_lambdas=5, max_iter=max_iter)
        assert path.nonconverged > 0


def test_warm_start_matches_reference():
    gen = np.random.default_rng(23)
    x = gen.normal(size=(120, 12))
    gram = x.T @ x / 120
    lam = np.where(np.eye(12, dtype=bool), np.inf, 0.05)
    warm = gen.normal(scale=0.2, size=(12, 12))
    np.fill_diagonal(warm, 0.0)
    for max_iter in (1, 3, 100_000):
        b, converged = baselines._coordinate_descent(gram, gram, warm, lam, 1e-10, max_iter)
        ref_b, ref_converged = _ref_coordinate_descent(gram, gram, warm, lam, 1e-10, max_iter)
        assert np.array_equal(b, ref_b)
        assert np.array_equal(converged, ref_converged)


def test_one_column_lasso_cd_matches_reference():
    gen = np.random.default_rng(24)
    x = gen.normal(size=(90, 9))
    y = x @ gen.normal(size=9) + 0.3 * gen.normal(size=90)
    gram, corr = x.T @ x / 90, (x.T @ y / 90)[:, None]
    b = None
    for lam in baselines.lambda_grid(np.abs(corr).max(), 12):
        start = np.zeros((9, 1)) if b is None else b[:, None]
        b, converged = baselines.lasso_cd(x, y, lam, warm_start=b)
        ref_b, ref_converged = _ref_coordinate_descent(gram, corr, start, lam, 1e-10, 100_000)
        assert np.array_equal(b, ref_b[:, 0])
        assert converged == ref_converged[0]
