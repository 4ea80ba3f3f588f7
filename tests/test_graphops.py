import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cdgm import graphops


def offdiag(p, gen):
    w = gen.normal(size=(p, p))
    np.fill_diagonal(w, 0.0)
    return w


def test_normalize_divides_by_peak():
    w = np.array([[0.0, 4.0], [-2.0, 0.0]])
    out = graphops.normalize(w)
    assert np.allclose(out, [[0.0, 1.0], [-0.5, 0.0]])


def test_normalize_identity_when_peak_is_one():
    w = np.array([[0.0, 1.0], [0.25, 0.0]])
    assert np.array_equal(graphops.normalize(w), w)


def test_normalize_preserves_ranking():
    gen = np.random.default_rng(0)
    w = offdiag(6, gen)
    order_before = np.argsort(np.abs(w).ravel())
    order_after = np.argsort(np.abs(graphops.normalize(w)).ravel())
    assert np.array_equal(order_before, order_after)


def test_normalize_all_zero_passes_through():
    w = np.zeros((3, 3))
    w[1, 1] = 5.0  # a diagonal entry is not a peak
    assert np.array_equal(graphops.normalize(w), w)


def test_normalize_nan_peak_still_divides():
    w = np.array([[0.0, 2.0], [np.nan, 0.0]])
    assert np.isnan(graphops.normalize(w)).all()


def test_symmetric_scores_min():
    w = np.array([[0.0, 0.8], [-0.2, 0.0]])
    assert np.allclose(graphops.symmetric_scores(w), [[0.0, 0.2], [0.2, 0.0]])


def test_symmetric_scores_symmetric_input_is_abs():
    w = np.array([[0.0, -0.4], [-0.4, 0.0]])
    assert np.allclose(graphops.symmetric_scores(w), np.abs(w))


def test_threshold_and_requires_both_directions():
    w = np.zeros((2, 2))
    w[0, 1], w[1, 0] = 0.2, 0.03
    assert not graphops.threshold_and(w, 0.1).any()
    w[1, 0] = 0.2
    skel = graphops.threshold_and(w, 0.1)
    assert skel[0, 1] and skel[1, 0]


def test_threshold_zero_keeps_pairs_with_both_nonzero():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 0.01
    w[0, 2] = 0.5  # one-directional only
    skel = graphops.threshold_and(w, 0.0)
    assert skel[0, 1] and not skel[0, 2]


@given(hnp.arrays(np.float64, (5, 5), elements=st.floats(-2, 2)),
       st.floats(0.01, 1), st.floats(0.01, 1))
@settings(max_examples=60, deadline=None)
def test_threshold_monotone_and_equals_scores(w, t1, t2):
    np.fill_diagonal(w, 0.0)
    lo, hi = min(t1, t2), max(t1, t2)
    skel_hi = graphops.threshold_and(w, hi)
    skel_lo = graphops.threshold_and(w, lo)
    assert np.all(skel_hi <= skel_lo)
    assert np.array_equal(skel_lo, graphops.symmetric_scores(w) >= lo)


def test_threshold_invariant_to_positive_rescaling_after_normalize():
    gen = np.random.default_rng(1)
    w = offdiag(7, gen)
    a = graphops.threshold_and(graphops.normalize(w), 0.3)
    b = graphops.threshold_and(graphops.normalize(17.0 * w), 0.3)
    assert np.array_equal(a, b)


def test_magnitude_histogram_counts_offdiagonal_entries(monkeypatch):
    monkeypatch.setattr(graphops, "HISTOGRAM_BINS", 4)
    w = np.zeros((1, 3, 3))
    w[0, 0, 1], w[0, 1, 0] = 1.0, 0.5
    counts, edges = graphops.magnitude_histogram(w)
    assert len(counts) == 4
    assert counts.sum() == 6  # all off-diagonal cells pooled
    assert edges[0] == 0.0 and edges[-1] == 1.0
    assert counts[-1] == 1  # the unit entry


def test_skeleton_edge_list_and_csv(tmp_path):
    # a skeleton's edges as cdgm eval writes them: upper-triangle pairs, j < k
    skel = np.zeros((4, 4), dtype=bool)
    skel[0, 2] = skel[2, 0] = True
    skel[1, 3] = skel[3, 1] = True
    j, k = np.triu_indices(4, 1)
    row = skel[j, k]
    out = tmp_path / "edges.csv"
    graphops.write_edge_list(j[row], k[row], out)
    assert out.read_text() == "j,k\n0,2\n1,3\n"
    graphops.write_edge_list(j[:0], k[:0], out)
    assert out.read_text() == "j,k\n"
