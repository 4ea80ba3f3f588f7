import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgm import metrics
from cdgm.errors import DegenerateLabels, ShapeMismatch


def auroc_bruteforce(scores, labels):
    """O(n^2) pair counting with half credit for ties."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def auprc_bruteforce(scores, labels):
    """Average precision where ties count as one rank group."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    prec = []
    for i in np.nonzero(labels)[0]:
        at_least = scores >= scores[i]
        prec.append(int(np.sum(at_least & labels)) / int(np.sum(at_least)))
    return float(np.mean(prec))


def test_auroc_perfect_separation():
    assert metrics.auroc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0


def test_auroc_example():
    scores = [0.9, 0.4, 0.35, 0.8]
    labels = [1, 0, 1, 0]
    assert metrics.auroc(scores, labels) == auroc_bruteforce(scores, labels) == 0.5


def test_auroc_all_ties():
    assert metrics.auroc([0.3, 0.3, 0.3], [1, 0, 1]) == 0.5


def test_auroc_degenerate_labels():
    with pytest.raises(DegenerateLabels):
        metrics.auroc([0.1, 0.2], [1, 1])


def test_auroc_matches_bruteforce_with_ties():
    gen = np.random.default_rng(0)
    for trial in range(100):
        n = int(gen.integers(4, 40))
        scores = np.round(gen.normal(size=n), 1)  # force ties
        labels = gen.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert metrics.auroc(scores, labels) == auroc_bruteforce(scores, labels)


def test_auprc_perfect_ranking():
    scores = np.concatenate([np.arange(10, 13), np.zeros(7)])
    labels = np.concatenate([np.ones(3, dtype=int), np.zeros(7, dtype=int)])
    assert metrics.auprc(scores, labels) == 1.0


def test_auprc_single_positive_ranked_last():
    n = 8
    scores = np.arange(n, 0, -1).astype(float)
    labels = np.zeros(n, dtype=int)
    labels[-1] = 1
    assert metrics.auprc(scores, labels) == pytest.approx(1.0 / n)


def test_auprc_requires_positive():
    with pytest.raises(DegenerateLabels):
        metrics.auprc([0.5, 0.2], [0, 0])


def test_auprc_matches_naive_oracle_exactly():
    gen = np.random.default_rng(1)
    for trial in range(100):
        n = int(gen.integers(3, 50))
        scores = np.round(gen.normal(size=n), 1)
        labels = gen.integers(0, 2, n)
        if labels.sum() == 0:
            labels[0] = 1
        assert metrics.auprc(scores, labels) == auprc_bruteforce(scores, labels)
    for trial in range(150):
        n = int(gen.integers(1, 1225))
        # a handful of distinct values, so most scores sit in large tie groups
        levels = gen.normal(size=int(gen.integers(1, 6)))
        scores = levels[gen.integers(0, len(levels), n)]
        if trial % 10 == 0:
            scores[: n // 2] = np.inf
        labels = gen.random(n) < gen.uniform(0.05, 0.95)
        labels[0] = True
        assert metrics.auprc(scores, labels) == auprc_bruteforce(scores, labels)


def _midrank_cases():
    gen = np.random.default_rng(6)
    yield np.array([0.7])
    yield np.array([0.2, 0.2])
    yield np.array([-0.0, 0.0])
    yield np.full(1225, 0.4)
    yield np.array([np.inf, -np.inf, np.inf, 0.0, -np.inf, np.inf])
    for trial in range(200):
        n = int(gen.integers(2, 1226))
        levels = gen.normal(size=int(gen.integers(1, 6)))
        scores = levels[gen.integers(0, len(levels), n)] if trial % 4 else gen.normal(size=n)
        if trial % 5 == 0:
            scores[: n // 3] = np.inf
        if trial % 7 == 0:
            scores[n // 2:] = -np.inf
        yield scores


def test_auroc_equals_rankdata_formula_bit_for_bit():
    from scipy.stats import rankdata

    gen = np.random.default_rng(7)
    for scores in _midrank_cases():
        if scores.size < 2:
            continue
        labels = gen.random(scores.size) < gen.uniform(0.05, 0.95)
        labels[0], labels[-1] = True, False
        n_pos, n_neg = int(labels.sum()), int((~labels).sum())
        pos_rank_sum = float(np.sum(rankdata(scores, method="average")[labels]))
        expect = (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert metrics.auroc(scores, labels) == expect


def test_auroc_nan_score_gives_nan():
    assert np.isnan(metrics.auroc([0.1, np.nan, 0.3, 0.3], [1, 0, 1, 0]))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_auroc_invariant_under_monotone_transform(data):
    n = data.draw(st.integers(4, 25))
    scores = np.round(np.asarray(data.draw(
        st.lists(st.floats(-5, 5), min_size=n, max_size=n))), 3)
    labels = np.asarray(data.draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    base = metrics.auroc(scores, labels)
    assert metrics.auroc(np.exp(scores / 3.0), labels) == pytest.approx(base, abs=1e-12)


def test_auroc_complement_without_ties():
    gen = np.random.default_rng(2)
    scores = gen.permutation(20).astype(float)  # distinct
    labels = gen.integers(0, 2, 20)
    labels[0], labels[1] = 0, 1
    a = metrics.auroc(scores, labels)
    b = metrics.auroc(-scores, labels)
    assert a + b == pytest.approx(1.0, abs=1e-12)


def _skel(p, edges):
    s = np.zeros((p, p), dtype=bool)
    for j, k in edges:
        s[j, k] = s[k, j] = True
    return s


def test_f1_ba_exact_match():
    truth = _skel(4, [(0, 1), (2, 3)])
    f1, ba = metrics.f1_ba(truth, truth)
    assert f1 == 1.0 and ba == 1.0


def test_f1_ba_empty_prediction():
    truth = _skel(4, [(0, 1)])
    f1, ba = metrics.f1_ba(np.zeros((4, 4), dtype=bool), truth)
    assert f1 == 0.0 and ba == 0.5


def test_f1_ba_matches_confusion_counts():
    gen = np.random.default_rng(3)
    for _ in range(30):
        p = 6
        pred = _skel(p, [(j, k) for j in range(p) for k in range(j + 1, p)
                         if gen.random() < 0.35])
        truth = _skel(p, [(j, k) for j in range(p) for k in range(j + 1, p)
                          if gen.random() < 0.3])
        tp = fp = fn = tn = 0
        for j in range(p):
            for k in range(j + 1, p):
                if pred[j, k] and truth[j, k]:
                    tp += 1
                elif pred[j, k]:
                    fp += 1
                elif truth[j, k]:
                    fn += 1
                else:
                    tn += 1
        f1, ba = metrics.f1_ba(pred, truth)
        expect_f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        sens = tp / (tp + fn) if tp + fn else 1.0
        spec = tn / (tn + fp) if tn + fp else 1.0
        assert f1 == pytest.approx(expect_f1)
        assert ba == pytest.approx((sens + spec) / 2)


def test_f1_ba_invariant_to_node_relabeling():
    gen = np.random.default_rng(4)
    p = 7
    pred = _skel(p, [(0, 1), (2, 5), (3, 6)])
    truth = _skel(p, [(0, 1), (2, 5), (4, 6)])
    perm = gen.permutation(p)
    f1a, baa = metrics.f1_ba(pred, truth)
    f1b, bab = metrics.f1_ba(pred[np.ix_(perm, perm)], truth[np.ix_(perm, perm)])
    assert f1a == pytest.approx(f1b) and baa == pytest.approx(bab)


def test_f1_ba_rejects_asymmetric():
    bad = np.zeros((3, 3), dtype=bool)
    bad[0, 1] = True
    with pytest.raises(ShapeMismatch):
        metrics.f1_ba(bad, np.zeros((3, 3), dtype=bool))


def test_aggregate_single_value():
    rep = metrics.aggregate([{"auroc": [0.8]}])
    assert rep.mean["auroc"] == 0.8
    assert rep.std["auroc"] == 0.0


def test_aggregate_two_replicates():
    rep = metrics.aggregate([{"auroc": [0.9, 0.9]}, {"auroc": [1.0, 1.0]}])
    assert rep.mean["auroc"] == pytest.approx(0.95)
    assert rep.std["auroc"] == pytest.approx(0.07071, abs=1e-4)
    assert rep.per_experiment["auroc"] == [0.9, 1.0]


def test_aggregate_invariant_to_sample_order():
    gen = np.random.default_rng(5)
    vals = gen.uniform(0, 1, 200)
    rep_a = metrics.aggregate([{"m": vals}])
    rep_b = metrics.aggregate([{"m": gen.permutation(vals)}])
    assert rep_a.mean["m"] == rep_b.mean["m"]


def _exact_mean(values):
    return float(sum(map(Fraction, values)) / len(values))


def test_mean_is_correctly_rounded():
    gen = np.random.default_rng(11)
    cases = [
        [1.0, 1.0 + 2.0 ** -52],  # a tie: the exact mean sits on a midpoint
        [0.5, 0.5 + 2.0 ** -51, 0.5],
        [5e-324, 0.0],  # subnormal: goes to the exact sum
        [1e-300, 3e-300, 7e-301],
        [0.0, 0.0],
        [0.1] * 10,
    ]
    for trial in range(600):
        n = int(gen.integers(1, 1300))
        if trial % 3 == 0:
            cases.append((gen.integers(0, 1226, n) / 1225).tolist())  # metric-like values
        elif trial % 3 == 1:
            cases.append(gen.random(n).tolist())
        else:
            cases.append(gen.normal(size=n) * 10.0 ** gen.integers(-200, 200, n))
    differs = 0
    for values in cases:
        assert metrics.mean(values) == _exact_mean(values)
        differs += math.fsum(values) / len(values) != _exact_mean(values)
    assert differs > 20  # fsum / len rounds twice and misses often
    assert math.isnan(metrics.mean([0.2, float("nan"), 0.4]))
