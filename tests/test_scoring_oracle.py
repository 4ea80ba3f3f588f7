"""The row-wise scorer against the per-sample scoring it replaced.

The references below are frozen copies of the scoring code that
``metrics.score_rows`` replaced: one ``auroc``/``auprc`` call per sample
on a stable descending sort, one ``f1_ba`` call per (sample, threshold)
on ``threshold_and(normalize_if_nonzero(g), tau)``, ``best_over_path``
scoring one penalty at a time, and the lasso's per-pattern F1/BA loop.
``harness.evaluate_graphs``, ``baselines.best_penalty`` and
``harness.fit_eval_lasso`` must reproduce them bit for bit (compared
through ``float.hex``) on trained and tie-heavy graphs.
"""

import math

import numpy as np
import pytest

from cdgm import baselines, datagen, estimator, harness, metrics
from cdgm.errors import DegenerateLabels

THRESHOLDS = (0.0, 0.0123456789, 0.05, 0.1)


# --- frozen per-sample scoring -----------------------------------------------


def _ref_tie_groups(scores):
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    return order, np.append(np.flatnonzero(s_sorted[1:] != s_sorted[:-1]) + 1, scores.size)


def _ref_per_score(order, ends, group_values):
    out = np.empty(order.size)
    out[order] = np.repeat(group_values, np.diff(ends, prepend=0))
    return out


def _ref_auroc(scores, labels):
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("need at least one positive and one negative")
    if np.isnan(scores).any():
        return float("nan")
    order, ends = _ref_tie_groups(scores)
    starts = np.append(0, ends[:-1])
    ranks = _ref_per_score(order, ends, (2 * scores.size + 1 - starts - ends) / 2)
    pos_rank_sum = float(np.sum(ranks[labels]))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _ref_auprc(scores, labels):
    if int(labels.sum()) == 0:
        raise DegenerateLabels("need at least one positive")
    order, ends = _ref_tie_groups(scores)
    seen = np.cumsum(labels[order])[ends - 1]
    return float(np.mean(_ref_per_score(order, ends, seen / ends)[labels]))


def _ref_f1_ba(a, b):
    tp = int(np.sum(a & b))
    fp = int(np.sum(a & ~b))
    fn = int(np.sum(~a & b))
    tn = int(np.sum(~a & ~b))
    f1 = 2.0 * tp / (2.0 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0
    sens = tp / (tp + fn) if (tp + fn) > 0 else 1.0
    spec = tn / (tn + fp) if (tn + fp) > 0 else 1.0
    return f1, (sens + spec) / 2.0


def _ref_min_scores(w):
    a = np.abs(w)
    return np.minimum(a, a.T)


def _ref_skeleton(g, tau):
    off = np.abs(g).copy()
    np.fill_diagonal(off, 0.0)
    peak = off.max()
    s = _ref_min_scores(g / peak if peak != 0.0 else g)
    return (s >= tau) & (s > 0.0)


def _rows(truth):
    """One label row per sample from ``harness.truth_vectors``'s pair."""
    patterns, inverse = truth
    return patterns[inverse]


def _ref_evaluate_graphs(graphs, truths, thresholds):
    iu = np.triu_indices(graphs.shape[1], k=1)
    labels = [np.asarray(t, dtype=bool) for t in truths]
    scores = [_ref_min_scores(g)[iu] for g in graphs]
    out = {"auroc": [_ref_auroc(s, l) for s, l in zip(scores, labels)],
           "auprc": [_ref_auprc(s, l) for s, l in zip(scores, labels)]}
    for tau in thresholds:
        pairs = [_ref_f1_ba(_ref_skeleton(g, tau)[iu], l) for g, l in zip(graphs, labels)]
        out[f"f1@{tau:g}"] = [f for f, _ in pairs]
        out[f"ba@{tau:g}"] = [b for _, b in pairs]
    return out


def _ref_best_over_path(path, label_rows, metric):
    fn = {"auroc": _ref_auroc, "auprc": _ref_auprc}[metric]
    iu = np.triu_indices(path.graphs[0].shape[0], k=1)
    best_lam, best_val, best_vals = None, -np.inf, None
    for lam, w in zip(path.lambdas, path.graphs):
        scores = _ref_min_scores(w)[iu]
        vals = [fn(scores, vec) for vec in label_rows]
        val = math.fsum(vals) / len(vals)
        if val > best_val:
            best_lam, best_val, best_vals = float(lam), val, vals
    return best_lam, best_vals


def _ref_lasso_scores(cfg, ds):
    """Per-sample values of ``fit_eval_lasso`` the old way, cluster by cluster."""
    Xtr, Ztr = ds.part("train")
    labels = datagen.cluster_labels(ds.spec, Ztr)
    truths = _rows(harness.truth_vectors(ds.spec, Ztr, cfg.pseudo_moral))
    iu = np.triu_indices(ds.spec.p, k=1)
    out = {k: np.empty(len(Xtr)) for k in ["auroc", "auprc"] + [
        f"{m}@{t:g}" for t in cfg.thresholds for m in ("f1", "ba")]}
    lambdas = {}
    for cluster in sorted(set(labels.tolist())):
        members = np.nonzero(labels == cluster)[0]
        path = baselines.nodewise_lasso_graphs(Xtr[members], **cfg.lasso)
        for metric in ("auroc", "auprc"):
            lam, vals = _ref_best_over_path(path, truths[members], metric)
            out[metric][members] = vals
            lambdas[f"{metric}_cluster{cluster}"] = lam
            if metric == "auroc":
                graph = path.graphs[int(np.argwhere(path.lambdas == lam)[0][0])]
        for tau in cfg.thresholds:
            skel = _ref_skeleton(graph, tau)[iu]
            pairs = [_ref_f1_ba(skel, t) for t in truths[members]]
            out[f"f1@{tau:g}"][members] = [f for f, _ in pairs]
            out[f"ba@{tau:g}"][members] = [b for _, b in pairs]
    return out, lambdas


# --- cases -------------------------------------------------------------------


def _hex(values):
    return [float(v).hex() for v in values]


def _assert_same(got, want):
    assert set(got) == set(want)
    for key in want:
        assert _hex(got[key]) == _hex(want[key]), key


def _trained(setting, seed, epochs, n_train, n_test):
    spec = datagen.make_setting(setting, seed=seed)
    ds = datagen.generate_dataset(spec, n_train + 60 + n_test, (n_train, 60, n_test))
    cfg = estimator.default_train_config(setting, seed=seed, epochs=epochs)
    model, _ = estimator.train(ds, cfg)
    Z = ds.part("test")[1]
    return (estimator.estimate_graphs(model, Z), harness.truth_vectors(spec, Z, False),
            harness.truth_vectors(spec, Z, True))


@pytest.fixture(scope="module")
def trained():
    """Trained test-split graphs with full and pseudo-moral truths."""
    return {"D2": _trained("D2", 4, 4, 300, 150),
            "G1": _trained("G1", 4, 2, 300, 80),
            "G2": _trained("G2", 4, 1, 150, 40)}


@pytest.mark.parametrize("setting", ["D2", "G1", "G2"])
@pytest.mark.parametrize("pseudo", [False, True])
def test_evaluate_graphs_matches_per_sample_scoring(trained, setting, pseudo):
    graphs, full, moral = trained[setting]
    truths = moral if pseudo else full
    assert graphs.shape[1] == (90 if setting == "G2" else 50)
    _assert_same(harness.evaluate_graphs(graphs, truths, THRESHOLDS),
                 _ref_evaluate_graphs(graphs, _rows(truths), THRESHOLDS))


@pytest.mark.parametrize("step", [1 / 8, 1 / 64])
def test_tie_heavy_and_all_zero_graphs(trained, step):
    graphs, truths, _ = trained["D2"]
    peak = np.abs(graphs).max(axis=(1, 2), keepdims=True)
    tied = np.round(graphs / peak / step) * step  # a handful of distinct magnitudes
    tied[3] = 0.0
    tied[7] *= 1e-300
    tied[9][np.diag_indices(tied.shape[1])] = 9.0  # the diagonal is never scored
    thresholds = THRESHOLDS + (0.125, 0.5)  # scores sit exactly on these
    _assert_same(harness.evaluate_graphs(tied, truths, thresholds),
                 _ref_evaluate_graphs(tied, _rows(truths), thresholds))


def _regrouped(patterns, inverse):
    """The same truth as (patterns, inverse) in two other forms: the
    patterns reversed with ``inverse`` remapped, and sample 0's pattern
    split into two equal rows, each labelling every other one of its
    samples."""
    k, j = len(patterns), inverse[0]
    split = inverse.copy()
    split[np.flatnonzero(inverse == j)[::2]] = k
    return (patterns[::-1], k - 1 - inverse), (np.vstack([patterns, patterns[j]]), split)


def test_values_do_not_depend_on_pattern_order_or_grouping():
    # canonical p = 90 (4005-pair rows), tie-heavy graphs
    spec = datagen.make_setting("G2", seed=4)
    Z = datagen.generate_dataset(spec, 120, (120, 0, 0)).Z
    graphs = np.round(np.random.default_rng(9).normal(size=(120, 90, 90)), 1)
    patterns, inverse = harness.truth_vectors(spec, Z, False)
    assert patterns.shape == (2, 4005) and np.count_nonzero(inverse == inverse[0]) >= 2
    (rev, rev_inv), (dup, dup_inv) = _regrouped(patterns, inverse)
    whole = harness.evaluate_graphs(graphs, (patterns, inverse), THRESHOLDS)
    _assert_same(harness.evaluate_graphs(graphs, (rev, rev_inv), THRESHOLDS), whole)
    _assert_same(harness.evaluate_graphs(graphs, (dup, dup_inv), THRESHOLDS), whole)

    # one value per (graph, pattern): a pattern's column moves with it
    path, j = list(graphs[:6]), inverse[0]
    scored = baselines.score_graphs(path, patterns, THRESHOLDS)
    for name, values in baselines.score_graphs(path, rev, THRESHOLDS).items():
        assert _hex(values[:, ::-1].ravel()) == _hex(scored[name].ravel()), name
    for name, values in baselines.score_graphs(path, dup, THRESHOLDS).items():
        assert _hex(values[:, :-1].ravel()) == _hex(scored[name].ravel()), name
        assert _hex(values[:, -1].ravel()) == _hex(scored[name][:, j].ravel()), name


def test_blocked_rows_match_one_block(trained, monkeypatch):
    graphs, truths, _ = trained["G1"]
    whole = harness.evaluate_graphs(graphs, truths, THRESHOLDS)
    monkeypatch.setattr(metrics, "ROW_BLOCK", 3 * 1225)
    _assert_same(harness.evaluate_graphs(graphs, truths, THRESHOLDS), whole)


def test_nan_row_gives_nan_rank_metrics(trained):
    graphs, truths, _ = trained["G1"]
    graphs = graphs.copy()
    graphs[2, 5, 9] = np.nan
    got = harness.evaluate_graphs(graphs, truths, THRESHOLDS)
    want = _ref_evaluate_graphs(graphs, _rows(truths), THRESHOLDS)
    assert math.isnan(got["auroc"][2]) and math.isnan(got["auprc"][2])
    for key in want:
        assert _hex(np.delete(got[key], 2)) == _hex(np.delete(want[key], 2)), key
        if key.startswith(("f1", "ba")):
            assert got[key][2].hex() == want[key][2].hex()
    assert math.isnan(metrics.auprc([0.3, np.nan, 0.1], [True, False, True]))


@pytest.mark.parametrize("fill", [False, True])
def test_degenerate_rows_raise_as_before(trained, fill):
    graphs, (patterns, inverse), _ = trained["G1"]
    rows = patterns[inverse]
    rows[4] = fill
    with pytest.raises(DegenerateLabels, match="one positive and one negative"):
        _ref_evaluate_graphs(graphs, rows, THRESHOLDS)
    # sample 4 gets a pattern of its own
    patterns = np.vstack([patterns, rows[4]])
    inverse = inverse.copy()
    inverse[4] = len(patterns) - 1
    with pytest.raises(DegenerateLabels, match="one positive and one negative"):
        harness.evaluate_graphs(graphs, (patterns, inverse), THRESHOLDS)


# G2 runs at its canonical p = 90: two clusters (204 and 296 samples) of
# 4005-pair rows
@pytest.mark.parametrize("setting,pseudo", [("G1", False), ("D2", True), ("G2", False)])
def test_lasso_matches_per_penalty_scoring(setting, pseudo):
    spec = datagen.make_setting(setting, seed=6)
    ds = datagen.generate_dataset(spec, 500, (500, 0, 0))
    cfg = harness.ExperimentConfig(setting=setting, seeds=(6,), n_train=500, n_val=0,
                                   n_test=0, methods=("nodewise-lasso",),
                                   thresholds=THRESHOLDS, pseudo_moral=pseudo,
                                   lasso=dict(n_lambdas=6, lambda_min_ratio=0.05))
    res = harness.fit_eval_lasso(cfg, ds)
    want, lambdas = _ref_lasso_scores(cfg, ds)
    assert res["best_lambdas"] == lambdas
    _assert_same(res["per_sample"], want)


def test_best_over_path_auprc_on_complete_truth():
    # a complete skeleton has no negatives: AUPRC is defined, AUROC is not
    gen = np.random.default_rng(3)
    path = baselines.LassoPath(lambdas=np.array([0.3, 0.2, 0.1]),
                               graphs=list(np.round(gen.normal(size=(3, 6, 6)), 1)))
    full = ~np.eye(6, dtype=bool)[np.triu_indices(6, 1)][None]
    lam, vals = _ref_best_over_path(path, full, "auprc")
    scored = baselines.score_graphs(path.graphs, full, rank=("auprc",))["auprc"]
    best = baselines.best_penalty(scored, [0])
    assert (path.lambdas[best], scored[best][[0]].tolist()) == (lam, vals)
    with pytest.raises(DegenerateLabels, match="one positive and one negative"):
        baselines.score_graphs(path.graphs, full, rank=("auroc",))
    with pytest.raises(DegenerateLabels, match="need at least one positive$"):
        baselines.score_graphs(path.graphs, ~full, rank=("auprc",))
