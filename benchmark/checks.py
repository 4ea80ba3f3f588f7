"""Output checks computed apart from the program.

Every reference value here is recomputed from first principles in the
benchmark's own code: rank metrics by exhaustive counting in exact
rational arithmetic, ground truth from the settings' mixing rules (and
``networkx.moral_graph`` for the DAG setting), lasso optimality from the
design matrix, and report rows as exact means of the replicate JSON.
Nothing is compared against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

TOL = 1e-12  # float value vs exact rational value
KKT_TOL = 1e-8


# ---------------------------------------------------------------------------
# reference computations


def edge_scores(graph) -> np.ndarray:
    """Upper-triangle pair scores min(|w_jk|, |w_kj|), row-major over j < k."""
    a = np.abs(np.asarray(graph, dtype=np.float64))
    j, k = np.triu_indices(a.shape[0], 1)
    return np.minimum(a[j, k], a[k, j])


def upper(skeleton) -> np.ndarray:
    j, k = np.triu_indices(skeleton.shape[0], 1)
    return np.asarray(skeleton, dtype=bool)[j, k]


def auroc_exact(scores, labels) -> Fraction:
    """Share of positive-negative pairs ranked right, ties counting half."""
    pos, neg = scores[labels], scores[~labels]
    wins = int(np.sum(pos[:, None] > neg[None, :]))
    ties = int(np.sum(pos[:, None] == neg[None, :]))
    return Fraction(2 * wins + ties, 2 * len(pos) * len(neg))


def ap_exact(scores, labels) -> Fraction:
    """Mean over positives of (positives scored at or above it) / (all scored
    at or above it)."""
    pos = scores[labels]
    at_or_above = np.sum(scores[None, :] >= pos[:, None], axis=1)
    pos_at_or_above = np.sum(pos[None, :] >= pos[:, None], axis=1)
    total = sum(Fraction(int(a), int(b)) for a, b in zip(pos_at_or_above, at_or_above))
    return total / len(pos)


def g1_weights(z) -> list[float]:
    """G1 mixing weights of the three banded candidates at covariate z."""
    z1, z2 = float(z[0]), float(z[1])
    if z2 <= 1 / 3:
        return [z1, 1 - z1, 0.0]
    if z2 <= 2 / 3:
        return [0.0, z1, 1 - z1]
    return [z1, 0.0, 1 - z1]


def g1_cluster(z) -> int:
    z2 = float(z[1])
    return 1 if z2 <= 1 / 3 else 2 if z2 <= 2 / 3 else 3


def g1_truth(z, p: int) -> np.ndarray:
    """Union of the band offsets whose mixing weight is nonzero."""
    skel = np.zeros((p, p), dtype=bool)
    for offset, w in zip((1, 2, 3), g1_weights(z)):
        if w != 0.0:
            i = np.arange(p - offset)
            skel[i, i + offset] = skel[i + offset, i] = True
    return skel


def d2_truth(z, trees) -> np.ndarray:
    """Moral graph of the union of the candidate trees with nonzero weight."""
    import networkx as nx

    z1, z2 = float(z[0]), float(z[1])
    if 0.0 < z1 <= 0.5:
        weights = (1.0, 0.0)
    elif -0.5 < z1 <= 0.0:
        weights = (0.0, 1.0)
    else:
        weights = (z2 * z2, 1.0 - z2 * z2)
    p = trees[0].shape[0]
    dag = nx.DiGraph()
    dag.add_nodes_from(range(p))
    for w, tree in zip(weights, trees):
        if w != 0.0:
            child, parent = np.nonzero(tree)
            dag.add_edges_from(zip(parent.tolist(), child.tolist()))
    moral = nx.moral_graph(dag)
    skel = np.zeros((p, p), dtype=bool)
    for a, b in moral.edges():
        skel[a, b] = skel[b, a] = True
    return skel


def kkt_residuals(x, lambdas, graphs) -> np.ndarray:
    """Lasso stationarity residual of every (penalty, node) fit on a path.

    ``graphs[l][j]`` holds node j's coefficients on the original columns
    of ``x``; the fit is on columns scaled to unit root-mean-square, as the
    path promises, so they are rescaled before the residual is taken.
    """
    x = np.asarray(x, dtype=np.float64)
    n, p = x.shape
    scale = np.sqrt(np.mean(x * x, axis=0))
    scale[scale == 0.0] = 1.0
    xs = x / scale
    out = np.zeros((len(lambdas), p))
    for j in range(p):
        others = np.delete(np.arange(p), j)
        design, target = xs[:, others], xs[:, j]
        coef = np.stack([g[j, others] for g in graphs]) * scale[others] / scale[j]
        grad = design.T @ (target[:, None] - design @ coef.T) / n  # (p-1, L)
        for li, lam in enumerate(lambdas):
            b, g = coef[li], grad[:, li]
            active = b != 0
            viol = np.concatenate([
                np.maximum(np.abs(g[~active]) - lam, 0.0),
                np.abs(g[active] - lam * np.sign(b[active]))])
            out[li, j] = viol.max(initial=0.0)
    return out


def exact_mean(values) -> Fraction:
    return sum(Fraction(v) for v in values) / len(values)


def report_mismatches(report_text: str, rep: dict) -> list[str]:
    """Report rows that differ from the exact mean of the replicate's
    per-sample values, printed to the report's ten significant digits."""
    bad = []
    rows = list(csv.DictReader(io.StringIO(report_text)))
    for row in rows:
        res = rep["methods"][row["method"]]
        tau = f"{float(row['threshold']):g}"
        keys = {"auroc": "auroc", "auprc": "auprc", "f1": f"f1@{tau}", "ba": f"ba@{tau}"}
        for col, key in keys.items():
            want = f"{float(exact_mean(res['per_sample'][key])):.10g}"
            if row[col] != want:
                bad.append(f"{row['method']}@{tau} {col}: {row[col]} != {want}")
    ok = {m for m, res in rep["methods"].items() if res["status"] == "ok"}
    if {r["method"] for r in rows} != ok:
        bad.append(f"report rows cover {sorted({r['method'] for r in rows})}, not {sorted(ok)}")
    return bad


def report_digest(report_text: str) -> str:
    """SHA-256 of the report with the runtime_s column removed."""
    rows = list(csv.reader(io.StringIO(report_text)))
    drop = rows[0].index("runtime_s")
    kept = "\n".join(",".join(c for i, c in enumerate(r) if i != drop) for r in rows)
    return hashlib.sha256(kept.encode()).hexdigest()


# ---------------------------------------------------------------------------
# one replicate's outputs


class Verdicts:
    """Per check: how many items were checked and which of them failed."""

    def __init__(self):
        self.items: dict[str, list] = {}

    def add(self, name: str, ok: bool, detail: str = "", count: int = 1) -> None:
        entry = self.items.setdefault(name, [0, []])
        entry[0] += count
        if not ok:
            entry[1].append(detail)

    @property
    def passed(self) -> bool:
        return all(not failures for _, failures in self.items.values())

    def lines(self) -> list[str]:
        out = []
        for name, (checked, failures) in self.items.items():
            verdict = "PASS" if not failures else f"FAIL ({len(failures)} failed)"
            line = f"check {name}: {verdict}, {checked} checked"
            if failures:
                line += "; first: " + "; ".join(failures[:3])
            out.append(line)
        return out


def _truth_fn(spec):
    if spec.setting == "G1":
        return lambda z: g1_truth(z, spec.p), "truth = union of nonzero-weight G1 bands"
    if spec.setting == "D2":
        return (lambda z: d2_truth(z, spec.candidates),
                "truth = networkx moral graph of the mixed D2 trees")
    raise ValueError(f"no independent truth for setting {spec.setting}")


def check_truth(spec, Z, program_truth, verdicts: Verdicts) -> list[np.ndarray]:
    """Compare the program's skeletons with the reference; return the reference."""
    truth, name = _truth_fn(spec)
    cache: dict[bytes, np.ndarray] = {}
    refs = []
    for i, z in enumerate(Z):
        ref = truth(z)
        key = ref.tobytes()
        ref = cache.setdefault(key, ref)
        refs.append(ref)
        verdicts.add(name, np.array_equal(program_truth(spec, z), ref), f"sample {i}")
    return refs


def check_rank_metrics(graphs, refs, per_sample, method, verdicts: Verdicts) -> None:
    """Per-sample AUROC and AP of covariate-specific graphs."""
    for i, (g, ref) in enumerate(zip(graphs, refs)):
        scores, labels = edge_scores(g), upper(ref)
        for metric, fn in (("auroc", auroc_exact), ("auprc", ap_exact)):
            want = fn(scores, labels)
            got = per_sample[metric][i]
            verdicts.add(f"{metric} by exact counting", abs(got - want) <= TOL,
                         f"{method} sample {i}: {got!r} != {float(want)!r}")


def check_lasso_cluster(x, lambdas, graphs, refs, per_sample, members, best_lambdas,
                        cluster, verdicts: Verdicts) -> None:
    """KKT along the path and best-over-path values for one cluster."""
    kkt = kkt_residuals(x, lambdas, graphs)
    verdicts.add(f"lasso KKT <= {KKT_TOL:g}", kkt.max() <= KKT_TOL,
                 f"cluster {cluster}: {kkt.max():.3e}", count=kkt.size)
    patterns: dict[bytes, list[int]] = {}
    for pos, ref in enumerate(refs):
        patterns.setdefault(upper(ref).tobytes(), []).append(pos)
    for metric, fn in (("auroc", auroc_exact), ("auprc", ap_exact)):
        per_lambda = []  # (exact cluster mean, value per member)
        for g in graphs:
            scores = edge_scores(g)
            vals = [None] * len(refs)
            for key, where in patterns.items():
                v = fn(scores, np.frombuffer(key, dtype=bool))
                for pos in where:
                    vals[pos] = v
            per_lambda.append((sum(vals) / len(vals), vals))
        best = max(mean for mean, _ in per_lambda)
        chosen = best_lambdas[f"{metric}_cluster{cluster}"]
        hits = np.nonzero(lambdas == chosen)[0]
        if len(hits) != 1:
            verdicts.add(f"lasso best-over-path {metric}", False,
                         f"cluster {cluster}: penalty {chosen!r} not on the path")
            continue
        mean, vals = per_lambda[hits[0]]
        verdicts.add(f"lasso best-over-path {metric}", float(best - mean) <= TOL,
                     f"cluster {cluster}: chosen mean {float(mean)!r} < best {float(best)!r}")
        got = [per_sample[metric][i] for i in members]
        bad = [i for i, g, w in zip(members, got, vals) if abs(g - w) > TOL]
        verdicts.add(f"{metric} by exact counting", not bad,
                     f"lasso sample {bad[:1]}", count=len(members))


def check_replicate(wl, spec, rep_dir, program_truth, verdicts: Verdicts) -> dict:
    """Check every output of one replicate directory; return its JSON."""
    rep_dir = Path(rep_dir)
    rep = json.loads((rep_dir / "replicate_000.json").read_text())
    report = (rep_dir / "report.csv").read_text()
    for method, res in rep["methods"].items():
        verdicts.add("method fit status ok", res["status"] == "ok",
                     f"{method}: {res.get('error')}")
    bad = report_mismatches(report, rep)
    verdicts.add("report rows = exact per-sample means", not bad, "; ".join(bad[:3]))

    with np.load(rep_dir / "capture.npz") as cap:
        arrays = dict(cap)
    X, Z = arrays["X"], arrays["Z"]
    test = slice(wl.n_train + wl.n_val, wl.n_train + wl.n_val + wl.n_test)
    dnn_methods = [m for m in wl.methods if m in ("dnn", "reggmm")]
    if dnn_methods:
        refs = check_truth(spec, Z[test], program_truth, verdicts)
        for k, method in enumerate(dnn_methods):
            res = rep["methods"][method]
            if res["status"] == "ok":
                check_rank_metrics(arrays[f"graphs{k}"], refs, res["per_sample"],
                                   method, verdicts)
    if "nodewise-lasso" in wl.methods and rep["methods"]["nodewise-lasso"]["status"] == "ok":
        res = rep["methods"]["nodewise-lasso"]
        Xtr, Ztr = X[:wl.n_train], Z[:wl.n_train]
        refs = check_truth(spec, Ztr, program_truth, verdicts)
        labels = np.array([g1_cluster(z) for z in Ztr])
        for k, cluster in enumerate(sorted(set(labels.tolist()))):
            members = np.nonzero(labels == cluster)[0]
            x = arrays[f"lasso_x{k}"]
            verdicts.add("lasso cluster = G1 z2 interval", np.array_equal(x, Xtr[members]),
                         f"cluster {cluster}")
            check_lasso_cluster(x, arrays[f"lasso_lambdas{k}"], arrays[f"lasso_graphs{k}"],
                                [refs[i] for i in members], res["per_sample"],
                                members.tolist(), res["best_lambdas"], cluster, verdicts)
    return rep
