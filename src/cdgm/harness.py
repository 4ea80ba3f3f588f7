"""Experiment orchestration: seeded replicates, method fitting, scoring,
and report artifacts.

One replicate generates a dataset, fits each requested method, scores the
estimated graphs sample by sample against regenerated ground truth, and
records the results. Covariate-aware methods are scored on the test
split; the penalty-path baseline is fit and scored on the training
samples within each covariate cluster.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import baselines, datagen, estimator, graphops, metrics
from .errors import CdgmError, UsageError
from .files import reading, write_atomic

VALID_METHODS = ("dnn", "reggmm", "nodewise-lasso")
# Model family ``estimator.train`` fits for each network method.
NETWORK_FAMILIES = {"dnn": "dnn", "reggmm": "linear"}
DEFAULT_THRESHOLDS = (0.01, 0.025, 0.05, 0.075, 0.1)
REPLICATE_JSON = "replicate_{:03d}.json"  # replicate i's results, written as it finishes
# The report schema: report.csv's sample means, and summary.csv's replicate
# mean and standard deviation of each.
SCORES = ("auroc", "auprc", "f1", "ba")
REPORT_COLUMNS = ("setting", "replicate", "method", "n_train", "threshold", *SCORES,
                  "runtime_s")
SUMMARY_COLUMNS = ("setting", "method", "threshold",
                   *(f"{s}_{stat}" for s in SCORES for stat in ("mean", "std")), "replicates")


def metric_key(name: str, tau: float) -> str:
    """Key of a thresholded metric's per-sample list, e.g. ``f1@0.05``."""
    return f"{name}@{tau:g}"


def check_thresholds(values) -> tuple[float, ...]:
    """Thresholds as floats: at least one, each nonnegative (not NaN), in
    ascending order, with distinct ``metric_key``s."""
    thr = tuple(float(t) for t in values)
    if not thr or not all(t >= 0 for t in thr) or any(b < a for a, b in zip(thr, thr[1:])):
        raise UsageError("thresholds must be nonempty, nonnegative and ascending")
    keys = [metric_key("f1", t) for t in thr]
    if len(set(keys)) < len(keys):
        raise UsageError(f"thresholds need distinct report keys, got {', '.join(keys)}")
    return thr


@dataclass
class ExperimentConfig:
    setting: str
    replicates: int = 1
    seeds: tuple[int, ...] = (0,)
    n_train: int = 10_000
    n_val: int = 1_000
    n_test: int = 1_000
    methods: tuple[str, ...] = ("dnn",)
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    pseudo_moral: bool = False
    out_dir: str = "runs"
    dnn: dict = field(default_factory=dict)
    lasso: dict = field(default_factory=dict)
    generator: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.replicates < 1:
            raise UsageError("replicate count must be >= 1")
        self.seeds = tuple(int(s) for s in self.seeds)
        if len(self.seeds) != self.replicates:
            raise UsageError("one seed per replicate required")
        if len(set(self.seeds)) != len(self.seeds):
            raise UsageError("replicate seeds must be distinct")
        if min(self.seeds) < 0:
            raise UsageError("seeds must be >= 0")
        if self.n_train < 1:
            raise UsageError("n_train must be >= 1")
        if self.n_val < 0 or self.n_test < 0:
            raise UsageError("n_val and n_test must be >= 0")
        self.methods = tuple(self.methods)
        if not self.methods or len(set(self.methods)) != len(self.methods):
            raise UsageError("methods must be nonempty and distinct")
        for m in self.methods:
            if m not in VALID_METHODS:
                raise UsageError(f"unknown method {m!r}")
        self.thresholds = check_thresholds(self.thresholds)
        # Bad gen.*, dnn.* and lasso.* values fail here, before any data is
        # generated, through the same setting spec, TrainConfig, network
        # spec and LassoConfig the fits build.
        spec = datagen.make_setting(self.setting, seed=self.seeds[0], **self.generator)
        datagen.check_options_read(self.setting, self.generator)
        check_pseudo_moral(spec, self.pseudo_moral)
        for m in self.methods:
            if m in NETWORK_FAMILIES:
                if self.n_val < 1 or self.n_test < 1:
                    raise UsageError(f"{m} needs n_val and n_test >= 1")
                estimator._network_spec(_train_config(self, self.seeds[0], NETWORK_FAMILIES[m]),
                                        spec.p, spec.q)
        baselines.LassoConfig(**self.lasso)


def _train_config(cfg: ExperimentConfig, seed: int, family: str) -> estimator.TrainConfig:
    """The TrainConfig a replicate with ``seed`` fits ``family`` with."""
    return estimator.default_train_config(cfg.setting, family=family,
                                          **{"seed": seed, **cfg.dnn})


def check_pseudo_moral(spec: datagen.SettingSpec, pseudo: bool) -> None:
    """Reject pseudo-moral truth for a setting whose truth has no moral graph."""
    if pseudo and spec.mechanism != "dag":
        raise UsageError(f"pseudo_moral applies to D settings only, not {spec.setting}")


def truth_vectors(spec, Z, pseudo: bool) -> tuple[np.ndarray, np.ndarray]:
    """Ground truth in the form ``metrics.score_rows`` reads: one
    upper-triangle skeleton per distinct ``datagen.support_keys`` row, in
    key order, and the index of each sample's skeleton among them.
    """
    iu = np.triu_indices(spec.p, k=1)
    _, first, inverse = np.unique(datagen.support_keys(spec, Z), axis=0,
                                  return_index=True, return_inverse=True)
    patterns = np.array([datagen.truth_skeleton(spec, Z[i], pseudo=pseudo)[iu] for i in first],
                        dtype=bool).reshape(len(first), len(iu[0]))
    return patterns, inverse.reshape(-1)


def _per_sample_lists(res, thresholds) -> dict:
    """``metrics.score_rows`` arrays as per-sample lists: ``auroc``,
    ``auprc``, and ``f1@τ`` and ``ba@τ`` at every threshold."""
    out = {"auroc": res["auroc"].tolist(), "auprc": res["auprc"].tolist()}
    for i, tau in enumerate(thresholds):
        out[metric_key("f1", tau)] = res["f1"][:, i].tolist()
        out[metric_key("ba", tau)] = res["ba"][:, i].tolist()
    return out


def evaluate_graphs(graphs, truth, thresholds) -> dict:
    """Per-sample metrics for covariate-specific graph estimates.

    ``graphs``: (n, p, p) coefficient graphs; ``truth``: the label rows
    and each graph's row index (``truth_vectors``). Returns per-sample
    lists for auroc/auprc plus f1/ba at every threshold on normalized
    graphs under the AND rule, all from one ``metrics.score_rows`` call.
    """
    scores, peaks = graphops.pair_scores(graphs)
    return _per_sample_lists(metrics.score_rows(scores, *truth, peaks, thresholds), thresholds)


def score_test_split(model, ds: datagen.Dataset, pseudo: bool,
                     thresholds) -> tuple[np.ndarray, dict]:
    """The model's test-split graphs and their per-sample metrics."""
    Zte = ds.part("test")[1]
    graphs = estimator.estimate_graphs(model, Zte)
    return graphs, evaluate_graphs(graphs, truth_vectors(ds.spec, Zte, pseudo), thresholds)


def fit_eval_dnn(cfg: ExperimentConfig, ds: datagen.Dataset, seed: int,
                 family: str) -> dict:
    model, history = estimator.train(ds, _train_config(cfg, seed, family))
    graphs, per_sample = score_test_split(model, ds, cfg.pseudo_moral, cfg.thresholds)
    hist_counts, hist_edges = graphops.magnitude_histogram(graphs)
    return {
        "per_sample": per_sample,
        "histogram": {"counts": hist_counts.tolist(),
                      "edges": np.round(hist_edges, 12).tolist()},
        "best_epoch": history.best_epoch,
        "final_val_loss": history.val_loss[-1] if history.val_loss else None,
    }


def fit_eval_lasso(cfg: ExperimentConfig, ds: datagen.Dataset, replicate: int = 0) -> dict:
    """Cluster-partitioned penalty-path baseline, scored on training samples;
    ``lasso.export_paths`` writes one path CSV per cluster and replicate."""
    Xtr, Ztr = ds.part("train")
    labels = datagen.cluster_labels(ds.spec, Ztr)
    patterns, inverse = truth_vectors(ds.spec, Ztr, cfg.pseudo_moral)
    export_paths = baselines.LassoConfig(**cfg.lasso).export_paths

    rows, best_lambdas, nonconverged = {}, {}, 0
    for cluster in sorted(set(labels.tolist())):
        members = np.nonzero(labels == cluster)[0]
        path = baselines.nodewise_lasso_graphs(Xtr[members], **cfg.lasso)
        nonconverged += path.nonconverged
        if export_paths:
            csv = f"lasso_path_cluster{cluster}_{replicate:03d}.csv"
            baselines.write_path_csv(path, Path(cfg.out_dir) / csv)
        # every member shares the path, so each of its truths is scored once
        used, local = np.unique(inverse[members], return_inverse=True)
        scored = baselines.score_graphs(path.graphs, patterns[used], cfg.thresholds)
        best = {name: baselines.best_penalty(scored[name], local) for name in ("auroc", "auprc")}
        best["f1"] = best["ba"] = best["auroc"]  # F1/BA at the AUROC-best penalty
        for name, values in scored.items():
            picked = values[best[name], local]
            rows.setdefault(name, np.empty((len(Xtr),) + picked.shape[1:]))[members] = picked
        for name in ("auroc", "auprc"):
            best_lambdas[f"{name}_cluster{cluster}"] = float(path.lambdas[best[name]])

    return {
        "per_sample": _per_sample_lists(rows, cfg.thresholds),
        "best_lambdas": best_lambdas,
        "lasso_nonconverged": nonconverged,
    }


def run_replicate(cfg: ExperimentConfig, index: int) -> dict:
    """Generate one replicate's data, fit every method, return raw results."""
    seed = cfg.seeds[index]
    spec = datagen.make_setting(cfg.setting, seed=seed, **cfg.generator)
    n = cfg.n_train + cfg.n_val + cfg.n_test
    ds = datagen.generate_dataset(spec, n, (cfg.n_train, cfg.n_val, cfg.n_test))
    out = {"setting": cfg.setting, "replicate": index, "seed": seed,
           "n_train": cfg.n_train, "methods": {}}
    for method in cfg.methods:
        t0 = time.perf_counter()
        try:
            if method in NETWORK_FAMILIES:
                res = fit_eval_dnn(cfg, ds, seed, family=NETWORK_FAMILIES[method])
            else:
                res = fit_eval_lasso(cfg, ds, index)
            res["status"] = "ok"
        except Exception as exc:  # record the failure, keep the run going
            res = {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}
        res["runtime_s"] = time.perf_counter() - t0
        out["methods"][method] = res
    return out


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return ""
    return f"{value:.10g}"


def write_report(cfg: ExperimentConfig, replicate_results: list[dict],
                 out_dir) -> dict[str, metrics.MetricsReport]:
    """Per-replicate report rows plus an aggregate summary.

    report.csv: one row per (replicate, method, threshold) with the
    sample means of the metrics (``metrics.aggregate``'s per-experiment
    means, correctly rounded).
    summary.csv: replicate mean and standard deviation per method and
    threshold. Returns the aggregate of each method that succeeded at
    least once.
    """
    out = Path(out_dir)
    report_lines = [",".join(REPORT_COLUMNS)]
    summary_lines = [",".join(SUMMARY_COLUMNS)]
    reports = {}
    keys = {tau: ("auroc", "auprc", metric_key("f1", tau), metric_key("ba", tau))
            for tau in cfg.thresholds}

    for method in cfg.methods:
        ok = [r for r in replicate_results if r["methods"][method]["status"] == "ok"]
        if not ok:
            continue
        agg = reports[method] = metrics.aggregate([r["methods"][method]["per_sample"]
                                                   for r in ok])
        for i, rep in enumerate(ok):
            for tau in cfg.thresholds:
                report_lines.append(",".join([
                    cfg.setting, str(rep["replicate"]), method, str(cfg.n_train), _fmt(tau),
                    *(_fmt(agg.per_experiment[k][i]) for k in keys[tau]),
                    _fmt(rep["methods"][method]["runtime_s"]),
                ]))
        for tau in cfg.thresholds:
            summary_lines.append(",".join([
                cfg.setting, method, _fmt(tau),
                *(_fmt(stat[k]) for k in keys[tau] for stat in (agg.mean, agg.std)),
                str(len(ok)),
            ]))

    write_atomic(out / "report.csv", "\n".join(report_lines) + "\n")
    write_atomic(out / "summary.csv", "\n".join(summary_lines) + "\n")
    return reports


def _write_replicate_artifacts(out: Path, rep: dict) -> None:
    """One replicate's JSON and histogram CSVs, and its stderr lines."""
    write_atomic(out / REPLICATE_JSON.format(rep["replicate"]),
                 json.dumps(rep, indent=2, sort_keys=True) + "\n")
    for method, res in rep["methods"].items():
        hist = res.get("histogram")
        if hist:
            write_atomic(out / f"histogram_{method}_{rep['replicate']:03d}.csv",
                         graphops.histogram_csv(hist["counts"], hist["edges"]))
        where = f"replicate {rep['replicate']} (seed {rep['seed']}): {method}"
        if res["status"] != "ok":
            print(f"{where} failed: {res['error']}", file=sys.stderr)
        elif res.get("lasso_nonconverged"):
            print(f"{where}: {res['lasso_nonconverged']} lasso fits did not converge "
                  f"within lasso.max_iter sweeps", file=sys.stderr)


def run_experiment(cfg: ExperimentConfig) -> dict[str, metrics.MetricsReport]:
    """Run all replicates, write artifacts, and aggregate per method.

    Failed methods are recorded, printed to stderr and skipped in
    aggregation; the run itself continues. A replicate with lasso fits
    that ran out of sweeps gets one stderr line with their count. The
    resolved config goes to ``config.json``, from which ``cdgm report``
    rebuilds the report. An ``out_dir`` whose ``config.json`` holds another
    config is a usage error before any file is written; the same config
    runs again over its own files. Each replicate's artifacts and stderr
    lines are written as soon as it and every earlier replicate are done,
    so a run that stops early keeps the replicates it finished; the report
    comes last. Every file goes through ``files.write_atomic``, so none is
    left half written.
    Replicate worker processes are capped by the CDGM_THREADS environment
    variable, an integer >= 1 checked before any file is written (default 1).
    """
    threads = os.environ.get("CDGM_THREADS", "1")
    if not threads.strip().isdecimal() or int(threads) < 1:
        raise UsageError(f"CDGM_THREADS must be an integer >= 1, not {threads!r}")
    workers = int(threads)
    out = Path(cfg.out_dir)
    config = json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n"
    if (out / "config.json").is_file() and (out / "config.json").read_text() != config:
        raise UsageError(f"{out / 'config.json'} holds another run's config; "
                         "choose a new out_dir")
    write_atomic(out / "config.json", config)
    results = []
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1 and cfg.replicates > 1:
            import concurrent.futures  # not at import: start-up cost
            mapper = stack.enter_context(concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, cfg.replicates))).map
        for rep in mapper(run_replicate, [cfg] * cfg.replicates, range(cfg.replicates)):
            _write_replicate_artifacts(out, rep)  # results arrive in index order
            results.append(rep)
    return write_report(cfg, results, out)


def load_run(out_dir) -> tuple[ExperimentConfig, list[dict]]:
    """The resolved config ``run_experiment`` wrote to ``out_dir/config.json``
    and its replicates' JSONs: replicate i of ``replicates`` from its own
    file, holding its index and seed. Replicate files of another run left
    in the directory are not read."""
    out = Path(out_dir)
    path = out / "config.json"
    if not path.is_file():
        raise CdgmError(f"no {path}; it is written by the experiment run")
    with reading(path):
        cfg = ExperimentConfig(**json.loads(path.read_text()))
    reps = []
    for index, seed in enumerate(cfg.seeds):
        path = out / REPLICATE_JSON.format(index)
        if not path.is_file():
            raise CdgmError(f"no {path}; config.json lists {cfg.replicates} replicates")
        with reading(path):
            rep = json.loads(path.read_text())
            found = rep.get("replicate"), rep.get("seed")
            for method in cfg.methods:  # the keys write_report reads
                res = rep["methods"].get(method, {})
                needs = (("status", "per_sample", "runtime_s") if res.get("status") == "ok"
                         else ("status",))
                if missing := [k for k in needs if k not in res]:
                    raise KeyError(f"methods.{method}.{missing[0]}")
        if found != (index, seed):
            raise CdgmError(f"{path} holds replicate {found[0]} (seed {found[1]}), "
                            f"not replicate {index} (seed {seed})")
        reps.append(rep)
    return cfg, reps
