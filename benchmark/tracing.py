"""Span tracing from outside the program, for the per-layer metrics.

``Tracer.install`` replaces public functions of the ``cdgm`` modules with
wrappers that record one span per call: name, start, end and the span
that was open when the call began. Functions a module imported by name
are wrapped in the module that looks them up (``datagen.cholesky``,
``baselines.lasso_cd``). Spans stay in memory; ``write_spans`` saves them
once the replicate is over. A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute, span name). The span name says which layer did the
# work; datagen.cholesky is numerics' cholesky as datagen looks it up.
TRACED = (
    ("datagen", "generate_dataset", "datagen.generate_dataset"),
    ("datagen", "truth_skeleton", "datagen.truth_skeleton"),
    ("datagen", "cluster_labels", "datagen.cluster_labels"),
    ("datagen", "cholesky", "numerics.cholesky"),
    ("neuralnet", "forward", "neuralnet.forward"),
    ("neuralnet", "backward", "neuralnet.backward"),
    ("neuralnet", "optimizer_step", "neuralnet.optimizer_step"),
    ("estimator", "train", "estimator.train"),
    ("estimator", "predict_nodes", "estimator.predict_nodes"),
    ("estimator", "estimate_graphs", "estimator.estimate_graphs"),
    ("graphops", "normalize", "graphops.normalize"),
    ("graphops", "threshold_and", "graphops.threshold_and"),
    ("graphops", "magnitude_histogram", "graphops.magnitude_histogram"),
    ("metrics", "auroc", "metrics.auroc"),
    ("metrics", "auprc", "metrics.auprc"),
    ("metrics", "f1_ba", "metrics.f1_ba"),
    ("metrics", "aggregate", "metrics.aggregate"),
    ("harness", "evaluate_graphs", "harness.evaluate_graphs"),
    ("harness", "truth_vectors", "harness.truth_vectors"),
    ("harness", "fit_eval_dnn", "harness.fit_eval_dnn"),
    ("harness", "fit_eval_lasso", "harness.fit_eval_lasso"),
    ("harness", "write_report", "harness.write_report"),
    ("baselines", "nodewise_lasso_graphs", "baselines.nodewise_lasso_graphs"),
    ("baselines", "lasso_cd", "baselines.lasso_cd"),
)

LAYERS = ("datagen", "numerics", "neuralnet", "estimator", "graphops",
          "metrics", "harness", "baselines")

# Work counted at a span boundary, from the call's arguments and result.
_COUNTERS = {
    "datagen.generate_dataset": lambda a, r: {"samples": r.n},
    "estimator.train": lambda a, r: {"sample_epochs": a[0].splits[0] * a[1].epochs},
    "harness.evaluate_graphs": lambda a, r: {"samples": len(a[0])},
    "baselines.lasso_cd": lambda a, r: {"nonconverged": int(not r[1])},
}

# Per-layer metrics: (name, unit, better). Times are seconds per replicate.
LAYER_METRICS = (
    ("datagen.generate_dataset_s", "s", "lower"),
    ("datagen.samples_per_s", "1/s", "higher"),
    ("datagen.truth_skeleton_s", "s", "lower"),
    ("datagen.truth_skeleton_calls", "count", "lower"),
    ("datagen.cluster_labels_s", "s", "lower"),
    ("numerics.cholesky_s", "s", "lower"),
    ("numerics.cholesky_calls", "count", "lower"),
    ("neuralnet.forward_s", "s", "lower"),
    ("neuralnet.forward_calls", "count", "lower"),
    ("neuralnet.backward_s", "s", "lower"),
    ("neuralnet.optimizer_step_s", "s", "lower"),
    ("neuralnet.optimizer_step_calls", "count", "lower"),
    ("estimator.train_s", "s", "lower"),
    ("estimator.train_self_s", "s", "lower"),
    ("estimator.sample_epochs_per_s", "1/s", "higher"),
    ("estimator.predict_nodes_s", "s", "lower"),
    ("estimator.estimate_graphs_s", "s", "lower"),
    ("graphops.normalize_s", "s", "lower"),
    ("graphops.threshold_and_s", "s", "lower"),
    ("graphops.magnitude_histogram_s", "s", "lower"),
    ("metrics.auroc_s", "s", "lower"),
    ("metrics.auroc_calls", "count", "lower"),
    ("metrics.auprc_s", "s", "lower"),
    ("metrics.auprc_calls", "count", "lower"),
    ("metrics.f1_ba_s", "s", "lower"),
    ("metrics.f1_ba_calls", "count", "lower"),
    ("metrics.aggregate_s", "s", "lower"),
    ("harness.evaluate_graphs_s", "s", "lower"),
    ("harness.evaluate_graphs_self_s", "s", "lower"),
    ("harness.samples_scored_per_s", "1/s", "higher"),
    ("harness.truth_vectors_s", "s", "lower"),
    ("harness.fit_eval_dnn_s", "s", "lower"),
    ("harness.fit_eval_lasso_s", "s", "lower"),
    ("harness.fit_eval_lasso_self_s", "s", "lower"),
    ("harness.write_report_s", "s", "lower"),
    ("baselines.nodewise_lasso_graphs_s", "s", "lower"),
    ("baselines.lasso_cd_s", "s", "lower"),
    ("baselines.lasso_cd_calls", "count", "lower"),
    ("baselines.lasso_cd_nonconverged", "count", "lower"),
    ("baselines.lasso_fits_per_s", "1/s", "higher"),
)


class Tracer:
    """In-memory span recorder with reversible function wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                for key, amount in count(args, result).items():
                    self.counts[f"{name}.{key}"] += amount
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every traced function; ``modules`` maps short names to modules."""
        for mod_name, attr, span in TRACED:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(span, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += dur[i]
            t["self_s"] += dur[i] - child[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of ``LAYER_METRICS`` for the spans recorded so far."""
        tot = self.totals()
        zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

        def get(name, key):
            return tot.get(name, zero)[key]

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        m = {}
        for name, _, _ in LAYER_METRICS:
            base, _, suffix = name.rpartition("_")
            if name.endswith("_self_s"):
                m[name] = get(name[:-len("_self_s")], "self_s")
            elif suffix == "s" and not name.endswith("_per_s"):
                m[name] = get(base, "total_s")
            elif suffix == "calls":
                m[name] = float(get(base, "calls"))
        m["datagen.samples_per_s"] = rate(
            self.counts["datagen.generate_dataset.samples"],
            get("datagen.generate_dataset", "total_s"))
        m["estimator.sample_epochs_per_s"] = rate(
            self.counts["estimator.train.sample_epochs"], get("estimator.train", "total_s"))
        m["harness.samples_scored_per_s"] = rate(
            self.counts["harness.evaluate_graphs.samples"],
            get("harness.evaluate_graphs", "total_s"))
        m["baselines.lasso_cd_nonconverged"] = self.counts["baselines.lasso_cd.nonconverged"]
        m["baselines.lasso_fits_per_s"] = rate(
            get("baselines.lasso_cd", "calls"), get("baselines.lasso_cd", "total_s"))
        return m

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer, summed over that layer's spans."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.totals().items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += t["self_s"]
        return out

    def write_spans(self, path) -> None:
        spans = [{"name": n, "start": s, "end": e, "parent": p}
                 for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w") as fh:
            json.dump(spans, fh)
