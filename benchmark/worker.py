"""Fit one run's replicates in a fresh process and record their timings.

Started by ``run.py``; not meant to be run by hand. Each replicate is
one ``harness.run_experiment`` call with a one-replicate config, exactly
what ``cdgm experiment`` runs. The reference kernel runs before the
first replicate and after every replicate, so each replicate is
bracketed by a kernel timing just before and just after it.

With ``--trace 1`` every replicate seed runs twice, untraced and traced,
in alternating order; the tracer's spans give the per-layer metrics and
the difference between the two gives the tracing overhead.

Inputs the output checks need (the generated data, estimated graphs,
lasso designs and paths) are kept by reference while a replicate runs and
saved to ``capture.npz`` after its timing stops.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from cdgm import (baselines, datagen, estimator, graphops, harness,  # noqa: E402
                  metrics, neuralnet)

import refkernel  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = {"datagen": datagen, "neuralnet": neuralnet, "estimator": estimator,
           "graphops": graphops, "metrics": metrics, "harness": harness,
           "baselines": baselines}


class Capture:
    """Keeps references to the arrays the output checks recompute from."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.arrays: dict[str, object] = {}
        self._graphs = 0
        self._paths = 0

    def install(self):
        gen, evaluate, lasso = (datagen.generate_dataset, harness.evaluate_graphs,
                                baselines.nodewise_lasso_graphs)

        def generate_dataset(spec, n, splits, *args, **kwargs):
            ds = gen(spec, n, splits, *args, **kwargs)
            self.arrays["X"], self.arrays["Z"] = ds.X, ds.Z
            return ds

        def evaluate_graphs(graphs, truths, thresholds):
            self.arrays[f"graphs{self._graphs}"] = graphs
            self._graphs += 1
            return evaluate(graphs, truths, thresholds)

        def nodewise_lasso_graphs(x, *args, **kwargs):
            path = lasso(x, *args, **kwargs)
            k = self._paths
            self.arrays[f"lasso_x{k}"] = x
            self.arrays[f"lasso_lambdas{k}"] = path.lambdas
            self.arrays[f"lasso_graphs{k}"] = path.graphs
            self._paths += 1
            return path

        datagen.generate_dataset = generate_dataset
        harness.evaluate_graphs = evaluate_graphs
        baselines.nodewise_lasso_graphs = nodewise_lasso_graphs

    def save(self, path):
        np.savez(path, **{k: np.asarray(v) for k, v in self.arrays.items()})
        self.reset()


def run_replicate(name, seed, rep_dir, capture, tracer):
    cfg = workloads.experiment_config(name, seed, rep_dir)
    if tracer is not None:
        tracer.install(MODULES)
        root = tracer.open("replicate")
    t0 = time.perf_counter()
    harness.run_experiment(cfg)
    raw = time.perf_counter() - t0
    rec = {"seed": seed, "dir": str(rep_dir), "traced": tracer is not None, "raw_s": raw}
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
        rec["layers"] = tracer.layer_metrics()
        rec["layer_self_s"] = tracer.layer_self_s()
        tracer.write_spans(rep_dir / "spans.json")
    capture.save(rep_dir / "capture.npz")
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    out = Path(args.out)
    capture = Capture()
    capture.install()

    # A traced run fits each seed twice, so it has half as many seeds.
    if args.trace:
        count = workloads.replicate_count(wl, args.seconds / 2, minimum=1)
    else:
        count = workloads.replicate_count(wl, args.seconds, minimum=2)
    seeds = workloads.replicate_seeds(args.seed, count)
    records = []
    kernel_before = refkernel.measure()
    for i, seed in enumerate(seeds):
        modes = [False, True] if args.trace else [False]
        if i % 2:
            modes.reverse()
        for traced in modes:
            rep_dir = out / f"rep{i:02d}-{'traced' if traced else 'plain'}"
            rec = run_replicate(args.workload, seed, rep_dir, capture,
                                tracing.Tracer() if traced else None)
            kernel_after = refkernel.measure()
            rec["kernel_before_s"], rec["kernel_after_s"] = kernel_before, kernel_after
            kernel_before = kernel_after
            records.append(rec)

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (out / "worker.json").write_text(json.dumps(
        {"replicates": records, "peak_rss_mb": peak_kib / 1024.0}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
