"""Benchmark of the cdgm pipeline: generate -> train -> score -> lasso.

Usage (from the repository root):

    python3 benchmark/run.py --workload g1-dnn --seed 1 --seconds 16 --trace 0

One run measures set-up time in fresh processes, then fits the workload's
replicates in one worker process the way ``cdgm experiment`` does, checks
every output against values computed apart from the program, prints each
metric by name and unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` fits each seed untraced and traced
and reports the per-layer metrics from the traced fits. Times are
host-normalised with the reference kernel (see refkernel.py); raw wall
times are printed next to them. The exit code is 1 when a check fails or
a fit fails, 2 when the program cannot be found.
"""

from __future__ import annotations

import os

# One BLAS thread for this process and every process it starts; replicates
# run serially (CDGM_THREADS unset), matching the single-process pipeline.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
os.environ.pop("CDGM_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_runs"
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 150


def measure_setup(setting: str, seed: int, refkernel) -> list[tuple[float, float, float]]:
    """(raw seconds, kernel before, kernel after) of each fresh-process set-up."""
    out, kernel_before = [], refkernel.measure()
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), setting, str(seed)],
                       check=True, timeout=60)
        raw = time.perf_counter() - t0
        kernel_after = refkernel.measure()
        out.append((raw, kernel_before, kernel_after))
        kernel_before = kernel_after
    return out


def run_worker(args, out_dir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    subprocess.run(cmd, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads((out_dir / "worker.json").read_text())


def _fmt_times(values) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cdgm" / "harness.py").is_file():
        print(f"error: the cdgm sources are missing ({SRC / 'cdgm'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    from cdgm import datagen

    import checks
    import refkernel
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    print(f"workload {args.workload}: {wl.setting} methods={','.join(wl.methods)} "
          f"n_train={wl.n_train} n_val={wl.n_val} n_test={wl.n_test} "
          f"dnn={wl.dnn} lasso={wl.lasso}")
    print(f"numpy {np.__version__}, scipy {scipy.__version__}, "
          f"BLAS threads {BLAS_ENV['OPENBLAS_NUM_THREADS']}, "
          f"reference kernel {refkernel.REFERENCE_S} s")

    setup = []
    if not args.trace:
        setup = measure_setup(
            wl.setting, workloads.replicate_seeds(args.seed, 1)[0], refkernel)
    try:
        result = run_worker(args, out_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1

    def norm(raw_s, rec):
        return refkernel.normalise(raw_s, rec["kernel_before_s"], rec["kernel_after_s"])

    verdicts = checks.Verdicts()
    attempted = failed = 0
    plain, traced, first_auroc, first_auprc = [], [], [], []
    digests: dict[int, set] = {}
    first = wl.methods[0]
    for rec in result["replicates"]:
        spec = datagen.make_setting(wl.setting, seed=rec["seed"])
        rep = checks.check_replicate(wl, spec, rec["dir"], datagen.truth_skeleton, verdicts)
        for res in rep["methods"].values():
            attempted += 1
            failed += res["status"] != "ok"
        digests.setdefault(rec["seed"], set()).add(
            checks.report_digest((Path(rec["dir"]) / "report.csv").read_text()))
        (traced if rec["traced"] else plain).append(rec)
        if not rec["traced"] and rep["methods"][first]["status"] == "ok":
            ps = rep["methods"][first]["per_sample"]
            first_auroc.append(float(checks.exact_mean(ps["auroc"])))
            first_auprc.append(float(checks.exact_mean(ps["auprc"])))
        print(f"replicate seed {rec['seed']} {'traced' if rec['traced'] else 'untraced'}: "
              f"raw {rec['raw_s']:.4f} s, kernel before/after "
              f"{rec['kernel_before_s']:.4f}/{rec['kernel_after_s']:.4f} s, "
              f"normalised {norm(rec['raw_s'], rec):.4f} s")
    if args.trace:
        for seed, ds in digests.items():
            verdicts.add("traced report.csv digest = untraced", len(ds) == 1, f"seed {seed}")
    print(f"method fits attempted {attempted}, failed {failed}")
    for line in verdicts.lines():
        print(line)
    correct = verdicts.passed and failed == 0

    metrics = {}
    if args.trace:
        plain_s = statistics.median(norm(r["raw_s"], r) for r in plain)
        traced_s = statistics.median(norm(r["raw_s"], r) for r in traced)
        print(f"replicate_s untraced {plain_s:.4f} s, traced {traced_s:.4f} s, "
              f"tracing overhead {traced_s - plain_s:.4f} s; spans in {out_dir}")
        for layer in tracing.LAYERS:
            self_s = statistics.median(norm(r["layer_self_s"][layer], r) for r in traced)
            print(f"layer share {layer}: {self_s / traced_s:.3f} ({self_s:.4f} s self)")
        for name, unit, _ in tracing.LAYER_METRICS:
            values = [r["layers"][name] for r in traced]
            if unit == "s":
                values = [norm(v, r) for v, r in zip(values, traced)]
            elif unit == "1/s":  # a rate scales as the inverse of a time
                values = [v / norm(1.0, r) for v, r in zip(values, traced)]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        setup_norm = [refkernel.normalise(*probe) for probe in setup]
        plain_norm = [norm(r["raw_s"], r) for r in plain]
        print(f"setup_s raw {_fmt_times(raw for raw, _, _ in setup)} "
              f"normalised {_fmt_times(setup_norm)}")
        print(f"replicate_s raw {_fmt_times(r['raw_s'] for r in plain)} "
              f"normalised {_fmt_times(plain_norm)}")
        metrics = {
            "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
            "replicate_s": {"value": statistics.median(plain_norm), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
            "auroc": {"value": statistics.fmean(first_auroc) if first_auroc else 0.0,
                      "unit": "ratio"},
            "auprc": {"value": statistics.fmean(first_auprc) if first_auprc else 0.0,
                      "unit": "ratio"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    if correct:  # keep the timings and spans, drop the bulky outputs
        for path in out_dir.rglob("*"):
            if path.is_file() and path.name not in ("worker.json", "spans.json"):
                path.unlink()
    else:
        print(f"outputs kept in {out_dir}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
