"""Digests of the deterministic artifacts of fixed experiment configs.

Runs the acceptance test's c12 config, small canonical-p G2 and N2
lasso configs (the settings whose negative-weight mixes are factored one
at a time), a pseudo-moral D2 dnn config, a small canonical-p G2 dnn
config (4005-pair score rows), and the benchmark workloads' configs
(``benchmark/workloads.py``) at replicate seeds 1000 and 2001 with
whichever ``cdgm`` is importable, and prints one ``sha256  path``
line per artifact: ``report.csv`` without its ``runtime_s`` column,
``summary.csv``, the histogram CSVs and the replicate JSONs without
``runtime_s``. Two source trees write the same artifacts exactly when
they print the same lines (the bits depend on the BLAS setup, so pin it):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<old>/src python3 tools/artifact_digests.py > old.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/artifact_digests.py > new.txt
    diff old.txt new.txt

For a change that moves work between threads, diff at both
``OPENBLAS_NUM_THREADS=1`` and ``=2``: the two thread counts print
different digests, so the second run checks that the change left each
BLAS call's own threading alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))

from cdgm import harness  # noqa: E402

import workloads  # noqa: E402

SEEDS = (1000, 2001)


def configs(root: Path):
    """(name, ExperimentConfig) of every run, writing below ``root``."""
    yield "c12", harness.ExperimentConfig(
        setting="G1", replicates=1, seeds=(11,), n_train=600, n_val=200, n_test=200,
        methods=("dnn", "nodewise-lasso"), thresholds=(0.05, 0.1), out_dir=str(root / "c12"),
        dnn=dict(epochs=3, block1=(16,), block2=(8,), batch_size=128),
        lasso=dict(n_lambdas=8), generator=dict(p=12))
    for setting in ("G2", "N2"):
        for seed in SEEDS:
            run = f"{setting.lower()}-lasso-{seed}"
            yield run, harness.ExperimentConfig(
                setting=setting, replicates=1, seeds=(seed,), n_train=300, n_val=50,
                n_test=100, methods=("nodewise-lasso",), thresholds=(0.05, 0.1),
                out_dir=str(root / run), lasso=dict(n_lambdas=8, lambda_min_ratio=0.1))
    for seed in SEEDS:
        run = f"d2-pseudo-dnn-{seed}"
        yield run, harness.ExperimentConfig(
            setting="D2", replicates=1, seeds=(seed,), n_train=400, n_val=120, n_test=150,
            methods=("dnn",), pseudo_moral=True, out_dir=str(root / run), dnn=dict(epochs=5))
        run = f"g2-dnn-{seed}"
        yield run, harness.ExperimentConfig(
            setting="G2", replicates=1, seeds=(seed,), n_train=300, n_val=60, n_test=100,
            methods=("dnn",), out_dir=str(root / run), dnn=dict(epochs=2))
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            run = f"{name}-{seed}"
            yield run, workloads.experiment_config(name, seed, root / run)


def deterministic_bytes(path: Path) -> bytes:
    """The file's bytes with the wall-time fields removed."""
    text = path.read_text()
    if path.name == "report.csv":
        text = "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
    elif path.suffix == ".json":
        rep = json.loads(text)
        for res in rep["methods"].values():
            res.pop("runtime_s")
        text = json.dumps(rep, indent=2, sort_keys=True) + "\n"
    return text.encode()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", help="keep the artifacts in this directory")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(args.work or tmp)
        for name, cfg in configs(root):
            harness.run_experiment(cfg)
            out = Path(cfg.out_dir)
            files = ["report.csv", "summary.csv"] + sorted(
                p.name for p in out.glob("*") if p.name.startswith(("histogram_", "replicate_")))
            for fname in files:
                digest = hashlib.sha256(deterministic_bytes(out / fname)).hexdigest()
                print(f"{digest}  {name}/{fname}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
