"""Digests of the deterministic artifacts of fixed experiment configs and
of one small ``cdgm`` command-line run.

Runs the acceptance test's c12 config, small canonical-p G2 and N2
lasso configs (the settings whose negative-weight mixes are factored one
at a time), a pseudo-moral D2 dnn config, a small canonical-p G2 dnn
config (4005-pair score rows), a D1 dnn and lasso config and a G2
lasso config with overridden generator options, both read by
``cli.parse_config_file`` (so the parser decides each value's type),
and the benchmark workloads' configs
(``benchmark/workloads.py``) at replicate seeds 1000 and 2001 with
whichever ``cdgm`` is importable, and prints one ``sha256  path``
line per artifact: ``report.csv`` without its ``runtime_s`` column,
``summary.csv``, the histogram CSVs and the replicate JSONs without
``runtime_s``. It then runs ``cdgm generate`` (a small G1 dataset),
``train --family linear``, ``eval`` and ``baseline`` through
``cli.main`` and prints the digests of ``eval.json``, the eval's
``histogram.csv`` and ``baseline.json`` under ``cli/``. Two source
trees write the same artifacts exactly when they print the same lines
(the bits depend on the BLAS setup, so pin it):

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
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))

from cdgm import cli, harness  # noqa: E402

import workloads  # noqa: E402

SEEDS = (1000, 2001)
# Values whose type the config parser decides: floats written as integers,
# an infinite clip norm, a one-layer block, and a false boolean.
PARSED_CONFIG = """\
setting = D1
seeds = 7
n_train = 300
n_val = 80
n_test = 80
methods = dnn, nodewise-lasso
thresholds = 0.05, 0.1
pseudo_moral = false
out_dir = {out_dir}
dnn.epochs = 3
dnn.lr = 0.001
dnn.dropout = 0
dnn.clip_norm = inf
dnn.block1 = 16
gen.p = 12
gen.noise_sd = 1
lasso.n_lambdas = 6
lasso.lambda_min_ratio = 0.01
"""
# Generator options away from their defaults: smaller blocks than p // 3,
# fewer RBF terms and other candidate entries.
GENERATOR_CONFIG = """\
setting = G2
seeds = 7
n_train = 300
n_val = 50
n_test = 50
methods = nodewise-lasso
thresholds = 0.05, 0.1
out_dir = {out_dir}
gen.p = 30
gen.block_size = 8
gen.rbf_terms = 6
gen.diag_value = 1.5
gen.offdiag_value = 0.3
lasso.n_lambdas = 6
lasso.lambda_min_ratio = 0.1
"""


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
    for run, text in (("d1-parsed", PARSED_CONFIG), ("g2-gen-parsed", GENERATOR_CONFIG)):
        cfg_file = root / f"{run}.cfg"
        cfg_file.write_text(text.format(out_dir=root / run))
        yield run, cli.parse_config_file(cfg_file)
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            run = f"{name}-{seed}"
            yield run, workloads.experiment_config(name, seed, root / run)


# One small G1 dataset through the command-line steps after generation.
CLI_RUN = (
    ("generate", "--setting", "G1", "--n", "600", "--p", "12", "--seed", "7",
     "--splits", "400,100,100", "--out", "{root}/data"),
    ("train", "--data", "{root}/data", "--out", "{root}/model", "--family", "linear",
     "--epochs", "10", "--seed", "7"),
    ("eval", "--data", "{root}/data", "--model", "{root}/model", "--out", "{root}/eval"),
    ("baseline", "--data", "{root}/data", "--out", "{root}/baseline", "--n-lambdas", "6",
     "--lambda-min-ratio", "0.01"),
)
CLI_ARTIFACTS = ("eval/eval.json", "eval/histogram.csv", "baseline/baseline.json")


def run_cli(root: Path) -> None:
    """The ``CLI_RUN`` commands in order below ``root``, their stdout dropped."""
    for command in CLI_RUN:
        argv = [arg.format(root=root) for arg in command]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise SystemExit(f"cdgm {command[0]} exited {rc}")


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
        root.mkdir(parents=True, exist_ok=True)
        for name, cfg in configs(root):
            harness.run_experiment(cfg)
            out = Path(cfg.out_dir)
            files = ["report.csv", "summary.csv"] + sorted(
                p.name for p in out.glob("*") if p.name.startswith(("histogram_", "replicate_")))
            for fname in files:
                digest = hashlib.sha256(deterministic_bytes(out / fname)).hexdigest()
                print(f"{digest}  {name}/{fname}", flush=True)
        run_cli(root / "cli")
        for fname in CLI_ARTIFACTS:
            digest = hashlib.sha256((root / "cli" / fname).read_bytes()).hexdigest()
            print(f"{digest}  cli/{fname}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
