"""Digests of generated datasets, of the deterministic artifacts of fixed
experiment configs and of one small ``cdgm`` command-line run.

First it generates 300 samples of every setting at seed 0 and at the
seed 2**40 + 5, whose entropy takes two 32-bit words, and prints one
``sha256  generate/<setting>-<seed>`` line per dataset over its ``X``,
``Z`` and resample count. Then it runs the acceptance test's c12
config, small canonical-p G2 and N2 lasso configs (the settings whose
negative-weight mixes are factored one at a time), a pseudo-moral D2
dnn config, a small canonical-p G2 dnn config (4005-pair score rows), a
D1 dnn and lasso config and a G2 lasso config with overridden generator
options, both read by
``cli.parse_config_file`` (so the parser decides each value's type),
and the benchmark workloads' configs
(``benchmark/workloads.py``) at replicate seeds 1000 and 2001 with
whichever ``cdgm`` is importable, and prints one ``sha256  path``
line per artifact: ``report.csv`` without its ``runtime_s`` column,
``summary.csv``, the histogram CSVs and the replicate JSONs without
``runtime_s``. It rebuilds the c12 run's ``report.csv`` with ``cdgm
report --dir`` and prints its digest as ``c12/report.csv (cdgm report)``;
it stops if that digest differs from the run's own ``c12/report.csv``
line. It then runs ``cdgm generate --csv`` (a small G1 dataset),
``train --family linear``, ``eval --edge-list-tau`` and ``baseline
--export-paths`` through ``cli.main`` and prints the digests of every
file they write under ``cli/``: the dataset's ``meta.json``, ``X.f64``,
``Z.f64``, ``X.csv`` and ``Z.csv``, the model's ``model.json`` and
``params.bin``, ``history.json`` without ``wall_time_s``, ``eval.json``,
the eval's ``histogram.csv`` and ``baseline.json``, one line each, then
one digest of the sorted edge-list files and one of the sorted path
CSVs. Last it prints the digest of ``cdgm bounds``' stdout at
its defaults, at ``--alpha 1`` and at README's ``--n 1e5,1e6 --p 25,50
--q 2 --m 2``, one line each. Two source
trees write the same artifacts exactly when they print the same lines
(the bits depend on the BLAS setup, so pin it):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<old>/src python3 tools/artifact_digests.py > old.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/artifact_digests.py > new.txt
    diff old.txt new.txt

When no ``cdgm`` is importable it prints one line naming
``PYTHONPATH=<tree>/src`` to standard error and exits 2. So it does, with
a line naming ``OPENBLAS_NUM_THREADS``, when that variable is unset: the
digests depend on the BLAS thread count, so an unpinned run compares with
nothing.

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
import os
import sys
import tempfile
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TREE / "benchmark"))

try:
    from cdgm import cli, datagen, harness
except ModuleNotFoundError as exc:
    if exc.name != "cdgm":
        raise
    print(f"artifact_digests: cannot import cdgm; run with PYTHONPATH={TREE / 'src'} "
          "(or the src of the tree to digest)", file=sys.stderr)
    sys.exit(2)

import workloads  # noqa: E402

SEEDS = (1000, 2001)
# Generation digests: every setting at these seeds, with this many samples.
GENERATED_SEEDS = (0, 2**40 + 5)
GENERATED_N = 300
REBUILT = "c12"  # the run whose report ``cdgm report --dir`` rebuilds
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
     "--splits", "400,100,100", "--out", "{root}/data", "--csv"),
    ("train", "--data", "{root}/data", "--out", "{root}/model", "--family", "linear",
     "--epochs", "10", "--seed", "7"),
    ("eval", "--data", "{root}/data", "--model", "{root}/model", "--out", "{root}/eval",
     "--edge-list-tau", "0.05"),
    ("baseline", "--data", "{root}/data", "--out", "{root}/baseline", "--n-lambdas", "6",
     "--lambda-min-ratio", "0.01", "--export-paths"),
)
CLI_ARTIFACTS = ("data/meta.json", "data/X.f64", "data/Z.f64", "data/X.csv", "data/Z.csv",
                 "model/model.json", "model/params.bin", "model/history.json",
                 "eval/eval.json", "eval/histogram.csv", "baseline/baseline.json")
# One digest per group of files: each file's name and bytes, in sorted order.
CLI_GROUPS = ("eval/edges/*.csv", "baseline/lasso_path_*.csv")


# ``cdgm bounds`` at its defaults, at BoundInputs' own strong convexity, and
# README's grid, whose ``--n`` is written in scientific notation.
BOUNDS_RUNS = ((), ("--alpha", "1"), ("--n", "1e5,1e6", "--p", "25,50", "--q", "2", "--m", "2"))


def generation_digest(setting: str, seed: int) -> str:
    """sha256 over a generated dataset's X and Z bytes and its resample count."""
    ds = datagen.generate_dataset(datagen.make_setting(setting, seed=seed), GENERATED_N,
                                  (GENERATED_N, 0, 0))
    digest = hashlib.sha256(ds.X.astype("<f8").tobytes() + ds.Z.astype("<f8").tobytes())
    digest.update(str(ds.resample_count).encode())
    return digest.hexdigest()


def run_cli(argv) -> str:
    """``cdgm argv``'s stdout; a nonzero exit stops the tool."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"cdgm {argv[0]} exited {rc}")
    return stdout.getvalue()


def deterministic_bytes(path: Path) -> bytes:
    """The file's bytes with the wall-time fields removed."""
    if path.name == "report.csv":
        text = path.read_text()
        return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines()).encode()
    if path.name.startswith("replicate_"):
        rep = json.loads(path.read_text())
        for res in rep["methods"].values():
            res.pop("runtime_s")
        return (json.dumps(rep, indent=2, sort_keys=True) + "\n").encode()
    if path.name == "history.json":
        history = json.loads(path.read_text())
        history.pop("wall_time_s")
        return (json.dumps(history, indent=2) + "\n").encode()
    return path.read_bytes()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", help="keep the artifacts in this directory")
    args = ap.parse_args(argv)
    if not os.environ.get("OPENBLAS_NUM_THREADS"):
        print("artifact_digests: set OPENBLAS_NUM_THREADS (1 or 2); the digests depend on "
              "the BLAS thread count", file=sys.stderr)
        return 2
    for setting in datagen.SETTING_IDS:
        for seed in GENERATED_SEEDS:
            print(f"{generation_digest(setting, seed)}  generate/{setting}-{seed}", flush=True)
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
        written = deterministic_bytes(root / REBUILT / "report.csv")
        run_cli(["report", "--dir", str(root / REBUILT)])
        rebuilt = deterministic_bytes(root / REBUILT / "report.csv")
        print(f"{hashlib.sha256(rebuilt).hexdigest()}  {REBUILT}/report.csv (cdgm report)",
              flush=True)
        if rebuilt != written:
            raise SystemExit(f"cdgm report rebuilt {REBUILT}/report.csv with other bytes")
        for command in CLI_RUN:
            run_cli([arg.format(root=root / "cli") for arg in command])
        for fname in CLI_ARTIFACTS:
            digest = hashlib.sha256(deterministic_bytes(root / "cli" / fname)).hexdigest()
            print(f"{digest}  cli/{fname}", flush=True)
        for pattern in CLI_GROUPS:
            files = sorted((root / "cli").glob(pattern))
            if not files:
                raise SystemExit(f"no cli/{pattern} files")
            digest = hashlib.sha256()
            for path in files:
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            print(f"{digest.hexdigest()}  cli/{pattern}", flush=True)
        for flags in BOUNDS_RUNS:
            digest = hashlib.sha256(run_cli(["bounds", *flags]).encode()).hexdigest()
            print(f"{digest}  {' '.join(['cdgm bounds', *flags])} (stdout)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
