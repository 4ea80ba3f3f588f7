"""One rule for bad input: a bad argument or setting exits 1 with
``usage error: ...`` naming it; a damaged input file exits 2 with
``error: CdgmError: <file>: ...``. Each case runs the CLI in a fresh
process, as a user would."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from cdgm import cli

LASSO_RUN = ("setting = G1\nn_train = 60\nn_val = 0\nn_test = 0\nmethods = nodewise-lasso\n"
             "lasso.n_lambdas = 3\ngen.p = 6\n")


def _edit_json(path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """Small G1 datasets (p=6, or p=8 with a linear model of it), copies
    with a damaged meta.json, and a lasso run whose replicate JSON lacks
    its methods."""
    root = tmp_path_factory.mktemp("inputs")
    for name, p, splits in (("d6", 6, "60,20,20"), ("d8", 8, "60,20,20"),
                            ("no-train", 6, "0,50,50"), ("no-val", 6, "90,0,10")):
        assert cli.main(["generate", "--setting", "G1", "--n", "100", "--p", str(p),
                         "--splits", splits, "--out", str(root / name)]) == 0
    assert cli.main(["train", "--data", str(root / "d8"), "--out", str(root / "m8"),
                     "--family", "linear", "--epochs", "1"]) == 0
    for name, key, value in (("p2", "p", 2), ("n-float", "n", 100.0)):
        shutil.copytree(root / "d6", root / name)
        _edit_json(root / name / "meta.json", lambda meta: meta.update({key: value}))
    (root / "run.cfg").write_text(LASSO_RUN + f"out_dir = {root / 'run'}\n")
    assert cli.main(["experiment", "--config", str(root / "run.cfg")]) == 0
    _edit_json(root / "run" / "replicate_000.json", lambda rep: rep.pop("methods"))
    for name, line in (("diag", "gen.diag_value = 0.1"), ("noise", "gen.noise_sd = 2"),
                       ("threads", "")):
        (root / f"{name}.cfg").write_text(LASSO_RUN + f"out_dir = {root / name}\n{line}\n")
    return root


# (command line, environment, exit code, what stderr names: for exit 1 the
# key, for exit 2 the file it starts with); "{root}" is the fixture's directory
CASES = {
    "baseline-empty-train": ("baseline --data {root}/no-train --out {root}/out", {}, 1,
                             "{root}/no-train/meta.json splits (0, 50, 50)"),
    "train-empty-val": ("train --data {root}/no-val --out {root}/out", {}, 1,
                        "splits must be nonempty, got (90, 0, 10)"),
    "eval-p8-model-on-p6-data": (
        "eval --data {root}/d6 --model {root}/m8 --out {root}/out", {}, 1,
        "{root}/m8/model.json is for (p, q) = (8, 2); {root}/d6/meta.json holds (6, 2)"),
    "meta-p-2": ("train --data {root}/p2 --out {root}/out", {}, 2, "{root}/p2/meta.json"),
    "meta-n-float": ("baseline --data {root}/n-float --out {root}/out", {}, 2,
                     "{root}/n-float/meta.json"),
    "replicate-without-methods": ("report --dir {root}/run", {}, 2,
                                  "{root}/run/replicate_000.json"),
    "config-diag-value": ("experiment --config {root}/diag.cfg", {}, 1, "diag_value"),
    # cases that exited 1 before the rule, too
    "generate-two-splits": ("generate --setting G1 --n 10 --splits 5,5 --out {root}/out", {}, 1,
                            "splits (5, 5)"),
    "config-noise-sd-on-g1": ("experiment --config {root}/noise.cfg", {}, 1,
                              "G1 does not read gen.noise_sd"),
    "threads-zero": ("experiment --config {root}/threads.cfg", {"CDGM_THREADS": "0"}, 1,
                     "CDGM_THREADS"),
    # bounds arguments whose rate is past float range: these exited 2
    "bounds-q-past-float-range": ("bounds --q 1" + "0" * 400, {}, 1,
                                  "q must be finite and within float range"),
    "bounds-m-1e308": ("bounds --m 1e308", {}, 1, "smoothness=1e+308"),
    "bounds-alpha-inf": ("bounds --alpha inf", {}, 1, "strong_convexity must be finite"),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_input_exit_code_names_the_key_or_file(root, case):
    command, env, code, named = CASES[case]
    named = named.format(root=root)
    proc = subprocess.run([sys.executable, "-m", "cdgm.cli", *command.format(root=root).split()],
                          env={**os.environ, **env}, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == code, proc.stderr
    if code == 1:
        assert proc.stderr.startswith("usage error: ") and named in proc.stderr, proc.stderr
    else:
        assert proc.stderr.startswith(f"error: CdgmError: {named}: "), proc.stderr
    assert not (root / "out").exists()
