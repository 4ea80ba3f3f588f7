import contextlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cdgm import baselines, cli, datagen, estimator, graphops, harness
from cdgm.errors import UsageError


def test_experiment_config_validation():
    with pytest.raises(UsageError):
        harness.ExperimentConfig(setting="G9")
    with pytest.raises(UsageError):
        harness.ExperimentConfig(setting="G1", replicates=2, seeds=(1, 1))
    with pytest.raises(UsageError):
        harness.ExperimentConfig(setting="G1", replicates=2, seeds=(1,))
    with pytest.raises(UsageError):
        harness.ExperimentConfig(setting="G1", methods=("glasso",))
    with pytest.raises(UsageError):
        harness.ExperimentConfig(setting="G1", thresholds=(0.2, 0.1))
    cfg = harness.ExperimentConfig(setting="G1", replicates=2, seeds=(1, 2))
    assert cfg.thresholds == harness.DEFAULT_THRESHOLDS
    # the lasso needs neither split; each setting takes the options it reads
    harness.ExperimentConfig(setting="G1", n_val=0, n_test=0, methods=("nodewise-lasso",))
    for setting in datagen.SETTING_IDS:
        harness.ExperimentConfig(setting=setting, methods=("nodewise-lasso",), generator={
            k: getattr(datagen.make_setting(setting), k) for k in datagen.options_read(setting)})


def test_importing_harness_leaves_the_process_pool_unloaded():
    # only the CDGM_THREADS > 1 process pool needs concurrent.futures
    code = "import sys, cdgm.harness; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def _tiny_config(tmp_path, **kw):
    base = dict(setting="G1", replicates=1, seeds=(5,), n_train=220, n_val=60,
                n_test=60, methods=("dnn", "reggmm", "nodewise-lasso"),
                thresholds=(0.05, 0.1),
                out_dir=str(tmp_path / "run"),
                dnn=dict(epochs=2, block1=(8,), block2=(6,), batch_size=64),
                lasso=dict(n_lambdas=6),
                generator=dict(p=8))
    base.update(kw)
    return harness.ExperimentConfig(**base)


@pytest.mark.parametrize("name", ["config.json", "replicate_000.json",
                                  "histogram_reggmm_000.csv", "report.csv", "summary.csv"])
def test_a_failed_replace_keeps_the_old_artifact_and_no_temporary_file(tmp_path, monkeypatch,
                                                                      name):
    # each artifact goes through a temporary name; a kill or failure before
    # the replace used to be able to leave a torn file
    cfg = _tiny_config(tmp_path, methods=("reggmm",), dnn=dict(epochs=1))
    harness.run_experiment(cfg)
    out = Path(cfg.out_dir)
    before = sorted(p.name for p in out.iterdir())
    if name != "config.json":  # a rerun needs the same config
        (out / name).write_text("old\n")
    old = (out / name).read_text()
    replace = os.replace

    def failing(src, dst):
        if Path(dst).name == name:
            raise OSError("replace failed")
        replace(src, dst)

    monkeypatch.setattr(harness.os, "replace", failing)
    with pytest.raises(OSError, match="replace failed"):
        harness.run_experiment(cfg)
    assert (out / name).read_text() == old
    assert sorted(p.name for p in out.iterdir()) == before


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = _tiny_config(tmp_path)
    reports = harness.run_experiment(cfg)
    out = Path(cfg.out_dir)
    assert (out / "report.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "replicate_000.json").exists()
    assert (out / "histogram_dnn_000.csv").exists()
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "setting,replicate,method,n_train,threshold,auroc,auprc,f1,ba,runtime_s"
    rows = (out / "report.csv").read_text().strip().splitlines()[1:]
    # one row per method per threshold
    assert len(rows) == 3 * 2
    assert set(reports) == {"dnn", "reggmm", "nodewise-lasso"}
    for rep in reports.values():
        assert 0.0 <= rep.mean["auroc"] <= 1.0


def test_run_experiment_deterministic_reports(tmp_path):
    cfg_a = _tiny_config(tmp_path, out_dir=str(tmp_path / "a"))
    cfg_b = _tiny_config(tmp_path, out_dir=str(tmp_path / "b"))
    harness.run_experiment(cfg_a)
    harness.run_experiment(cfg_b)

    def strip_runtime(path):
        lines = path.read_text().strip().splitlines()
        return ["," .join(line.split(",")[:-1]) for line in lines]

    assert strip_runtime(Path(cfg_a.out_dir) / "report.csv") == \
        strip_runtime(Path(cfg_b.out_dir) / "report.csv")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing fit
def test_failed_method_is_recorded_not_raised(tmp_path):
    # a learning rate this large overflows the training loss
    cfg = _tiny_config(tmp_path, dnn=dict(epochs=2, block1=(8,), block2=(6,), batch_size=64,
                                          lr=1e300))
    results = harness.run_replicate(cfg, 0)
    assert results["methods"]["dnn"]["status"] == "failed"
    assert results["methods"]["dnn"]["error"].startswith("NonFiniteLoss")
    # the lasso does not train and still succeeds
    assert results["methods"]["nodewise-lasso"]["status"] == "ok"


def test_lasso_scores_each_truth_once_and_counts_nonconverged(tmp_path, monkeypatch):
    cfg = _tiny_config(tmp_path, methods=("nodewise-lasso",))
    spec = datagen.make_setting("G1", seed=5, p=8)
    Ztr = datagen.generate_dataset(spec, 340, (220, 60, 60)).part("train")[1]
    patterns, inverse = harness.truth_vectors(spec, Ztr, False)
    truths = patterns[inverse]
    labels = datagen.cluster_labels(spec, Ztr)
    distinct = sum(len(np.unique(truths[labels == c], axis=0)) for c in set(labels.tolist()))

    # one kernel call per cluster scores every penalty's graph against each
    # distinct truth, for the rank metrics and at every threshold
    calls = []
    score_rows = harness.metrics.score_rows

    def counting(scores, patterns, inverse, peaks=None, thresholds=(), *rest, **kw):
        calls.append((len(scores), len(thresholds)))
        return score_rows(scores, patterns, inverse, peaks, thresholds, *rest, **kw)

    monkeypatch.setattr(harness.metrics, "score_rows", counting)
    res = harness.run_replicate(cfg, 0)["methods"]["nodewise-lasso"]
    assert res["status"] == "ok"
    assert res["lasso_nonconverged"] == 0
    assert len(calls) == len(set(labels.tolist()))
    assert sum(rows for rows, _ in calls) == cfg.lasso["n_lambdas"] * distinct
    assert {tau for _, tau in calls} == {len(cfg.thresholds)}
    assert len(res["per_sample"]["f1@0.05"]) == 220

    capped = _tiny_config(tmp_path, methods=("nodewise-lasso",),
                          lasso=dict(n_lambdas=6, max_iter=1))
    assert harness.run_replicate(capped, 0)["methods"]["nodewise-lasso"][
        "lasso_nonconverged"] > 0


def test_lasso_fit_builds_no_per_sample_truth_matrix():
    # canonical p = 90 (4005 pairs): truth is one row per distinct support
    # key plus an index, so the fit's peak stays below a bool (n_train,
    # pairs) matrix of per-sample truth rows
    n_train = 3000
    spec = datagen.make_setting("G2", seed=6)
    ds = datagen.generate_dataset(spec, n_train, (n_train, 0, 0))
    cfg = harness.ExperimentConfig(setting="G2", seeds=(6,), n_train=n_train, n_val=0,
                                   n_test=0, methods=("nodewise-lasso",),
                                   lasso=dict(n_lambdas=2, lambda_min_ratio=0.5))
    tracemalloc.start()
    try:
        res = harness.fit_eval_lasso(cfg, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res["per_sample"]["auroc"]) == n_train
    bound = n_train * spec.p * (spec.p - 1) // 2
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_evaluate_graphs_keys(tmp_path):
    spec = datagen.make_setting("G1", seed=1, p=6)
    ds = datagen.generate_dataset(spec, 20, (0, 0, 20))
    graphs = np.zeros((20, 6, 6))
    graphs[:, 0, 1] = 0.5
    graphs[:, 1, 0] = 0.4
    truths = harness.truth_vectors(spec, ds.Z, False)
    res = harness.evaluate_graphs(graphs, truths, (0.1,))
    assert set(res) == {"auroc", "auprc", "f1@0.1", "ba@0.1"}
    assert len(res["auroc"]) == 20


# --- CLI ---------------------------------------------------------------------


def test_cli_unknown_flag_exits_one(tmp_path, capsys):
    rc = cli.main(["generate", "--setting", "G1", "--n", "30",
                   "--out", str(tmp_path / "x"), "--bogus"])
    assert rc == 1
    assert not (tmp_path / "x").exists()
    assert "usage error" in capsys.readouterr().err


def test_cli_generate_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    rc = cli.main(["generate", "--setting", "G1", "--n", "40", "--seed", "7",
                   "--out", str(out), "--splits", "30,5,5"])
    assert rc == 0
    assert (out / "meta.json").exists()
    assert (out / "X.f64").exists() and (out / "Z.f64").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["setting"] == "G1" and meta["n"] == 40 and meta["seed"] == 7
    ds = datagen.load_dataset(out)
    assert ds.X.shape == (40, 50)


def test_cli_bounds_prints_table(capsys):
    rc = cli.main(["bounds", "--n", "1e6", "--p", "50", "--q", "2", "--m", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "order-level" in out
    assert "1000000" in out


@pytest.mark.parametrize("flags", [["--n", "1e4,abc"], ["--p", "x"], ["--n", "1e400"],
                                   ["--n", "12.5"]])
def test_cli_bounds_rejects_non_integral_lists(capsys, flags):
    assert cli.main(["bounds", *flags]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: argument {flags[0]}: ")


def test_cli_train_eval_baseline_roundtrip(tmp_path, capsys):
    data = tmp_path / "d"
    rc = cli.main(["generate", "--setting", "D1", "--n", "160", "--seed", "3",
                   "--out", str(data), "--splits", "120,20,20", "--p", "10"])
    assert rc == 0
    # tiny network: override via train flags
    rc = cli.main(["train", "--data", str(data), "--out", str(tmp_path / "m"),
                   "--family", "linear", "--epochs", "2"])
    assert rc == 0
    assert (tmp_path / "m" / "params.bin").exists()
    assert (tmp_path / "m" / "history.json").exists()
    rc = cli.main(["eval", "--data", str(data), "--model", str(tmp_path / "m"),
                   "--out", str(tmp_path / "r"), "--thresholds", "0.1"])
    assert rc == 0
    summary = json.loads((tmp_path / "r" / "eval.json").read_text())
    assert "auroc" in summary and "f1@0.1" in summary
    assert (tmp_path / "r" / "histogram.csv").exists()
    rc = cli.main(["baseline", "--data", str(data), "--out", str(tmp_path / "b"),
                   "--n-lambdas", "4", "--lambda-min-ratio", "0.1"])
    assert rc == 0
    baseline = json.loads((tmp_path / "b" / "baseline.json").read_text())
    assert "auroc" in baseline


@pytest.fixture(scope="module")
def g1_model(tmp_path_factory):
    """A small G1 dataset (p=6) and a linear model trained on it."""
    root = tmp_path_factory.mktemp("g1")
    assert cli.main(["generate", "--setting", "G1", "--n", "120", "--seed", "2", "--p", "6",
                     "--out", str(root / "d"), "--splits", "80,20,20"]) == 0
    assert cli.main(["train", "--data", str(root / "d"), "--out", str(root / "m"),
                     "--family", "linear", "--epochs", "2"]) == 0
    return root / "d", root / "m"


@pytest.mark.parametrize("flag", ["--thresholds=0.1,abc", "--thresholds=",
                                  "--thresholds=-0.1", "--thresholds=0.1,0.05",
                                  "--thresholds=nan", "--edge-list-tau=-0.1",
                                  "--edge-list-tau=0.1,0.2",
                                  # two thresholds, one report key (f1@0.1, f1@0.05)
                                  "--thresholds=0.1,0.10000001", "--thresholds=0.05,0.05"])
def test_cli_eval_rejects_bad_thresholds_before_reading(g1_model, tmp_path, flag):
    data, model = g1_model
    for d, m in ((data, model), (tmp_path / "missing", tmp_path / "missing")):
        proc = subprocess.run([sys.executable, "-m", "cdgm.cli", "eval", "--data", str(d),
                               "--model", str(m), "--out", str(tmp_path / "r"), flag],
                              capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("usage error:")
        assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("args,message", [(["train", "--epochs", "0"], "epochs"),
                                          (["train", "--seed", "-1"], "seed"),
                                          (["baseline", "--n-lambdas", "0"], "n_lambdas"),
                                          (["baseline", "--lambda-min-ratio", "2"],
                                           "lambda_min_ratio")])
def test_cli_train_baseline_reject_bad_flags_before_reading(tmp_path, args, message):
    # the data directory is missing: reading it would be a runtime failure (exit 2)
    proc = subprocess.run([sys.executable, "-m", "cdgm.cli", *args, "--data",
                           str(tmp_path / "missing"), "--out", str(tmp_path / "r")],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("usage error:") and message in proc.stderr
    assert not (tmp_path / "r").exists()


def test_cli_baseline_rejects_nan_in_data_at_load(tmp_path):
    # A NaN design never meets the lasso's stopping rule: each of the path's
    # fits would run all 100000 sweeps before the run failed.
    assert cli.main(["generate", "--setting", "G1", "--n", "120", "--seed", "4",
                     "--out", str(tmp_path / "d"), "--splits", "80,20,20"]) == 0
    path = tmp_path / "d" / "X.f64"
    X = np.fromfile(path, dtype="<f8").reshape(120, 50)
    X[37, 11] = np.nan
    X.tofile(path)
    proc = subprocess.run([sys.executable, "-m", "cdgm.cli", "baseline", "--data",
                           str(tmp_path / "d"), "--out", str(tmp_path / "r")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "X.f64: ShapeMismatch: row 37 holds NaN or inf" in proc.stderr
    assert not (tmp_path / "r").exists()


def test_cli_eval_edge_lists_match_per_graph_skeletons(g1_model, tmp_path):
    data, model = g1_model
    tau = 0.3
    assert cli.main(["eval", "--data", str(data), "--model", str(model),
                     "--out", str(tmp_path / "r"), "--edge-list-tau", str(tau)]) == 0
    Z = datagen.load_dataset(data).part("test")[1]
    graphs = estimator.estimate_graphs(estimator.load_model(model), Z)
    assert len(list((tmp_path / "r" / "edges").iterdir())) == len(graphs)
    for i, g in enumerate(graphs):
        skel = graphops.threshold_and(graphops.normalize(g), tau)
        want = "".join(f"{j},{k}\n" for j, k in zip(*np.nonzero(np.triu(skel, 1))))
        assert (tmp_path / "r" / "edges" / f"sample_{i:05d}.csv").read_text() == "j,k\n" + want


def _write_experiment_config(path, out_dir, *lines):
    base = ["setting = G1", "replicates = 1", "seeds = 5", "n_train = 150", "n_val = 40",
            "n_test = 40", "methods = dnn", "thresholds = 0.1", f"out_dir = {out_dir}",
            "dnn.epochs = 2", "dnn.block1 = 6", "dnn.block2 = 4", "dnn.batch_size = 64",
            "lasso.n_lambdas = 4", "gen.p = 8", "# comment line"]
    keys = {line.split(" = ")[0] for line in lines}
    path.write_text("\n".join([b for b in base if b.split(" = ")[0] not in keys]
                              + list(lines)) + "\n")
    return path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing fit
def test_cli_experiment_and_report(tmp_path, capsys):
    def drop_runtime(text):
        return [",".join(r.split(",")[:-1]) for r in text.strip().splitlines()]

    cases = [
        ((), 0),
        # dnn fails (its loss overflows) while the lasso succeeds; report
        # must not read thresholds from the failed method's record
        (("methods = dnn, nodewise-lasso", "dnn.lr = 1e300"), 2),
        # a threshold with more digits than the report's own formatting
        (("thresholds = 0.0123456789",), 0),
    ]
    for i, (lines, code) in enumerate(cases):
        out = tmp_path / f"exp{i}"
        cfg_file = _write_experiment_config(tmp_path / f"exp{i}.cfg", out, *lines)
        assert cli.main(["experiment", "--config", str(cfg_file)]) == code
        report = (out / "report.csv").read_text()
        summary = (out / "summary.csv").read_text()
        assert len(report.splitlines()) == 2  # header plus one successful row
        (out / "report.csv").unlink()
        assert cli.main(["report", "--dir", str(out)]) == 0
        assert drop_runtime((out / "report.csv").read_text()) == drop_runtime(report)
        assert (out / "summary.csv").read_text() == summary
    assert ",0.0123456789," in report


def test_cli_report_reads_only_the_runs_own_replicates(tmp_path, capsys):
    # a 1-replicate run beside a 3-replicate run's replicates 1 and 2: the
    # rebuilt report used to hold them as well
    out, old = tmp_path / "exp", tmp_path / "old"
    cfg = _tiny_config(tmp_path, replicates=3, seeds=(1, 2, 3), methods=("nodewise-lasso",),
                       out_dir=str(old), lasso=dict(n_lambdas=4))
    harness.run_experiment(cfg)
    harness.run_experiment(_tiny_config(tmp_path, seeds=(9,), methods=("nodewise-lasso",),
                                        out_dir=str(out), lasso=dict(n_lambdas=4)))
    for index in (1, 2):
        name = harness.REPLICATE_JSON.format(index)
        shutil.copyfile(old / name, out / name)
    report = (out / "report.csv").read_text()
    assert len(report.splitlines()) == 1 + len(cfg.thresholds)
    assert cli.main(["report", "--dir", str(out)]) == 0
    rebuilt = (out / "report.csv").read_text()
    assert [r.rsplit(",", 1)[0] for r in rebuilt.splitlines()] == \
        [r.rsplit(",", 1)[0] for r in report.splitlines()]
    capsys.readouterr()
    # replicate 0's file holds another run's replicate, or is missing
    rep = json.loads((out / "replicate_001.json").read_text())
    (out / "replicate_000.json").write_text(json.dumps(rep))
    assert cli.main(["report", "--dir", str(out)]) == 2
    assert "replicate_000.json holds replicate 1 (seed 2)" in capsys.readouterr().err
    (out / "replicate_000.json").unlink()
    assert cli.main(["report", "--dir", str(out)]) == 2
    assert "replicate_000.json" in capsys.readouterr().err
    assert (out / "report.csv").read_text() == rebuilt


def test_cli_report_names_the_file_it_cannot_read(tmp_path, capsys):
    out = tmp_path / "exp"
    cfg_file = _write_experiment_config(tmp_path / "exp.cfg", out)
    assert cli.main(["experiment", "--config", str(cfg_file)]) == 0
    capsys.readouterr()
    rep, config = (out / "replicate_000.json").read_text(), (out / "config.json").read_text()
    # a truncated replicate used to print a JSONDecodeError with no path
    (out / "replicate_000.json").write_text(rep[:100])
    assert cli.main(["report", "--dir", str(out)]) == 2
    assert f"{out / 'replicate_000.json'}: JSONDecodeError" in capsys.readouterr().err
    (out / "replicate_000.json").write_text("[]")
    assert cli.main(["report", "--dir", str(out)]) == 2
    assert f"{out / 'replicate_000.json'}: AttributeError" in capsys.readouterr().err
    (out / "replicate_000.json").write_text(rep)
    # a run written before dnn.lr was the field's own name
    (out / "config.json").write_text(config.replace('"dnn": {', '"dnn": {\n    "base_lr": 0.001,'))
    assert cli.main(["report", "--dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{out / 'config.json'}: TypeError" in err and "base_lr" in err


def test_cli_experiment_rerun_with_another_config_exits_one(tmp_path, capsys):
    out = tmp_path / "exp"
    cfg_file = _write_experiment_config(tmp_path / "exp.cfg", out, "methods = nodewise-lasso")
    assert cli.main(["experiment", "--config", str(cfg_file)]) == 0
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
    capsys.readouterr()
    changed = _write_experiment_config(tmp_path / "new.cfg", out, "methods = nodewise-lasso",
                                       "seeds = 6")
    assert cli.main(["experiment", "--config", str(changed)]) == 1
    assert capsys.readouterr().err == (f"usage error: {out / 'config.json'} holds another "
                                       "run's config; choose a new out_dir\n")
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()} == before
    # the same config runs again over its own files
    assert cli.main(["experiment", "--config", str(cfg_file)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(before)


def test_cli_lr_errors_name_lr(tmp_path, capsys):
    # the dnn.lr key and the --lr flag used to report their value as base_lr
    cfg_file = _write_experiment_config(tmp_path / "lr.cfg", tmp_path / "run", "dnn.lr = -1")
    for argv in (["experiment", "--config", str(cfg_file)],
                 ["train", "--lr", "-1", "--data", str(tmp_path / "missing"),
                  "--out", str(tmp_path / "m")]):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "usage error: lr must be finite and >= 0\n"
    assert not (tmp_path / "run").exists() and not (tmp_path / "m").exists()


def test_cli_eval_and_baseline_reject_pseudo_moral_off_d_settings(g1_model, tmp_path, capsys):
    # G1 truth has no moral graph: --pseudo-moral used to change nothing and exit 0
    data, model = g1_model
    for argv in (["eval", "--model", str(model)], ["baseline"]):
        rc = cli.main([*argv, "--data", str(data), "--out", str(tmp_path / "r"),
                       "--pseudo-moral"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "usage error: pseudo_moral applies to D settings only, not G1")
        assert not (tmp_path / "r").exists()


def test_cli_report_needs_run_config(tmp_path):
    cfg_file = _write_experiment_config(tmp_path / "exp.cfg", tmp_path / "exp")
    assert cli.main(["experiment", "--config", str(cfg_file)]) == 0
    (tmp_path / "exp" / "config.json").unlink()
    assert cli.main(["report", "--dir", str(tmp_path / "exp")]) == 2


def test_cli_failed_method_on_stderr_and_exit_code(tmp_path):
    out = tmp_path / "exp"
    cfg_file = _write_experiment_config(tmp_path / "exp.cfg", out, "replicates = 2",
                                        "seeds = 5, 6", "methods = dnn, nodewise-lasso",
                                        "dnn.lr = 1e300")
    proc = subprocess.run([sys.executable, "-m", "cdgm.cli", "experiment", "--config",
                           str(cfg_file)], capture_output=True, text=True)
    assert proc.returncode == 2
    failed = [line for line in proc.stderr.splitlines() if "dnn failed" in line]
    assert failed == [f"replicate {i} (seed {s}): dnn failed: NonFiniteLoss: "
                      "non-finite training loss at epoch 0"
                      for i, s in ((0, 5), (1, 6))]
    assert "failed in every replicate: dnn" in proc.stderr
    assert "did not converge" not in proc.stderr  # the lasso fits converged
    assert "nodewise-lasso: auroc" in proc.stdout
    rep = json.loads((out / "replicate_001.json").read_text())
    assert rep["methods"]["dnn"]["status"] == "failed"
    assert rep["methods"]["nodewise-lasso"]["status"] == "ok"


def test_each_replicate_is_written_when_it_finishes(tmp_path, monkeypatch, capsys):
    # a run that stops in replicate 1 keeps replicate 0's JSON, histogram and stderr line
    monkeypatch.delenv("CDGM_THREADS", raising=False)
    run = harness.run_replicate

    def stop_in_second(cfg, index):
        if index == 1:
            raise RuntimeError("stopped")
        return run(cfg, index)

    monkeypatch.setattr(harness, "run_replicate", stop_in_second)
    cfg = _tiny_config(tmp_path, replicates=2, seeds=(5, 6), methods=("dnn", "nodewise-lasso"),
                       lasso=dict(n_lambdas=6, max_iter=1))
    with pytest.raises(RuntimeError, match="stopped"):
        harness.run_experiment(cfg)
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "config.json", "histogram_dnn_000.csv", "replicate_000.json"]
    assert capsys.readouterr().err.startswith(
        "replicate 0 (seed 5): nodewise-lasso: ")


def test_cli_nonconverged_lasso_on_stderr(tmp_path):
    # one sweep per penalty cannot meet the stopping rule; the count goes to
    # stderr beside the failed-method lines, and the replicate JSON keeps it
    out = tmp_path / "exp"
    cfg_file = _write_experiment_config(tmp_path / "exp.cfg", out, "replicates = 2",
                                        "seeds = 5, 6", "methods = nodewise-lasso",
                                        "lasso.max_iter = 1")
    proc = subprocess.run([sys.executable, "-m", "cdgm.cli", "experiment", "--config",
                           str(cfg_file)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    counts = [json.loads((out / f"replicate_00{i}.json").read_text())
              ["methods"]["nodewise-lasso"]["lasso_nonconverged"] for i in (0, 1)]
    assert min(counts) > 0
    assert proc.stderr.splitlines() == [
        f"replicate {i} (seed {s}): nodewise-lasso: {n} lasso fits did not converge "
        "within lasso.max_iter sweeps" for i, s, n in ((0, 5, counts[0]), (1, 6, counts[1]))]


def test_report_mean_is_correctly_rounded_at_canonical_size(tmp_path):
    # fsum/len gives 0.9152387711500001 for this cell, which prints as
    # ...712; the exact mean is 0.91523877115, which prints as ...711
    cfg = harness.ExperimentConfig(setting="G1", seeds=(326001,), n_train=1200, n_val=0,
                                   n_test=0, methods=("nodewise-lasso",),
                                   lasso=dict(n_lambdas=6), out_dir=str(tmp_path / "run"))
    harness.run_experiment(cfg)
    rows = [r.split(",") for r in (tmp_path / "run" / "report.csv").read_text().splitlines()]
    ba = {row[4]: row[8] for row in rows[1:]}
    assert ba["0.01"] == "0.9152387711"


@pytest.mark.parametrize("splits", ["50,a,25", "50,30,30", "50,50", "-10,60,50"])
def test_cli_generate_bad_splits_exit_one(tmp_path, splits):
    proc = subprocess.run([sys.executable, "-m", "cdgm.cli", "generate", "--setting", "G1",
                           "--n", "100", "--p", "6", "--out", str(tmp_path / "d"),
                           f"--splits={splits}"], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert re.match(r"usage error: (argument --)?splits", proc.stderr)
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("flags,message", [(["--setting", "D1", "--noise-sd", "-2"], "noise_sd"),
                                           (["--setting", "G1", "--p", "0"], "p must"),
                                           (["--setting", "G1", "--noise-sd", "3"],
                                            "G1 does not read gen.noise_sd")])
def test_cli_generate_bad_generator_flag_exit_one(tmp_path, flags, message):
    proc = subprocess.run([sys.executable, "-m", "cdgm.cli", "generate", *flags, "--n", "100",
                           "--splits", "60,20,20", "--out", str(tmp_path / "d")],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("usage error:") and message in proc.stderr
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("setting,line", [
    ("G1", "gen.noise_sd = -1"), ("D1", "gen.noise_sd = 0"), ("D2", "gen.noise_sd = nan"),
    ("G2", "gen.rbf_terms = 0"), ("G1", "gen.block_size = 0")])
def test_cli_config_rejects_bad_generator_option_at_canonical_p(tmp_path, setting, line):
    out = tmp_path / "run"
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"setting = {setting}\nn_train = 300\nn_val = 20\nn_test = 20\n"
                        "methods = nodewise-lasso\nlasso.n_lambdas = 4\n"
                        f"lasso.lambda_min_ratio = 0.1\nout_dir = {out}\n{line}\n")
    proc = subprocess.run([sys.executable, "-m", "cdgm.cli", "experiment", "--config",
                           str(cfg_file)], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    option = line.split(" = ")[0].removeprefix("gen.")
    assert proc.stderr.startswith(f"usage error: {option} must")
    assert not out.exists()


@pytest.mark.parametrize("lines,message", [
    # a method listed twice, or none, or no threshold
    (("methods = dnn, dnn",), "methods must be nonempty and distinct"),
    (("methods = ",), "methods must be nonempty and distinct"),
    (("thresholds = ",), "thresholds must be nonempty"),
    # a network method without a validation or test split
    (("n_val = 0",), "dnn needs n_val and n_test >= 1"),
    (("methods = reggmm, nodewise-lasso", "n_test = 0"), "reggmm needs n_val and n_test >= 1"),
    # a generator option the setting does not read
    (("gen.noise_sd = 1",), "G1 does not read gen.noise_sd"),
    (("setting = G2", "gen.noise_sd = 2"), "G2 does not read gen.noise_sd"),
    (("setting = N1", "gen.rbf_terms = 4"), "N1 does not read gen.rbf_terms"),
    (("setting = D1", "gen.offdiag_value = 0.3"), "D1 does not read gen.offdiag_value"),
    # thresholds whose report keys coincide: the second would overwrite the first
    (("thresholds = 0.1, 0.10000001",), "thresholds need distinct report keys"),
    (("thresholds = 0.05, 0.05",), "thresholds need distinct report keys"),
    # a key given twice: the second value used to replace the first silently
    (("n_train = 200", "n_train = 150"), "config key 'n_train' is given twice"),
    (("dnn.lr = 0.1", "dnn.lr = 0.0"), "config key 'dnn.lr' is given twice"),
    # pseudo-moral truth outside the D settings, whose truth has no moral graph
    (("pseudo_moral = true",), "pseudo_moral applies to D settings only, not G1"),
    (("setting = N2", "pseudo_moral = true"), "pseudo_moral applies to D settings only, not N2")])
def test_cli_config_that_does_nothing_or_repeats_exits_one(tmp_path, lines, message):
    out = tmp_path / "run"
    cfg_file = _write_experiment_config(tmp_path / "bad.cfg", out, *lines)
    proc = subprocess.run([sys.executable, "-m", "cdgm.cli", "experiment", "--config",
                           str(cfg_file)], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("usage error:") and message in proc.stderr
    assert not out.exists()


def test_cli_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("setting = G1\nwhatever = 3\n")
    rc = cli.main(["experiment", "--config", str(cfg_file)])
    assert rc == 1


@pytest.mark.parametrize("line", ["dnn.epoch = 2", "lasso.n_lambda = 5", "gen.pp = 6",
                                  "gen.seed = 3", "dnn.base_lr = 0.0"])
def test_cli_config_rejects_unknown_dotted_key(tmp_path, line):
    out = tmp_path / "run"
    cfg_file = tmp_path / "typo.cfg"
    cfg_file.write_text(f"setting = G1\nn_train = 40\nn_val = 10\nn_test = 10\n"
                        f"gen.p = 6\nout_dir = {out}\n{line}\n")
    proc = subprocess.run([sys.executable, "-m", "cdgm.cli", "experiment", "--config",
                           str(cfg_file)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert line.split(" = ")[0] in proc.stderr
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("line,message", [("dnn.batch_size = 0", "batch_size"),
                                          ("dnn.dropout = 1.5", "dropout"),
                                          ("dnn.lr_step = 0", "lr_step"),
                                          ("dnn.clip_norm = -1", "clip_norm"),
                                          # values the config parser cannot read
                                          ("thresholds = 0.1, abc", "thresholds"),
                                          ("seeds = 1, x", "seeds"),
                                          ("n_train = abc", "n_train"),
                                          ("dnn.block1 = 128, x", "dnn.block1"),
                                          ("lasso.n_lambdas = abc", "lasso.n_lambdas"),
                                          ("lasso.n_lambdas = 0", "n_lambdas"),
                                          ("lasso.lambda_min_ratio = 2", "lambda_min_ratio"),
                                          ("lasso.max_iter = 0", "max_iter"),
                                          ("lasso.tol = -1", "tol"),
                                          ("lasso.export_paths = maybe", "lasso.export_paths"),
                                          ("dnn.epochs = 2.5", "dnn.epochs"),
                                          ("dnn.seed = 1.5", "dnn.seed"),
                                          ("dnn.family = linear", "dnn.family"),
                                          ("dnn.shuffle = false", "dnn.shuffle"),
                                          ("pseudo_moral = maybe", "pseudo_moral"),
                                          ("pseudo_moral = 1", "pseudo_moral"),
                                          ("n_train = -5", "n_train"),
                                          ("seeds = -1", "seeds"),
                                          ("methods = nodewise-lasso\ngen.p = abc", "gen.p")])
def test_cli_config_rejects_invalid_dnn_value_before_generating(tmp_path, line, message):
    out = tmp_path / "run"
    cfg_file = _write_experiment_config(tmp_path / "bad.cfg", out, *line.split("\n"))
    proc = subprocess.run([sys.executable, "-m", "cdgm.cli", "experiment", "--config",
                           str(cfg_file)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage error:") and message in proc.stderr
    assert not out.exists()


def test_exported_lasso_paths_are_per_replicate(tmp_path):
    cfg = _tiny_config(tmp_path, replicates=2, seeds=(3, 4), methods=("nodewise-lasso",),
                       lasso=dict(n_lambdas=6, export_paths=True))
    harness.run_experiment(cfg)
    out, checked = Path(cfg.out_dir), 0
    for rep, seed in enumerate(cfg.seeds):
        spec = datagen.make_setting("G1", seed=seed, p=8)
        Xtr, Ztr = datagen.generate_dataset(spec, 340, (220, 60, 60)).part("train")
        labels = datagen.cluster_labels(spec, Ztr)
        for cluster in sorted(set(labels.tolist())):
            path = baselines.nodewise_lasso_graphs(Xtr[labels == cluster], n_lambdas=6)
            rows = (out / f"lasso_path_cluster{cluster}_{rep:03d}.csv").read_text().splitlines()
            assert rows[1].split(",")[0] == f"{path.lambdas[0]:.10g}"
            checked += 1
    assert len(list(out.glob("lasso_path_*.csv"))) == checked


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs ~0.8 s of start-up; the package must not need it.
    code = "import sys, cdgm.harness, cdgm.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"


def test_runtime_never_loads_scipy():
    # the triangular solves and the binomial coefficient are numpy/pure
    # Python; scipy is a test-only oracle
    code = """
import sys
import numpy as np
import cdgm.cli
import cdgm.harness
from cdgm import datagen, numerics, theory
for setting in ("G1", "G2", "N2"):
    datagen.generate_dataset(datagen.make_setting(setting, seed=1), 40, (20, 10, 10))
numerics.sample_from_precision(np.eye(3), 5, numerics.seeded_rng(0))
theory.network_size_for_rate(2.0, 3, 0.1)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_bounds_out_of_domain_exits_one(capsys):
    rc = cli.main(["bounds", "--n", "1e300", "--p", "2", "--q", "20"])
    assert rc == 1
    assert "q must be below 20" in capsys.readouterr().err


def test_cli_config_accepts_documented_dotted_keys(tmp_path):
    cfg_file = tmp_path / "ok.cfg"
    cfg_file.write_text("setting = D2\ndnn.lr = 0.001\ndnn.block1 = 8,4\ndnn.epochs = 2\n"
                        "lasso.n_lambdas = 4\nlasso.export_paths = true\n"
                        "gen.p = 6\ngen.noise_sd = 0.5\n")
    cfg = cli.parse_config_file(cfg_file)
    assert cfg.dnn == {"lr": 0.001, "block1": (8, 4), "epochs": 2}
    assert cfg.lasso == {"n_lambdas": 4, "export_paths": True}
    assert cfg.generator == {"p": 6, "noise_sd": 0.5}


def test_cli_runtime_failure_exits_two(tmp_path):
    rc = cli.main(["eval", "--data", str(tmp_path / "missing"),
                   "--model", str(tmp_path / "nope"), "--out", str(tmp_path / "r")])
    assert rc == 2


def test_cli_entrypoint_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cdgm.cli", "bounds", "--n", "1e5", "--p", "20"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "order-level" in proc.stdout


def test_threads_env_parallel_replicates(tmp_path, monkeypatch):
    monkeypatch.setenv("CDGM_THREADS", "2")
    cfg = _tiny_config(tmp_path, replicates=2, seeds=(1, 2), methods=("dnn",),
                       out_dir=str(tmp_path / "par"))
    harness.run_experiment(cfg)
    monkeypatch.setenv("CDGM_THREADS", "1")
    cfg2 = _tiny_config(tmp_path, replicates=2, seeds=(1, 2), methods=("dnn",),
                        out_dir=str(tmp_path / "ser"))
    harness.run_experiment(cfg2)

    def drop_runtime(path):
        return [",".join(r.split(",")[:-1])
                for r in path.read_text().strip().splitlines()]

    assert drop_runtime(tmp_path / "par" / "report.csv") == \
        drop_runtime(tmp_path / "ser" / "report.csv")


@pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5"])
def test_bad_threads_env_fails_before_any_file(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setenv("CDGM_THREADS", threads)
    run_dir = tmp_path / "run"
    cfg_file = tmp_path / "x.cfg"
    cfg_file.write_text("setting = G1\nmethods = nodewise-lasso\nn_train = 100\n"
                        f"gen.p = 6\nout_dir = {run_dir}\n")
    assert cli.main(["experiment", "--config", str(cfg_file)]) == 1
    assert "CDGM_THREADS" in capsys.readouterr().err
    assert not run_dir.exists()
    with pytest.raises(UsageError, match="CDGM_THREADS must be an integer >= 1"):
        harness.run_experiment(cli.parse_config_file(cfg_file))
    assert not run_dir.exists()


def test_parallel_replicates_after_training_in_process(tmp_path):
    # Forked replicate workers inherit the parent's helper executor but not
    # its thread; a worker that used it would wait forever.
    code = f"""
import os
from cdgm import datagen, estimator, harness
ds = datagen.generate_dataset(datagen.make_setting("G1", seed=1, p=8), 120, (80, 20, 20))
estimator.train(ds, estimator.TrainConfig(epochs=1, block1=(8,), block2=(6,), batch_size=32))
os.environ["CDGM_THREADS"] = "2"
harness.run_experiment(harness.ExperimentConfig(
    setting="G1", replicates=2, seeds=(1, 2), n_train=120, n_val=30, n_test=30,
    methods=("dnn",), thresholds=(0.1,), out_dir={str(tmp_path / "run")!r},
    dnn=dict(epochs=2, block1=(8,), block2=(6,), batch_size=32), generator=dict(p=8)))
"""
    proc = subprocess.Popen([sys.executable, "-c", code], start_new_session=True)
    try:
        assert proc.wait(timeout=120) == 0
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # and the workers of a hung run
    assert len(list((tmp_path / "run").glob("replicate_*.json"))) == 2
