"""Each output check passes on real output and fails on a planted corruption.

Run from the repository root: ``python3 -m pytest benchmark/test_checks.py``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from cdgm import baselines, datagen, graphops, harness, metrics  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import Workload  # noqa: E402

P = 8
WL = Workload(setting="G1", methods=("dnn", "reggmm", "nodewise-lasso"),
              n_train=300, n_val=60, n_test=40, nominal_s=1.0)


@pytest.fixture(scope="module")
def replicate(tmp_path_factory):
    """A tiny G1 replicate run through the harness with the capture on."""
    rep_dir = tmp_path_factory.mktemp("rep")
    cfg = harness.ExperimentConfig(
        setting="G1", seeds=(3,), n_train=WL.n_train, n_val=WL.n_val, n_test=WL.n_test,
        methods=WL.methods, out_dir=str(rep_dir), generator={"p": P},
        dnn={"epochs": 2, "block1": (8,), "block2": (6,), "batch_size": 64},
        lasso={"n_lambdas": 6})
    with pytest.MonkeyPatch.context() as mp:
        for mod, attr in ((datagen, "generate_dataset"), (harness, "evaluate_graphs"),
                          (baselines, "nodewise_lasso_graphs")):
            mp.setattr(mod, attr, getattr(mod, attr))  # restored on exit
        capture = worker.Capture()
        capture.install()
        harness.run_experiment(cfg)
        capture.save(rep_dir / "capture.npz")
    return rep_dir, datagen.make_setting("G1", seed=3, p=P)


def _verdicts(rep_dir, spec, truth=datagen.truth_skeleton):
    v = checks.Verdicts()
    checks.check_replicate(WL, spec, rep_dir, truth, v)
    return v


def _failed(v):
    return {name for name, (_, failures) in v.items.items() if failures}


@pytest.fixture
def corrupt_copy(replicate, tmp_path):
    src, spec = replicate
    dst = tmp_path / "rep"
    shutil.copytree(src, dst)
    return dst, spec


def test_clean_replicate_passes(replicate):
    v = _verdicts(*replicate)
    assert v.passed, v.lines()
    assert {"auroc by exact counting", "auprc by exact counting",
            f"lasso KKT <= {checks.KKT_TOL:g}", "lasso best-over-path auroc",
            "report rows = exact per-sample means"} <= set(v.items)


def test_reference_metrics_agree_with_definitions():
    scores = np.array([0.9, 0.5, 0.5, 0.2, 0.1])
    labels = np.array([True, True, False, False, True])
    # 3 positives x 2 negatives: 0.9 wins twice, 0.5 ties once and wins once
    assert checks.auroc_exact(scores, labels) == pytest.approx((3 + 0.5) / 6)
    # positives at 0.9, 0.5, 0.1: precision 1/1, 2/3, 3/5
    assert checks.ap_exact(scores, labels) == pytest.approx((1 + 2 / 3 + 3 / 5) / 3)
    assert float(checks.auroc_exact(scores, labels)) == pytest.approx(
        metrics.auroc(scores, labels), abs=1e-15)
    assert float(checks.ap_exact(scores, labels)) == pytest.approx(
        metrics.auprc(scores, labels), abs=1e-15)


def test_flipped_label_fails_rank_checks(replicate):
    rep_dir, spec = replicate
    rep = json.loads((rep_dir / "replicate_000.json").read_text())
    Z = np.load(rep_dir / "capture.npz")["Z"][WL.n_train + WL.n_val:]
    graphs = np.load(rep_dir / "capture.npz")["graphs0"]
    refs = [checks.g1_truth(z, P) for z in Z]
    refs[0] = refs[0].copy()
    refs[0][0, P - 1] = refs[0][P - 1, 0] = True  # flipped label
    v = checks.Verdicts()
    checks.check_rank_metrics(graphs, refs, rep["methods"]["dnn"]["per_sample"], "dnn", v)
    assert _failed(v) == {"auroc by exact counting", "auprc by exact counting"}


def test_perturbed_per_sample_value_fails(corrupt_copy):
    rep_dir, spec = corrupt_copy
    path = rep_dir / "replicate_000.json"
    rep = json.loads(path.read_text())
    rep["methods"]["reggmm"]["per_sample"]["auprc"][1] += 1e-9
    path.write_text(json.dumps(rep))
    assert _failed(_verdicts(rep_dir, spec)) == {
        "auprc by exact counting", "report rows = exact per-sample means"}


def test_report_row_corruption_fails(corrupt_copy):
    rep_dir, spec = corrupt_copy
    path = rep_dir / "report.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[7] = f"{float(cells[7]) + 1e-6:.10g}"  # f1 column
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert _failed(_verdicts(rep_dir, spec)) == {"report rows = exact per-sample means"}


def test_perturbed_lasso_coefficient_fails_kkt(corrupt_copy):
    rep_dir, spec = corrupt_copy
    with np.load(rep_dir / "capture.npz") as cap:
        arrays = dict(cap)
    graphs = arrays["lasso_graphs0"]
    graphs[-1, 2, 5] += 1e-4
    np.savez(rep_dir / "capture.npz", **arrays)
    assert f"lasso KKT <= {checks.KKT_TOL:g}" in _failed(_verdicts(rep_dir, spec))


def test_wrong_best_penalty_fails(corrupt_copy):
    rep_dir, spec = corrupt_copy
    path = rep_dir / "replicate_000.json"
    rep = json.loads(path.read_text())
    lambdas = np.load(rep_dir / "capture.npz")["lasso_lambdas0"]
    best = rep["methods"]["nodewise-lasso"]["best_lambdas"]
    key = next(k for k in best if k.startswith("auroc_cluster"))
    # the largest penalty zeroes every coefficient: all scores tie at AUROC 1/2
    best[key] = float(lambdas[0])
    path.write_text(json.dumps(rep))
    assert "lasso best-over-path auroc" in _failed(_verdicts(rep_dir, spec))


def test_g1_truth_corruption_fails(replicate):
    rep_dir, spec = replicate

    def wrong(spec, z):
        skel = datagen.truth_skeleton(spec, z).copy()
        skel[0, 1] = skel[1, 0] = not skel[0, 1]
        return skel

    assert "truth = union of nonzero-weight G1 bands" in _failed(
        _verdicts(rep_dir, spec, truth=wrong))


def test_d2_truth_matches_program_and_catches_corruption():
    spec = datagen.make_setting("D2", seed=4)
    Z = np.random.default_rng(0).uniform(-1.0, 1.0, (30, 2))
    v = checks.Verdicts()
    checks.check_truth(spec, Z, datagen.truth_skeleton, v)
    assert v.passed, v.lines()

    def pseudo(spec, z):  # co-parents left unmarried
        return datagen.truth_skeleton(spec, z, pseudo=True)

    v = checks.Verdicts()
    checks.check_truth(spec, Z, pseudo, v)
    assert not v.passed


def test_digest_ignores_runtime_only(replicate):
    rep_dir, _ = replicate
    text = (rep_dir / "report.csv").read_text()
    lines = text.splitlines()
    cells = lines[1].split(",")
    base = checks.report_digest(text)
    cells[-1] = "123.0"
    assert checks.report_digest("\n".join([lines[0], ",".join(cells)] + lines[2:])) == base
    cells[5] = "0.5"  # auroc
    assert checks.report_digest("\n".join([lines[0], ",".join(cells)] + lines[2:])) != base


def test_tracer_records_nested_spans_and_restores_functions():
    originals = {(m, a): getattr(worker.MODULES[m], a) for m, a, _ in tracing.TRACED}
    tracer = tracing.Tracer()
    tracer.install(worker.MODULES)
    g = np.random.default_rng(1).standard_normal((3, P, P))
    graphops.magnitude_histogram(g)
    tracer.uninstall()
    assert all(getattr(worker.MODULES[m], a) is fn for (m, a), fn in originals.items())
    tot = tracer.totals()
    assert tot["graphops.magnitude_histogram"]["calls"] == 1
    assert tot["graphops.normalize"]["calls"] == 3
    hist = tot["graphops.magnitude_histogram"]
    assert hist["self_s"] == pytest.approx(hist["total_s"] - tot["graphops.normalize"]["total_s"])
