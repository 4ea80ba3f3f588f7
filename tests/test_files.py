"""Every writer puts its files on disk through ``files.write_atomic``: it
makes missing directories, leaves no temporary file, and a write whose
final rename fails leaves the previous file as it was."""

import os
from pathlib import Path

import numpy as np
import pytest

from cdgm import baselines, cli, datagen, estimator, graphops, harness
from cdgm import neuralnet as nn
from cdgm.files import write_atomic


def _cli(*argv) -> None:
    if cli.main([str(a) for a in argv]) != 0:  # exit 2 prints the OSError
        raise OSError(f"cdgm {argv[0]} failed")


def _run_experiment(out: Path, src: Path) -> None:
    harness.run_experiment(harness.ExperimentConfig(
        setting="G1", seeds=(3,), n_train=60, n_val=0, n_test=0,
        methods=("nodewise-lasso",), out_dir=str(out), lasso=dict(n_lambdas=3),
        generator=dict(p=6)))


# name: (write into ``out`` from the dataset and model under ``src``, the
# files written, relative to ``out``)
WRITERS = {
    "write_atomic": (lambda out, src: write_atomic(out / "f.bin", b"\x00\xff"), ("f.bin",)),
    "save_dataset": (lambda out, src: datagen.save_dataset(datagen.load_dataset(src / "d"),
                                                           out, csv=True),
                     ("meta.json", "X.f64", "Z.f64", "X.csv", "Z.csv")),
    "save_model": (lambda out, src: estimator.save_model(estimator.load_model(src / "m"), out),
                   ("params.bin", "model.json")),
    "save_params": (lambda out, src: nn.save_params(estimator.load_model(src / "m").params,
                                                    out / "params.bin"), ("params.bin",)),
    "write_path_csv": (lambda out, src: baselines.write_path_csv(
        baselines.nodewise_lasso_graphs(datagen.load_dataset(src / "d").X, n_lambdas=3),
        out / "path.csv"), ("path.csv",)),
    "write_edge_list": (lambda out, src: graphops.write_edge_list(
        np.array([0, 1]), np.array([2, 3]), out / "edges.csv"), ("edges.csv",)),
    "cdgm train": (lambda out, src: _cli("train", "--data", src / "d", "--out", out,
                                         "--family", "linear", "--epochs", 2),
                   ("params.bin", "model.json", "history.json")),
    "cdgm eval": (lambda out, src: _cli("eval", "--data", src / "d", "--model", src / "m",
                                        "--out", out, "--edge-list-tau", 0.1),
                  ("eval.json", "histogram.csv", "edges/sample_00000.csv")),
    "cdgm baseline": (lambda out, src: _cli("baseline", "--data", src / "d", "--out", out,
                                            "--n-lambdas", 3, "--export-paths"),
                      ("baseline.json", "lasso_path_cluster1_000.csv")),
    # config.json is left out of the failing-rename cases: a run refuses an
    # out_dir whose config.json holds anything but its own config
    "run_experiment": (_run_experiment, ("replicate_000.json", "report.csv", "summary.csv")),
}


@pytest.fixture(scope="module")
def src(tmp_path_factory):
    """A small G1 dataset (p=6) in ``d`` and a linear model of it in ``m``."""
    root = tmp_path_factory.mktemp("src")
    _cli("generate", "--setting", "G1", "--n", 120, "--seed", 2, "--p", 6,
         "--out", root / "d", "--splits", "80,20,20")
    _cli("train", "--data", root / "d", "--out", root / "m", "--family", "linear",
         "--epochs", 2)
    return root


def _temporaries(root: Path) -> list[Path]:
    return sorted(root.rglob(".*.tmp"))


@pytest.mark.parametrize("name", WRITERS)
def test_writer_makes_missing_directories_and_leaves_no_temporary(src, tmp_path, name):
    write, files = WRITERS[name]
    out = tmp_path / "missing" / "nested"
    write(out, src)
    for rel in files:
        assert (out / rel).is_file(), rel
    assert _temporaries(tmp_path) == []


@pytest.mark.parametrize("name,rel", [(name, rel) for name, (_, files) in WRITERS.items()
                                      for rel in files])
def test_writer_keeps_the_previous_file_when_its_rename_fails(src, tmp_path, monkeypatch,
                                                              name, rel):
    write, _ = WRITERS[name]
    out = tmp_path / "out"
    write(out, src)
    previous = b"previous bytes of " + rel.encode()
    (out / rel).write_bytes(previous)
    replace = os.replace

    def failing_replace(tmp, dst):
        if Path(dst) == out / rel:
            raise OSError(f"rename onto {dst} failed")
        replace(tmp, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        write(out, src)
    assert (out / rel).read_bytes() == previous
    assert _temporaries(tmp_path) == []
