"""The program names the benchmark looks up by name must exist, and its
workload configs must pass the program's validation.

``benchmark/tracing.py`` wraps each ``(module, attribute)`` of ``TRACED``
for ``--trace 1``, and the output checks call ``datagen.truth_skeleton``.
A rename or deletion in ``cdgm``, or a setting check that rejects a
workload, would break those runs without failing any other test.
"""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


@functools.cache
def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


def _traced():
    return _load("tracing").TRACED


def test_benchmark_hooks_exist():
    hooks = [(mod, attr) for mod, attr, _ in _traced()]
    hooks += [("datagen", "truth_skeleton"), ("datagen", "make_setting"),
              ("harness", "run_experiment")]
    missing = [f"cdgm.{mod}.{attr}" for mod, attr in hooks
               if not callable(getattr(importlib.import_module(f"cdgm.{mod}"), attr, None))]
    assert not missing
    assert ("metrics", "auroc") in hooks and ("graphops", "normalize") in hooks


@pytest.mark.parametrize("name", _load("workloads").WORKLOADS)
def test_benchmark_workload_configs_are_valid(tmp_path, name):
    # the config a benchmark replicate runs, built as the benchmark builds it
    cfg = _load("workloads").experiment_config(name, 1000, tmp_path)
    assert cfg.replicates == 1 and cfg.seeds == (1000,)
