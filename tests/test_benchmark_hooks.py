"""The program names the benchmark looks up by name must exist.

``benchmark/tracing.py`` wraps each ``(module, attribute)`` of ``TRACED``
for ``--trace 1``, and the output checks call ``datagen.truth_skeleton``.
A rename or deletion in ``cdgm`` would break those runs without failing
any other test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_benchmark_hooks_exist():
    hooks = [(mod, attr) for mod, attr, _ in _traced()]
    hooks += [("datagen", "truth_skeleton"), ("datagen", "make_setting"),
              ("harness", "run_experiment")]
    missing = [f"cdgm.{mod}.{attr}" for mod, attr in hooks
               if not callable(getattr(importlib.import_module(f"cdgm.{mod}"), attr, None))]
    assert not missing
    assert ("metrics", "auroc") in hooks and ("graphops", "normalize") in hooks
