"""Fixed reference kernel used to normalise wall times for host throughput.

The kernel calls no ``cdgm`` code. It mixes the kinds of work the
pipeline does: interpreted per-element loops (like the per-sample
generation and ``metrics.auprc`` loops), small dense matmuls (like the
lasso Gram products), a matmul the size of a training batch through the
network head, whose 5 MB output leaves the cache as the training loop's
arrays do, and sorts (like the rank metrics). Its inputs are fixed, so
every call does the same work and its wall time tracks only how fast the
host runs right now.

The kernel is timed just before and just after every timed interval; an
interval of ``t`` seconds is reported as ``t * REFERENCE_S / k``, with
``k`` the mean of those two timings: seconds at the kernel's reference
speed.
"""

from __future__ import annotations

import time

import numpy as np

# Mean time of one ``measure()`` on the 2-core host where the benchmark
# was calibrated; see README.md, "Host normalisation and the reference kernel".
REFERENCE_S = 0.300

_ROUNDS = 6
_rng = np.random.default_rng(20250422)
_MATS = _rng.standard_normal((8, 64, 64))
_VECS = _rng.standard_normal((16, 1225))
_LIST = _rng.standard_normal(600).tolist()
# a batch through a coefficient-network head: (256, 128) @ (128, 2450)
_BATCH = _rng.standard_normal((256, 128))
_HEAD = _rng.standard_normal((128, 2450))


def _once() -> float:
    acc = 0.0
    for _ in range(6):
        acc += float((_BATCH @ _HEAD).sum())
    for i in range(640):
        m = _MATS[i % 8]
        acc += float((m @ m.T)[0, 0])
        s = np.sort(_VECS[i % 16])
        acc += float(s[612])
        lo = 0
        for v in _LIST:  # interpreted scan with a data-dependent branch
            if v > acc * 1e-9:
                lo += 1
        acc += lo
    return acc


def measure() -> float:
    """Wall time of a fixed number of kernel rounds, in seconds."""
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        _once()
    return time.perf_counter() - t0


def normalise(raw_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """Seconds at reference speed for ``raw_s`` measured between two kernel
    timings: ``raw_s * REFERENCE_S / mean(kernel_before_s, kernel_after_s)``."""
    return raw_s * REFERENCE_S / (0.5 * (kernel_before_s + kernel_after_s))
