"""Dense linear algebra, seeded sampling and two-thread primitives.

Matrices are plain float64 numpy arrays in row-major order. Randomness is
routed exclusively through :class:`SeededRng` so that every draw in the
package is a pure function of ``(seed, stream)``. :func:`run_pair` runs
two independent pieces of work on two threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefinite, ShapeMismatch

PIVOT_FLOOR = 1e-12


@dataclass
class SeededRng:
    """Deterministic random stream identified by (seed, stream).

    The same pair always yields the same sequence, across runs and
    platforms. A value is single-owner while draws are in flight; create
    child streams via :meth:`child` instead of sharing one generator.
    """

    seed: int
    stream: int = 0
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def child(self, stream: int) -> "SeededRng":
        """Independent stream derived from the same master seed."""
        return SeededRng(self.seed, stream)


def cholesky(m) -> np.ndarray:
    """Lower-triangular L with L L^T = m, for one matrix or a stack.

    ``m`` is (p, p) or (..., p, p); every matrix of a stack is checked on
    its own: finite entries, symmetric within 1e-10, and every pivot
    above 1e-12. A pivot at or below the floor raises NotPositiveDefinite,
    which signals an invalid precision mix upstream.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"cholesky needs square matrices, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ShapeMismatch("matrix contains non-finite entries")
    if not np.all(np.abs(a - np.swapaxes(a, -1, -2)) <= 1e-10):
        raise ShapeMismatch("cholesky needs a symmetric matrix")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix is not positive definite") from None
    # LAPACK succeeds on barely-positive pivots; enforce the stated floor.
    pivot = np.min(np.diagonal(low, axis1=-2, axis2=-1)) ** 2
    if pivot <= PIVOT_FLOOR:
        raise NotPositiveDefinite(f"pivot {pivot:.3e} at or below {PIVOT_FLOOR:.0e}")
    return low


def sample_from_precision(theta, count: int, rng: SeededRng) -> np.ndarray:
    """Draw ``count`` i.i.d. rows from N(0, theta^{-1}).

    Uses x = L^{-T} u with theta = L L^T and u standard normal: one
    factorisation, then one solve against L^T for all draws.

    ``np.linalg.solve`` (LAPACK ``gesv``) on L^T gives the same bits as a
    triangular solve (``trtrs``): L^T has exact zeros below a positive
    diagonal, so partial pivoting swaps no rows, every multiplier is 0,
    the LU step leaves L^T and u unchanged, and what remains is the upper
    TRSM call that ``trtrs`` makes. ``datagen`` relies on this too.
    """
    low = cholesky(theta)
    p = low.shape[0]
    u = rng.generator.standard_normal((count, p))
    # Solve L^T x^T = u^T  =>  x = u L^{-1} stacked row-wise.
    return np.linalg.solve(low.T, u.T).T


_helper = None  # this process's one-thread executor, made on first use


def _drop_helper():
    global _helper
    _helper = None


if hasattr(os, "register_at_fork"):
    # A forked child inherits the executor but not its thread.
    os.register_at_fork(after_in_child=_drop_helper)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def run_pair(helper, inline):
    """Run two callables that share no output; return ``(helper(), inline())``.

    ``helper`` runs on this process's helper thread while ``inline`` runs
    on the calling thread, and the call returns only once both are done,
    also when either raises. With fewer than two usable CPUs both run here
    and no thread starts. Pass only numpy calls and private helpers: a
    result must not depend on the thread that computes it, and the
    benchmark tracer's span stack is not thread-safe.
    """
    global _helper
    if _helper is None:
        if _usable_cpus() < 2:
            return helper(), inline()
        from concurrent.futures import ThreadPoolExecutor  # not at import: start-up cost
        _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="cdgm-helper")
    future = _helper.submit(helper)
    try:
        second = inline()
    finally:
        future.exception()  # waits for the helper; an error of inline's wins
    return future.result(), second
