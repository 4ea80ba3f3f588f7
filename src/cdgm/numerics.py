"""Dense linear algebra and seeded sampling primitives.

Matrices are plain float64 numpy arrays in row-major order. Randomness is
routed exclusively through :class:`SeededRng` so that every draw in the
package is a pure function of ``(seed, stream)``.
"""

from __future__ import annotations

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
