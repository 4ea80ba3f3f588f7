"""Dense linear algebra, seeded sampling and two-thread primitives.

Matrices are plain float64 numpy arrays in row-major order. Randomness is
routed exclusively through :func:`seeded_rngs` (and its one-stream case
:func:`seeded_rng`) so that every draw in the package is a pure function
of ``(seed, stream)``. :func:`run_pair` runs two independent pieces of
work on two threads.
"""

from __future__ import annotations

import ctypes
import operator
import os
from collections.abc import Iterator

import numpy as np

from .errors import NotPositiveDefinite, ShapeMismatch

PIVOT_FLOOR = 1e-12

# numpy's SeedSequence hash: the entropy words are mixed into a pool of
# four 32-bit words, which are then hashed out into the generator's state.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _state_words(seed: int, streams) -> np.ndarray:
    """PCG64 state words of ``SeedSequence(entropy=seed, spawn_key=(s,))``
    for every stream s: (len(streams), 4) uint64, in one pass over uint32
    arrays (wrapping arithmetic, as in numpy's C code).

    The seed's little-endian 32-bit words, zero-padded to the pool size,
    come first and the stream's one word last; a stream of 2**32 or more
    would take more words and is refused.
    """
    seed = operator.index(seed)
    streams = np.asarray(streams, dtype=np.int64).reshape(-1)
    if seed < 0 or (streams.size and not 0 <= streams.min() <= streams.max() <= _MASK32):
        raise ShapeMismatch(f"seed must be >= 0 and every stream in [0, 2**32) (seed {seed})")
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(1, w, dtype=np.uint32) for w in words] + [streams.astype(np.uint32)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))
    const, state = _INIT_B, []
    for i in range(8):  # 4 uint64 words, as 8 uint32 words cycling over the pool
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append(value ^ (value >> _XSHIFT))
    state = np.stack(np.broadcast_arrays(*state), axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _StateWords:
    """A seed sequence whose PCG64 state words are already computed.

    ``seeded_rngs`` registers it as an ``ISeedSequence`` at first use
    rather than subclassing it, so that importing cdgm does not load
    numpy.random; ``np.random.default_rng`` loaded it at first use too.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words=4, dtype=np.uint64):  # what PCG64 asks for
        return self.words


def seeded_rngs(seed: int, streams) -> Iterator[np.random.Generator]:
    """The random streams ``(seed, s)`` for each s of ``streams``, in order.

    Stream s is ``np.random.default_rng(np.random.SeedSequence(entropy=seed,
    spawn_key=(s,)))``: the same PCG64 draws, whose seed words are hashed
    for all streams at once; each generator is built only when the
    iterator reaches it. The same pair always yields the same sequence,
    across runs and platforms. A generator is single-owner while draws
    are in flight; create another stream of the same seed instead of
    sharing one.
    """
    words = _state_words(seed, streams)
    np.random.bit_generator.ISeedSequence.register(_StateWords)
    return (np.random.Generator(np.random.PCG64(_StateWords(row))) for row in words)


def seeded_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The one random stream ``(seed, stream)`` of :func:`seeded_rngs`."""
    return next(seeded_rngs(seed, (stream,)))


def cholesky(m) -> np.ndarray:
    """Lower-triangular L with L L^T = m, for one matrix or a stack.

    ``m`` is (p, p) or (..., p, p); every matrix of a stack is checked on
    its own: finite entries, symmetric within 1e-10, and every pivot
    above 1e-12. A pivot at or below the floor raises NotPositiveDefinite,
    which signals an invalid precision mix upstream.

    Both entry checks are one pass: the largest entry of a - a^T is at most
    1e-10 exactly when every |a - a^T| is, since rounding is symmetric in
    sign (fl(x - y) = -fl(y - x)), and a NaN or inf entry makes it NaN or
    inf, so the entries are scanned for finiteness only when it fails.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"cholesky needs square matrices, got {a.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, reported below
        skew = np.max(a - np.swapaxes(a, -1, -2), initial=0.0)
    if not skew <= 1e-10:
        if not np.all(np.isfinite(a)):
            raise ShapeMismatch("matrix contains non-finite entries")
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


def sample_from_precision(theta, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. rows from N(0, theta^{-1}).

    Uses x = L^{-T} u with theta = L L^T and u standard normal: one
    factorisation, then one solve against L^T for all draws.
    """
    low = cholesky(theta)
    u = rng.standard_normal((count, low.shape[0]))
    return solve_lt(low, u)


_trtrs = None  # LAPACK dtrtrs, looked up at the first solve; False if absent


def _find_trtrs():
    """``dtrtrs`` of the OpenBLAS numpy ships, through ctypes, or None.

    numpy.linalg's extension links that library, so the symbol is found
    through the extension's handle. It is ``scipy_dtrtrs_64_``: 64-bit
    integers, and the three character arguments' hidden lengths last.
    """
    try:
        from numpy.linalg import _umath_linalg
        fn = ctypes.CDLL(_umath_linalg.__file__).scipy_dtrtrs_64_
    except (ImportError, OSError, AttributeError):
        return None
    i64 = ctypes.POINTER(ctypes.c_int64)
    fn.argtypes = ((ctypes.c_char_p,) * 3 + (i64, i64, ctypes.c_void_p, i64, ctypes.c_void_p,
                                             i64, i64) + (ctypes.c_size_t,) * 3)
    fn.restype = None
    return fn


def solve_lt(low, u) -> np.ndarray:
    """x with L^T x = u for every row of ``u``, L lower triangular.

    ``low`` is one factor (p, p) with ``u`` (r, p), or a stack (..., p, p)
    with ``u`` (..., r, p) whose every factor solves its own r rows.
    Each factor is one LAPACK ``dtrtrs('U', 'N', 'N')`` call on its
    row-major storage, which column-major LAPACK reads as L^T. Without
    that symbol it is ``np.linalg.solve`` on L^T: ``gesv`` pivots on the
    diagonal of an upper triangular matrix with a positive diagonal,
    swaps no rows and leaves it unchanged, then makes the same upper
    triangular solve, so both give the same bits.
    """
    global _trtrs
    if _trtrs is None:
        _trtrs = _find_trtrs() or False
    low = np.ascontiguousarray(low, dtype=np.float64)
    x = np.array(u, dtype=np.float64, order="C")  # solved in place
    p = low.shape[-1]
    if x.ndim < 2 or low.shape != x.shape[:-2] + (p, p) or x.shape[-1] != p:
        raise ShapeMismatch(f"cannot solve factors {low.shape} for rows {x.shape}")
    if not _trtrs:
        return np.swapaxes(np.linalg.solve(np.swapaxes(low, -1, -2), np.swapaxes(x, -1, -2)),
                           -1, -2)
    rows = x.shape[-2]
    n, nrhs, info = ctypes.c_int64(p), ctypes.c_int64(rows), ctypes.c_int64()
    a, b = low.ctypes.data, x.ctypes.data
    for k in range(low.size // (p * p)):
        _trtrs(b"U", b"N", b"N", n, nrhs, a + 8 * k * p * p, n, b + 8 * k * rows * p, n, info,
               1, 1, 1)
        if info.value:
            raise NotPositiveDefinite(f"LAPACK dtrtrs returned info {info.value}")
    return x


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
