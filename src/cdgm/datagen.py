"""Synthetic data-generating processes and ground-truth graph construction.

Six settings are supported. G1/G2 draw Gaussian samples whose precision
matrix is a covariate-driven mix of candidate matrices; N1/N2 push those
samples through a monotone map; D1/D2 simulate a structural equation model
over a covariate-dependent DAG whose conditional-independence skeleton is
the moralized graph.

DAG adjacency convention used throughout: ``a[j, k] != 0`` means node k is
a parent of node j (row = child, column = parent).

Ground truth has one rule. A sample's support key (``support_keys``) says
which candidates are active at its covariate, and its skeleton
(``truth_skeleton``) is read from that key alone: the off-diagonal union
of the active candidates' supports in the Gaussian/NPN settings, and the
moral graph of the union of the active trees in the DAG settings.
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import CyclicGraph, NotPositiveDefinite, ShapeMismatch, UsageError
from .files import reading, write_atomic
from .numerics import cholesky, seeded_rng, seeded_rngs, solve_lt

SETTING_IDS = ("G1", "G2", "N1", "N2", "D1", "D2")

# A candidate whose weighted off-diagonal entries |w_l| * offdiag are not
# above this magnitude is left out of a Gaussian/NPN sample's truth.
SUPPORT_TOL = 1e-10

# Samples per stacked factorisation in the Gaussian/NPN settings. A stack
# of 32 (p, p) float64 matrices is 0.6 MB at p=50 and 2.1 MB at p=90, and
# generation holds about four stacks at once; chunks of 256 raised the
# peak memory of a G1 replicate by 12 MB and ran no faster.
FACTOR_CHUNK = 32


# ---------------------------------------------------------------------------
# candidate precision matrices


def banded_precision(p: int, offset: int, diag_value: float, band_value: float) -> np.ndarray:
    """Symmetric matrix with one band ``offset`` steps off the main diagonal."""
    if not 1 <= offset < p:
        raise ShapeMismatch(f"band offset {offset} out of range for p={p}")
    m = np.eye(p) * diag_value
    idx = np.arange(p - offset)
    m[idx, idx + offset] = band_value
    m[idx + offset, idx] = band_value
    cholesky(m)  # positive definiteness gate
    return m


def block_precision(p: int, block_index: int, block_size: int,
                    diag_value: float, fill_value: float) -> np.ndarray:
    """Identity-diagonal matrix with one dense symmetric block.

    ``block_index`` is 1-based; block ``l`` occupies rows/columns
    ``[(l-1)*block_size, l*block_size)``.
    """
    lo = (block_index - 1) * block_size
    hi = lo + block_size
    if not (0 <= lo < hi <= p):
        raise ShapeMismatch(f"block {block_index} of size {block_size} exceeds p={p}")
    m = np.eye(p)
    block = np.full((block_size, block_size), fill_value)
    np.fill_diagonal(block, diag_value)
    m[lo:hi, lo:hi] = block
    cholesky(m)
    return m


class _Mixer:
    """sum_l w_l * candidates[l] for one weight row (k,) or a stack of up
    to ``rows`` rows (n, k), in buffers allocated once.

    Only the flat union support of the candidates is computed: added in
    candidate order starting from zero, then scattered into a stack zeroed
    once. Off the support a dense sum adds only 0.0 + (+-0.0) = +0.0,
    which the stack holds already, so every mix has the dense sum's bits.
    A mix is a view of that stack, valid until the next call.
    """

    def __init__(self, candidates, rows: int):
        flat = np.reshape(candidates, (len(candidates), -1))
        self.cells = np.flatnonzero(np.any(flat != 0.0, axis=0))
        self.values = flat[:, self.cells]
        p = np.shape(candidates)[-1]
        self.stack = np.zeros((rows, p, p))
        self.acc = np.empty((rows, len(self.cells)))
        self.term = np.empty_like(self.acc)

    def __call__(self, weights) -> np.ndarray:
        weights = np.asarray(weights, dtype=np.float64)
        w = weights.reshape(-1, weights.shape[-1])
        n = len(w)
        if weights.shape[-1] != len(self.values) or n > len(self.stack):
            raise ShapeMismatch(f"one weight per candidate and at most {len(self.stack)} "
                                f"rows required, got {weights.shape}")
        acc, term = self.acc[:n], self.term[:n]
        acc.fill(0.0)
        for l, values in enumerate(self.values):
            acc += np.multiply(w[:, l, None], values, out=term)
        self.stack[:n].reshape(n, -1)[:, self.cells] = acc
        return self.stack[0] if weights.ndim == 1 else self.stack[:n]


# ---------------------------------------------------------------------------
# covariate machinery


def rbf_eval(alphas, betas, centers, z):
    """Sum of Gaussian bumps: sum_l alpha_l * exp(-beta_l ||z - c_l||^2),
    one value per row of the covariate stack ``z`` (n, q).

    Each sample's sum is its own ``np.dot`` (BLAS sums in its own order),
    so a sample's value, to the bit, does not depend on which samples
    share the stack; the G2/N2 data depend on those bits.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeMismatch(f"covariates must be a stack (n, q), got shape {z.shape}")
    alphas = np.asarray(alphas)
    sq = np.sum((np.asarray(centers) - z[:, None, :]) ** 2, axis=-1)
    bumps = np.exp(-np.asarray(betas) * sq)
    return np.array([np.dot(alphas, b) for b in bumps])


def _sigmoid(v) -> np.ndarray:
    """Logistic function, elementwise, without overflow on either side."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    e = np.exp(v[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def npn_transform(x, kind: str) -> np.ndarray:
    """Elementwise monotone map: 'sin' -> x + sin(x); 'square-sign' -> x^2 sign(x)."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "sin":
        return x + np.sin(x)
    if kind == "square-sign":
        return x * x * np.sign(x)
    raise ValueError(f"unknown transform kind {kind!r}")


# ---------------------------------------------------------------------------
# DAG machinery


def random_tree_dag(p: int, rng: np.random.Generator) -> np.ndarray:
    """Adjacency of a random rooted tree where each non-leaf gets 1-3 children.

    Node 0 is the root and ids are assigned in growth order, so every
    child id exceeds its parent's. Entry (child, parent) is 1.
    """
    if p < 2:
        raise ShapeMismatch("a tree needs at least 2 nodes")
    a = np.zeros((p, p))
    queue = [0]
    head = 0
    next_id = 1
    while next_id < p:
        parent = queue[head]
        head += 1
        n_children = int(rng.integers(1, 4))
        for _ in range(n_children):
            if next_id >= p:
                break
            a[next_id, parent] = 1.0
            queue.append(next_id)
            next_id += 1
    return a


def topological_order(a) -> list[int]:
    """Topological order of a DAG in (child, parent) adjacency form."""
    a = np.asarray(a)
    p = a.shape[0]
    support = a != 0
    n_parents = support.sum(axis=1)
    ready = [j for j in range(p) if n_parents[j] == 0]
    order = []
    while ready:
        k = ready.pop()
        order.append(k)
        children = np.nonzero(support[:, k])[0]
        for c in children:
            n_parents[c] -= 1
            if n_parents[c] == 0:
                ready.append(int(c))
    if len(order) != p:
        raise CyclicGraph("adjacency contains a directed cycle")
    return order


def moralize(a, pseudo: bool = False) -> np.ndarray:
    """Undirected skeleton of a DAG after marrying co-parents.

    Every directed edge is kept (undirected); additionally, parents that
    share a child are connected, unless ``pseudo`` is set, in which case
    those married-pair edges are dropped.
    """
    a = np.asarray(a)
    topological_order(a)  # raises CyclicGraph on cycles
    s = a != 0
    # (s.T @ s)[x, y]: x and y are both parents of some child
    skel = s | s.T if pseudo else s | s.T | s.T @ s
    np.fill_diagonal(skel, False)
    return skel


def linear_sem_precision(a_weighted, noise_var=None) -> np.ndarray:
    """Precision matrix of x solving x = A x + eps with diagonal noise.

    With M = I - A, cov(x) = M^{-1} Omega M^{-T}, so the precision is
    M^T Omega^{-1} M. Validated against Monte-Carlo covariance in tests
    rather than any printed closed form.
    """
    a = np.asarray(a_weighted, dtype=np.float64)
    topological_order(a)
    p = a.shape[0]
    if noise_var is None:
        omega_inv = np.ones(p)
    else:
        noise_var = np.asarray(noise_var, dtype=np.float64)
        if noise_var.ndim == 2:
            noise_var = np.diag(noise_var)
        if np.any(noise_var <= 0):
            raise NotPositiveDefinite("noise variances must be positive")
        omega_inv = 1.0 / noise_var
    m = np.eye(p) - a
    return m.T @ (omega_inv[:, None] * m)


def hermite_functions(x) -> np.ndarray:
    """First three Hermite basis functions, stacked on the last axis.

    psi_m(x) = H_m(x) exp(-x^2/2) with the physicists' polynomials H_1..H_3
    and no orthonormalization constant. Under the orthonormalized variant
    the odd-order terms can cancel for coefficient ratios inside the
    generators' coefficient law, leaving edges invisible to any linear
    readout; this convention keeps every edge detectable.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.exp(-0.5 * x * x)
    h1 = 2.0 * x
    h2 = 4.0 * x * x - 2.0
    h3 = 8.0 * x ** 3 - 12.0 * x
    return np.stack([h1 * g, h2 * g, h3 * g], axis=-1)


def sem_simulate_batch(candidates, weights, noise, coeffs) -> np.ndarray:
    """Draw n samples from structural equation models over mixed DAGs.

    Sample i's weighted DAG is ``sum_l weights[i, l] * candidates[l]`` and
    ``noise[i]`` its noise. Nodes advance in topological order of the
    candidates' union, one step over all samples each, so every parent of
    node j holds its final value when j is filled. With ``coeffs`` None
    the SEM is linear: the dot product of the weighted row with the
    sample; the batched matmul makes one BLAS dot per sample, the call a
    one-sample ``a[j] @ x`` makes, so both give the same bits. Otherwise
    it is Hermite: ``(a * coeffs[j, k, m]) * psi_m(x_k)`` added over the
    union parents k in ascending order and m = 0, 1, 2; for a node with at
    most two parents that is the order in which ``np.sum`` adds its six
    terms. A parent that is not in a sample's DAG has ``a == 0`` there and
    adds an exact zero.
    """
    cands = [np.asarray(c, dtype=np.float64) for c in candidates]
    weights = np.asarray(weights, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    n, p = noise.shape
    union = np.zeros((p, p), dtype=bool)
    for c in cands:
        union |= c != 0

    x = np.zeros((n, p))
    psi = None if coeffs is None else np.empty((p, n, 3))
    for j in topological_order(union):
        row = weights[:, 0, None] * cands[0][j]
        for l in range(1, len(cands)):
            row = row + weights[:, l, None] * cands[l][j]
        if coeffs is None:
            total = np.matmul(row[:, None, :], x[:, :, None])[:, 0, 0]
        else:
            total = np.zeros(n)
            for k in np.flatnonzero(union[j]):
                for m in range(3):
                    total = total + (row[:, k] * coeffs[j, k, m]) * psi[k][:, m]
        xj = total + noise[:, j]
        x[:, j] = xj
        if psi is not None:
            psi[j] = hermite_functions(xj)
    return x


# ---------------------------------------------------------------------------
# settings


@dataclass(frozen=True)
class SettingSpec:
    """One setting's generator options and the constants they fix.

    The fields after ``setting`` and ``seed``, up to ``noise_sd``, are the
    generator options (the ``gen.*`` config keys). ``None`` takes
    the canonical dimension: ``p`` 50 (90 for G2/N2), ``block_size``
    ``p // 3``. Candidate precision entries default to diag 1.0 /
    off-diagonal 0.45 and SEM noise to unit variance: the scales at which
    the trained estimator reproduces the reference recovery levels. Every
    option is range-checked for every setting, whether the setting reads
    it or not; the candidate matrices, RBF parameters and Hermite
    coefficients are then drawn from ``seeded_rng(seed, 0)``.
    """

    setting: str
    seed: int = 0
    p: int | None = None
    diag_value: float = 1.0
    offdiag_value: float = 0.45
    block_size: int | None = None
    rbf_terms: int = 10
    noise_sd: float = 1.0
    # materialized constants
    q: int = field(init=False)
    candidates: tuple = field(init=False, repr=False)
    rbf_params: tuple | None = field(init=False, repr=False)
    hermite_coeffs: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.setting not in SETTING_IDS:
            raise UsageError(f"unknown setting {self.setting!r}")
        wide = self.setting in ("G2", "N2")
        p = (90 if wide else 50) if self.p is None else self.p
        block_size = p // 3 if self.block_size is None else self.block_size
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if p < 4:
            raise UsageError("p must be >= 4")
        if not 1 <= block_size <= p // 3:
            raise UsageError(f"block_size must be in [1, p // 3 = {p // 3}]")
        if self.rbf_terms < 1:
            raise UsageError("rbf_terms must be >= 1")
        if not 0 < self.diag_value < np.inf:
            raise UsageError("diag_value must be finite and > 0")
        if not 0 < abs(self.offdiag_value) < np.inf:
            raise UsageError("offdiag_value must be finite and nonzero")
        if not 0 < self.noise_sd < np.inf:
            raise UsageError("noise_sd must be finite and > 0")

        q = 10 if wide else 2
        setup = seeded_rng(self.seed, stream=0)
        rbf_params = hermite_coeffs = None
        try:
            if self.mechanism == "dag":
                candidates = (random_tree_dag(p, setup), random_tree_dag(p, setup))
                if self.setting == "D2":
                    hermite_coeffs = setup.uniform(0.1, 0.5, (p, p, 3))
            elif wide:
                candidates = tuple(block_precision(p, l, block_size, self.diag_value,
                                                   self.offdiag_value) for l in (1, 2, 3))
                rbf_params = (setup.uniform(-10.0, 10.0, self.rbf_terms),  # alphas
                              setup.uniform(0.1, 0.5, self.rbf_terms),  # betas
                              setup.uniform(-1.0, 1.0, (self.rbf_terms, q)))  # centers
            else:
                candidates = tuple(banded_precision(p, l, self.diag_value, self.offdiag_value)
                                   for l in (1, 2, 3))
        except NotPositiveDefinite:
            names = "diag_value, offdiag_value" + (", block_size" if wide else "")
            raise UsageError(f"a candidate matrix from {names} is not positive definite") from None
        for name, value in (("p", p), ("q", q), ("block_size", block_size),
                            ("candidates", candidates), ("rbf_params", rbf_params),
                            ("hermite_coeffs", hermite_coeffs)):
            object.__setattr__(self, name, value)  # frozen: resolved once, here

    @property
    def mechanism(self) -> str:
        return {"G": "gaussian", "N": "npn", "D": "dag"}[self.setting[0]]

    @property
    def npn_kind(self) -> str | None:
        return {"N1": "sin", "N2": "square-sign"}.get(self.setting)


# The generator options: the fields SettingSpec takes after setting and seed.
GENERATOR_OPTIONS = tuple(f.name for f in fields(SettingSpec) if f.init)[2:]
# Materializes a setting: ``make_setting("G2", seed=3, block_size=20)``.
make_setting = SettingSpec


def options_read(setting: str) -> tuple[str, ...]:
    """The generator options that ``setting``'s data depend on."""
    if setting.startswith("D"):
        return ("p", "noise_sd")
    wide = ("block_size", "rbf_terms") if setting in ("G2", "N2") else ()
    return ("p", "diag_value", "offdiag_value") + wide


def check_options_read(setting: str, options) -> None:
    """Reject a set generator option that ``setting``'s data do not depend on."""
    unread = [k for k in options if k not in options_read(setting)]
    if unread:
        raise UsageError(f"{setting} does not read gen.{unread[0]}; it reads "
                         f"gen.{', gen.'.join(options_read(setting))}")


def covariate_to_weights(spec: SettingSpec, Z):
    """Candidate mixing weights (n, k) and cluster labels (n,) for a stack
    of covariates (n, q).

    Implements the piecewise branch rules of each setting; boundary ties
    (probability-zero events) go to the lower interval.
    """
    Z = np.asarray(Z, dtype=np.float64)
    s = spec.setting
    if s in ("G1", "N1"):
        z1, z2 = Z[:, 0], Z[:, 1]
        labels = np.where(z2 <= 1.0 / 3.0, 1, np.where(z2 <= 2.0 / 3.0, 2, 3))
        rest = 1.0 - z1
        weights = np.stack([np.where(labels == 2, 0.0, z1),
                            np.where(labels == 1, rest, np.where(labels == 2, z1, 0.0)),
                            np.where(labels == 1, 0.0, rest)], axis=1)
    elif s in ("G2", "N2"):
        alphas, betas, centers = spec.rbf_params
        zt = _sigmoid(rbf_eval(alphas, betas, centers, Z))
        outer = (zt > 0.9) | (zt <= 0.1)
        labels = np.where(outer, 1, 2)
        weights = np.stack([zt, np.where(outer, 0.0, 0.5),
                            np.where(outer, 1.0 - zt, 0.5 - zt)], axis=1)
    else:  # D settings: weights over (B1, B2)
        z1, z2 = Z[:, 0], Z[:, 1]
        labels = np.where((0.0 < z1) & (z1 <= 0.5), 1,
                          np.where((-0.5 < z1) & (z1 <= 0.0), 2, 3))
        w1 = z2 * z2
        weights = np.stack([np.where(labels == 1, 1.0, np.where(labels == 2, 0.0, w1)),
                            np.where(labels == 1, 0.0, np.where(labels == 2, 1.0, 1.0 - w1))],
                           axis=1)
    return weights, labels.astype(np.int64)


def cluster_labels(spec: SettingSpec, Z) -> np.ndarray:
    return covariate_to_weights(spec, np.reshape(Z, (-1, spec.q)))[1]


def support_keys(spec: SettingSpec, Z) -> np.ndarray:
    """Which candidates are active, one boolean row per sample; a
    sample's truth is read from its row (``truth_skeleton``).

    DAG settings: the trees with a nonzero weight. The weights are
    nonnegative and the trees 0/1, so an edge of the mixed DAG is nonzero
    exactly when a tree holding it is active. Gaussian/NPN settings: the
    candidates that show off the diagonal, ``|w_l| * offdiag > SUPPORT_TOL``.
    The candidates' off-diagonal supports are disjoint, so each
    off-diagonal entry of a mix is a single product ``w_l * offdiag``; a
    weight that is nonzero but tiny leaves its candidate's edges out.
    """
    weights, _ = covariate_to_weights(spec, np.reshape(Z, (-1, spec.q)))
    if spec.mechanism == "dag":
        return weights != 0.0
    return np.abs(weights) * abs(spec.offdiag_value) > SUPPORT_TOL


def truth_skeleton(spec: SettingSpec, z, pseudo: bool = False) -> np.ndarray:
    """Boolean ground-truth skeleton for the sample with covariate ``z``,
    read from its support key (``support_keys``).

    Gaussian/NPN settings: the off-diagonal union of the active
    candidates' supports. DAG settings: the moral graph (pseudo-moral if
    ``pseudo``) of the union of the active trees.
    """
    skel = np.zeros((spec.p, spec.p), dtype=bool)
    for candidate, active in zip(spec.candidates, support_keys(spec, z)[0]):
        if active:
            skel |= candidate != 0
    if spec.mechanism == "dag":
        return moralize(skel, pseudo=pseudo)
    np.fill_diagonal(skel, False)
    return skel


# ---------------------------------------------------------------------------
# dataset generation


@dataclass
class Dataset:
    """Paired observations plus split sizes and a regeneration handle."""

    spec: SettingSpec
    X: np.ndarray
    Z: np.ndarray
    splits: tuple[int, int, int]
    resample_count: int = 0

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def part(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(X, Z) of the ``train``, ``val`` or ``test`` split."""
        n_train, n_val, n_test = self.splits
        sl = {
            "train": slice(0, n_train),
            "val": slice(n_train, n_train + n_val),
            "test": slice(n_train + n_val, n_train + n_val + n_test),
        }[name]
        return self.X[sl], self.Z[sl]


def _covariate_draw(spec: SettingSpec):
    """The setting's covariate draw, a function of one sample's generator;
    chosen once per dataset, outside the per-sample loops."""
    q = spec.q
    if spec.setting in ("G2", "N2"):
        return lambda gen: gen.standard_normal(q)
    low = -1.0 if spec.mechanism == "dag" else 0.0
    return lambda gen: gen.uniform(low, 1.0, q)


def generate_dataset(spec: SettingSpec, n: int, splits) -> Dataset:
    """Generate ``n`` paired samples with per-sample RNG streams.

    Sample i draws from its own stream ``seeded_rng(spec.seed, i + 1)``: the
    covariate, then the SEM noise or the Gaussian draw u. Only those draws
    run per sample; the mixing, the SEM and the factorisations run over
    all samples at once. Ground truth is regenerable from (spec,
    covariate) without storing any per-sample matrices. Streams are
    derived from the sample index alone, so an NPN dataset equals its
    Gaussian twin pushed through the monotone map when seeds coincide.
    """
    splits = _checked_splits(splits, n)
    if spec.mechanism == "dag":
        X, Z, resample_count = _generate_dag(spec, n)
    else:
        X, Z, resample_count = _generate_gaussian(spec, n)
    return Dataset(spec=spec, X=X, Z=Z, splits=splits,
                   resample_count=resample_count)


def _checked_splits(splits, n: int) -> tuple[int, int, int]:
    """The (train, val, test) sizes as ints: whole, each >= 0, summing to ``n``."""
    given = tuple(splits)
    sizes = tuple(int(s) for s in given)
    if sizes != given or len(sizes) != 3 or min(sizes) < 0 or sum(sizes) != n:
        raise UsageError(f"splits {given} must be >= 0 and sum to {n} as integers")
    return sizes


def _generate_dag(spec: SettingSpec, n: int):
    Z = np.empty((n, spec.q))
    noise = np.empty((n, spec.p))
    draw_covariate = _covariate_draw(spec)
    for i, gen in enumerate(seeded_rngs(spec.seed, range(1, n + 1))):
        Z[i] = draw_covariate(gen)
        noise[i] = gen.normal(0.0, spec.noise_sd, size=spec.p)
    weights, _ = covariate_to_weights(spec, Z)
    X = sem_simulate_batch(spec.candidates, weights, noise, spec.hermite_coeffs)
    return X, Z, 0


def _generate_gaussian(spec: SettingSpec, n: int):
    """x = L^{-T} u with theta = L L^T, in chunks of FACTOR_CHUNK samples.

    A mix with a negative weight (G2/N2's middle branch) can be indefinite.
    It is factored on its own as soon as its covariate is drawn; if that
    fails, the covariate is redrawn from the same stream, and u is drawn
    only once the mix is accepted. Its factor is kept for the solve. All
    other mixes of a chunk are factored as one stack. The chunk buffers
    (mixes, factors and draws) are allocated once per call, before the X
    and Z that outlive them: in the other order a G1 lasso replicate
    peaked about 0.3 MiB higher (glibc heap, 2-core x86 host).
    """
    p, rows = spec.p, min(n, FACTOR_CHUNK)
    mix = _Mixer(spec.candidates, rows)
    low = np.empty((rows, p, p))
    u = np.empty((rows, 1, p))
    Z = np.empty((n, spec.q))
    X = np.empty((n, p))
    streams = seeded_rngs(spec.seed, range(1, n + 1))
    draw_covariate = _covariate_draw(spec)
    resamples = 0
    for lo in range(0, n, FACTOR_CHUNK):
        gens = list(itertools.islice(streams, FACTOR_CHUNK))
        m = len(gens)
        z = np.array([draw_covariate(gen) for gen in gens])
        weights, _ = covariate_to_weights(spec, z)
        factored = np.zeros(m, dtype=bool)
        retry = np.flatnonzero(np.any(weights < 0.0, axis=1))
        while retry.size:
            for i in retry:
                try:
                    low[i] = cholesky(mix(weights[i]))
                    factored[i] = True
                except NotPositiveDefinite:
                    z[i] = draw_covariate(gens[i])
            retry = retry[~factored[retry]]
            resamples += retry.size
            weights[retry] = covariate_to_weights(spec, z[retry])[0]
            retry = retry[np.any(weights[retry] < 0.0, axis=1)]
        for i, gen in enumerate(gens):
            gen.standard_normal(out=u[i, 0])
        rest = np.flatnonzero(~factored)
        if rest.size:
            low[rest] = cholesky(mix(weights[rest]))
        X[lo:lo + m] = solve_lt(low[:m], u[:m])[:, 0]
        Z[lo:lo + m] = z
    if spec.npn_kind is not None:
        X = npn_transform(X, spec.npn_kind)
    return X, Z, resamples


# ---------------------------------------------------------------------------
# disk format

# meta.json's "generator" block: the generator options but p, a top-level key.
META_OPTIONS = tuple(k for k in GENERATOR_OPTIONS if k != "p")


def save_dataset(ds: Dataset, out_dir, csv: bool = False) -> None:
    """Write meta.json plus little-endian row-major float64 X.f64 / Z.f64."""
    out = Path(out_dir)
    spec = ds.spec
    meta = {
        "setting": spec.setting,
        "n": ds.n,
        "p": spec.p,
        "q": spec.q,
        "seed": spec.seed,
        "splits": {"train": ds.splits[0], "val": ds.splits[1], "test": ds.splits[2]},
        "generator": {k: getattr(spec, k) for k in META_OPTIONS},
        "resample_count": ds.resample_count,
    }
    write_atomic(out / "meta.json", json.dumps(meta, indent=2) + "\n")
    for name, values in (("X", ds.X), ("Z", ds.Z)):
        write_atomic(out / f"{name}.f64", values.astype("<f8").tobytes())
        if csv:
            text = io.StringIO()
            np.savetxt(text, values, delimiter=",")
            write_atomic(out / f"{name}.csv", text.getvalue())


def _read_f64(path: Path, n: int, cols: int) -> np.ndarray:
    with reading(path):
        size = path.stat().st_size
        if size != n * cols * 8:
            raise ShapeMismatch(f"expected {n * cols * 8} bytes ({n}x{cols} float64), found {size}")
        values = np.fromfile(path, dtype="<f8").reshape(n, cols)
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise ShapeMismatch(f"row {np.argmin(finite)} holds NaN or inf")
    return values


def load_dataset(in_dir) -> Dataset:
    src = Path(in_dir)
    path = src / "meta.json"
    with reading(path):
        meta = json.loads(path.read_text())
        # a "generator" key other than META_OPTIONS is a TypeError naming it
        spec = SettingSpec(meta["setting"], seed=meta["seed"], p=meta["p"],
                           **meta["generator"])
        n = meta["n"]
        if type(n) is not int:
            raise ShapeMismatch(f"n is {n!r}, not a whole number")
        if meta["q"] != spec.q:
            raise ShapeMismatch(f"q is {meta['q']!r}, not {spec.setting}'s {spec.q}")
        splits = _checked_splits((meta["splits"][k] for k in ("train", "val", "test")), n)
        resample_count = meta["resample_count"]
    X = _read_f64(src / "X.f64", n, spec.p)
    Z = _read_f64(src / "Z.f64", n, spec.q)
    return Dataset(spec=spec, X=X, Z=Z, splits=splits, resample_count=resample_count)
