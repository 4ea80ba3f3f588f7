"""Synthetic data-generating processes and ground-truth graph construction.

Six settings are supported. G1/G2 draw Gaussian samples whose precision
matrix is a covariate-driven mix of candidate matrices; N1/N2 push those
samples through a monotone map; D1/D2 simulate a structural equation model
over a covariate-dependent DAG whose conditional-independence skeleton is
the moralized graph.

DAG adjacency convention used throughout: ``a[j, k] != 0`` means node k is
a parent of node j (row = child, column = parent).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

from .errors import CyclicGraph, NotPositiveDefinite, ShapeMismatch
from .numerics import SeededRng, cholesky

SETTING_IDS = ("G1", "G2", "N1", "N2", "D1", "D2")

# Off-diagonal entries of a mixed precision matrix below this magnitude are
# treated as structural zeros when labeling ground-truth edges.
SUPPORT_TOL = 1e-10


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


def mix_precision(weights, candidates) -> np.ndarray:
    """Weighted combination of candidate precision matrices.

    A convex combination of positive definite candidates is positive
    definite by construction; any mix with a negative weight is verified
    by Cholesky and rejected with NotPositiveDefinite.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != len(candidates):
        raise ShapeMismatch("one weight per candidate required")
    theta = np.zeros_like(candidates[0])
    for w, psi in zip(weights, candidates):
        theta += w * psi
    if np.any(weights < 0.0):
        cholesky(theta)
    return theta


# ---------------------------------------------------------------------------
# covariate machinery


def rbf_eval(alphas, betas, centers, z) -> float:
    """Sum of Gaussian bumps: sum_l alpha_l * exp(-beta_l ||z - c_l||^2)."""
    z = np.asarray(z, dtype=np.float64)
    sq = np.sum((np.asarray(centers) - z) ** 2, axis=1)
    return float(np.dot(np.asarray(alphas), np.exp(-np.asarray(betas) * sq)))


def _sigmoid(v: float) -> float:
    if v >= 0:
        return 1.0 / (1.0 + np.exp(-v))
    e = np.exp(v)
    return e / (1.0 + e)


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


def random_tree_dag(p: int, rng: SeededRng) -> np.ndarray:
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
        n_children = int(rng.generator.integers(1, 4))
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
    support = a != 0
    skel = support | support.T
    if not pseudo:
        for j in range(a.shape[0]):
            parents = np.nonzero(support[j])[0]
            for i1 in range(len(parents)):
                for i2 in range(i1 + 1, len(parents)):
                    skel[parents[i1], parents[i2]] = True
                    skel[parents[i2], parents[i1]] = True
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


def sem_simulate(a_weighted, family: str = "linear", coeffs=None,
                 noise_sd: float = 1.0, rng: SeededRng | None = None,
                 noise=None, transpose_coeffs: bool = False) -> np.ndarray:
    """Draw one sample from a structural equation model over a DAG.

    Nodes are filled in topological order: each node is a function of its
    parents plus N(0, noise_sd^2) noise. ``family='linear'`` uses the
    adjacency weights directly; ``family='hermite'`` expands each parent
    value in the first three Hermite functions with per-edge coefficients
    ``coeffs[j, k, m]`` scaled by the adjacency weight.

    ``noise`` overrides the random draw (useful for exact checks).
    ``transpose_coeffs`` applies the transposed adjacency reading for the
    Hermite scaling.
    """
    a = np.asarray(a_weighted, dtype=np.float64)
    if transpose_coeffs:
        a = a.T
    order = topological_order(a)
    p = a.shape[0]
    if noise is None:
        noise = rng.generator.normal(0.0, noise_sd, size=p)
    x = np.zeros(p)
    if family == "linear":
        for j in order:
            x[j] = a[j] @ x + noise[j]
    elif family == "hermite":
        if coeffs is None:
            raise ShapeMismatch("hermite family requires per-edge coefficients")
        for j in order:
            parents = np.nonzero(a[j])[0]
            total = 0.0
            if len(parents):
                basis = hermite_functions(x[parents])  # (n_parents, 3)
                alpha = a[j, parents, None] * coeffs[j, parents, :]
                total = float(np.sum(alpha * basis))
            x[j] = total + noise[j]
    else:
        raise ValueError(f"unknown SEM family {family!r}")
    return x


# ---------------------------------------------------------------------------
# settings


@dataclass(frozen=True)
class SettingSpec:
    """All constants needed to regenerate ground truth for one setting."""

    setting: str
    p: int
    q: int
    seed: int
    diag_value: float = 1.0
    offdiag_value: float = 0.45
    block_size: int = 30
    rbf_terms: int = 10
    noise_sd: float = 1.0
    transpose_coeffs: bool = False
    # materialized constants
    candidates: tuple = field(default=(), repr=False)
    rbf_params: tuple | None = field(default=None, repr=False)
    hermite_coeffs: np.ndarray | None = field(default=None, repr=False)

    @property
    def mechanism(self) -> str:
        return {"G": "gaussian", "N": "npn", "D": "dag"}[self.setting[0]]

    @property
    def npn_kind(self) -> str | None:
        return {"N1": "sin", "N2": "square-sign"}.get(self.setting)


def make_setting(setting: str, seed: int = 0, *, p: int | None = None,
                 diag_value: float = 1.0, offdiag_value: float = 0.45,
                 block_size: int | None = None, rbf_terms: int = 10,
                 noise_sd: float = 1.0, transpose_coeffs: bool = False) -> SettingSpec:
    """Materialize a setting's constants (candidate matrices, RBF, trees).

    Dimensions default to the canonical ones (p=50 q=2 for G1/N1/D1/D2,
    p=90 q=10 for G2/N2); ``p`` may be overridden for desk-scale runs.
    Candidate precision entries default to diag 1.0 / off-diagonal 0.45
    and SEM noise to unit variance: the scales at which the trained
    estimator reproduces the reference recovery levels.
    """
    if setting not in SETTING_IDS:
        raise ValueError(f"unknown setting {setting!r}")
    family = setting[0]
    wide = setting in ("G2", "N2")
    p = p if p is not None else (90 if wide else 50)
    q = 10 if wide else 2
    setup = SeededRng(seed, stream=0)

    rbf_params = None
    hermite_coeffs = None
    if family in ("G", "N"):
        if wide:
            block_size = block_size if block_size is not None else p // 3
            candidates = tuple(
                block_precision(p, l, block_size, diag_value, offdiag_value)
                for l in (1, 2, 3)
            )
            gen = setup.generator
            alphas = gen.uniform(-10.0, 10.0, rbf_terms)
            betas = gen.uniform(0.1, 0.5, rbf_terms)
            centers = gen.uniform(-1.0, 1.0, (rbf_terms, q))
            rbf_params = (alphas, betas, centers)
        else:
            block_size = block_size if block_size is not None else p // 3
            candidates = tuple(
                banded_precision(p, l, diag_value, offdiag_value) for l in (1, 2, 3)
            )
    else:
        block_size = block_size if block_size is not None else p // 3
        b1 = random_tree_dag(p, setup)
        b2 = random_tree_dag(p, setup)
        candidates = (b1, b2)
        if setting == "D2":
            hermite_coeffs = setup.generator.uniform(0.1, 0.5, (p, p, 3))

    return SettingSpec(
        setting=setting, p=p, q=q, seed=seed,
        diag_value=diag_value, offdiag_value=offdiag_value,
        block_size=block_size, rbf_terms=rbf_terms, noise_sd=noise_sd,
        transpose_coeffs=transpose_coeffs, candidates=candidates,
        rbf_params=rbf_params, hermite_coeffs=hermite_coeffs,
    )


def covariate_to_weights(spec: SettingSpec, z) -> tuple[np.ndarray, int]:
    """Candidate mixing weights and cluster label for one covariate value.

    Implements the piecewise branch rules of each setting; boundary ties
    (probability-zero events) go to the lower interval.
    """
    z = np.asarray(z, dtype=np.float64)
    s = spec.setting
    if s in ("G1", "N1"):
        z1, z2 = float(z[0]), float(z[1])
        if z2 <= 1.0 / 3.0:
            return np.array([z1, 1.0 - z1, 0.0]), 1
        if z2 <= 2.0 / 3.0:
            return np.array([0.0, z1, 1.0 - z1]), 2
        return np.array([z1, 0.0, 1.0 - z1]), 3
    if s in ("G2", "N2"):
        alphas, betas, centers = spec.rbf_params
        zt = _sigmoid(rbf_eval(alphas, betas, centers, z))
        if zt > 0.9 or zt <= 0.1:
            return np.array([zt, 0.0, 1.0 - zt]), 1
        return np.array([zt, 0.5, 0.5 - zt]), 2
    # D settings: weights over (B1, B2)
    z1, z2 = float(z[0]), float(z[1])
    if 0.0 < z1 <= 0.5:
        return np.array([1.0, 0.0]), 1
    if -0.5 < z1 <= 0.0:
        return np.array([0.0, 1.0]), 2
    w1 = z2 * z2
    return np.array([w1, 1.0 - w1]), 3


def dag_mix(spec: SettingSpec, z) -> tuple[np.ndarray, np.ndarray]:
    """Weighted DAG for one covariate value plus its binary support."""
    weights, _ = covariate_to_weights(spec, z)
    b1, b2 = spec.candidates
    a_tilde = weights[0] * b1 + weights[1] * b2
    return a_tilde, (a_tilde != 0).astype(np.float64)


def ground_truth_theta(spec: SettingSpec, z) -> np.ndarray:
    """Per-sample precision matrix for the Gaussian/NPN settings."""
    weights, _ = covariate_to_weights(spec, z)
    return mix_precision(weights, spec.candidates)


def cluster_label(spec: SettingSpec, z) -> int:
    return covariate_to_weights(spec, z)[1]


def cluster_labels(spec: SettingSpec, Z) -> np.ndarray:
    return np.array([cluster_label(spec, z) for z in np.asarray(Z)], dtype=np.int64)


def truth_skeleton(spec: SettingSpec, z, pseudo: bool = False) -> np.ndarray:
    """Boolean ground-truth skeleton for the sample with covariate ``z``.

    Gaussian/NPN settings: off-diagonal support of the mixed precision.
    DAG settings: moralized (or pseudo-moralized) skeleton of the DAG.
    """
    if spec.mechanism == "dag":
        a_tilde, support = dag_mix(spec, z)
        if spec.setting == "D2" and spec.transpose_coeffs:
            support = support.T
        return moralize(support, pseudo=pseudo)
    theta = ground_truth_theta(spec, z)
    skel = np.abs(theta) > SUPPORT_TOL
    np.fill_diagonal(skel, False)
    return skel


# ---------------------------------------------------------------------------
# dataset generation


@dataclass
class Dataset:
    """Paired observations plus split sizes and a regeneration handle."""

    spec: SettingSpec
    seed: int
    X: np.ndarray
    Z: np.ndarray
    splits: tuple[int, int, int]
    resample_count: int = 0

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def indices(self, part: str) -> slice:
        n_train, n_val, n_test = self.splits
        return {
            "train": slice(0, n_train),
            "val": slice(n_train, n_train + n_val),
            "test": slice(n_train + n_val, n_train + n_val + n_test),
        }[part]

    def part(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        sl = self.indices(name)
        return self.X[sl], self.Z[sl]


def _draw_covariate(spec: SettingSpec, gen: np.random.Generator) -> np.ndarray:
    if spec.setting in ("G2", "N2"):
        return gen.standard_normal(spec.q)
    if spec.mechanism == "dag":
        return gen.uniform(-1.0, 1.0, spec.q)
    return gen.uniform(0.0, 1.0, spec.q)


def _draw_sample(spec: SettingSpec, rng: SeededRng) -> tuple[np.ndarray, np.ndarray, int]:
    """One (z, x) pair; returns (z, x, resamples used)."""
    gen = rng.generator
    resamples = 0
    while True:
        z = _draw_covariate(spec, gen)
        if spec.mechanism == "dag":
            a_tilde, _ = dag_mix(spec, z)
            x = sem_simulate(
                a_tilde,
                family="hermite" if spec.setting == "D2" else "linear",
                coeffs=spec.hermite_coeffs,
                noise_sd=spec.noise_sd,
                rng=rng,
                transpose_coeffs=spec.transpose_coeffs,
            )
            return z, x, resamples
        weights, _ = covariate_to_weights(spec, z)
        try:
            low = cholesky(mix_precision(weights, spec.candidates))
        except NotPositiveDefinite:
            # G2's middle branch can produce a negative third weight and an
            # indefinite mix, which mix_precision rejects; redraw the
            # covariate within the same stream.
            resamples += 1
            continue
        u = gen.standard_normal(spec.p)
        x = solve_triangular(low.T, u, lower=False)
        if spec.npn_kind is not None:
            x = npn_transform(x, spec.npn_kind)
        return z, x, resamples


def generate_dataset(spec: SettingSpec, n: int, splits, seed: int | None = None) -> Dataset:
    """Generate ``n`` paired samples with per-sample RNG streams.

    Ground truth is regenerable from (spec, covariate) without storing any
    per-sample matrices. Streams are derived from the sample index alone,
    so an NPN dataset equals its Gaussian twin pushed through the monotone
    map when seeds coincide.
    """
    splits = tuple(int(s) for s in splits)
    if sum(splits) != n:
        raise ShapeMismatch(f"splits {splits} do not sum to n={n}")
    seed = spec.seed if seed is None else seed
    X = np.empty((n, spec.p))
    Z = np.empty((n, spec.q))
    resample_count = 0
    for i in range(n):
        z, x, resamples = _draw_sample(spec, SeededRng(seed, stream=i + 1))
        Z[i] = z
        X[i] = x
        resample_count += resamples
    return Dataset(spec=spec, seed=seed, X=X, Z=Z, splits=splits,
                   resample_count=resample_count)


# ---------------------------------------------------------------------------
# disk format


def save_dataset(ds: Dataset, out_dir, csv: bool = False) -> None:
    """Write meta.json plus little-endian row-major float64 X.f64 / Z.f64."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = ds.spec
    meta = {
        "setting": spec.setting,
        "n": ds.n,
        "p": spec.p,
        "q": spec.q,
        "seed": ds.seed,
        "splits": {"train": ds.splits[0], "val": ds.splits[1], "test": ds.splits[2]},
        "generator": {
            "setting_seed": spec.seed,
            "diag_value": spec.diag_value,
            "offdiag_value": spec.offdiag_value,
            "block_size": spec.block_size,
            "rbf_terms": spec.rbf_terms,
            "noise_sd": spec.noise_sd,
            "transpose_coeffs": spec.transpose_coeffs,
        },
        "resample_count": ds.resample_count,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    ds.X.astype("<f8").tofile(out / "X.f64")
    ds.Z.astype("<f8").tofile(out / "Z.f64")
    if csv:
        np.savetxt(out / "X.csv", ds.X, delimiter=",")
        np.savetxt(out / "Z.csv", ds.Z, delimiter=",")


def load_dataset(in_dir) -> Dataset:
    src = Path(in_dir)
    meta = json.loads((src / "meta.json").read_text())
    g = meta["generator"]
    spec = make_setting(
        meta["setting"], seed=g["setting_seed"], p=meta["p"],
        diag_value=g["diag_value"], offdiag_value=g["offdiag_value"],
        block_size=g["block_size"], rbf_terms=g["rbf_terms"],
        noise_sd=g["noise_sd"], transpose_coeffs=g["transpose_coeffs"],
    )
    n, p, q = meta["n"], meta["p"], meta["q"]
    X = np.fromfile(src / "X.f64", dtype="<f8").reshape(n, p)
    Z = np.fromfile(src / "Z.f64", dtype="<f8").reshape(n, q)
    splits = (meta["splits"]["train"], meta["splits"]["val"], meta["splits"]["test"])
    return Dataset(spec=spec, seed=meta["seed"], X=X, Z=Z, splits=splits,
                   resample_count=meta.get("resample_count", 0))
