"""Minimal feed-forward network engine for the coefficient network.

Architecture: a first stack of Linear-ReLU-Dropout layers consumes the
covariate, its output is concatenated with a copy of the raw input, a
second stack follows, and a final linear head emits one coordinate per
ordered node pair. Forward, backward, and the optimizer are implemented
directly on numpy arrays; there is no external autodiff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import NonFiniteGradient, ShapeMismatch, UsageError
from .files import reading, write_atomic
from .numerics import run_pair

PARAMS_MAGIC = "CDGM-PARAMS-1"
ADAM_CHUNK = 65536  # optimizer entries updated per pass: 512 KiB per array
# OpenBLAS's small-matrix kernels take products of at most 100**3 multiply-adds
# and may sum in another order than its blocked GEMM: a head product is split
# only when both halves are larger, so every part takes the blocked kernel.
SPLIT_MADDS = 100 ** 3
# Adam's moment decay rates and the denominator's guard (Kingma & Ba 2015).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class MlpSpec:
    """Shape description of the coefficient network."""

    input_dim: int
    block1: tuple[int, ...]
    block2: tuple[int, ...]
    output_dim: int
    dropout: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise UsageError(f"dropout must be in [0, 1), got {self.dropout}")
        if any(h <= 0 for h in self.block1) or any(h <= 0 for h in self.block2):
            raise UsageError("hidden sizes must be positive")
        object.__setattr__(self, "block1", tuple(int(h) for h in self.block1))
        object.__setattr__(self, "block2", tuple(int(h) for h in self.block2))

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) of every linear layer, head last."""
        dims = []
        width = self.input_dim
        for h in self.block1:
            dims.append((width, h))
            width = h
        if self.block1:
            width += self.input_dim  # concatenated copy of the input
        for h in self.block2:
            dims.append((width, h))
            width = h
        dims.append((width, self.output_dim))
        return dims

    @property
    def concat_layer(self) -> int | None:
        """Index of the first layer fed by the concatenated input, if any."""
        return len(self.block1) if self.block1 else None

    @property
    def n_params(self) -> int:
        return sum(i * o + o for i, o in self.layer_dims())


class ParamSet:
    """Per-layer weights and biases stored in one flat float64 vector.

    Layer ``i`` with dims (fan_in, fan_out) occupies a row-major
    (fan_in, fan_out) weight block followed by a fan_out bias block.
    """

    def __init__(self, spec: MlpSpec, flat: np.ndarray | None = None):
        self.spec = spec
        self.dims = spec.layer_dims()
        size = spec.n_params
        if flat is None:
            flat = np.zeros(size)
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        if flat.shape != (size,):
            raise ShapeMismatch(f"expected flat length {size}, got {flat.shape}")
        self.flat = flat

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Zero-copy (weight, bias) views into the flat vector."""
        out = []
        offset = 0
        for fan_in, fan_out in self.dims:
            w = self.flat[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
            offset += fan_in * fan_out
            b = self.flat[offset:offset + fan_out]
            offset += fan_out
            out.append((w, b))
        return out

    def copy(self) -> "ParamSet":
        return ParamSet(self.spec, self.flat.copy())


def init_params(spec: MlpSpec, rng: np.random.Generator) -> ParamSet:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    params = ParamSet(spec)
    for (w, b), (fan_in, fan_out) in zip(params.layers(), params.dims):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-bound, bound, (fan_in, fan_out))
        b[...] = 0.0
    return params


def forward(spec: MlpSpec, params: ParamSet, Z, training: bool = False,
            rng: np.random.Generator | None = None, out: np.ndarray | None = None):
    """Batched forward pass; returns (outputs, cache for backward).

    With ``training=False`` dropout is disabled and the pass is a pure
    deterministic function of (spec, params, Z). Dropout is inverted:
    surviving activations are scaled by 1/(1-rate) at train time.
    ``out``, if given, is a C-contiguous float64 (n, output_dim) array
    that receives the head outputs and is returned; otherwise a fresh one
    does. The head runs by output columns (:func:`_by_columns`), with the
    same bits as one ``h @ w + b``.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != spec.input_dim:
        raise ShapeMismatch(f"expected (n, {spec.input_dim}) covariates, got {Z.shape}")
    if out is not None and not (out.shape == (Z.shape[0], spec.output_dim)
                                and out.dtype == np.float64 and out.flags.c_contiguous):
        # matmul would cast into such an array, or write it outside BLAS: other bits or a copy
        raise ShapeMismatch(f"out must be a C-contiguous float64 ({Z.shape[0]}, "
                            f"{spec.output_dim}) array, got {out.dtype} {out.shape}")
    use_dropout = training and spec.dropout > 0.0
    if use_dropout and rng is None:
        raise ShapeMismatch("training-mode dropout requires an rng")

    layers = params.layers()
    n_layers = len(layers)
    inputs, relu_masks, drop_masks = [], [], []
    h = Z
    for li, (w, b) in enumerate(layers):
        if li == spec.concat_layer:
            h = np.concatenate([h, Z], axis=1)
        inputs.append(h)
        if li == n_layers - 1:  # linear head
            if out is None:
                out = np.empty((h.shape[0], spec.output_dim))
            _by_columns(partial(_head_columns, h, w, b, out), spec.output_dim, h.size)
            h = out
            relu_masks.append(None)
            drop_masks.append(None)
        else:
            h = np.matmul(h, w)
            h += b
            mask = h > 0.0
            h *= mask
            relu_masks.append(mask)
            if use_dropout:
                keep = rng.random(h.shape) >= spec.dropout
                h *= keep
                h /= 1.0 - spec.dropout
                drop_masks.append(keep)
            else:
                drop_masks.append(None)
    cache = {
        "spec": spec,
        "dims": params.dims,
        "inputs": inputs,
        "relu_masks": relu_masks,
        "drop_masks": drop_masks,
        "weights": [w for w, _ in layers],
        "out_shape": h.shape,
    }
    return h, cache


def backward(cache, grad_outputs) -> np.ndarray:
    """Gradient of a scalar loss w.r.t. every parameter, flat layout.

    ``grad_outputs`` is the loss gradient w.r.t. the forward outputs and
    must match the cached output shape.
    """
    g = np.asarray(grad_outputs, dtype=np.float64)
    if g.shape != cache["out_shape"]:
        raise ShapeMismatch(f"gradient shape {g.shape} does not match cached {cache['out_shape']}")
    spec = cache["spec"]
    dims = cache["dims"]
    grads = np.empty(spec.n_params)  # every cell is written below
    glayers = ParamSet(spec, grads).layers()

    # Only the head sees the caller's array; every g a mask touches below
    # was allocated here, so the masks work in place.
    for li in range(len(dims) - 1, -1, -1):
        if cache["relu_masks"][li] is not None:
            keep = cache["drop_masks"][li]
            if keep is not None:
                g *= keep
                g /= 1.0 - spec.dropout
            g *= cache["relu_masks"][li]
        h_in = cache["inputs"][li]
        layer_grads = partial(_layer_grads, h_in, g, *glayers[li])
        if li == 0:
            if li == len(dims) - 1:  # the head is the whole network: split as forward does
                _by_columns(layer_grads, g.shape[1], h_in.size)
            else:
                layer_grads()
            continue
        # Each product keeps its operands, shapes and layout, so its bits;
        # only the thread that computes it changes.
        g, _ = run_pair(partial(np.matmul, g, cache["weights"][li].T), layer_grads)
        if li == spec.concat_layer:
            # C-ordered, like every other g here: the sums above depend on layout
            g = np.ascontiguousarray(g[:, : dims[li][0] - spec.input_dim])
    return grads


def _by_columns(work, cols, madds_per_col):
    """Run ``work(lo, hi)`` over output columns ``0:cols``: as two halves
    on two threads when each half is a product of more than SPLIT_MADDS
    multiply-adds, else whole, here.

    Each output column is summed from its own operand column in the same
    order whatever columns share the call, so while every call takes the
    blocked kernel the halves give the bits of the whole. The split sits
    on a multiple of 64 columns, and so of every GEMM kernel's column
    tile. Call this only from the calling thread: work already on the
    helper thread would wait on itself.
    """
    mid = cols // 2 // 64 * 64
    if mid * madds_per_col <= SPLIT_MADDS:
        work(0, cols)
    else:
        run_pair(partial(work, 0, mid), partial(work, mid, cols))


def _head_columns(h, w, b, out, lo, hi):
    np.matmul(h, w[:, lo:hi], out=out[:, lo:hi])
    out[:, lo:hi] += b[lo:hi]


def _layer_grads(h_in, g, gw, gb, lo=0, hi=None):
    np.matmul(h_in.T, g[:, lo:hi], out=gw[:, lo:hi])
    np.sum(g[:, lo:hi], axis=0, out=gb[lo:hi])


@dataclass
class OptimState:
    """Adaptive-moment optimizer state and its gradient clip norm."""

    n_params: int
    clip_norm: float
    step_count: int = field(default=0, init=False)
    m: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.m = np.zeros(self.n_params)
        self.v = np.zeros(self.n_params)
        # (half of the update, pass array, entry): one workspace per thread
        self.scratch = np.empty((2, 2, min(self.n_params, ADAM_CHUNK)))


def optimizer_step(params: ParamSet, gradients: np.ndarray, state: OptimState,
                   lr: float) -> None:
    """One adaptive-moment update with bias correction at step size ``lr``.

    The global gradient norm is clipped to ``state.clip_norm`` before the
    update. Params and state are updated in place and ``gradients`` is
    left as given.
    """
    g = np.asarray(gradients, dtype=np.float64)
    if g.shape != params.flat.shape:
        raise ShapeMismatch("gradient/parameter shape mismatch")
    norm = float(np.linalg.norm(g))
    # A finite norm means every entry is finite; scan only when it is not.
    if not np.isfinite(norm) and not np.all(np.isfinite(g)):
        raise NonFiniteGradient("gradients contain NaN or inf")
    clip = np.isfinite(state.clip_norm) and norm > state.clip_norm and norm > 0.0
    state.step_count += 1
    update = partial(_adam, params.flat, g, state, state.clip_norm / norm if clip else None,
                     lr)
    # Every entry is updated on its own, so the halves may run on two threads.
    mid = g.size // 2
    run_pair(partial(update, 0, mid, state.scratch[0]),
             partial(update, mid, g.size, state.scratch[1]))


def _adam(flat, g, state, scale, step_lr, lo, hi, scratch):
    """Adam on entries ``lo:hi``; ``scale`` is the clip factor, or None."""
    t = state.step_count
    # The same operations, in the same order, as m = b1*m + (1-b1)*g,
    # v = b2*v + (1-b2)*g*g and flat -= lr * m_hat / (sqrt(v_hat) + eps);
    # dividing before the lr product would move the last bits. Chunks keep
    # each pass in cache.
    for s in range(lo, hi, ADAM_CHUNK):
        e = min(s + ADAM_CHUNK, hi)
        gc, m, v = g[s:e], state.m[s:e], state.v[s:e]
        a, b = scratch[:, :e - s]
        if scale is not None:
            gc = np.multiply(gc, scale, out=a)
        np.multiply(gc, 1.0 - BETA1, out=b)
        m *= BETA1
        m += b
        np.multiply(gc, 1.0 - BETA2, out=b)
        b *= gc
        v *= BETA2
        v += b
        np.divide(m, 1.0 - BETA1 ** t, out=a)
        a *= step_lr
        np.divide(v, 1.0 - BETA2 ** t, out=b)
        np.sqrt(b, out=b)
        b += EPS
        a /= b
        flat[s:e] -= a


def save_params(params: ParamSet, path) -> None:
    """Plain-text shape header followed by the flat little-endian stream."""
    dims = " ".join(f"{i}x{o}" for i, o in params.dims)
    header = f"{PARAMS_MAGIC}\nlayers {dims}\n\n".encode("ascii")
    write_atomic(path, header + params.flat.astype("<f8").tobytes())


def load_params(path, spec: MlpSpec) -> ParamSet:
    with reading(path):
        raw = Path(path).read_bytes()
        end = raw.find(b"\n\n")
        lines = raw[:end].decode("ascii", errors="replace").splitlines() if end >= 0 else []
        if len(lines) != 2 or lines[0] != PARAMS_MAGIC or not lines[1].startswith("layers"):
            raise ShapeMismatch(f"expected a '{PARAMS_MAGIC}' / 'layers ...' header "
                                "ended by a blank line")
        stored = [tuple(int(v) for v in tok.split("x")) for tok in lines[1].split()[1:]]
        if stored != spec.layer_dims():
            raise ShapeMismatch(f"stored shapes {stored} do not match spec {spec.layer_dims()}")
        body = raw[end + 2:]
        if len(body) != spec.n_params * 8:
            raise ShapeMismatch(f"expected {spec.n_params * 8} parameter bytes "
                                f"({spec.n_params} float64), found {len(body)}")
    return ParamSet(spec, np.frombuffer(body, dtype="<f8").astype(np.float64))
