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

from .errors import NonFiniteGradient, ShapeMismatch, StaleCache
from .numerics import SeededRng, run_pair

PARAMS_MAGIC = "CDGM-PARAMS-1"
ADAM_CHUNK = 65536  # optimizer entries updated per pass: 512 KiB per array


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
            raise ShapeMismatch(f"dropout must be in [0, 1), got {self.dropout}")
        if any(h <= 0 for h in self.block1) or any(h <= 0 for h in self.block2):
            raise ShapeMismatch("hidden sizes must be positive")
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


def init_params(spec: MlpSpec, rng: SeededRng) -> ParamSet:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    params = ParamSet(spec)
    for (w, b), (fan_in, fan_out) in zip(params.layers(), params.dims):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.generator.uniform(-bound, bound, (fan_in, fan_out))
        b[...] = 0.0
    return params


def forward(spec: MlpSpec, params: ParamSet, Z, training: bool = False,
            rng: SeededRng | None = None):
    """Batched forward pass; returns (outputs, cache for backward).

    With ``training=False`` dropout is disabled and the pass is a pure
    deterministic function of (spec, params, Z). Dropout is inverted:
    surviving activations are scaled by 1/(1-rate) at train time.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != spec.input_dim:
        raise ShapeMismatch(f"expected (n, {spec.input_dim}) covariates, got {Z.shape}")
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
        h = h @ w
        h += b
        if li == n_layers - 1:  # linear head
            relu_masks.append(None)
            drop_masks.append(None)
        else:
            mask = h > 0.0
            h *= mask
            relu_masks.append(mask)
            if use_dropout:
                keep = rng.generator.random(h.shape) >= spec.dropout
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
        raise StaleCache(f"gradient shape {g.shape} does not match cached {cache['out_shape']}")
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
        layer_grads = partial(_layer_grads, cache["inputs"][li], g, *glayers[li])
        if li == 0:
            layer_grads()
            continue
        # Each product keeps its operands, shapes and layout, so its bits;
        # only the thread that computes it changes.
        g, _ = run_pair(partial(np.matmul, g, cache["weights"][li].T), layer_grads)
        if li == spec.concat_layer:
            # C-ordered, like every other g here: the sums above depend on layout
            g = np.ascontiguousarray(g[:, : dims[li][0] - spec.input_dim])
    return grads


def _layer_grads(h_in, g, gw, gb):
    np.matmul(h_in.T, g, out=gw)
    np.sum(g, axis=0, out=gb)


@dataclass
class OptimState:
    """Adaptive-moment optimizer state plus step-decay schedule constants."""

    base_lr: float
    n_params: int
    clip_norm: float = 1.0
    lr_step: int = 20
    lr_decay: float = 0.25
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: np.ndarray = field(default=None, repr=False)
    v: np.ndarray = field(default=None, repr=False)
    scratch: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.m is None:
            self.m = np.zeros(self.n_params)
        if self.v is None:
            self.v = np.zeros(self.n_params)
        # (half of the update, pass array, entry): one workspace per thread
        self.scratch = np.empty((2, 2, min(self.n_params, ADAM_CHUNK)))


def scheduled_lr(state: OptimState, epoch: int) -> float:
    """Step decay: base * decay^floor(epoch / step)."""
    if epoch < 0:
        raise ShapeMismatch("epoch must be >= 0")
    return state.base_lr * state.lr_decay ** (epoch // state.lr_step)


def optimizer_step(params: ParamSet, gradients: np.ndarray, state: OptimState,
                   lr: float | None = None) -> tuple[ParamSet, OptimState]:
    """One adaptive-moment update with bias correction.

    The global gradient norm is clipped to ``state.clip_norm`` before the
    update. Updates happen in place and ``gradients`` is left as given;
    params and state are returned for call-site clarity.
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
    step_lr = state.base_lr if lr is None else lr
    update = partial(_adam, params.flat, g, state, state.clip_norm / norm if clip else None,
                     step_lr)
    # Every entry is updated on its own, so the halves may run on two threads.
    mid = g.size // 2
    run_pair(partial(update, 0, mid, state.scratch[0]),
             partial(update, mid, g.size, state.scratch[1]))
    return params, state


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
        np.multiply(gc, 1.0 - state.beta1, out=b)
        m *= state.beta1
        m += b
        np.multiply(gc, 1.0 - state.beta2, out=b)
        b *= gc
        v *= state.beta2
        v += b
        np.divide(m, 1.0 - state.beta1 ** t, out=a)
        a *= step_lr
        np.divide(v, 1.0 - state.beta2 ** t, out=b)
        np.sqrt(b, out=b)
        b += state.eps
        a /= b
        flat[s:e] -= a


def save_params(params: ParamSet, path) -> None:
    """Plain-text shape header followed by the flat little-endian stream."""
    dims = " ".join(f"{i}x{o}" for i, o in params.dims)
    header = f"{PARAMS_MAGIC}\nlayers {dims}\n\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(params.flat.astype("<f8").tobytes())


def load_params(path, spec: MlpSpec) -> ParamSet:
    raw = Path(path).read_bytes()
    end = raw.find(b"\n\n")
    lines = raw[:end].decode("ascii", errors="replace").splitlines() if end >= 0 else []
    if len(lines) != 2 or lines[0] != PARAMS_MAGIC or not lines[1].startswith("layers"):
        raise ShapeMismatch(f"{path}: expected a '{PARAMS_MAGIC}' / 'layers ...' header "
                            "ended by a blank line")
    try:
        stored = [tuple(int(v) for v in tok.split("x")) for tok in lines[1].split()[1:]]
    except ValueError:
        raise ShapeMismatch(f"{path}: unreadable layer shapes {lines[1]!r}") from None
    if stored != spec.layer_dims():
        raise ShapeMismatch(f"{path}: stored shapes {stored} do not match spec "
                            f"{spec.layer_dims()}")
    body = raw[end + 2:]
    if len(body) != spec.n_params * 8:
        raise ShapeMismatch(f"{path}: expected {spec.n_params * 8} parameter bytes "
                            f"({spec.n_params} float64), found {len(body)}")
    return ParamSet(spec, np.frombuffer(body, dtype="<f8").astype(np.float64))
