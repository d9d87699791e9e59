"""Dense network kernel: ReLU MLPs, the contrastive alignment loss, and Adam.

All gradients are hand-derived for this fixed architecture. Matrices are
row-major with one sample per row; a layer computes ``x @ W.T + b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, LossError, OptimizerError

NORM_EPS = 1e-12
# Adam's fixed hyperparameters; only the step size varies between callers.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class DenseLayer:
    """Affine layer parameters with matching gradient buffers."""

    weight: np.ndarray
    bias: np.ndarray
    grad_weight: np.ndarray = field(init=False)
    grad_bias: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    @property
    def in_dim(self) -> int:
        return int(self.weight.shape[1])

    @property
    def out_dim(self) -> int:
        return int(self.weight.shape[0])


def init_layer(
    fan_in: int,
    fan_out: int,
    rng: np.random.Generator,
    dtype: np.dtype = np.float64,
) -> DenseLayer:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization."""
    bound = 1.0 / math.sqrt(fan_in)
    weight = rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(dtype)
    bias = rng.uniform(-bound, bound, size=fan_out).astype(dtype)
    return DenseLayer(weight=weight, bias=bias)


def mlp_forward(
    layers: list[DenseLayer], x: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Forward pass with ReLU between layers (none after the last).

    Returns the output and a cache of (input, activation) per layer for
    :func:`mlp_backward`. Each layer allocates one array: the bias add and the
    ReLU run in place on its pre-activation, so a hidden layer's activation is
    also the next layer's input. ``max(z, 0) > 0`` exactly when ``z > 0``, so
    the activation serves as the backward ReLU mask.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise DimensionError(f"expected a 2-d batch, got shape {x.shape}")
    if x.shape[1] != layers[0].in_dim:
        raise DimensionError(
            f"input width {x.shape[1]} != first layer in_dim {layers[0].in_dim}"
        )
    cache: list[tuple[np.ndarray, np.ndarray]] = []
    h = x
    for i, layer in enumerate(layers):
        z = h @ layer.weight.T
        z += layer.bias
        if i < len(layers) - 1:
            np.maximum(z, 0.0, out=z)
        cache.append((h, z))
        h = z
    return h, cache


def mlp_backward(
    layers: list[DenseLayer],
    cache: list[tuple[np.ndarray, np.ndarray]],
    d_out: np.ndarray,
) -> np.ndarray:
    """Backpropagate through the stack, writing each layer's gradient buffers in place.

    Returns the gradient with respect to the network input; ``d_out`` is
    only read.
    """
    d_z = np.asarray(d_out)
    d_in = d_z
    for i in reversed(range(len(layers))):
        h_in, _ = cache[i]
        np.matmul(d_z.T, h_in, out=layers[i].grad_weight)
        np.sum(d_z, axis=0, out=layers[i].grad_bias)
        d_in = d_z @ layers[i].weight
        if i > 0:
            d_in *= cache[i - 1][1] > 0.0
            d_z = d_in
    return d_in


def infonce_loss(
    z: np.ndarray,
    pos_index: np.ndarray,
    temperature: float = 0.1,
) -> tuple[float, np.ndarray]:
    """Contrastive alignment loss over a batch of projected embeddings.

    Per row i the loss is
    ``-log( exp(s(z_i, z_pos(i)) / t) / sum_{a != i} exp(s(z_i, z_a) / t) )``
    with s = cosine similarity; the denominator runs over all other batch
    rows including the positive. Returns the mean loss and the exact
    analytic gradient with respect to ``z``.
    """
    z = np.asarray(z, dtype=np.float64)
    b = z.shape[0]
    if b < 2:
        raise LossError(f"contrastive loss needs a batch of >= 2, got {b}")
    pos = np.asarray(pos_index, dtype=np.int64)
    if pos.shape != (b,):
        raise LossError(f"pos_index shape {pos.shape} != ({b},)")
    if np.any(pos == np.arange(b)):
        raise LossError("a row cannot be its own positive partner")
    if np.any((pos < 0) | (pos >= b)):
        raise LossError("pos_index out of range")

    norms = np.linalg.norm(z, axis=1)
    degenerate = norms < NORM_EPS
    safe = np.where(degenerate, 1.0, norms)
    zhat = z / safe[:, None]
    zhat[degenerate] = 0.0

    # One B x B buffer holds the logits, then their exponentials, the
    # softmax and finally the symmetrised gradient coefficients.
    rows = np.arange(b)
    buf = zhat @ zhat.T
    buf /= temperature
    np.fill_diagonal(buf, -np.inf)
    row_max = buf.max(axis=1)
    pos_logits = buf[rows, pos]
    buf -= row_max[:, None]
    np.exp(buf, out=buf)
    np.fill_diagonal(buf, 0.0)
    denom = buf.sum(axis=1)
    losses = -(pos_logits - row_max) + np.log(denom)
    loss = float(losses.mean())

    buf /= denom[:, None]
    buf /= temperature * b
    buf[rows, pos] -= 1.0 / (temperature * b)
    np.fill_diagonal(buf, 0.0)
    buf += buf.T.copy()

    d_z = buf @ zhat
    inner = (d_z * zhat).sum(axis=1, keepdims=True)
    zhat *= inner
    d_z -= zhat
    d_z /= safe[:, None]
    d_z[degenerate] = 0.0
    return loss, d_z


@dataclass
class AdamState:
    """First/second-moment accumulators and step counter for one tensor list."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int
    lr: float

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            t=0,
            lr=lr,
        )


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
) -> None:
    """One bias-corrected Adam update, applied in place to ``params``,
    ``state.m`` and ``state.v``, with the ``ADAM_*`` constants.

    Fails fast on non-finite gradients. Deterministic: identical inputs and
    state produce bitwise-identical results.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise OptimizerError("parameter, gradient, and state lists disagree in length")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise OptimizerError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise OptimizerError("non-finite gradient")

    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        # The operations of ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`` and
        # the moment updates, in their order, on two temporaries: ``work``
        # (the gradient's dtype) and ``step`` (the moments' dtype).
        work = g * (1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += work
        np.square(g, out=work)
        work *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += work
        step = m / bc1
        step *= state.lr
        denom = np.divide(v, bc2, out=work) if work.dtype == v.dtype else v / bc2
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        p -= step
