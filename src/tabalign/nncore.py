"""Dense network kernel: ReLU MLPs, the contrastive alignment loss, and Adam.

All gradients are hand-derived for this fixed architecture. Matrices are
row-major with one sample per row; a layer computes ``x @ W.T + b``.

Kernels take their outputs (``out=``) and temporaries (``work=``, a flat byte
buffer that :func:`carve` lays arrays over) from the caller; without them they
allocate. Either way they run the same operations in the same order.
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
# Arrays carved from one work buffer start at multiples of this many bytes.
_ALIGN = 64
# Side of the square tiles InfoNCE copies its transposed buffer in.
_TILE = 256


def _offsets(specs: list[tuple[tuple[int, ...], type]]) -> tuple[list[int], int]:
    """Byte offset of each (shape, dtype) laid end to end at ``_ALIGN`` boundaries, and the end."""
    offsets, end = [], 0
    for shape, dtype in specs:
        offsets.append(end)
        end += -(-math.prod(shape) * np.dtype(dtype).itemsize // _ALIGN) * _ALIGN
    return offsets, end


def work_bytes(specs: list[tuple[tuple[int, ...], type]]) -> int:
    """Bytes a work buffer needs to :func:`carve` ``specs``."""
    return _offsets(specs)[1]


def carve(work: np.ndarray | None, specs: list[tuple[tuple[int, ...], type]]) -> list[np.ndarray]:
    """One C-contiguous array per (shape, dtype) of ``specs``, laid end to end over the
    bytes of the flat uint8 array ``work``; fresh arrays when ``work`` is None."""
    if work is None:
        return [np.empty(shape, dtype) for shape, dtype in specs]
    offsets, end = _offsets(specs)
    if end > work.nbytes:
        raise ValueError(f"work buffer of {work.nbytes} bytes is short of {end}")
    return [
        work[at : at + math.prod(shape) * np.dtype(dtype).itemsize].view(dtype).reshape(shape)
        for (shape, dtype), at in zip(specs, offsets)
    ]


@dataclass
class DenseLayer:
    """Affine layer parameters; their gradients live in the training run's :class:`AdamState`."""

    weight: np.ndarray
    bias: np.ndarray

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
    weight = rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(dtype, copy=False)
    bias = rng.uniform(-bound, bound, size=fan_out).astype(dtype, copy=False)
    return DenseLayer(weight=weight, bias=bias)


def mlp_forward(
    layers: list[DenseLayer], x: np.ndarray, *, out: list[np.ndarray] | None = None
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Forward pass with ReLU between layers (none after the last).

    Returns the output and a cache of (input, activation) per layer for
    :func:`mlp_backward`. Layer i writes one array, ``out[i]`` when given: the
    bias add and the ReLU run in place on its pre-activation, so a hidden
    layer's activation is also the next layer's input. ``max(z, 0) > 0``
    exactly when ``z > 0``, so the activation serves as the backward ReLU mask.
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
        z = np.matmul(h, layer.weight.T, out=None if out is None else out[i])
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
    grads: list[np.ndarray],
    *,
    input_cols: int | None = None,
    out: list[np.ndarray | None] | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Backpropagate, writing layer i's gradients into ``grads[2 * i]`` and ``grads[2 * i + 1]``.

    Returns the gradient with respect to the first ``input_cols`` columns of
    the network input (all of them when None, an empty array when 0); the
    other columns are not computed. ``d_out`` is only read. The gradient with
    respect to layer i's input goes into ``out[i]`` when that is given, and
    the ReLU masks are carved from ``work``; no ``out[i]`` may share memory
    with ``out[i + 1]`` or ``d_out``.
    """
    d_z = np.asarray(d_out)
    d_in = d_z
    for i in reversed(range(len(layers))):
        h_in, _ = cache[i]
        np.matmul(d_z.T, h_in, out=grads[2 * i])
        np.sum(d_z, axis=0, out=grads[2 * i + 1])
        weight = layers[i].weight if i > 0 else layers[i].weight[:, :input_cols]
        d_in = np.matmul(d_z, weight, out=None if out is None else out[i])
        if i > 0:
            act = cache[i - 1][1]
            (active,) = carve(work, [(act.shape, np.bool_)])
            d_in *= np.greater(act, 0.0, out=active)
            d_z = d_in
    return d_in


def infonce_work(b: int, e: int) -> list[tuple[tuple[int, ...], type]]:
    """What :func:`infonce_loss` carves from ``work`` for a (b, e) batch: the float64
    unit rows, then two float64 blocks that each hold a (b, b) or a (b, e) array."""
    side = b * max(b, e)
    return [((b * e,), np.float64), ((side,), np.float64), ((side,), np.float64)]


def infonce_loss(
    z: np.ndarray,
    pos_index: np.ndarray,
    temperature: float = 0.1,
    *,
    grad: bool = True,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None]:
    """Contrastive alignment loss over a batch of projected embeddings.

    Per row i the loss is
    ``-log( exp(s(z_i, z_pos(i)) / t) / sum_{a != i} exp(s(z_i, z_a) / t) )``
    with s = cosine similarity; the denominator runs over all other batch
    rows including the positive. Returns the mean loss and the exact
    analytic float64 gradient with respect to ``z``, written into ``out``
    when given; with ``grad=False`` the gradient is not computed and None
    comes back in its place. The temporaries are carved from ``work`` as
    :func:`infonce_work` lays them out; ``z`` is only read.
    """
    z = np.asarray(z)
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

    e = z.shape[1]
    unit, first, second = carve(work, infonce_work(b, e))
    zhat = unit.reshape(b, e)
    if z.dtype != np.float64:
        np.copyto(zhat, z)
        z = zhat
    # np.linalg.norm(z, axis=1): the square roots of the row sums of z * z.
    norms = np.sqrt(np.add.reduce(np.multiply(z, z, out=first[: b * e].reshape(b, e)), axis=1))
    degenerate = norms < NORM_EPS
    safe = np.where(degenerate, 1.0, norms)
    np.divide(z, safe[:, None], out=zhat)
    zhat[degenerate] = 0.0

    # One B x B buffer holds the logits, then their exponentials, the
    # softmax and finally the symmetrised gradient coefficients.
    rows = np.arange(b)
    buf = np.matmul(zhat, zhat.T, out=first[: b * b].reshape(b, b))
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
    if not grad:
        return loss, None

    buf /= denom[:, None]
    buf /= temperature * b
    buf[rows, pos] -= 1.0 / (temperature * b)
    np.fill_diagonal(buf, 0.0)
    transposed = second[: b * b].reshape(b, b)
    # Tile by tile: one strided copy of the whole transpose reads a column per
    # written row and took 2.5x as long at B=1024.
    for i in range(0, b, _TILE):
        for j in range(0, b, _TILE):
            np.copyto(transposed[i : i + _TILE, j : j + _TILE], buf[j : j + _TILE, i : i + _TILE].T)
    buf += transposed

    d_z = np.matmul(buf, zhat, out=out)
    inner = np.multiply(d_z, zhat, out=second[: b * e].reshape(b, e)).sum(axis=1, keepdims=True)
    zhat *= inner
    d_z -= zhat
    d_z /= safe[:, None]
    d_z[degenerate] = 0.0
    return loss, d_z


@dataclass
class AdamState:
    """Gradient buffers and Adam moments laid out like one tensor list, the step count and lr.

    ``scratch`` maps each dtype to two rows, each as long as the largest tensor
    of that dtype, which :func:`adam_step` computes in; ``views`` keeps the
    views of them it took, by (dtype, shape).
    """

    grads: list[np.ndarray]
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int
    lr: float
    scratch: dict[np.dtype, np.ndarray] = field(default_factory=dict)
    views: dict[tuple, tuple[np.ndarray, ...]] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float) -> "AdamState":
        sizes: dict[np.dtype, int] = {}
        for p in params:
            sizes[p.dtype] = max(sizes.get(p.dtype, 0), p.size)
        return cls(
            grads=[np.zeros_like(p) for p in params],
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            t=0,
            lr=lr,
            scratch={dtype: np.empty((2, size), dtype) for dtype, size in sizes.items()},
        )


def _scratch(state: AdamState, dtype: np.dtype, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Flags and two arrays of ``dtype`` and ``shape`` over the state's scratch rows of
    ``dtype``, which are made or grown on first use. The flags share the first row."""
    views = state.views.get((dtype, shape))
    if views is None:
        n = math.prod(shape)
        rows = state.scratch.get(dtype)
        if rows is None or rows.shape[1] < n:
            rows = state.scratch[dtype] = np.empty((2, n), dtype)
        flags = rows[0].view(np.bool_)[:n]
        views = state.views[(dtype, shape)] = tuple(a.reshape(shape) for a in (flags, *rows[:, :n]))
    return views


def adam_step(params: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update from the gradients in ``state.grads``,
    applied in place to ``params``, ``state.m`` and ``state.v``, with the
    ``ADAM_*`` constants.

    Fails fast on non-finite gradients. Deterministic: identical inputs and
    state produce bitwise-identical results.
    """
    if len(params) != len(state.grads) or len(params) != len(state.m):
        raise OptimizerError("parameter, gradient, and state lists disagree in length")
    for p, g in zip(params, state.grads):
        if p.shape != g.shape:
            raise OptimizerError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if not np.isfinite(g, out=_scratch(state, g.dtype, g.shape)[0]).all():
            raise OptimizerError("non-finite gradient")

    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, m, v in zip(params, state.grads, state.m, state.v):
        # The operations of ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`` and
        # the moment updates, in their order, on scratch: ``work`` (the
        # gradient's dtype), ``step`` and ``denom`` (the moments' dtype; when
        # the dtypes agree, ``denom`` is ``work``).
        _, work, step = _scratch(state, g.dtype, g.shape)
        denom = work
        if m.dtype != g.dtype:
            _, denom, step = _scratch(state, m.dtype, m.shape)
        np.multiply(g, 1.0 - ADAM_BETA1, out=work)
        m *= ADAM_BETA1
        m += work
        np.square(g, out=work)
        work *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += work
        np.divide(m, bc1, out=step)
        step *= state.lr
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        p -= step
