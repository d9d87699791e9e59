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

from .errors import ArrayError

NORM_EPS = 1e-12
# Adam's fixed hyperparameters; only the step size varies between callers.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Arrays carved from one work buffer start at multiples of this many bytes.
_ALIGN = 64
# Side of the square tiles InfoNCE symmetrises its B x B buffer in.
_TILE = 256
# Elements per block that Adam updates a larger tensor in (256 KiB in float64).
_ADAM_BLOCK = 1 << 15


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
        raise ArrayError(f"expected a 2-d batch, got shape {x.shape}")
    if x.shape[1] != layers[0].in_dim:
        raise ArrayError(
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
    the ReLU masks are carved from ``work``. ``out[i]`` may be the layer's own
    input ``cache[i][0]``, which the call then overwrites: layer i reads its
    input and, for i > 0, takes its ReLU mask before it writes ``out[i]``. No
    ``out[i]`` may share memory with ``out[i + 1]`` or ``d_out``.
    """
    d_z = np.asarray(d_out)
    d_in = d_z
    for i in reversed(range(len(layers))):
        h_in, _ = cache[i]
        np.matmul(d_z.T, h_in, out=grads[2 * i])
        np.sum(d_z, axis=0, out=grads[2 * i + 1])
        if i > 0:
            act = cache[i - 1][1]
            (active,) = carve(work, [(act.shape, np.bool_)])
            np.greater(act, 0.0, out=active)
        weight = layers[i].weight if i > 0 else layers[i].weight[:, :input_cols]
        d_in = np.matmul(d_z, weight, out=None if out is None else out[i])
        if i > 0:
            d_in *= active
            d_z = d_in
    return d_in


def infonce_work(b: int, e: int, dtype: np.dtype) -> list[tuple[tuple[int, ...], type]]:
    """What :func:`infonce_loss` carves from ``work`` for a (b, e) batch computed in
    ``dtype``: the unit rows, one block that holds a (b, b) or a (b, e) array, and
    one square tile of side ``min(b, _TILE)``."""
    return [((b * e,), dtype), ((b * max(b, e),), dtype), ((min(b, _TILE) ** 2,), dtype)]


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
    analytic gradient with respect to ``z``, written into ``out`` when given;
    with ``grad=False`` the gradient is not computed and None comes back in
    its place. A float32 ``z`` is scored and differentiated in float32, any
    other in float64, and the gradient has that dtype. The temporaries are
    carved from ``work`` as :func:`infonce_work` lays them out. ``z`` is only
    read, and only until the unit rows are formed, so ``out`` may be ``z``.
    """
    z = np.asarray(z)
    if z.dtype != np.float32:
        z = np.asarray(z, dtype=np.float64)
    b = z.shape[0]
    if b < 2:
        raise ArrayError(f"contrastive loss needs a batch of >= 2, got {b}")
    pos = np.asarray(pos_index, dtype=np.int64)
    if pos.shape != (b,):
        raise ArrayError(f"pos_index shape {pos.shape} != ({b},)")
    if np.any(pos == np.arange(b)):
        raise ArrayError("a row cannot be its own positive partner")
    if np.any((pos < 0) | (pos >= b)):
        raise ArrayError("pos_index out of range")

    e = z.shape[1]
    unit, block, tile = carve(work, infonce_work(b, e, z.dtype))
    zhat = unit.reshape(b, e)
    # np.linalg.norm(z, axis=1): the square roots of the row sums of z * z.
    norms = np.sqrt(np.add.reduce(np.multiply(z, z, out=block[: b * e].reshape(b, e)), axis=1))
    degenerate = norms < NORM_EPS
    safe = np.where(degenerate, 1.0, norms)
    np.divide(z, safe[:, None], out=zhat)
    zhat[degenerate] = 0.0

    # One B x B buffer holds the logits, then their exponentials, the
    # softmax and finally the symmetrised gradient coefficients.
    rows = np.arange(b)
    buf = np.matmul(zhat, zhat.T, out=block[: b * b].reshape(b, b))
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
    # buf + buf.T in place, tile by tile: one strided pass over the whole
    # transpose reads a column per written row and took 2.5x as long at B=1024.
    # An upper tile takes the sum and its mirror a copy of it, which has the
    # same bits; a diagonal tile adds its transpose through ``tile``.
    for i in range(0, b, _TILE):
        diagonal = buf[i : i + _TILE, i : i + _TILE]
        flipped = tile[: diagonal.size].reshape(diagonal.shape)
        np.copyto(flipped, diagonal.T)
        diagonal += flipped
        for j in range(i + _TILE, b, _TILE):
            upper, lower = buf[i : i + _TILE, j : j + _TILE], buf[j : j + _TILE, i : i + _TILE]
            np.add(upper, lower.T, out=upper)
            np.copyto(lower, upper.T)

    d_z = np.matmul(buf, zhat, out=out)
    # ``buf`` is dead once the product has read it.
    inner = np.multiply(d_z, zhat, out=block[: b * e].reshape(b, e)).sum(axis=1, keepdims=True)
    zhat *= inner
    d_z -= zhat
    d_z /= safe[:, None]
    d_z[degenerate] = 0.0
    return loss, d_z


@dataclass
class AdamState:
    """Gradient buffers and Adam moments laid out like one tensor list, the step count and lr.

    The gradients may be views of a buffer the caller reuses between steps
    (:meth:`for_params` takes them); :func:`adam_step` only reads them.

    ``scratch`` maps each dtype to two rows, each as long as the largest tensor
    of that dtype or ``_ADAM_BLOCK``, whichever is shorter, which :func:`adam_step`
    computes in; ``views`` keeps the views of them it took, by (dtype, shape).
    """

    grads: list[np.ndarray]
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int
    lr: float
    scratch: dict[np.dtype, np.ndarray] = field(default_factory=dict)
    views: dict[tuple, tuple[np.ndarray, ...]] = field(default_factory=dict)

    @classmethod
    def for_params(
        cls, params: list[np.ndarray], lr: float, *, grads: list[np.ndarray] | None = None
    ) -> "AdamState":
        """Step 0 with zero moments for ``params``; the gradient buffers are ``grads``,
        laid out like ``params``, when given, else zeros of their own."""
        sizes: dict[np.dtype, int] = {}
        for p in params:
            sizes[p.dtype] = max(sizes.get(p.dtype, 0), min(p.size, _ADAM_BLOCK))
        return cls(
            grads=[np.zeros_like(p) for p in params] if grads is None else grads,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            t=0,
            lr=lr,
            scratch={dtype: np.empty((2, size), dtype) for dtype, size in sizes.items()},
        )


def _scratch(state: AdamState, dtype: np.dtype, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Flags and two arrays of ``dtype`` and ``shape`` over the state's scratch rows of
    ``dtype``. The flags share the first row."""
    views = state.views.get((dtype, shape))
    if views is None:
        n = math.prod(shape)
        rows = state.scratch[dtype]
        flags = rows[0].view(np.bool_)[:n]
        views = state.views[(dtype, shape)] = tuple(a.reshape(shape) for a in (flags, *rows[:, :n]))
    return views


def _blocks(*arrays: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """``arrays``, C-contiguous and of one shape, as they are when they fit in one
    ``_ADAM_BLOCK``; else the same ``_ADAM_BLOCK``-long slices of their flat views."""
    size = arrays[0].size
    if size <= _ADAM_BLOCK:
        return [arrays]
    flat = [a.reshape(-1) for a in arrays]
    return [tuple(a[at : at + _ADAM_BLOCK] for a in flat) for at in range(0, size, _ADAM_BLOCK)]


def adam_step(params: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update from the gradients in ``state.grads``,
    applied in place to ``params``, ``state.m`` and ``state.v``, with the
    ``ADAM_*`` constants. A tensor longer than ``_ADAM_BLOCK`` elements is
    updated one block of its flat view at a time; every operation is
    elementwise, so the bits are those of one pass over the whole tensor.

    Raises :class:`ArrayError`, before any update, on a gradient whose
    shape or dtype is not its parameter's or that is not finite, and on a
    tensor longer than one block that is not C-contiguous.
    Deterministic: identical inputs and state produce bitwise-identical results.
    """
    if len(params) != len(state.grads) or len(params) != len(state.m):
        raise ArrayError("parameter, gradient, and state lists disagree in length")
    for p, g, m, v in zip(params, state.grads, state.m, state.v):
        if p.shape != g.shape:
            raise ArrayError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if p.dtype != g.dtype:
            raise ArrayError(f"gradient dtype {g.dtype} != parameter dtype {p.dtype}")
        if g.size > _ADAM_BLOCK and not all(a.flags.c_contiguous for a in (p, g, m, v)):
            raise ArrayError(f"a tensor of {g.size} elements must be C-contiguous")
        for (block,) in _blocks(g):
            if not np.isfinite(block, out=_scratch(state, g.dtype, block.shape)[0]).all():
                raise ArrayError("non-finite gradient")

    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for tensors in zip(params, state.grads, state.m, state.v):
        for p, g, m, v in _blocks(*tensors):
            # The operations of ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`` and
            # the moment updates, in their order, on the two scratch arrays ``work``
            # (which later holds the denominator) and ``step``.
            _, work, step = _scratch(state, g.dtype, g.shape)
            np.multiply(g, 1.0 - ADAM_BETA1, out=work)
            m *= ADAM_BETA1
            m += work
            np.square(g, out=work)
            work *= 1.0 - ADAM_BETA2
            v *= ADAM_BETA2
            v += work
            np.divide(m, bc1, out=step)
            step *= state.lr
            np.divide(v, bc2, out=work)
            np.sqrt(work, out=work)
            work += ADAM_EPS
            step /= work
            p -= step
