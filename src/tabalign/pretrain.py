"""Self-supervised pretraining loop.

Each step samples one separation mask for the batch, splits rows into
feature/target views, pairs every row with its nearest neighbor in target
space, and pulls the paired feature-view projections together under the
contrastive alignment loss. An ensemble trains one independent stack per
separation ratio.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrainingError, check_fields
from .nncore import (
    AdamState,
    DenseLayer,
    adam_step,
    infonce_loss,
    init_layer,
    mlp_backward,
    mlp_forward,
)
from .preprocess import Preprocessor, make_views, make_views_marginal, sample_mask

RATIO_RANDOM = "random"
# The standard ensemble, and the ratios a "random" member draws from per batch.
DEFAULT_RATIOS = (0.1, 0.2, 0.3, 0.4, 0.5)

_DTYPES = {"float64": np.float64, "float32": np.float32}
_CHOICES = {"imputation": ("zero", "marginal"), "dtype": _DTYPES}
# The smallest value of each integer setting; a batch of 1 has no neighbour to pair with.
_LEAST = dict(max_epochs=1, batch_size=2, patience=0, hidden_dim=1, embed_dim=1, projector_dim=1)


@dataclass
class PretrainConfig:
    """Training hyperparameters; defaults follow the standard recipe.

    Raises :class:`ConfigError` on a value not of its field's type, an unknown
    ``imputation`` or ``dtype``, an int below its ``_LEAST`` value, and unless
    ``temperature`` and ``learning_rate`` are finite and positive.
    """

    max_epochs: int = 10000
    batch_size: int = 1024
    learning_rate: float = 0.001
    patience: int = 100
    hidden_dim: int = 1024
    embed_dim: int = 256
    projector_dim: int = 256
    temperature: float = 0.1
    conditioned: bool = True
    imputation: str = "zero"
    dtype: str = "float64"

    def __post_init__(self) -> None:
        check_fields(self, ConfigError, _LEAST, _CHOICES)
        for name in ("temperature", "learning_rate"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")

    def numpy_dtype(self) -> np.dtype:
        return _DTYPES[self.dtype]


@dataclass
class EncoderStack:
    """Encoder + conditioned projector: parameters only.

    The projector input is the encoder output concatenated with the encoded
    mask vector (width ``embed_dim + encoded_dim``) unless conditioning is
    disabled. A training run (:func:`pretrain`) owns gradients and optimizer state.
    """

    encoder: list[DenseLayer]
    projector: list[DenseLayer]
    ratio: float | str
    seed: int
    cfg: PretrainConfig = field(default_factory=PretrainConfig)

    @property
    def encoded_dim(self) -> int:
        return self.encoder[0].in_dim

    @property
    def embed_dim(self) -> int:
        return self.encoder[-1].out_dim

    @property
    def conditioned(self) -> bool:
        return self.projector[0].in_dim == self.embed_dim + self.encoded_dim

    def parameters(self) -> list[np.ndarray]:
        """All trainable tensors in checkpoint order."""
        out: list[np.ndarray] = []
        for layer in self.encoder + self.projector:
            out.extend([layer.weight, layer.bias])
        return out


@dataclass
class PretrainReport:
    """Per-epoch loss curves and the stopping summary of one training run."""

    train_losses: list[float]
    valid_losses: list[float]
    stopped_epoch: int
    best_epoch: int
    best_validation_loss: float
    wall_seconds: float


def layer_shapes(encoded_dim: int, cfg: PretrainConfig) -> list[tuple[int, int]]:
    """(fan_in, fan_out) of encoder layers 1 and 2, then projector layers 1 and 2."""
    proj_in = cfg.embed_dim + (encoded_dim if cfg.conditioned else 0)
    return [
        (encoded_dim, cfg.hidden_dim),
        (cfg.hidden_dim, cfg.embed_dim),
        (proj_in, cfg.hidden_dim),
        (cfg.hidden_dim, cfg.projector_dim),
    ]


def parse_ratio(ratio: float | str) -> float | str:
    """``"random"``, or ``ratio`` as a float in (0, 1); raises ``ValueError`` otherwise."""
    if ratio == RATIO_RANDOM:
        return RATIO_RANDOM
    if not 0.0 < float(ratio) < 1.0:
        raise ValueError(f"separation ratio must be in (0, 1) or {RATIO_RANDOM!r}, got {ratio!r}")
    return float(ratio)


def init_stack(
    encoded_dim: int,
    ratio: float | str,
    seed: int,
    cfg: PretrainConfig | None = None,
) -> EncoderStack:
    """Build a freshly initialized stack with its own seeded parameter draw."""
    cfg = cfg or PretrainConfig()
    ratio = parse_ratio(ratio)
    dtype = cfg.numpy_dtype()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    layers = [init_layer(n_in, n_out, rng, dtype) for n_in, n_out in layer_shapes(encoded_dim, cfg)]
    return EncoderStack(encoder=layers[:2], projector=layers[2:], ratio=ratio, seed=seed, cfg=cfg)


# Elements per Gram block (8 MB in float64): a batch of 1024 is one block.
_BLOCK_ELEMENTS = 1 << 20


def nearest_neighbors(points: np.ndarray, k: int, queries: np.ndarray | None = None) -> np.ndarray:
    """Indices of the k nearest points of each query row, nearest first, as (n_queries, k).

    Distance is the exact ``np.square(points[j] - q).sum()`` of finite rows, in the points'
    dtype; ties go to the smallest index. Without ``queries`` each point queries the others.
    """
    points = np.asarray(points)
    self_search = queries is None
    queries = points if self_search else np.asarray(queries, dtype=points.dtype)
    n, d = points.shape
    if not 1 <= k <= n - self_search:
        raise ValueError(f"k={k} is out of range for {n} points")
    # Gram distances |q|^2 - 2 q.p + |p|^2 of centered rows pick candidates.
    # With u = eps/2, the three length-d sums err by d*u (|q| + |p|)^2 in all,
    # the two additions and the centering by 4u of that, and the exact
    # expression by (d + 2)u of its value, at most that same square. Gram and
    # exact thus differ by under (2d + 8)u (|q| + max |p|)^2 = slack / 2 (2u
    # spare for rounded norms), so rows exactly as near as the k-th best have
    # Gram distance within kth + slack; only those are scored exactly.
    center = points.mean(axis=0)
    p, q = points - center, queries - center
    sq_p, sq_q = np.einsum("ij,ij->i", p, p), np.einsum("ij,ij->i", q, q)
    slack = (2 * d + 8) * np.finfo(points.dtype).eps * (np.sqrt(sq_q) + np.sqrt(sq_p.max())) ** 2

    out = [np.empty((0, k), dtype=np.int64)]
    block, step = max(1, _BLOCK_ELEMENTS // n), max(1, _BLOCK_ELEMENTS // max(d, 1))
    for start in range(0, len(q), block):
        g = q[start : start + block] @ (-2.0 * p.T)
        g += sq_q[start : start + block, None]
        g += sq_p
        if self_search:
            np.fill_diagonal(g[:, start:], np.inf)
        kth = g.min(axis=1) if k == 1 else np.partition(g, k - 1, axis=1)[:, k - 1]
        rows, cols = np.nonzero(g <= (kth + slack[start : start + block])[:, None])
        exact = np.empty(len(rows), dtype=points.dtype)
        for s in range(0, len(rows), step):
            r, c = rows[s : s + step] + start, cols[s : s + step]
            exact[s : s + step] = np.square(points[c] - queries[r]).sum(axis=1)
        # Candidates come in (row, index) order, which the stable sort keeps for ties.
        order = np.lexsort((exact, rows))
        first = np.searchsorted(rows, np.arange(len(g)))
        out.append(cols[order[first[:, None] + np.arange(k)]])
    return np.concatenate(out)


def nearest_neighbor_indices(t: np.ndarray) -> np.ndarray:
    """Nearest neighbor of every row (O(B^2) exact search, ties to smallest index)."""
    if len(t) < 2:
        raise TrainingError("nearest-neighbor search needs a batch of >= 2")
    return nearest_neighbors(t, 1)[:, 0]


def _batch_views(
    stack: EncoderStack,
    batch: np.ndarray,
    pp: Preprocessor,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample this batch's mask and build both views under the imputation policy."""
    ratio = stack.ratio
    if ratio == RATIO_RANDOM:
        ratio = float(rng.choice(DEFAULT_RATIOS))
    mask = sample_mask(pp, float(ratio), rng)
    if stack.cfg.imputation == "marginal":
        x_f, x_t = make_views_marginal(batch, mask, pp, rng)
    else:
        x_f, x_t = make_views(batch, mask)
    return x_f, x_t, mask.encoded_mask


def composite_loss(
    stack: EncoderStack,
    x_f: np.ndarray,
    mask_vec: np.ndarray,
    pos: np.ndarray,
    grads: list[np.ndarray] | None = None,
) -> float:
    """Contrastive loss of encoder -> conditioned projector on fixed views.

    ``pos`` names each row's positive partner. With ``grads``, laid out like
    ``stack.parameters()``, the full analytic parameter gradient lands in it.
    """
    dtype = stack.cfg.numpy_dtype()
    h, enc_cache = mlp_forward(stack.encoder, np.asarray(x_f, dtype=dtype))
    if stack.conditioned:
        cond = np.broadcast_to(mask_vec.astype(dtype), (h.shape[0], mask_vec.shape[0]))
        proj_in = np.concatenate([h, cond], axis=1)
    else:
        proj_in = h
    z, proj_cache = mlp_forward(stack.projector, proj_in)
    loss, d_z = infonce_loss(z, pos, stack.cfg.temperature)
    if grads is not None:
        n = 2 * len(stack.encoder)
        d_z = d_z.astype(dtype, copy=False)
        d_proj_in = mlp_backward(stack.projector, proj_cache, d_z, grads[n:])
        d_h = d_proj_in[:, : stack.embed_dim] if stack.conditioned else d_proj_in
        mlp_backward(stack.encoder, enc_cache, d_h, grads[:n])
    return loss


def alignment_loss(
    stack: EncoderStack,
    batch: np.ndarray,
    pp: Preprocessor,
    rng: np.random.Generator,
    grads: list[np.ndarray] | None = None,
) -> float:
    """One alignment step on a batch: sample a mask, build views, pair rows
    by target-view nearest neighbors, and score them with :func:`composite_loss`."""
    batch = np.asarray(batch, dtype=stack.cfg.numpy_dtype())
    x_f, x_t, mask_vec = _batch_views(stack, batch, pp, rng)
    pos = nearest_neighbor_indices(x_t)
    return composite_loss(stack, x_f, mask_vec, pos, grads)


def train_step(
    stack: EncoderStack,
    batch: np.ndarray,
    pp: Preprocessor,
    rng: np.random.Generator,
    adam: AdamState,
) -> float:
    """One optimization step on a batch, its gradient in ``adam.grads``; returns the batch loss."""
    loss = alignment_loss(stack, batch, pp, rng, adam.grads)
    if not np.isfinite(loss):
        raise TrainingError(
            f"non-finite training loss (ratio={stack.ratio}, batch of {len(batch)})"
        )
    adam_step(stack.parameters(), adam)
    return loss


def _mean_loss(rows: np.ndarray, batch_size: int, order: np.ndarray, loss_of) -> float:
    """Row-weighted mean of ``loss_of(batch)`` over ``rows[order]`` in batches of
    <= batch_size; a trailing batch of 1 is skipped."""
    total = 0.0
    count = 0
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        if len(idx) >= 2:
            total += loss_of(rows[idx]) * len(idx)
            count += len(idx)
    return total / count


def pretrain(
    stack: EncoderStack,
    train: np.ndarray,
    valid: np.ndarray,
    pp: Preprocessor,
) -> PretrainReport:
    """Train one stack under its own ``stack.cfg`` with validation-loss early stopping.

    Each epoch is one shuffled pass over the training rows in batches of at
    most ``batch_size``. Validation loss is measured with freshly sampled
    masks under the same ratio policy. Training stops after ``patience``
    epochs without improvement (patience 0 behaves as 1) and the parameters
    from the best-validation epoch are restored. Adam starts at zero on
    every call: a second call on the same stack does not continue the
    first call's moments.
    """
    cfg = stack.cfg
    if len(train) < 2:
        raise TrainingError("training set needs at least 2 rows")
    if len(valid) < 2:
        raise TrainingError(f"validation set needs at least 2 rows, got {len(valid)}")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([stack.seed, 1])))
    adam = AdamState.for_params(stack.parameters(), lr=cfg.learning_rate)
    best_loss = np.inf
    best_epoch = 0
    since_improved = 0
    train_curve: list[float] = []
    valid_curve: list[float] = []
    started = time.perf_counter()

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train))
        train_curve.append(
            _mean_loss(train, cfg.batch_size, order, lambda b: train_step(stack, b, pp, rng, adam))
        )
        vloss_epoch = _mean_loss(
            valid, cfg.batch_size, np.arange(len(valid)),
            lambda b: alignment_loss(stack, b, pp, rng),
        )
        if not np.isfinite(vloss_epoch):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        valid_curve.append(vloss_epoch)

        if vloss_epoch < best_loss:
            best_loss = vloss_epoch
            best_epoch = epoch
            best_params = [p.copy() for p in stack.parameters()]
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= cfg.patience:
                break

    for p, b in zip(stack.parameters(), best_params):
        p[...] = b
    return PretrainReport(
        train_losses=train_curve,
        valid_losses=valid_curve,
        stopped_epoch=len(train_curve),
        best_epoch=best_epoch,
        best_validation_loss=float(best_loss),
        wall_seconds=time.perf_counter() - started,
    )


def member_seed(*keys: int) -> int:
    """A 64-bit seed derived from integer keys; stable across runs.

    Ensemble member k of master seed s draws from ``member_seed(s, k)``; a
    few-shot episode keys its draws by (base seed, seed index, episode index,
    stream).
    """
    return int(np.random.SeedSequence(keys).generate_state(1, dtype=np.uint64)[0])


def pretrain_ensemble(
    train: np.ndarray,
    valid: np.ndarray,
    pp: Preprocessor,
    ratios: list[float | str],
    cfg: PretrainConfig,
    master_seed: int,
) -> tuple[list[EncoderStack], list[PretrainReport]]:
    """Train one independently initialized stack per separation ratio.

    Member k's randomness derives solely from (master_seed, k), so retraining
    one member can never perturb another.
    """
    if not ratios:
        raise TrainingError("ensemble needs at least one separation ratio")
    stacks: list[EncoderStack] = []
    reports: list[PretrainReport] = []
    for k, ratio in enumerate(ratios):
        stack = init_stack(train.shape[1], ratio, member_seed(master_seed, k), cfg)
        reports.append(pretrain(stack, train, valid, pp))
        stacks.append(stack)
    return stacks, reports
