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

from .errors import ArrayError, ConfigError, SplitError, TrainingError, check_fields, check_seed
from .nncore import (
    AdamState,
    DenseLayer,
    adam_step,
    carve,
    infonce_loss,
    infonce_work,
    init_layer,
    mlp_backward,
    mlp_forward,
    work_bytes,
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
    disabled. A training run's :class:`Workspace` holds its gradients and optimizer state.
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
    """Build a freshly initialized stack with its own seeded parameter draw.

    Raises :class:`ConfigError` unless ``seed`` is an int >= 0.
    """
    cfg = cfg or PretrainConfig()
    ratio, seed = parse_ratio(ratio), check_seed(seed)
    dtype = cfg.numpy_dtype()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    layers = [init_layer(n_in, n_out, rng, dtype) for n_in, n_out in layer_shapes(encoded_dim, cfg)]
    return EncoderStack(encoder=layers[:2], projector=layers[2:], ratio=ratio, seed=seed, cfg=cfg)


# Elements per Gram block (8 MB in float64): a batch of 1024 is one block.
_BLOCK_ELEMENTS = 1 << 20


def nearest_neighbors_work(
    n_queries: int, n: int, d: int, dtype: np.dtype
) -> list[tuple[tuple[int, ...], type]]:
    """What :func:`nearest_neighbors` carves from ``work`` for ``n_queries`` queries
    among ``n`` points of width ``d``: the centered points, -2 times them, and one
    Gram block with its candidate flags."""
    cells = min(n_queries * n, max(_BLOCK_ELEMENTS, n))
    return [((n, d), dtype), ((n, d), dtype), ((cells,), dtype), ((cells,), np.bool_)]


def nearest_neighbors(
    points: np.ndarray,
    k: int,
    queries: np.ndarray | None = None,
    *,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Indices of the k nearest points of each query row, nearest first, as (n_queries, k).

    Distance is the exact ``np.square(points[j] - q).sum()`` of finite rows, in the points'
    dtype; ties go to the smallest index. Without ``queries`` each point queries the others.
    The Gram blocks are carved from ``work`` as :func:`nearest_neighbors_work` lays them out.
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
    p, p_times_minus_2, gram, flags = carve(
        work, nearest_neighbors_work(len(queries), n, d, points.dtype)
    )
    center = points.mean(axis=0)
    np.subtract(points, center, out=p)
    q = p if self_search else queries - center
    sq_p = np.einsum("ij,ij->i", p, p)
    sq_q = sq_p if self_search else np.einsum("ij,ij->i", q, q)
    slack = (2 * d + 8) * np.finfo(points.dtype).eps * (np.sqrt(sq_q) + np.sqrt(sq_p.max())) ** 2
    # The transpose of this is the -2.0 * p.T each block multiplies by.
    np.multiply(p, -2.0, out=p_times_minus_2)

    out = [np.empty((0, k), dtype=np.int64)]
    block, step = max(1, _BLOCK_ELEMENTS // n), max(1, _BLOCK_ELEMENTS // max(d, 1))
    for start in range(0, len(q), block):
        q_block = q[start : start + block]
        shape = (len(q_block), n)
        g = np.matmul(q_block, p_times_minus_2.T, out=gram[: shape[0] * n].reshape(shape))
        g += sq_q[start : start + block, None]
        g += sq_p
        if self_search:
            np.fill_diagonal(g[:, start:], np.inf)
        kth = g.min(axis=1) if k == 1 else np.partition(g, k - 1, axis=1)[:, k - 1]
        threshold = (kth + slack[start : start + block])[:, None]
        rows, cols = np.nonzero(np.less_equal(g, threshold, out=flags[: g.size].reshape(shape)))
        exact = np.empty(len(rows), dtype=points.dtype)
        for s in range(0, len(rows), step):
            diff = points[cols[s : s + step]]
            diff -= queries[rows[s : s + step] + start]
            exact[s : s + step] = np.square(diff, out=diff).sum(axis=1)
        # Candidates come in (row, index) order, which the stable sort keeps for ties.
        order = np.lexsort((exact, rows))
        first = np.searchsorted(rows, np.arange(len(g)))
        out.append(cols[order[first[:, None] + np.arange(k)]])
    return np.concatenate(out)


def nearest_neighbor_indices(t: np.ndarray, *, work: np.ndarray | None = None) -> np.ndarray:
    """Nearest neighbor of every row (O(B^2) exact search, ties to smallest index)."""
    if len(t) < 2:
        raise ArrayError("nearest-neighbor search needs a batch of >= 2")
    return nearest_neighbors(t, 1, work=work)[:, 0]


@dataclass
class Workspace:
    """What a training run writes besides its stack, for batches of up to ``rows`` rows:
    the step buffers, the Adam state and the best epoch's parameter snapshot.

    A step writes the leading rows of each buffer. Every array, the views and
    the gradients included, has the stack's dtype, and so do the pairing and
    InfoNCE temporaries carved from ``scratch``. Buffers that are never live
    at once share memory: the gathered batch and the target view, then the
    encoder output of a conditioned stack, then the projector output; and in
    ``scratch`` the pairing search, then InfoNCE, then the ReLU masks beside
    ``adam.grads``, the gradients laid out like ``stack.parameters()``. These
    hold a step's gradient from its backward pass until the next step's
    pairing. The backward pass writes each delta over an activation it has
    read: InfoNCE's gradient over the projector output, the projector's hidden
    delta over its hidden activation, the embedding columns' gradient over
    those columns of the projector input, and the encoder's hidden delta over
    its hidden activation. Stacks of one shape and dtype can train in turn on
    one workspace.
    """

    rows: int
    batch: np.ndarray
    x_f: np.ndarray
    x_t: np.ndarray
    enc_hidden: np.ndarray
    embed: np.ndarray
    proj_in: np.ndarray
    proj_hidden: np.ndarray
    z: np.ndarray
    masks: np.ndarray
    scratch: np.ndarray
    adam: AdamState
    best: list[np.ndarray]

    @classmethod
    def for_stack(cls, stack: EncoderStack, rows: int) -> "Workspace":
        """A run of ``stack`` on batches of up to ``rows`` rows, Adam at step 0."""
        dtype = stack.cfg.numpy_dtype()
        d, e, hidden = stack.encoded_dim, stack.embed_dim, stack.encoder[0].out_dim
        p_in, p_out = stack.projector[0].in_dim, stack.projector[-1].out_dim
        # Live from the views to the backward pass.
        live = {"x_f": ((rows, d), dtype), "enc_hidden": ((rows, hidden), dtype),
                "proj_hidden": ((rows, hidden), dtype)}
        # Groups that share one region: each is dead before the next is written.
        shared = [{"batch": ((rows, d), dtype), "x_t": ((rows, d), dtype)},
                  {"z": ((rows, p_out), dtype)}]
        embed = {"embed": ((rows, e), dtype)}
        if stack.conditioned:
            live["proj_in"] = ((rows, p_in), dtype)
            shared.append(embed)
        else:
            live.update(embed)
        arrays: dict[str, np.ndarray] = {}
        for groups in ([live], shared):
            region = np.empty(max(work_bytes(list(group.values())) for group in groups), np.uint8)
            for group in groups:
                arrays.update(zip(group, carve(region, list(group.values()))))
        params = stack.parameters()
        masks = work_bytes([((rows, hidden), np.bool_)])
        backward = [((masks,), np.uint8)] + [(p.shape, dtype) for p in params]
        kernels = [nearest_neighbors_work(rows, rows, d, dtype), infonce_work(rows, p_out, dtype)]
        scratch = np.empty(max(map(work_bytes, kernels + [backward])), np.uint8)
        arrays["masks"], *grads = carve(scratch, backward)
        arrays.setdefault("proj_in", arrays["embed"])
        return cls(
            rows=rows,
            scratch=scratch,
            adam=AdamState.for_params(params, lr=stack.cfg.learning_rate, grads=grads),
            best=[np.empty_like(p) for p in params],
            **arrays,
        )


def _batch_views(
    stack: EncoderStack,
    batch: np.ndarray,
    pp: Preprocessor,
    rng: np.random.Generator,
    out: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample this batch's mask and build both views, into ``out``, under the imputation policy."""
    ratio = stack.ratio
    if ratio == RATIO_RANDOM:
        ratio = float(rng.choice(DEFAULT_RATIOS))
    mask = sample_mask(pp, float(ratio), rng)
    if stack.cfg.imputation == "marginal":
        x_f, x_t = make_views_marginal(batch, mask, pp, rng, out=out)
    else:
        x_f, x_t = make_views(batch, mask, out=out)
    return x_f, x_t, mask.encoded_mask


def composite_loss(
    stack: EncoderStack,
    x_f: np.ndarray,
    mask_vec: np.ndarray,
    pos: np.ndarray,
    grads: list[np.ndarray] | None = None,
    *,
    work: Workspace | None = None,
) -> float:
    """Contrastive loss of encoder -> conditioned projector on fixed views.

    ``pos`` names each row's positive partner. ``x_f`` is read in the stack's
    dtype, cast when it has another. With ``grads``, laid out like
    ``stack.parameters()``, the full analytic parameter gradient lands in it.
    Activations and deltas go into ``work``'s leading rows (a workspace of
    its own when None); the deltas overwrite the activations.
    """
    dtype = stack.cfg.numpy_dtype()
    x_f = np.asarray(x_f, dtype=dtype)
    n = len(x_f)
    work = work or Workspace.for_stack(stack, n)
    h, enc_cache = mlp_forward(stack.encoder, x_f, out=[work.enc_hidden[:n], work.embed[:n]])
    if stack.conditioned:
        cond = np.broadcast_to(mask_vec.astype(dtype), (n, mask_vec.shape[0]))
        proj_in = np.concatenate([h, cond], axis=1, out=work.proj_in[:n])
    else:
        proj_in = h
    z, proj_cache = mlp_forward(stack.projector, proj_in, out=[work.proj_hidden[:n], work.z[:n]])
    loss, d_z = infonce_loss(
        z, pos, stack.cfg.temperature, grad=grads is not None, out=z, work=work.scratch
    )
    if grads is not None:
        # Only the embedding columns of the projector's input gradient reach
        # the encoder, and nothing reads the encoder's input gradient. Each
        # layer's input gradient is written over that layer's input.
        k, e = 2 * len(stack.encoder), stack.embed_dim
        d_h = mlp_backward(
            stack.projector, proj_cache, d_z, grads[k:], input_cols=e,
            out=[proj_in[:, :e], work.proj_hidden[:n]], work=work.masks,
        )
        mlp_backward(
            stack.encoder, enc_cache, d_h, grads[:k], input_cols=0,
            out=[None, work.enc_hidden[:n]], work=work.masks,
        )
    return loss


def alignment_loss(
    stack: EncoderStack,
    batch: np.ndarray,
    pp: Preprocessor,
    rng: np.random.Generator,
    grads: list[np.ndarray] | None = None,
    *,
    work: Workspace,
) -> float:
    """One alignment step on a batch: sample a mask, build views, pair rows
    by target-view nearest neighbors, and score them with :func:`composite_loss`,
    all in ``work``."""
    batch = np.asarray(batch, dtype=stack.cfg.numpy_dtype())
    n = len(batch)
    x_f, x_t, mask_vec = _batch_views(stack, batch, pp, rng, (work.x_f[:n], work.x_t[:n]))
    pos = nearest_neighbor_indices(x_t, work=work.scratch)
    return composite_loss(stack, x_f, mask_vec, pos, grads, work=work)


def train_step(
    stack: EncoderStack,
    batch: np.ndarray,
    pp: Preprocessor,
    rng: np.random.Generator,
    *,
    work: Workspace,
) -> float:
    """One optimization step on a batch in ``work``, its gradient in ``work.adam.grads``;
    returns the batch loss."""
    loss = alignment_loss(stack, batch, pp, rng, work.adam.grads, work=work)
    if not np.isfinite(loss):
        raise TrainingError(
            f"non-finite training loss (ratio={stack.ratio}, batch of {len(batch)})"
        )
    adam_step(stack.parameters(), work.adam)
    return loss


def _mean_loss(rows: np.ndarray, order: np.ndarray, work: Workspace, loss_of) -> float:
    """Row-weighted mean of ``loss_of(batch)`` over ``rows[order]`` in batches of at most
    ``work.rows``, each gathered into ``work.batch``; a trailing batch of 1 is skipped."""
    total = 0.0
    count = 0
    for start in range(0, len(order), work.rows):
        idx = order[start : start + work.rows]
        if len(idx) >= 2:
            # The indices are in range; "clip" writes straight into ``out``, where
            # the default mode would gather into a temporary first.
            batch = np.take(rows, idx, axis=0, out=work.batch[: len(idx)], mode="clip")
            total += loss_of(batch) * len(idx)
            count += len(idx)
    return total / count


def _batch_rows(cfg: PretrainConfig, train: np.ndarray, valid: np.ndarray) -> int:
    """Rows in the largest batch a run on ``train`` and ``valid`` takes."""
    return min(cfg.batch_size, max(len(train), len(valid)))


def pretrain(
    stack: EncoderStack,
    train: np.ndarray,
    valid: np.ndarray,
    pp: Preprocessor,
    *,
    work: Workspace | None = None,
) -> PretrainReport:
    """Train one stack under its own ``stack.cfg`` with validation-loss early stopping.

    Each epoch is one shuffled pass over the training rows in batches of at
    most ``batch_size``. Validation loss is measured with freshly sampled
    masks under the same ratio policy. Training stops after ``patience``
    epochs without improvement (patience 0 behaves as 1) and the parameters
    from the best-validation epoch are restored. Adam starts at zero on
    every call: a second call on the same stack does not continue the
    first call's moments. Every step and validation pass writes into
    ``work``, built for this call when None; a workspace passed in must be
    :meth:`Workspace.for_stack` of a stack of this one's shape and dtype,
    for this run's batch rows, else ``ValueError`` is raised before any of
    it is written.
    """
    cfg = stack.cfg
    if len(train) < 2:
        raise SplitError("training set needs at least 2 rows")
    if len(valid) < 2:
        raise SplitError(f"validation set needs at least 2 rows, got {len(valid)}")

    batch_rows = _batch_rows(cfg, train, valid)
    work = work or Workspace.for_stack(stack, batch_rows)
    if work.rows != batch_rows:
        raise ValueError(f"workspace for batches of {work.rows} rows, not {batch_rows}")
    layout = [(p.shape, p.dtype) for p in stack.parameters()]
    adam = work.adam
    held = (work.best, adam.grads, adam.m, adam.v)
    if any([(t.shape, t.dtype) for t in tensors] != layout for tensors in held):
        raise ValueError("workspace built for a stack of another shape or dtype")
    adam.t, adam.lr = 0, cfg.learning_rate
    for moment in adam.m + adam.v:
        moment.fill(0.0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([stack.seed, 1])))
    train, valid = (np.asarray(rows, dtype=cfg.numpy_dtype()) for rows in (train, valid))
    best_loss = np.inf
    best_epoch = 0
    since_improved = 0
    train_curve: list[float] = []
    valid_curve: list[float] = []
    started = time.perf_counter()

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train))
        train_curve.append(_mean_loss(
            train, order, work, lambda b: train_step(stack, b, pp, rng, work=work)
        ))
        vloss_epoch = _mean_loss(
            valid, np.arange(len(valid)), work,
            lambda b: alignment_loss(stack, b, pp, rng, work=work),
        )
        if not np.isfinite(vloss_epoch):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        valid_curve.append(vloss_epoch)

        if vloss_epoch < best_loss:
            best_loss = vloss_epoch
            best_epoch = epoch
            for snapshot, p in zip(work.best, stack.parameters()):
                np.copyto(snapshot, p)
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= cfg.patience:
                break

    for p, b in zip(stack.parameters(), work.best):
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
    one member can never perturb another. The members share one shape and
    dtype, and so train in turn on one :class:`Workspace`. Raises
    :class:`ConfigError` unless ``master_seed`` is an int >= 0.
    """
    check_seed(master_seed, "master_seed")
    if not ratios:
        raise ConfigError("ensemble needs at least one separation ratio")
    stacks: list[EncoderStack] = []
    reports: list[PretrainReport] = []
    work = None
    for k, ratio in enumerate(ratios):
        stack = init_stack(train.shape[1], ratio, member_seed(master_seed, k), cfg)
        work = work or Workspace.for_stack(stack, _batch_rows(cfg, train, valid))
        reports.append(pretrain(stack, train, valid, pp, work=work))
        stacks.append(stack)
    return stacks, reports
