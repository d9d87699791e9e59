"""Few-shot classification on frozen representations.

Heads: cosine/Euclidean prototypes, linear probing, k-NN voting, and full
fine-tuning. Ensembles fuse per-member class probabilities with uniform
weights and take the argmax.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, SplitIndices, sample_episode
from .errors import ConfigError, DimensionError, HeadError, check_fields
from .nncore import NORM_EPS, AdamState, DenseLayer, adam_step, mlp_backward, mlp_forward
from .preprocess import Preprocessor, encode
from .pretrain import EncoderStack, member_seed, nearest_neighbors

HEADS = ("proto-cos", "proto-eucl", "linear", "knn-cos", "knn-eucl", "finetune")


# A probe takes Adam steps of size PROBE_LR and stops once its support loss has
# changed by less than PROBE_TOL for PROBE_TOL_PATIENCE consecutive steps. The
# knn-* heads vote over KNN_K neighbors.
PROBE_LR = 0.001
PROBE_TOL = 1e-8
PROBE_TOL_PATIENCE = 50
KNN_K = 1


@dataclass
class ProbeConfig:
    """Optimization settings for the probe and fine-tuning heads.

    The probe trains full batch with no in-episode validation, for at most
    ``max_epochs`` steps.
    """

    max_epochs: int = 10000
    seed: int = 0


@dataclass
class Protocol:
    """Episode-loop settings for :func:`evaluate`.

    Raises :class:`ConfigError` on a value not of its field's type, a ``head``
    that is neither ``"auto"`` nor one of :data:`HEADS`, ``n_way`` (0 takes
    every class) or ``base_seed`` < 0, or another count < 1.
    """

    n_way: int
    k_shot: int
    n_episodes: int = 100
    n_seeds: int = 1
    n_query_per_class: int = 15
    head: str = "auto"
    base_seed: int = 0

    def __post_init__(self) -> None:
        least = dict(n_way=0, k_shot=1, n_episodes=1, n_seeds=1, n_query_per_class=1, base_seed=0)
        check_fields(self, ConfigError, least, {"head": ("auto",) + HEADS})

    def resolved_head(self) -> str:
        if self.head != "auto":
            return self.head
        return "proto-cos" if self.k_shot == 1 else "linear"


@dataclass
class EvalReport:
    """Per-episode accuracies plus their mean and standard deviation.

    ``protocol`` is the protocol that produced the rows, with its head resolved.
    """

    dataset: str
    protocol: Protocol
    rows: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def accuracies(self) -> np.ndarray:
        return np.array([acc for _, _, acc in self.rows])

    @property
    def mean_accuracy(self) -> float:
        return float(self.accuracies.mean())

    @property
    def std_accuracy(self) -> float:
        return float(self.accuracies.std())


def embed(stack: EncoderStack, x: np.ndarray) -> np.ndarray:
    """The (n, E) embeddings of full (unmasked) rows; the projector plays no role
    at evaluation."""
    x = np.asarray(x, dtype=stack.cfg.numpy_dtype())
    if x.ndim != 2 or x.shape[1] != stack.encoded_dim:
        raise DimensionError(
            f"expected (*, {stack.encoded_dim}) inputs, got {x.shape}"
        )
    vectors, _ = mlp_forward(stack.encoder, x)
    if not np.all(np.isfinite(vectors)):
        raise HeadError("encoder produced non-finite embeddings")
    return vectors


def _check_support(
    support_x: np.ndarray, support_y: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted class ids of the support labels and each label's index among them.

    Rejects missing or empty labels, and labels whose count differs from the
    number of support rows (axis -2 of ``support_x``). ``support_y`` is (n,),
    or (M, n) with one label row per probe of an (M, n, E) stack; every row
    must then hold the same number of classes, and the class ids are (M, C).
    """
    if support_y is None or len(support_y) == 0:
        raise HeadError("support set must be labeled and non-empty")
    labels = np.asarray(support_y)
    n_rows = np.shape(support_x)[-2]
    if n_rows != labels.shape[-1]:
        raise HeadError(f"support has {n_rows} rows but {labels.shape[-1]} labels")
    if labels.ndim == 1:
        classes = np.unique(labels)
        return classes, np.searchsorted(classes, labels)
    if np.ndim(support_x) != 3 or len(labels) != len(support_x):
        raise HeadError(f"{len(labels)} label rows for support of shape {np.shape(support_x)}")
    per_probe = [np.unique(row) for row in labels]
    if len({len(classes) for classes in per_probe}) != 1:
        raise HeadError("stacked probes must each see the same number of classes")
    classes = np.stack(per_probe)
    return classes, np.stack([np.searchsorted(c, row) for c, row in zip(classes, labels)])


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(norms < NORM_EPS, 1.0, norms)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def prototype_probs(
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    metric: str = "cosine",
) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities from mean-embedding prototypes.

    Cosine similarities (or negative Euclidean distances) to the class
    prototypes are turned into probabilities with a temperature-1 softmax.
    Returns (sorted class ids, (n_query, n_way) probabilities).
    """
    classes, y = _check_support(support_x, support_y)
    protos = np.stack([support_x[y == i].mean(axis=0) for i in range(len(classes))])
    if metric == "cosine":
        logits = _normalize_rows(query_x) @ _normalize_rows(protos).T
    elif metric == "euclidean":
        d2 = (
            np.square(query_x).sum(axis=1, keepdims=True)
            - 2.0 * query_x @ protos.T
            + np.square(protos).sum(axis=1)
        )
        logits = -np.sqrt(np.maximum(d2, 0.0))
    else:
        raise HeadError(f"unknown prototype metric {metric!r}")
    return classes, _softmax(logits)


def _init_probe(embed_dim: int, n_way: int, seed: int) -> np.ndarray:
    """Small uniform (n_way, embed_dim) weights drawn from ``seed``; biases start at zero."""
    bound = 1.0 / math.sqrt(embed_dim)
    return np.random.default_rng(seed).uniform(-bound, bound, size=(n_way, embed_dim))


def _label_constants(y: np.ndarray, n_way: int) -> tuple[np.ndarray, np.ndarray]:
    """The label terms of :func:`_cross_entropy` for (M, n) label indices ``y``.

    Returns each label logit's flat index, in C order, into (M, n, n_way)
    logits, and the (M, n, n_way) one-hot labels as floats. Both stay fixed
    while the same probes train, so the probe loop builds them once.
    """
    n_probes, n = y.shape
    picks = (np.arange(n_probes)[:, None] * n + np.arange(n)) * n_way + y
    return picks, (y[..., None] == np.arange(n_way)).astype(np.float64)


def _cross_entropy(
    logits: np.ndarray, picks: np.ndarray, onehot: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy of each probe and its gradient with respect to the logits.

    ``logits`` is (M, n, C) for M probes, and ``picks`` and ``onehot`` come
    from :func:`_label_constants`; returns (M,) losses and (M, n, C)
    gradients. The softmax and the gradient are computed in place: ``logits``
    is overwritten and returned as the gradient.
    """
    n = logits.shape[1]
    d = logits
    # The row max as elementwise maxima over the few class columns, which is
    # cheaper than a reduction along the short last axis.
    row_max = np.maximum(d[..., 0], d[..., -1])
    for c in range(1, d.shape[-1] - 1):
        np.maximum(row_max, d[..., c], out=row_max)
    d -= row_max[..., None]
    np.exp(d, out=d)
    d /= d.sum(axis=-1, keepdims=True)
    loss = -np.log(np.take(d, picks) + 1e-300).sum(axis=1) / n
    # Subtracting the one-hot labels leaves every other entry as it is (x - 0.0 == x).
    d -= onehot
    d /= n
    return loss, d


def _fit_probe(
    x: np.ndarray,
    y: np.ndarray,
    n_way: int,
    seeds: list[int],
    max_epochs: int,
    encoder: list[DenseLayer] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Train a stack of affine heads ``(w, b)`` on ``x`` with full-batch Adam.

    ``x`` is (M, n, d) and ``y`` the (M, n) label indices, one row per probe.
    Without ``encoder``, ``x[m]`` holds probe m's frozen embeddings and M
    probes train together. With it, M is 1, ``x[0]`` holds encoder inputs and
    the encoder's layers train with the head, in place. Probe m starts from
    the ``seeds[m]`` draw. A probe stops after ``max_epochs`` steps, or once
    its loss has changed by less than ``PROBE_TOL`` for ``PROBE_TOL_PATIENCE``
    consecutive steps; it then leaves the stack, so each probe ends with the
    bits it would have if trained alone. Returns (M, C, E) weights and (M, C)
    biases.
    """
    n_probes = len(y)
    dim = x.shape[2] if encoder is None else encoder[-1].out_dim
    draws = {seed: _init_probe(dim, n_way, seed).ravel() for seed in dict.fromkeys(seeds)}
    # Each probe's w and b are views into one row of ``flat``, so Adam updates
    # one tensor per step; its gradient ``state.grads[0]`` is laid out the same way.
    flat = np.zeros((n_probes, n_way * dim + n_way))
    flat[:, : n_way * dim] = [draws[seed] for seed in seeds]
    params = [flat] + [t for layer in encoder or () for t in (layer.weight, layer.bias)]
    state = AdamState.for_params(params, lr=PROBE_LR)
    # Frozen float32 embeddings are upcast once here rather than in each
    # matmul against the float64 probes; the products are the same.
    h = np.asarray(x, dtype=flat.dtype)
    # Each step's logits, and then their gradient, are written into this one buffer.
    logits = np.empty((n_probes, x.shape[1], n_way))

    def step_constants() -> tuple[np.ndarray, ...]:
        """What each step reads besides ``h`` for the probes in the stack: the
        views of ``flat``, ``state.grads[0]`` and ``logits``, and the label terms."""
        w, grad_w = (t[:, : n_way * dim].reshape(-1, n_way, dim) for t in (flat, state.grads[0]))
        b, grad_b = flat[:, n_way * dim :], state.grads[0][:, n_way * dim :]
        return (
            w, b, w.swapaxes(1, 2), b[:, None], grad_w, grad_b, logits.swapaxes(1, 2),
            *_label_constants(y, n_way),
        )

    w, b, w_t, b_rows, grad_w, grad_b, d_logits_t, picks, onehot = step_constants()
    w_out = np.empty((n_probes, n_way, dim))
    b_out = np.empty((n_probes, n_way))
    live = np.arange(n_probes)
    # Per-probe stop counters on Python floats: cheaper than arrays at M <= a few,
    # and a small share of a step at M in the hundreds.
    prev = [math.inf] * n_probes
    steady = [0] * n_probes
    for _ in range(max_epochs):
        if encoder is not None:
            h, cache = mlp_forward(encoder, x[0])
            h = h[None]
        np.matmul(h, w_t, out=logits)
        logits += b_rows
        loss, d_logits = _cross_entropy(logits, picks, onehot)
        losses = loss.tolist()
        if not all(map(math.isfinite, losses)):
            raise HeadError("non-finite probe loss")
        np.matmul(d_logits_t, h, out=grad_w)
        np.sum(d_logits, axis=1, out=grad_b)
        if encoder is not None:
            d_h = (d_logits[0] @ w[0]).astype(x.dtype, copy=False)
            mlp_backward(encoder, cache, d_h, state.grads[1:], input_cols=0)
        adam_step(params, state)
        steady = [
            count + 1 if abs(before - after) < PROBE_TOL else 0
            for count, before, after in zip(steady, prev, losses)
        ]
        prev = losses
        if max(steady) >= PROBE_TOL_PATIENCE:
            stop = np.array(steady) >= PROBE_TOL_PATIENCE
            w_out[live[stop]] = w[stop]
            b_out[live[stop]] = b[stop]
            if stop.all():
                return w_out, b_out
            # The probes left have all taken the same number of steps, so
            # Adam's one step counter stays right for each of them.
            keep = ~stop
            flat, h, logits, y = flat[keep], h[keep], logits[keep], y[keep]
            for buffers in (state.grads, state.m, state.v):
                buffers[0] = buffers[0][keep]
            params[0] = flat
            w, b, w_t, b_rows, grad_w, grad_b, d_logits_t, picks, onehot = step_constants()
            live = live[keep]
            prev = [value for value, kept in zip(prev, keep) if kept]
            steady = [count for count, kept in zip(steady, keep) if kept]
    w_out[live] = w
    b_out[live] = b
    return w_out, b_out


def linear_probe_probs(
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    cfg: ProbeConfig | list[ProbeConfig] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Train an affine classifier on frozen support embeddings; return query probabilities.

    With (n, E) vectors the probabilities are (n_query, C). With a leading
    probe axis, (M, n, E) support and (M, n_query, E) query vectors, M probes
    train in a single stacked loop, each stopping where it would alone, and
    the probabilities are (M, n_query, C). The labels are then (n,), shared
    by every probe, or (M, n) with (M, C) class ids, and ``cfg`` is one
    config for every probe or a list of M that agree on ``max_epochs``.
    """
    classes, y = _check_support(support_x, support_y)
    sup, qry = np.asarray(support_x), np.asarray(query_x)
    single = sup.ndim == 2
    if single:
        sup, qry = sup[None], qry[None]
    cfgs = cfg if isinstance(cfg, list) else [cfg or ProbeConfig()] * len(sup)
    if len(cfgs) != len(sup) or len({c.max_epochs for c in cfgs}) != 1:
        raise HeadError(f"{len(sup)} probes need as many configs with one max_epochs")
    w, b = _fit_probe(
        sup,
        np.broadcast_to(y, sup.shape[:2]),
        classes.shape[-1],
        [c.seed for c in cfgs],
        cfgs[0].max_epochs,
    )
    probs = _softmax(np.matmul(qry, w.swapaxes(1, 2)) + b[:, None])
    return classes, probs[0] if single else probs


def knn_probs(
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    k: int,
    metric: str = "euclidean",
) -> tuple[np.ndarray, np.ndarray]:
    """Vote shares over the k nearest support embeddings (of L2-normalized rows for cosine)."""
    classes, y = _check_support(support_x, support_y)
    if k < 1:
        raise HeadError(f"k must be >= 1, got {k}")
    if k > len(support_x):
        raise HeadError(f"k={k} exceeds support size {len(support_x)}")
    if metric == "cosine":
        support_x, query_x = _normalize_rows(support_x), _normalize_rows(query_x)
    elif metric != "euclidean":
        raise HeadError(f"unknown knn metric {metric!r}")
    nearest = nearest_neighbors(support_x, k, queries=query_x)
    return classes, (y[nearest][:, :, None] == np.arange(len(classes))).sum(axis=1) / k


def finetune_probs(
    stack: EncoderStack,
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    cfg: ProbeConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Probe objective with the encoder unfrozen, on a copy of the stack's encoder.

    The caller's stack is never touched; probe initialization matches
    :func:`linear_probe_probs` for the same seed.
    """
    cfg = cfg or ProbeConfig()
    classes, y = _check_support(support_x, support_y)
    encoder = copy.deepcopy(stack.encoder)
    dtype = stack.cfg.numpy_dtype()
    (w,), (b,) = _fit_probe(
        np.asarray(support_x, dtype=dtype)[None],
        y[None],
        len(classes),
        [cfg.seed],
        cfg.max_epochs,
        encoder,
    )
    h_query, _ = mlp_forward(encoder, np.asarray(query_x, dtype=dtype))
    return classes, _softmax(h_query @ w.T + b)


def _frozen_probs(
    head: str, support_x: np.ndarray, support_y: np.ndarray, query_x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch a head, other than the linear probe, that runs on frozen vectors."""
    if head == "proto-cos":
        return prototype_probs(support_x, support_y, query_x, "cosine")
    if head == "proto-eucl":
        return prototype_probs(support_x, support_y, query_x, "euclidean")
    if head == "knn-cos":
        return knn_probs(support_x, support_y, query_x, KNN_K, "cosine")
    if head == "knn-eucl":
        return knn_probs(support_x, support_y, query_x, KNN_K, "euclidean")
    raise HeadError(f"unknown head {head!r}")


def _stack_episodes(
    results: list[list[tuple[np.ndarray, np.ndarray]]],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-member lists of per-episode ``(classes, probs)`` as (P, n_way) class
    ids, taken from the first member, and one (P, n_query, n_way) array per member."""
    classes = np.stack([c for c, _ in results[0]])
    return classes, [np.stack([probs for _, probs in result]) for result in results]


def _member_probs(
    members: list[EncoderStack | None],
    x: np.ndarray,
    support: np.ndarray,
    support_y: np.ndarray,
    query: np.ndarray,
    head: str,
    cfgs: list[ProbeConfig],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Class ids and each member's probabilities on P episodes that share rows.

    ``x`` holds encoded rows. Episode p's support is ``x[support[p]]`` with
    labels ``support_y[p]``, its query is ``x[query[p]]``, and ``cfgs[p]`` sets
    its probes. Returns (P, n_way) sorted class ids and one (P, n_query,
    n_way) array per member. Each member embeds ``x`` once, and the linear
    probes of every episode and of every member of one embedding width train
    as one stack. A ``None`` member is the identity encoder: its heads run on
    ``x`` itself, and it cannot be fine-tuned.
    """
    if not members:
        raise HeadError("ensemble needs at least one member")
    episodes = list(zip(support, support_y, query, cfgs))
    if head == "finetune":
        if any(member is None for member in members):
            raise HeadError(f"head {head!r} needs a trained stack")
        return _stack_episodes(
            [[finetune_probs(m, x[s], y, x[q], cfg) for s, y, q, cfg in episodes] for m in members]
        )
    vectors = [x if member is None else embed(member, x) for member in members]
    if head != "linear":
        return _stack_episodes(
            [[_frozen_probs(head, v[s], y, v[q]) for s, y, q, _ in episodes] for v in vectors]
        )

    def probe_stack(rows: np.ndarray, group: list[int]) -> np.ndarray:
        # Probe p * len(group) + g is episode p's probe for member group[g].
        gathered = np.stack([vectors[i][rows] for i in group], axis=1)
        return gathered.reshape(-1, rows.shape[1], gathered.shape[-1])

    probs: dict[int, np.ndarray] = {}
    widths = [v.shape[1] for v in vectors]
    for width in dict.fromkeys(widths):
        group = [i for i, w in enumerate(widths) if w == width]
        classes, stacked = linear_probe_probs(
            probe_stack(support, group),
            np.repeat(support_y, len(group), axis=0),
            probe_stack(query, group),
            [cfg for cfg in cfgs for _ in group],
        )
        stacked = stacked.reshape(len(episodes), len(group), *stacked.shape[1:])
        probs.update((i, stacked[:, g]) for g, i in enumerate(group))
    # Every member of an episode sees its labels, so any member's class ids serve.
    return classes[:: len(group)], [probs[i] for i in range(len(members))]


def evaluate(
    members: list[EncoderStack],
    pp: Preprocessor,
    ds: Dataset,
    split_indices: SplitIndices,
    protocol: Protocol,
    raw_space: bool = False,
) -> EvalReport:
    """Run the episode loop and aggregate per-episode accuracy.

    Episodes are keyed by (base_seed, seed index, episode index), so a report
    is reproducible bit for bit. An ``n_way`` of 0 takes every class of
    ``ds``. For each seed index, all episodes are sampled first; the union of
    their rows is encoded once and embedded once per member, and the linear
    probes of all those episodes and members train as one stack. Each head
    runs once per member, and the members' class probabilities are averaged
    uniformly before the argmax. With ``raw_space`` the heads run directly on
    the encoded rows, as one identity member (a no-pretraining baseline), and
    ``members`` is ignored.
    """
    protocol = replace(
        protocol, head=protocol.resolved_head(), n_way=protocol.n_way or ds.n_classes
    )
    report = EvalReport(dataset=ds.name, protocol=protocol)
    encoders = [None] if raw_space else members
    for seed_idx in range(protocol.n_seeds):
        episode_ids = range(protocol.n_episodes)
        episodes = [
            sample_episode(
                ds,
                split_indices,
                protocol.n_way,
                protocol.k_shot,
                protocol.n_query_per_class,
                member_seed(protocol.base_seed, seed_idx, ep_idx, 0),
            )
            for ep_idx in episode_ids
        ]
        rows = np.stack([np.concatenate([e.support_rows, e.query_rows]) for e in episodes])
        union, positions = np.unique(rows, return_inverse=True)
        positions = positions.reshape(rows.shape)
        n_support = len(episodes[0].support_rows)
        classes, probs = _member_probs(
            encoders,
            encode(pp, ds, union),
            positions[:, :n_support],
            np.stack([e.support_labels for e in episodes]),
            positions[:, n_support:],
            protocol.head,
            [ProbeConfig(seed=member_seed(protocol.base_seed, seed_idx, ep_idx, 1))
             for ep_idx in episode_ids],
        )
        # Members' probabilities are averaged uniformly, summed in member
        # order; the argmax breaks ties to the lowest class id.
        fused = sum(probs[1:], probs[0]) / len(encoders)
        preds = np.take_along_axis(classes, np.argmax(fused, axis=2), axis=1)
        for ep_idx, (episode, labels) in enumerate(zip(episodes, preds)):
            accuracy = float(np.mean(labels == episode.query_labels))
            report.rows.append((seed_idx, ep_idx, accuracy))
    return report
