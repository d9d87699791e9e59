"""Few-shot classification on frozen representations.

Heads: cosine/Euclidean prototypes, linear probing, k-NN voting, and full
fine-tuning. Ensembles fuse per-member class probabilities with uniform
weights and take the argmax.
"""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import Dataset, Episode, SplitIndices, sample_episode
from .errors import ConfigError, DimensionError, HeadError
from .nncore import AdamState, DenseLayer, adam_step, mlp_backward, mlp_forward
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

    Raises :class:`ConfigError` on a ``head`` that is neither ``"auto"`` nor
    one of :data:`HEADS`, on ``n_way`` < 0 (0 takes every class), or on
    ``k_shot``, ``n_episodes``, ``n_seeds`` or ``n_query_per_class`` < 1.
    """

    n_way: int
    k_shot: int
    n_episodes: int = 100
    n_seeds: int = 1
    n_query_per_class: int = 15
    head: str = "auto"
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.head not in ("auto",) + HEADS:
            raise ConfigError(f"head must be one of auto/{'/'.join(HEADS)}, got {self.head!r}")
        counts = ("k_shot", "n_episodes", "n_seeds", "n_query_per_class")
        for name, least in [("n_way", 0)] + [(name, 1) for name in counts]:
            if not getattr(self, name) >= least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)!r}")

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
    number of support rows (axis -2 of ``support_x``).
    """
    if support_y is None or len(support_y) == 0:
        raise HeadError("support set must be labeled and non-empty")
    n_rows = np.shape(support_x)[-2]
    if n_rows != len(support_y):
        raise HeadError(f"support has {n_rows} rows but {len(support_y)} labels")
    classes = np.unique(np.asarray(support_y))
    return classes, np.searchsorted(classes, support_y)


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(norms < 1e-12, 1.0, norms)


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


def _init_probe(
    embed_dim: int, n_way: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    # Small uniform weights, zero bias.
    bound = 1.0 / math.sqrt(embed_dim)
    return rng.uniform(-bound, bound, size=(n_way, embed_dim)), np.zeros(n_way)


def _cross_entropy(logits: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy of each probe and its gradient with respect to the logits.

    ``logits`` is (M, n, C) for M probes sharing the labels ``y``; returns (M,)
    losses and (M, n, C) gradients. The softmax and the gradient are computed
    in place: ``logits`` is overwritten and returned as the gradient.
    """
    n, n_way = logits.shape[1:]
    d = logits
    d -= d.max(axis=-1, keepdims=True)
    np.exp(d, out=d)
    d /= d.sum(axis=-1, keepdims=True)
    loss = -np.log(d[:, np.arange(n), y] + 1e-300).sum(axis=1) / n
    # Subtracting the one-hot labels leaves every other entry as it is (x - 0.0 == x).
    d -= y[:, None] == np.arange(n_way)
    d /= n
    return loss, d


def _fit_probe(
    x: np.ndarray,
    y: np.ndarray,
    n_way: int,
    cfg: ProbeConfig,
    encoder: list[DenseLayer] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Train a stack of affine heads ``(w, b)`` on ``x`` with full-batch Adam.

    ``x`` is (M, n, d). Without ``encoder``, ``x[m]`` holds member m's frozen
    embeddings and M probes train together. With it, M is 1, ``x[0]`` holds
    encoder inputs and the encoder's layers train with the head, in place.
    Every probe starts from the same ``cfg.seed`` draw. A probe stops after
    ``cfg.max_epochs`` steps, or once its loss has changed by less than
    ``PROBE_TOL`` for ``PROBE_TOL_PATIENCE`` consecutive steps; it then leaves the
    stack, so each probe ends with the bits it would have if trained alone.
    Returns (M, C, E) weights and (M, C) biases.
    """
    rng = np.random.default_rng(cfg.seed)
    n_probes = x.shape[0]
    dim = x.shape[2] if encoder is None else encoder[-1].out_dim
    w0, b0 = _init_probe(dim, n_way, rng)
    # Each probe's w and b are views into one row of ``flat``, so Adam updates
    # one tensor per step; ``grad`` is laid out the same way.
    flat = np.empty((n_probes, n_way * dim + n_way))
    flat[:, : n_way * dim] = w0.ravel()
    flat[:, n_way * dim :] = b0
    grad = np.empty_like(flat)

    def views(buffer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return buffer[:, : n_way * dim].reshape(-1, n_way, dim), buffer[:, n_way * dim :]

    params = [flat] + [t for layer in encoder or () for t in (layer.weight, layer.bias)]
    state = AdamState.for_params(params, lr=PROBE_LR)
    w, b = views(flat)
    grad_w, grad_b = views(grad)

    w_out = np.empty((n_probes, n_way, dim))
    b_out = np.empty((n_probes, n_way))
    live = np.arange(n_probes)
    # Frozen float32 embeddings are upcast once here rather than in each
    # matmul against the float64 probes; the products are the same.
    h = np.asarray(x, dtype=flat.dtype)
    # Each step's logits, and then their gradient, are written into this one buffer.
    logits = np.empty((n_probes, x.shape[1], n_way))
    # Per-probe stop counters on Python floats: cheaper than arrays at M <= a few.
    prev = [math.inf] * n_probes
    steady = [0] * n_probes
    for _ in range(cfg.max_epochs):
        if encoder is not None:
            h, cache = mlp_forward(encoder, x[0])
            h = h[None]
        np.matmul(h, w.swapaxes(1, 2), out=logits)
        logits += b[:, None]
        loss, d_logits = _cross_entropy(logits, y)
        losses = loss.tolist()
        if not all(map(math.isfinite, losses)):
            raise HeadError("non-finite probe loss")
        np.matmul(d_logits.swapaxes(1, 2), h, out=grad_w)
        np.sum(d_logits, axis=1, out=grad_b)
        grads = [grad]
        if encoder is not None:
            mlp_backward(encoder, cache, (d_logits[0] @ w[0]).astype(x.dtype, copy=False))
            grads += [g for layer in encoder for g in (layer.grad_weight, layer.grad_bias)]
        adam_step(params, grads, state)
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
            flat, grad, h, logits = flat[keep], grad[keep], h[keep], logits[keep]
            state.m[0], state.v[0] = state.m[0][keep], state.v[0][keep]
            params[0] = flat
            w, b = views(flat)
            grad_w, grad_b = views(grad)
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
    cfg: ProbeConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Train an affine classifier on frozen support embeddings; return query probabilities.

    With (n, E) vectors the probabilities are (n_query, C). With a leading
    member axis, (M, n, E) support and (M, n_query, E) query vectors, one
    probe per member trains in a single stacked loop, each stopping where it
    would alone, and the probabilities are (M, n_query, C).
    """
    cfg = cfg or ProbeConfig()
    classes, y = _check_support(support_x, support_y)
    sup, qry = np.asarray(support_x), np.asarray(query_x)
    single = sup.ndim == 2
    if single:
        sup, qry = sup[None], qry[None]
    w, b = _fit_probe(sup, y, len(classes), cfg)
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
        np.asarray(support_x, dtype=dtype)[None], y, len(classes), cfg, encoder
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


def _member_probs(
    members: list[EncoderStack | None],
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    head: str,
    cfg: ProbeConfig,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sorted class ids and each member's (n_query, n_way) probabilities.

    Every member is embedded once. The linear probes of members with equal
    embedding width train together as one stack.
    """
    if head == "finetune":
        if any(member is None for member in members):
            raise HeadError(f"head {head!r} needs a trained stack")
        results = [finetune_probs(m, support_x, support_y, query_x, cfg) for m in members]
        return results[0][0], [probs for _, probs in results]
    vectors = [
        (support_x, query_x)
        if member is None
        else (embed(member, support_x), embed(member, query_x))
        for member in members
    ]
    if head != "linear":
        results = [_frozen_probs(head, sup, support_y, qry) for sup, qry in vectors]
        return results[0][0], [probs for _, probs in results]
    probs: dict[int, np.ndarray] = {}
    widths = [sup.shape[1] for sup, _ in vectors]
    for width in dict.fromkeys(widths):
        group = [i for i, w in enumerate(widths) if w == width]
        classes, stacked = linear_probe_probs(
            np.stack([vectors[i][0] for i in group]),
            support_y,
            np.stack([vectors[i][1] for i in group]),
            cfg,
        )
        probs.update(zip(group, stacked))
    return classes, [probs[i] for i in range(len(members))]


def ensemble_predict(
    members: list[EncoderStack | None],
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    head: str = "linear",
    cfg: ProbeConfig | None = None,
) -> np.ndarray:
    """Average per-member class probabilities uniformly and take the argmax.

    A ``None`` member is the identity encoder: its heads run on the inputs
    themselves, and it cannot be fine-tuned.
    """
    if not members:
        raise HeadError("ensemble needs at least one member")
    classes, probs = _member_probs(
        members, support_x, support_y, query_x, head, cfg or ProbeConfig()
    )
    total = probs[0]
    for member_probs in probs[1:]:
        total = total + member_probs
    return classes[np.argmax(total / len(members), axis=1)]


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
    is reproducible bit for bit. With ``raw_space`` the heads run directly on
    the encoded inputs (a no-pretraining baseline) and ``members`` is ignored.
    """
    head = protocol.resolved_head()
    report = EvalReport(dataset=ds.name, protocol=replace(protocol, head=head))
    encoders = [None] if raw_space else members
    for seed_idx in range(protocol.n_seeds):
        for ep_idx in range(protocol.n_episodes):
            episode = sample_episode(
                ds,
                split_indices,
                protocol.n_way,
                protocol.k_shot,
                protocol.n_query_per_class,
                member_seed(protocol.base_seed, seed_idx, ep_idx, 0),
            )
            cfg = ProbeConfig(seed=member_seed(protocol.base_seed, seed_idx, ep_idx, 1))
            x_sup = encode(pp, ds, episode.support_rows)
            x_qry = encode(pp, ds, episode.query_rows)
            preds = ensemble_predict(encoders, x_sup, episode.support_labels, x_qry, head, cfg)
            accuracy = float(np.mean(preds == episode.query_labels))
            report.rows.append((seed_idx, ep_idx, accuracy))
    return report


def write_report_csv(report: EvalReport, path: str | Path) -> None:
    """Per-episode CSV: dataset, n_way, k_shot, head, seed, episode, accuracy."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["dataset", "n_way", "k_shot", "head", "seed", "episode", "accuracy"]
        )
        protocol = report.protocol
        for seed_idx, ep_idx, acc in report.rows:
            writer.writerow(
                [
                    report.dataset,
                    protocol.n_way,
                    protocol.k_shot,
                    protocol.head,
                    seed_idx,
                    ep_idx,
                    f"{acc:.6f}",
                ]
            )


def write_summary_csv(reports: list[EvalReport], path: str | Path) -> None:
    """One mean/std row per report."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "dataset",
                "n_way",
                "k_shot",
                "head",
                "n_seeds",
                "n_episodes",
                "mean_accuracy",
                "std_accuracy",
            ]
        )
        for r in reports:
            writer.writerow(
                [
                    r.dataset,
                    r.protocol.n_way,
                    r.protocol.k_shot,
                    r.protocol.head,
                    r.protocol.n_seeds,
                    r.protocol.n_episodes,
                    f"{r.mean_accuracy:.6f}",
                    f"{r.std_accuracy:.6f}",
                ]
            )
