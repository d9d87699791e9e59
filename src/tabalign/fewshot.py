"""Few-shot classification on frozen representations.

Heads: cosine/Euclidean prototypes, linear probing, k-NN voting, and full
fine-tuning. Ensembles fuse per-member class probabilities with uniform
weights and take the argmax.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, Episode, SplitIndices, sample_episode
from .errors import DimensionError, HeadError
from .nncore import AdamState, DenseLayer, adam_step, mlp_backward, mlp_forward
from .preprocess import Preprocessor, encode
from .pretrain import EncoderStack

HEADS = ("proto-cos", "proto-eucl", "linear", "knn-cos", "knn-eucl", "finetune")


@dataclass
class EmbeddingSet:
    """Encoder outputs for a set of rows, with optional labels."""

    vectors: np.ndarray
    labels: np.ndarray | None = None
    source: str = ""


@dataclass
class ProbeConfig:
    """Optimization settings for the probe and fine-tuning heads.

    The probe trains full batch with no in-episode validation; it stops early
    once the support loss changes by less than ``tol`` for ``tol_patience``
    consecutive epochs.
    """

    learning_rate: float = 0.001
    max_epochs: int = 10000
    tol: float = 1e-8
    tol_patience: int = 50
    knn_k: int = 1
    seed: int = 0


@dataclass
class Protocol:
    """Episode-loop settings for :func:`evaluate`."""

    n_way: int
    k_shot: int
    n_episodes: int = 100
    n_seeds: int = 1
    n_query_per_class: int = 15
    head: str = "auto"
    base_seed: int = 0

    def resolved_head(self) -> str:
        if self.head != "auto":
            return self.head
        return "proto-cos" if self.k_shot == 1 else "linear"


@dataclass
class EvalReport:
    """Per-episode accuracies plus their mean and standard deviation."""

    dataset: str
    n_way: int
    k_shot: int
    head: str
    n_seeds: int
    n_episodes: int
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


def embed(stack: EncoderStack, x: np.ndarray) -> EmbeddingSet:
    """Encode full (unmasked) rows; the projector plays no role at evaluation."""
    x = np.asarray(x, dtype=stack.cfg.numpy_dtype())
    if x.ndim != 2 or x.shape[1] != stack.encoded_dim:
        raise DimensionError(
            f"expected (*, {stack.encoded_dim}) inputs, got {x.shape}"
        )
    vectors, _ = mlp_forward(stack.encoder, x)
    if not np.all(np.isfinite(vectors)):
        raise HeadError("encoder produced non-finite embeddings")
    return EmbeddingSet(vectors=vectors, source=f"ratio={stack.ratio}")


def _check_support(labels: np.ndarray | None) -> np.ndarray:
    """Sorted class ids of the support labels; rejects a missing or empty set."""
    if labels is None or len(labels) == 0:
        raise HeadError("support set must be labeled and non-empty")
    return np.unique(np.asarray(labels))


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(norms < 1e-12, 1.0, norms)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def prototype_probs(
    support: EmbeddingSet, query: EmbeddingSet, metric: str = "cosine"
) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities from mean-embedding prototypes.

    Cosine similarities (or negative Euclidean distances) to the class
    prototypes are turned into probabilities with a temperature-1 softmax.
    Returns (sorted class ids, (n_query, n_way) probabilities).
    """
    classes = _check_support(support.labels)
    protos = np.stack(
        [support.vectors[support.labels == c].mean(axis=0) for c in classes]
    )
    if metric == "cosine":
        logits = _normalize_rows(query.vectors) @ _normalize_rows(protos).T
    elif metric == "euclidean":
        d2 = (
            np.square(query.vectors).sum(axis=1, keepdims=True)
            - 2.0 * query.vectors @ protos.T
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


def _cross_entropy(logits: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient with respect to the logits."""
    n = logits.shape[0]
    p = _softmax(logits)
    loss = float(-np.log(p[np.arange(n), y] + 1e-300).mean())
    d = p.copy()
    d[np.arange(n), y] -= 1.0
    return loss, d / n


def _fit_probe(
    x: np.ndarray,
    y: np.ndarray,
    n_way: int,
    cfg: ProbeConfig,
    encoder: list[DenseLayer] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Train an affine head ``(w, b)`` on ``x`` with full-batch Adam.

    Without ``encoder``, ``x`` holds frozen embeddings. With it, ``x`` holds
    encoder inputs and the encoder's layers train with the head, in place.
    Training stops after ``cfg.max_epochs`` steps, or once the loss has
    changed by less than ``cfg.tol`` for ``cfg.tol_patience`` consecutive
    steps.
    """
    rng = np.random.default_rng(cfg.seed)
    dim = x.shape[1] if encoder is None else encoder[-1].out_dim
    w, b = _init_probe(dim, n_way, rng)
    params = [w, b] + [t for layer in encoder or () for t in (layer.weight, layer.bias)]
    state = AdamState.for_params(params, lr=cfg.learning_rate)

    h = x
    prev = np.inf
    steady = 0
    for _ in range(cfg.max_epochs):
        if encoder is not None:
            h, cache = mlp_forward(encoder, x)
        loss, d_logits = _cross_entropy(h @ w.T + b, y)
        if not np.isfinite(loss):
            raise HeadError("non-finite probe loss")
        grads = [d_logits.T @ h, d_logits.sum(axis=0)]
        if encoder is not None:
            mlp_backward(encoder, cache, (d_logits @ w).astype(x.dtype, copy=False))
            grads += [g for layer in encoder for g in (layer.grad_weight, layer.grad_bias)]
        adam_step(params, grads, state)
        if abs(prev - loss) < cfg.tol:
            steady += 1
            if steady >= cfg.tol_patience:
                break
        else:
            steady = 0
        prev = loss
    return w, b


def linear_probe_probs(
    support: EmbeddingSet, query: EmbeddingSet, cfg: ProbeConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Train an affine classifier on frozen support embeddings; return query probabilities."""
    cfg = cfg or ProbeConfig()
    classes = _check_support(support.labels)
    y = np.searchsorted(classes, support.labels)
    w, b = _fit_probe(support.vectors, y, len(classes), cfg)
    return classes, _softmax(query.vectors @ w.T + b)


def knn_probs(
    support: EmbeddingSet, query: EmbeddingSet, k: int, metric: str = "euclidean"
) -> tuple[np.ndarray, np.ndarray]:
    """Vote shares over the k nearest support embeddings."""
    classes = _check_support(support.labels)
    if k < 1:
        raise HeadError(f"k must be >= 1, got {k}")
    if k > len(support.vectors):
        raise HeadError(f"k={k} exceeds support size {len(support.vectors)}")
    if metric == "euclidean":
        d = (
            np.square(query.vectors).sum(axis=1, keepdims=True)
            - 2.0 * query.vectors @ support.vectors.T
            + np.square(support.vectors).sum(axis=1)
        )
    elif metric == "cosine":
        d = 1.0 - _normalize_rows(query.vectors) @ _normalize_rows(support.vectors).T
    else:
        raise HeadError(f"unknown knn metric {metric!r}")
    # Stable sort keeps distance ties ordered by support index.
    nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
    y = np.searchsorted(classes, support.labels)
    probs = np.zeros((len(query.vectors), len(classes)))
    for i in range(len(query.vectors)):
        probs[i] = np.bincount(y[nearest[i]], minlength=len(classes)) / k
    return classes, probs


def finetune_probs(
    stack: EncoderStack,
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    cfg: ProbeConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Probe objective with the encoder unfrozen, on a cloned stack.

    The caller's stack is never touched; probe initialization matches
    :func:`linear_probe_probs` for the same seed.
    """
    cfg = cfg or ProbeConfig()
    classes = _check_support(support_y)
    y = np.searchsorted(classes, support_y)
    work = stack.clone()
    dtype = work.cfg.numpy_dtype()
    w, b = _fit_probe(
        np.asarray(support_x, dtype=dtype), y, len(classes), cfg, work.encoder
    )
    h_query, _ = mlp_forward(work.encoder, np.asarray(query_x, dtype=dtype))
    return classes, _softmax(h_query @ w.T + b)


def _member_probs(
    member: EncoderStack | None,
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    head: str,
    cfg: ProbeConfig,
) -> tuple[np.ndarray, np.ndarray]:
    if head == "finetune":
        if member is None:
            raise HeadError(f"head {head!r} needs a trained stack")
        return finetune_probs(member, support_x, support_y, query_x, cfg)
    if member is None:
        sup, qry = EmbeddingSet(support_x), EmbeddingSet(query_x)
    else:
        sup, qry = embed(member, support_x), embed(member, query_x)
    sup.labels = np.asarray(support_y)
    if head == "proto-cos":
        return prototype_probs(sup, qry, "cosine")
    if head == "proto-eucl":
        return prototype_probs(sup, qry, "euclidean")
    if head == "linear":
        return linear_probe_probs(sup, qry, cfg)
    if head == "knn-cos":
        return knn_probs(sup, qry, cfg.knn_k, "cosine")
    if head == "knn-eucl":
        return knn_probs(sup, qry, cfg.knn_k, "euclidean")
    raise HeadError(f"unknown head {head!r}")


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
    cfg = cfg or ProbeConfig()
    total: np.ndarray | None = None
    classes: np.ndarray | None = None
    for member in members:
        member_classes, probs = _member_probs(
            member, support_x, support_y, query_x, head, cfg
        )
        if total is None:
            classes, total = member_classes, probs
        else:
            total = total + probs
    return classes[np.argmax(total / len(members), axis=1)]


def _episode_seed(base_seed: int, seed_idx: int, episode_idx: int, stream: int) -> int:
    ss = np.random.SeedSequence([base_seed, seed_idx, episode_idx, stream])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


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
    if head not in HEADS:
        raise HeadError(f"unknown head {head!r}")
    report = EvalReport(
        dataset=ds.name,
        n_way=protocol.n_way,
        k_shot=protocol.k_shot,
        head=head,
        n_seeds=protocol.n_seeds,
        n_episodes=protocol.n_episodes,
    )
    encoders = [None] if raw_space else members
    for seed_idx in range(protocol.n_seeds):
        for ep_idx in range(protocol.n_episodes):
            episode = sample_episode(
                ds,
                split_indices,
                protocol.n_way,
                protocol.k_shot,
                protocol.n_query_per_class,
                _episode_seed(protocol.base_seed, seed_idx, ep_idx, 0),
            )
            cfg = ProbeConfig(
                seed=_episode_seed(protocol.base_seed, seed_idx, ep_idx, 1)
            )
            sup_rows = np.array([r for r, _ in episode.support])
            sup_y = np.array([c for _, c in episode.support])
            qry_rows = np.array([r for r, _ in episode.query])
            qry_y = np.array([c for _, c in episode.query])
            x_sup = encode(pp, ds, sup_rows)
            x_qry = encode(pp, ds, qry_rows)
            preds = ensemble_predict(encoders, x_sup, sup_y, x_qry, head, cfg)
            accuracy = float(np.mean(preds == qry_y))
            report.rows.append((seed_idx, ep_idx, accuracy))
    return report


def write_report_csv(report: EvalReport, path: str | Path) -> None:
    """Per-episode CSV: dataset, n_way, k_shot, head, seed, episode, accuracy."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["dataset", "n_way", "k_shot", "head", "seed", "episode", "accuracy"]
        )
        for seed_idx, ep_idx, acc in report.rows:
            writer.writerow(
                [
                    report.dataset,
                    report.n_way,
                    report.k_shot,
                    report.head,
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
                    r.n_way,
                    r.k_shot,
                    r.head,
                    r.n_seeds,
                    r.n_episodes,
                    f"{r.mean_accuracy:.6f}",
                    f"{r.std_accuracy:.6f}",
                ]
            )
