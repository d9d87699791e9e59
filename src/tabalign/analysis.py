"""Neighborhood diagnostics: target-view label purity and the input-vs-latent
10-NN label consistency comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError
from .fewshot import embed
from .preprocess import Preprocessor, make_views, sample_mask
from .pretrain import EncoderStack, nearest_neighbors


def neighbor_fraction_curve(
    x: np.ndarray,
    labels: np.ndarray,
    pp: Preprocessor,
    ratio: float,
    n_separations: int,
    k_max: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mean same-class fraction among the k nearest target-view neighbors.

    For each of ``n_separations`` sampled masks, every row's k nearest
    neighbors are found in its target view and the cumulative same-class
    fraction is recorded for k = 1..k_max; the curve averages over rows and
    separations. Entry ``curve[k-1]`` is the value at k.
    """
    x = np.asarray(x)
    labels = np.asarray(labels)
    if labels.shape[0] != x.shape[0]:
        raise AnalysisError("labels must match the row count")
    if n_separations < 1:
        raise AnalysisError("need at least one separation")
    if k_max < 1 or k_max >= x.shape[0]:
        raise AnalysisError(f"k_max must be in [1, {x.shape[0] - 1}]")

    denom = np.arange(1, k_max + 1)
    accum = np.zeros(k_max)
    for _ in range(n_separations):
        nbrs = nearest_neighbors(make_views(x, sample_mask(pp, ratio, rng))[1], k_max)
        same = labels[nbrs] == labels[:, None]
        accum += (np.cumsum(same, axis=1) / denom).mean(axis=0)
    return accum / n_separations


@dataclass
class ConsistencyTable:
    """Per-bucket comparison of input-space and latent-space neighbor labels.

    Rows are bucketed by how many of their 10 input-space nearest neighbors
    share their label; ``mean_latent_count[b]`` is NaN for empty buckets.
    """

    k: int
    bucket_sizes: np.ndarray
    mean_input_count: np.ndarray
    mean_latent_count: np.ndarray
    overall_input_mean: float
    overall_latent_mean: float


def latent_consistency(
    x: np.ndarray,
    labels: np.ndarray,
    stack: EncoderStack,
    k: int = 10,
) -> ConsistencyTable:
    """Compare same-class neighbor counts before and after encoding.

    Counts same-class members among each row's k nearest neighbors in the
    encoded input space and in the embedding space, then buckets rows by
    their input-space count (0..k).
    """
    x = np.asarray(x)
    labels = np.asarray(labels)
    if x.shape[0] < k + 1:
        raise AnalysisError(f"need more than {k} rows, got {x.shape[0]}")
    if labels.shape[0] != x.shape[0]:
        raise AnalysisError("labels must match the row count")

    input_counts = (labels[nearest_neighbors(x, k)] == labels[:, None]).sum(axis=1)
    latent = embed(stack, x)
    latent_counts = (labels[nearest_neighbors(latent, k)] == labels[:, None]).sum(axis=1)

    sizes = np.zeros(k + 1, dtype=np.int64)
    mean_latent = np.full(k + 1, np.nan)
    for b in range(k + 1):
        rows = input_counts == b
        sizes[b] = rows.sum()
        if sizes[b]:
            mean_latent[b] = latent_counts[rows].mean()
    return ConsistencyTable(
        k=k,
        bucket_sizes=sizes,
        mean_input_count=np.arange(k + 1, dtype=np.float64),
        mean_latent_count=mean_latent,
        overall_input_mean=float(input_counts.mean()),
        overall_latent_mean=float(latent_counts.mean()),
    )
