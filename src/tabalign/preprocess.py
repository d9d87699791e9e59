"""Type-aware encoding and separation-mask handling.

Numerical columns are standardized, categorical columns are one-hot encoded,
and separation masks are sampled over raw columns so a one-hot block is never
split across the two views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import NUMERICAL, Dataset, _round_half_up
from .errors import EncodingError, MaskError, ViewError


@dataclass
class Preprocessor:
    """Fitted per-column statistics plus the raw-to-encoded coordinate map.

    ``ranges[j]`` is the half-open range of encoded coordinates owned by raw
    column j: width 1 for numerical columns, width ``cardinality`` for
    categorical ones. ``means``/``stds`` are meaningful for numerical columns
    only (stored as 0/1 elsewhere); stds are strictly positive because
    constant columns have their std replaced by 1.
    """

    kinds: list[str]
    means: np.ndarray
    stds: np.ndarray
    cardinalities: list[int | None]
    ranges: list[tuple[int, int]]
    encoded_dim: int
    normalize: bool = True
    marginals: list[np.ndarray] | None = None

    @property
    def d_raw(self) -> int:
        return len(self.kinds)


@dataclass(frozen=True)
class SeparationMask:
    """A raw-column mask and its expansion to encoded coordinates.

    ``encoded_mask`` selects the target view; its complement selects the
    feature view. All encoded coordinates of one raw column share the same
    mask value.
    """

    raw_mask: np.ndarray
    encoded_mask: np.ndarray
    ratio: float


def fit(
    ds: Dataset,
    train_indices: np.ndarray,
    normalize: bool = True,
    keep_marginals: bool = True,
) -> Preprocessor:
    """Fit encoding statistics on training rows only.

    Numerical columns get mean/population-std (std <- 1 when constant); with
    ``normalize=False`` the numerical transform is the identity. When
    ``keep_marginals`` is set, each column's observed training values are
    retained for the marginal-imputation view variant.
    """
    train_indices = np.asarray(train_indices)
    if train_indices.size == 0:
        raise EncodingError("fit requires at least one training row")
    x = ds.rows[train_indices]

    kinds = [c.kind for c in ds.schema]
    means = np.zeros(ds.d_raw)
    stds = np.ones(ds.d_raw)
    cardinalities: list[int | None] = []
    ranges: list[tuple[int, int]] = []
    marginals: list[np.ndarray] = []
    offset = 0
    for j, col in enumerate(ds.schema):
        if col.kind == NUMERICAL:
            if normalize:
                means[j] = x[:, j].mean()
                std = x[:, j].std()
                stds[j] = std if std > 0.0 else 1.0
            cardinalities.append(None)
            ranges.append((offset, offset + 1))
            offset += 1
            if keep_marginals:
                marginals.append((x[:, j] - means[j]) / stds[j])
        else:
            cardinalities.append(col.cardinality)
            ranges.append((offset, offset + col.cardinality))
            offset += col.cardinality
            if keep_marginals:
                marginals.append(x[:, j].astype(np.int64))

    return Preprocessor(
        kinds=kinds,
        means=means,
        stds=stds,
        cardinalities=cardinalities,
        ranges=ranges,
        encoded_dim=offset,
        normalize=normalize,
        marginals=marginals if keep_marginals else None,
    )


def encode_rows(pp: Preprocessor, rows: np.ndarray) -> np.ndarray:
    """Encode a (n, d_raw) matrix of raw cells into (n, encoded_dim)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != pp.d_raw:
        raise EncodingError(f"rows have {rows.shape[1]} columns, expected {pp.d_raw}")
    n = rows.shape[0]
    out = np.zeros((n, pp.encoded_dim))
    for j, kind in enumerate(pp.kinds):
        start, stop = pp.ranges[j]
        if kind == NUMERICAL:
            out[:, start] = (rows[:, j] - pp.means[j]) / pp.stds[j]
        else:
            idx = np.rint(rows[:, j]).astype(np.int64)
            card = stop - start
            if idx.size and (idx.min() < 0 or idx.max() >= card):
                raise EncodingError(
                    f"raw column {j}: category index outside [0, {card})"
                )
            out[np.arange(n), start + idx] = 1.0
    return out


def encode(pp: Preprocessor, ds: Dataset, indices: np.ndarray) -> np.ndarray:
    """Encode the selected dataset rows; see :func:`encode_rows`."""
    return encode_rows(pp, ds.rows[np.asarray(indices)])


def mask_popcount(ratio: float, d_raw: int) -> int:
    """Number of raw columns a mask at this ratio selects, clamped to [1, d_raw-1]."""
    return min(max(_round_half_up(ratio * d_raw), 1), d_raw - 1)


def sample_mask(pp: Preprocessor, ratio: float, rng: np.random.Generator) -> SeparationMask:
    """Sample a separation mask over raw columns and expand it to encoded space.

    Selects ``clamp(round(ratio * d_raw), 1, d_raw - 1)`` raw columns
    uniformly without replacement, so neither view is ever empty.
    """
    if pp.d_raw < 2:
        raise MaskError("need at least 2 raw columns to separate views")
    if not 0.0 < ratio < 1.0:
        raise MaskError(f"separation ratio must be in (0, 1), got {ratio}")
    n_on = mask_popcount(ratio, pp.d_raw)
    raw_mask = np.zeros(pp.d_raw, dtype=np.uint8)
    raw_mask[rng.choice(pp.d_raw, size=n_on, replace=False)] = 1
    return SeparationMask(
        raw_mask=raw_mask,
        encoded_mask=expand_mask(pp, raw_mask),
        ratio=ratio,
    )


def expand_mask(pp: Preprocessor, raw_mask: np.ndarray) -> np.ndarray:
    """Expand a raw-column mask so every encoded coordinate of a column shares its bit."""
    encoded = np.zeros(pp.encoded_dim)
    for j, (start, stop) in enumerate(pp.ranges):
        if raw_mask[j]:
            encoded[start:stop] = 1.0
    return encoded


def make_views(x: np.ndarray, mask: SeparationMask) -> tuple[np.ndarray, np.ndarray]:
    """Split encoded rows into complementary feature and target views.

    Masked-out coordinates are exactly zero in each view, so the views sum
    back to the input. Accepts a single row or a batch.
    """
    x = np.asarray(x)
    m = mask.encoded_mask
    if x.shape[-1] != m.shape[0]:
        raise ViewError(f"input width {x.shape[-1]} != encoded dim {m.shape[0]}")
    return x * (1.0 - m), x * m


def make_views_marginal(
    x: np.ndarray,
    mask: SeparationMask,
    pp: Preprocessor,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """View construction with marginal imputation of the feature view.

    Target-view coordinates of the feature view are filled per row by
    sampling that raw column's empirical training distribution instead of
    zeros. The target view itself stays zero-filled so nearest-neighbor
    distances remain pure subspace distances.
    """
    if pp.marginals is None:
        raise ViewError("marginal imputation needs a preprocessor fitted with keep_marginals")
    x = np.atleast_2d(np.asarray(x))
    x_f, x_t = make_views(x, mask)
    x_f = x_f.copy()
    n = x_f.shape[0]
    for j in np.flatnonzero(mask.raw_mask):
        start, stop = pp.ranges[j]
        pool = pp.marginals[j]
        draws = pool[rng.integers(len(pool), size=n)]
        if pp.kinds[j] == NUMERICAL:
            x_f[:, start] = draws
        else:
            x_f[:, start:stop] = 0.0
            x_f[np.arange(n), start + draws.astype(np.int64)] = 1.0
    return x_f, x_t
