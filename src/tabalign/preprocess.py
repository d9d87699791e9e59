"""Type-aware encoding and separation-mask handling.

Numerical columns are standardized, categorical columns are one-hot encoded,
and separation masks are sampled over raw columns so a one-hot block is never
split across the two views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .data import NUMERICAL, ColumnSchema, Dataset, _round_half_up
from .errors import ArrayError, MaskError, SchemaError


@dataclass
class Preprocessor:
    """The columns a preprocessor was fitted on, and the statistics it learned.

    ``ranges[j]`` is the half-open range of encoded coordinates owned by raw
    column j: width 1 for numerical columns, width ``cardinality`` for
    categorical ones. It is derived from ``schema`` once, when the
    preprocessor is built. ``means``/``stds`` are meaningful for numerical
    columns only (stored as 0/1 elsewhere); stds are strictly positive
    because constant columns have their std replaced by 1.
    """

    schema: list[ColumnSchema]
    means: np.ndarray
    stds: np.ndarray
    marginals: list[np.ndarray] | None = None
    ranges: list[tuple[int, int]] = field(init=False)

    def __post_init__(self) -> None:
        stops = list(accumulate((c.cardinality or 1 for c in self.schema), initial=0))
        self.ranges = list(zip(stops[:-1], stops[1:]))

    @property
    def d_raw(self) -> int:
        return len(self.schema)

    @property
    def encoded_dim(self) -> int:
        return self.ranges[-1][1] if self.ranges else 0


@dataclass(frozen=True)
class SeparationMask:
    """A raw-column mask and its expansion to encoded coordinates.

    ``encoded_mask`` selects the target view; its complement selects the
    feature view. All encoded coordinates of one raw column share the same
    mask value.
    """

    raw_mask: np.ndarray
    encoded_mask: np.ndarray


def fit(ds: Dataset, train_indices: np.ndarray, normalize: bool = True) -> Preprocessor:
    """Fit encoding statistics on training rows only.

    Numerical columns get mean/population-std (std <- 1 when constant); with
    ``normalize=False`` the numerical transform is the identity. Each column's
    observed training values are retained for the marginal-imputation views.
    """
    train_indices = np.asarray(train_indices)
    if train_indices.size == 0:
        raise ArrayError("fit requires at least one training row")
    x = ds.rows[train_indices]

    means = np.zeros(ds.d_raw)
    stds = np.ones(ds.d_raw)
    marginals: list[np.ndarray] = []
    for j, col in enumerate(ds.schema):
        if col.kind == NUMERICAL:
            if normalize:
                means[j] = x[:, j].mean()
                std = x[:, j].std()
                stds[j] = std if std > 0.0 else 1.0
            marginals.append((x[:, j] - means[j]) / stds[j])
        else:
            marginals.append(x[:, j].astype(np.int64))
    return Preprocessor(list(ds.schema), means, stds, marginals)


def encode_rows(pp: Preprocessor, rows: np.ndarray) -> np.ndarray:
    """Encode a (n, d_raw) matrix of raw cells into (n, encoded_dim)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != pp.d_raw:
        raise ArrayError(f"rows have {rows.shape[1]} columns, expected {pp.d_raw}")
    n = rows.shape[0]
    out = np.zeros((n, pp.encoded_dim))
    for j, col in enumerate(pp.schema):
        start, stop = pp.ranges[j]
        if col.kind == NUMERICAL:
            out[:, start] = (rows[:, j] - pp.means[j]) / pp.stds[j]
        else:
            idx = np.rint(rows[:, j]).astype(np.int64)
            card = stop - start
            if idx.size and (idx.min() < 0 or idx.max() >= card):
                raise ArrayError(
                    f"raw column {j}: category index outside [0, {card})"
                )
            out[np.arange(n), start + idx] = 1.0
    return out


def encode(pp: Preprocessor, ds: Dataset, indices: np.ndarray) -> np.ndarray:
    """Encode the selected dataset rows; see :func:`encode_rows`.

    Raises :class:`SchemaError` unless the dataset has the columns the
    preprocessor was fitted on, in the same order.
    """
    if ds.schema != pp.schema:
        raise SchemaError(
            f"dataset {ds.name!r} does not have the columns the preprocessor was fitted on"
        )
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
    return SeparationMask(raw_mask=raw_mask, encoded_mask=expand_mask(pp, raw_mask))


def expand_mask(pp: Preprocessor, raw_mask: np.ndarray) -> np.ndarray:
    """Expand a raw-column mask so every encoded coordinate of a column shares its bit."""
    widths = [stop - start for start, stop in pp.ranges]
    return np.repeat(np.asarray(raw_mask, dtype=np.float64), widths)


def make_views(
    x: np.ndarray,
    mask: SeparationMask,
    *,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Split encoded rows into complementary feature and target views.

    Masked-out coordinates are exactly zero in each view, so the views sum
    back to the input. Accepts a single row or a batch. The views have the
    dtype of ``x``, or are written into the pair ``out``, in its dtype, when given.
    """
    x = np.asarray(x)
    m = mask.encoded_mask.astype(x.dtype, copy=False)
    if x.shape[-1] != m.shape[0]:
        raise ArrayError(f"input width {x.shape[-1]} != encoded dim {m.shape[0]}")
    x_f, x_t = (None, None) if out is None else out
    return np.multiply(x, 1.0 - m, out=x_f), np.multiply(x, m, out=x_t)


def make_views_marginal(
    x: np.ndarray,
    mask: SeparationMask,
    pp: Preprocessor,
    rng: np.random.Generator,
    *,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """View construction with marginal imputation of the feature view.

    Target-view coordinates of the feature view are filled per row by
    sampling that raw column's empirical training distribution instead of
    zeros. The target view itself stays zero-filled so nearest-neighbor
    distances remain pure subspace distances. ``out`` is as in :func:`make_views`.
    """
    if pp.marginals is None:
        raise ArrayError(
            "marginal imputation needs the training marginals, which a preprocessor "
            "loaded from a checkpoint does not keep"
        )
    x = np.atleast_2d(np.asarray(x))
    x_f, x_t = make_views(x, mask, out=out)
    n = x_f.shape[0]
    for j in np.flatnonzero(mask.raw_mask):
        start, stop = pp.ranges[j]
        pool = pp.marginals[j]
        draws = pool[rng.integers(len(pool), size=n)]
        if pp.schema[j].kind == NUMERICAL:
            x_f[:, start] = draws
        else:
            x_f[:, start:stop] = 0.0
            x_f[np.arange(n), start + draws.astype(np.int64)] = 1.0
    return x_f, x_t
