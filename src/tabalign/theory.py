"""Monte Carlo verification of the mismatch-probability bound.

For two isotropic Gaussian classes, a mismatch occurs when a sample's nearest
neighbor inside a random coordinate subset (the target view) comes from the
other class. The expected mismatch probability over uniformly sampled
subsets of size n decays like ``2 exp(-C n delta^2 / D)``; since the constant
C is not pinned down analytically, the largest constant consistent with the
estimates is fitted instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class GaussianPairSpec:
    """Two unit-covariance Gaussian classes whose means differ by ``offset``."""

    dim: int
    offset: np.ndarray

    def __post_init__(self) -> None:
        offset = np.asarray(self.offset, dtype=np.float64)
        if self.dim < 1 or offset.shape != (self.dim,):
            raise ConfigError(f"offset must be a vector of length dim={self.dim}")
        object.__setattr__(self, "offset", offset)

    @property
    def delta_sq(self) -> float:
        """Squared separation between the class means."""
        return float(np.square(self.offset).sum())


@dataclass(frozen=True)
class MismatchEstimate:
    """Pooled Monte Carlo estimate of the expected mismatch probability."""

    dim: int
    delta_sq: float
    subset_size: int
    n_subsets: int
    trials_per_subset: int
    estimate: float
    stderr: float

    @property
    def total_trials(self) -> int:
        return self.n_subsets * self.trials_per_subset


@dataclass(frozen=True)
class BoundReport:
    """Fitted exponential-decay summary over a grid of estimates."""

    c_star: float
    passed: bool
    slope: float
    floor: float


def mismatch_count(
    spec: GaussianPairSpec,
    subset: np.ndarray,
    n_trials: int,
    rng: np.random.Generator,
) -> int:
    """Count mismatches over ``n_trials`` independent draws.

    Each trial samples same-class X, Y ~ N(0, I) and other-class
    Z ~ N(offset, I) in the full space, projects onto the subset, and scores
    a mismatch when Z is no further from X than Y is.
    """
    s = np.asarray(subset, dtype=np.int64)
    if s.size == 0:
        raise ConfigError("subset must be non-empty")
    x = rng.standard_normal((n_trials, spec.dim))
    y = rng.standard_normal((n_trials, spec.dim))
    z = spec.offset + rng.standard_normal((n_trials, spec.dim))
    dz = np.square(z[:, s] - x[:, s]).sum(axis=1)
    dy = np.square(y[:, s] - x[:, s]).sum(axis=1)
    return int(np.count_nonzero(dz <= dy))


def expected_mismatch(
    spec: GaussianPairSpec,
    n: int,
    n_subsets: int,
    trials_per_subset: int,
    rng: np.random.Generator,
) -> MismatchEstimate:
    """Estimate the mismatch probability averaged over random size-n subsets.

    Subsets are drawn uniformly without replacement within each subset;
    Bernoulli outcomes are pooled across subsets (unbiased for the expected
    probability), and the standard error is the binomial SE of the pooled
    estimate.
    """
    if not 1 <= n <= spec.dim:
        raise ConfigError(f"subset size {n} outside [1, {spec.dim}]")
    if n_subsets < 1 or trials_per_subset < 1:
        raise ConfigError("need at least one subset and one trial per subset")
    hits = 0
    for _ in range(n_subsets):
        subset = rng.choice(spec.dim, size=n, replace=False)
        hits += mismatch_count(spec, subset, trials_per_subset, rng)
    total = n_subsets * trials_per_subset
    p = hits / total
    return MismatchEstimate(
        dim=spec.dim,
        delta_sq=spec.delta_sq,
        subset_size=n,
        n_subsets=n_subsets,
        trials_per_subset=trials_per_subset,
        estimate=p,
        stderr=math.sqrt(p * (1.0 - p) / total),
    )


def mean_subset_separation(
    spec: GaussianPairSpec, n: int, n_subsets: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Sampled mean of the subset-restricted squared separation, with its SE.

    Under uniform subset sampling this mean equals ``(n / D) * delta_sq``.
    """
    if not 1 <= n <= spec.dim:
        raise ConfigError(f"subset size {n} outside [1, {spec.dim}]")
    sq = np.square(spec.offset)
    values = np.empty(n_subsets)
    for i in range(n_subsets):
        subset = rng.choice(spec.dim, size=n, replace=False)
        values[i] = sq[subset].sum()
    se = float(values.std(ddof=1) / math.sqrt(n_subsets)) if n_subsets > 1 else 0.0
    return float(values.mean()), se


def check_bound(estimates: list[MismatchEstimate]) -> BoundReport:
    """Fit the largest decay constant consistent with every estimate.

    ``c_star`` is the largest C such that every cell satisfies
    ``estimate <= 2 exp(-C n delta_sq / D) + 3 SE``; zero estimates are
    floored at 1/(total trials). Cells with ``n delta_sq / D == 0`` never
    bind (the bound is 2 there). Also reports the least-squares slope of
    log(estimate) against ``n delta_sq / D``.
    """
    if not estimates:
        raise ConfigError("check_bound needs at least one estimate")
    floor = min(1.0 / e.total_trials for e in estimates)
    c_star = math.inf
    xs: list[float] = []
    logs: list[float] = []
    for e in estimates:
        x = e.subset_size * e.delta_sq / e.dim
        value = max(e.estimate, 1.0 / e.total_trials)
        xs.append(x)
        logs.append(math.log(value))
        if x <= 0.0:
            continue
        margin = value - 3.0 * e.stderr
        if margin <= 0.0:
            continue
        c_star = min(c_star, math.log(2.0 / margin) / x)
    slope = float(np.polyfit(xs, logs, 1)[0]) if len(set(xs)) > 1 else 0.0
    return BoundReport(c_star=c_star, passed=c_star > 0.0, slope=slope, floor=floor)


def ramp_offset(dim: int, delta_sq: float) -> np.ndarray:
    """A deterministic non-uniform mean offset with the requested separation.

    Components grow linearly with the coordinate index, so random subsets see
    genuinely different separations (a flat offset would make every subset
    identical and the averaging step vacuous).
    """
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    if not (math.isfinite(delta_sq) and delta_sq >= 0):
        raise ConfigError(f"delta_sq must be finite and non-negative, got {delta_sq}")
    ramp = np.arange(1, dim + 1, dtype=np.float64)
    return ramp * math.sqrt(delta_sq / np.square(ramp).sum())
