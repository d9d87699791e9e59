"""Monte Carlo mismatch estimates and the exponential-bound fit."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tabalign.errors import ConfigError
from tabalign.theory import (
    GaussianPairSpec,
    MismatchEstimate,
    check_bound,
    expected_mismatch,
    mean_subset_separation,
    mismatch_count,
    ramp_offset,
)


def _oracle_mismatch_rate(offset_on_subset: np.ndarray, n_trials: int, rng) -> float:
    """Independently coded sampler working directly in the subset coordinates.

    Decomposes each sample into its noise term: the mismatch event is
    ||offset + eZ - eX||^2 <= ||eY - eX||^2 with i.i.d. standard normal
    noise. The two squared distances share eX and are therefore dependent;
    sampling them independently would change the probability.
    """
    d = len(offset_on_subset)
    e_x = rng.standard_normal((n_trials, d))
    e_y = rng.standard_normal((n_trials, d))
    e_z = rng.standard_normal((n_trials, d))
    lhs = np.square(offset_on_subset + e_z - e_x).sum(axis=1)
    rhs = np.square(e_y - e_x).sum(axis=1)
    return float(np.mean(lhs <= rhs))


class TestMismatchTrial:
    def test_zero_offset_symmetry(self):
        """With identical class means the mismatch rate is one half."""
        spec = GaussianPairSpec(6, np.zeros(6))
        rng = np.random.default_rng(0)
        hits = mismatch_count(spec, np.arange(6), 100_000, rng)
        assert hits / 100_000 == pytest.approx(0.5, abs=0.01)

    def test_overwhelming_separation(self):
        offset = np.zeros(8)
        offset[2] = 100.0
        spec = GaussianPairSpec(8, offset)
        rng = np.random.default_rng(1)
        hits = mismatch_count(spec, np.array([2, 3]), 10_000, rng)
        assert hits / 10_000 < 1e-3

    def test_matches_independent_sampler(self):
        """Duplicate-implementation oracle at D=10, delta^2=9, full subset."""
        offset = ramp_offset(10, 9.0)
        spec = GaussianPairSpec(10, offset)
        n = 100_000
        p_pkg = mismatch_count(spec, np.arange(10), n, np.random.default_rng(2)) / n
        p_ind = _oracle_mismatch_rate(offset, n, np.random.default_rng(3))
        se = math.sqrt(p_pkg * (1 - p_pkg) / n + p_ind * (1 - p_ind) / n)
        assert abs(p_pkg - p_ind) <= 3.0 * se

    def test_single_trial_is_bernoulli(self):
        spec = GaussianPairSpec(4, np.zeros(4))
        rng = np.random.default_rng(4)
        values = {mismatch_count(spec, np.arange(4), 1, rng) for _ in range(50)}
        assert values <= {0, 1} and len(values) == 2

    def test_empty_subset_rejected(self):
        spec = GaussianPairSpec(4, np.zeros(4))
        with pytest.raises(ConfigError):
            mismatch_count(spec, np.array([], dtype=int), 10, np.random.default_rng(0))


class TestExpectedMismatch:
    def test_full_subset_degenerates_to_full_space(self):
        spec = GaussianPairSpec(10, ramp_offset(10, 16.0))
        est = expected_mismatch(spec, 10, 50, 1000, np.random.default_rng(5))
        n = 50_000
        direct = mismatch_count(spec, np.arange(10), n, np.random.default_rng(6)) / n
        se = math.sqrt(est.stderr**2 + direct * (1 - direct) / n)
        assert abs(est.estimate - direct) <= 3.0 * max(se, 1e-4)

    def test_two_case_mixture(self):
        """D=2, all mass on one coordinate, n=1: half the subsets are blind."""
        offset = np.array([3.0, 0.0])
        spec = GaussianPairSpec(2, offset)
        est = expected_mismatch(spec, 1, 400, 500, np.random.default_rng(7))
        p_informative = _oracle_mismatch_rate(np.array([3.0]), 100_000, np.random.default_rng(8))
        expected = 0.5 * p_informative + 0.5 * 0.5
        # Subset sampling adds binomial spread on top of the pooled SE.
        tol = 3.0 * (est.stderr + 0.25 / math.sqrt(400))
        assert abs(est.estimate - expected) <= tol

    def test_decreasing_in_subset_size(self):
        spec = GaussianPairSpec(50, ramp_offset(50, 25.0))
        rng = np.random.default_rng(9)
        ests = [expected_mismatch(spec, n, 50, 400, rng) for n in (5, 10, 25, 50)]
        for lo, hi in zip(ests[1:], ests[:-1]):
            combined = math.sqrt(lo.stderr**2 + hi.stderr**2)
            assert lo.estimate <= hi.estimate + 3.0 * combined

    def test_subset_size_bounds(self):
        spec = GaussianPairSpec(5, np.zeros(5))
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            expected_mismatch(spec, 0, 10, 10, rng)
        with pytest.raises(ConfigError):
            expected_mismatch(spec, 6, 10, 10, rng)


class TestSubsetSeparation:
    def test_matches_fraction_of_total(self):
        """Sampled mean of the restricted separation is (n/D) * delta^2."""
        spec = GaussianPairSpec(50, ramp_offset(50, 36.0))
        rng = np.random.default_rng(10)
        for n in (5, 25, 50):
            mean, se = mean_subset_separation(spec, n, 2000, rng)
            expected = n / 50.0 * 36.0
            assert abs(mean - expected) <= 3.0 * max(se, 1e-9)

    def test_full_subset_is_exact(self):
        spec = GaussianPairSpec(8, ramp_offset(8, 4.0))
        mean, se = mean_subset_separation(spec, 8, 10, np.random.default_rng(0))
        assert mean == pytest.approx(4.0)
        assert se == pytest.approx(0.0, abs=1e-12)


class TestCheckBound:
    def _cell(self, n, delta_sq, estimate, stderr, dim=50, subsets=100, trials=1000):
        return MismatchEstimate(
            dim=dim,
            delta_sq=delta_sq,
            subset_size=n,
            n_subsets=subsets,
            trials_per_subset=trials,
            estimate=estimate,
            stderr=stderr,
        )

    def test_zero_exponent_cell_is_trivially_satisfied(self):
        report = check_bound([self._cell(5, 0.0, 0.5, 0.002)])
        assert report.passed
        assert math.isinf(report.c_star)

    def test_all_zero_estimates_use_floor(self):
        cells = [self._cell(n, 16.0, 0.0, 0.0) for n in (10, 25)]
        report = check_bound(cells)
        floor = 1.0 / 100_000
        expected = min(
            math.log(2.0 / floor) / (n * 16.0 / 50.0) for n in (10, 25)
        )
        assert report.c_star == pytest.approx(expected)
        assert report.passed

    def test_every_cell_within_fitted_bound(self):
        rng = np.random.default_rng(11)
        cells = []
        for n in (5, 10, 25, 50):
            for delta_sq in (0.0, 4.0, 16.0):
                x = n * delta_sq / 50.0
                p = min(0.5, 2.0 * math.exp(-0.11 * x)) * rng.uniform(0.8, 1.0)
                cells.append(self._cell(n, delta_sq, p, math.sqrt(p * (1 - p) / 1e5)))
        report = check_bound(cells)
        assert report.passed
        for cell in cells:
            x = cell.subset_size * cell.delta_sq / cell.dim
            assert cell.estimate <= 2.0 * math.exp(-report.c_star * x) + 3.0 * cell.stderr + 1e-12

    def test_slope_is_negative_for_decaying_grid(self):
        cells = [
            self._cell(n, 16.0, 0.5 * math.exp(-0.2 * n * 16.0 / 50.0), 0.001)
            for n in (5, 10, 25, 50)
        ]
        report = check_bound(cells)
        assert report.slope < 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            check_bound([])


class TestRampOffset:
    def test_norm_matches_requested_separation(self):
        for delta_sq in (0.0, 1.0, 25.0):
            offset = ramp_offset(50, delta_sq)
            assert float(np.square(offset).sum()) == pytest.approx(delta_sq)

    def test_spec_asserts_consistency(self):
        spec = GaussianPairSpec(3, np.array([1.0, 2.0, 2.0]))
        assert spec.delta_sq == pytest.approx(9.0)
        with pytest.raises(ConfigError):
            GaussianPairSpec(3, np.array([1.0, 2.0]))
