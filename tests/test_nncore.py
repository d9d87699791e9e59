"""Network kernel: forward/backward, contrastive loss, Adam."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tabalign.errors import DimensionError, LossError, OptimizerError
from tabalign.nncore import (
    AdamState,
    DenseLayer,
    adam_step,
    infonce_loss,
    init_layer,
    mlp_backward,
    mlp_forward,
)

from conftest import central_diff_grads, max_rel_error


def _random_net(rng, dims=(5, 7, 3)):
    return [
        init_layer(dims[0], dims[1], rng),
        init_layer(dims[1], dims[2], rng),
    ]


class TestMlpForward:
    def test_identity_network_on_positive_input(self):
        layers = [
            DenseLayer(np.eye(3), np.zeros(3)),
            DenseLayer(np.eye(3), np.zeros(3)),
        ]
        x = np.array([[1.0, 2.0, 3.0]])
        y, _ = mlp_forward(layers, x)
        np.testing.assert_allclose(y, x)

    def test_relu_kills_negative_preactivation(self):
        layers = [
            DenseLayer(np.array([[1.0]]), np.array([-2.0])),
            DenseLayer(np.array([[1.0]]), np.array([0.0])),
        ]
        y, _ = mlp_forward(layers, np.array([[1.0]]))
        assert y[0, 0] == 0.0

    def test_shape_mismatch(self):
        layers = _random_net(np.random.default_rng(0))
        with pytest.raises(DimensionError):
            mlp_forward(layers, np.ones((4, 9)))
        with pytest.raises(DimensionError):
            mlp_forward(layers, np.ones(5))

    def test_gradient_matches_finite_differences(self):
        """v . mlp(x) as the scalar; parameters and input checked against FD."""
        rng = np.random.default_rng(42)
        layers = _random_net(rng)
        x = rng.normal(size=(4, 5))
        v = rng.normal(size=(4, 3))

        def loss():
            y, _ = mlp_forward(layers, x)
            return float((v * y).sum())

        y, cache = mlp_forward(layers, x)
        d_x = mlp_backward(layers, cache, v)
        analytic = [
            layers[0].grad_weight.copy(),
            layers[0].grad_bias.copy(),
            layers[1].grad_weight.copy(),
            layers[1].grad_bias.copy(),
            d_x,
        ]
        arrays = [
            layers[0].weight,
            layers[0].bias,
            layers[1].weight,
            layers[1].bias,
            x,
        ]
        numeric = central_diff_grads(loss, arrays)
        for a, n in zip(analytic, numeric):
            assert max_rel_error(a, n) < 1e-6


class TestInfoNCE:
    def test_batch_of_two_is_exact_zero(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(2, 6))
        loss, d_z = infonce_loss(z, [1, 0], temperature=0.1)
        assert abs(loss) <= 1e-12
        np.testing.assert_allclose(d_z, 0.0, atol=1e-15)

    def test_identical_rows_give_log_two(self):
        z = np.tile(np.array([0.3, -1.2, 0.4]), (3, 1))
        loss, _ = infonce_loss(z, [1, 0, 0], temperature=0.1)
        assert loss == pytest.approx(math.log(2.0), abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(8, 5))
        pos = np.array([3, 2, 1, 0, 7, 6, 5, 4])

        def loss():
            return infonce_loss(z, pos, temperature=0.1)[0]

        _, analytic = infonce_loss(z, pos, temperature=0.1)
        numeric = central_diff_grads(loss, [z])[0]
        assert max_rel_error(analytic, numeric) < 1e-5

    def test_loss_bounds_hold_on_random_batches(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            b = int(rng.integers(2, 16))
            scale = 10.0 ** rng.integers(-3, 4)
            z = rng.normal(size=(b, 4)) * scale
            pos = (np.arange(b) + 1 + rng.integers(b - 1, size=b)) % b
            pos[pos == np.arange(b)] = (pos[pos == np.arange(b)] + 1) % b
            tau = float(rng.uniform(0.05, 1.0))
            loss, _ = infonce_loss(z, pos, temperature=tau)
            assert -1e-9 <= loss <= math.log(b - 1) + 2.0 / tau + 1e-9

    def test_contract_violations(self):
        with pytest.raises(LossError):
            infonce_loss(np.ones((1, 3)), [0])
        with pytest.raises(LossError):
            infonce_loss(np.ones((3, 2)), [0, 0, 1])
        with pytest.raises(LossError):
            infonce_loss(np.ones((2, 2)), [1])


class TestAdam:
    def test_first_step_magnitude(self):
        theta = np.array([0.5])
        state = AdamState.for_params([theta], lr=0.001)
        adam_step([theta], [np.array([1.0])], state)
        delta = theta[0] - 0.5
        assert delta == pytest.approx(-0.001 / (1.0 + 1e-8), abs=1e-12)

    def test_zero_gradient_is_noop(self):
        theta = np.array([0.7, -0.3])
        state = AdamState.for_params([theta], lr=0.01)
        adam_step([theta], [np.zeros(2)], state)
        np.testing.assert_array_equal(theta, [0.7, -0.3])
        assert state.t == 1

    def test_quadratic_descent(self):
        """Run the scalar recurrence on f = theta^2 from theta = 1, lr 0.1.

        The initial descent is monotone in |theta|; momentum then drives a
        damped oscillation whose peaks strictly decay, ending below 0.1.
        """
        theta = np.array([1.0])
        state = AdamState.for_params([theta], lr=0.1)
        traj = [1.0]
        for _ in range(100):
            adam_step([theta], [2.0 * theta], state)
            traj.append(float(theta[0]))
        magnitudes = np.abs(traj)
        assert np.all(np.diff(magnitudes[:12]) < 0.0)
        peaks = [
            magnitudes[i]
            for i in range(1, 100)
            if magnitudes[i] >= magnitudes[i - 1] and magnitudes[i] >= magnitudes[i + 1]
        ]
        assert np.all(np.diff([magnitudes[0]] + peaks) < 0.0)
        assert magnitudes[-1] < 0.1

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(1)
        p1 = rng.normal(size=(4, 3))
        g = rng.normal(size=(4, 3))
        p2 = p1.copy()
        s1 = AdamState.for_params([p1], lr=0.01)
        s2 = AdamState.for_params([p2], lr=0.01)
        for _ in range(10):
            adam_step([p1], [g], s1)
            adam_step([p2], [g], s2)
        assert p1.tobytes() == p2.tobytes()
        assert s1.m[0].tobytes() == s2.m[0].tobytes()

    def test_nonfinite_gradient_fails_fast(self):
        theta = np.array([1.0])
        state = AdamState.for_params([theta], lr=0.01)
        with pytest.raises(OptimizerError):
            adam_step([theta], [np.array([np.nan])], state)
        with pytest.raises(OptimizerError):
            adam_step([theta], [np.ones(2)], state)
