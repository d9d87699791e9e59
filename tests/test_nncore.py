"""Network kernel: forward/backward, contrastive loss, Adam."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from tabalign.errors import DimensionError, LossError, OptimizerError
from tabalign.nncore import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    NORM_EPS,
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

from conftest import central_diff_grads, max_rel_error


# Reference forms of the four step kernels, one fresh array per arithmetic
# step. The in-place kernels must reproduce their bytes.


def _reference_mlp_forward(layers, x):
    cache = []
    h = x
    for i, layer in enumerate(layers):
        z = h @ layer.weight.T + layer.bias
        cache.append((h, z))
        h = np.maximum(z, 0.0) if i < len(layers) - 1 else z
    return h, cache


def _reference_mlp_backward(layers, cache, d_out, grads):
    d_z = np.asarray(d_out)
    d_in = d_z
    for i in reversed(range(len(layers))):
        h_in, _ = cache[i]
        grads[2 * i][...] = d_z.T @ h_in
        grads[2 * i + 1][...] = d_z.sum(axis=0)
        d_in = d_z @ layers[i].weight
        if i > 0:
            d_z = d_in * (cache[i - 1][1] > 0.0)
    return d_in


def _reference_infonce_loss(z, pos, temperature):
    z = np.asarray(z, dtype=np.float64)
    b = z.shape[0]
    norms = np.linalg.norm(z, axis=1)
    degenerate = norms < NORM_EPS
    safe = np.where(degenerate, 1.0, norms)
    zhat = z / safe[:, None]
    zhat[degenerate] = 0.0

    sims = zhat @ zhat.T
    logits = sims / temperature
    np.fill_diagonal(logits, -np.inf)

    row_max = logits.max(axis=1)
    expl = np.exp(logits - row_max[:, None])
    np.fill_diagonal(expl, 0.0)
    denom = expl.sum(axis=1)
    losses = -(logits[np.arange(b), pos] - row_max) + np.log(denom)
    loss = float(losses.mean())

    softmax = expl / denom[:, None]
    coeff = softmax / (temperature * b)
    coeff[np.arange(b), pos] -= 1.0 / (temperature * b)
    np.fill_diagonal(coeff, 0.0)

    d_zhat = (coeff + coeff.T) @ zhat
    inner = (d_zhat * zhat).sum(axis=1, keepdims=True)
    d_z = (d_zhat - inner * zhat) / safe[:, None]
    d_z[degenerate] = 0.0
    return loss, d_z


def _reference_adam_step(params, grads, state):
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _peak_traced_bytes(fn) -> int:
    """Peak bytes allocated while ``fn`` runs, results included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _grads_for(layers):
    """Zeroed gradient buffers laid out like the layers' weight, bias pairs."""
    return [np.zeros_like(t) for layer in layers for t in (layer.weight, layer.bias)]


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
        grads = _grads_for(layers)
        d_x = mlp_backward(layers, cache, v, grads)
        analytic = [
            grads[0].copy(),
            grads[1].copy(),
            grads[2].copy(),
            grads[3].copy(),
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

    @staticmethod
    def _assert_bits_match_reference(layers, x, d_out):
        ref_out, ref_cache = _reference_mlp_forward(layers, x)
        ref_grads = _grads_for(layers)
        ref_d_x = _reference_mlp_backward(layers, ref_cache, d_out, ref_grads)
        out, cache = mlp_forward(layers, x)
        grads = _grads_for(layers)
        d_x = mlp_backward(layers, cache, d_out, grads)
        assert out.tobytes() == ref_out.tobytes()
        assert d_x.tobytes() == ref_d_x.tobytes()
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bits_match_reference_with_exact_zero_preactivations(self, dtype):
        """Small integer weights make many hidden pre-activations exactly 0 (and
        some -0.0), where the ReLU mask must still read ``z > 0``."""
        rng = np.random.default_rng(5)
        dims = (6, 9, 8, 4)
        layers = [
            DenseLayer(
                rng.integers(-1, 2, size=(dims[i + 1], dims[i])).astype(dtype),
                rng.integers(-1, 2, size=dims[i + 1]).astype(dtype),
            )
            for i in range(len(dims) - 1)
        ]
        x = rng.integers(-2, 3, size=(40, dims[0])).astype(dtype)
        x[0] = -0.0
        assert (_reference_mlp_forward(layers, x)[1][0][1] == 0.0).sum() > 20
        self._assert_bits_match_reference(
            layers, x, rng.normal(size=(40, dims[-1])).astype(dtype)
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bits_match_reference_on_encoder_shapes(self, dtype):
        rng = np.random.default_rng(6)
        layers = [
            init_layer(116, 256, rng, dtype),
            init_layer(256, 64, rng, dtype),
            init_layer(64, 32, rng, dtype),
        ]
        self._assert_bits_match_reference(
            layers,
            rng.normal(size=(300, 116)).astype(dtype),
            rng.normal(size=(300, 32)).astype(dtype),
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("input_cols", [0, 1, 40, 116])
    def test_input_cols_gives_the_leading_columns_and_the_same_grads(self, input_cols, dtype):
        """The asked-for columns are those of the full input gradient, and the
        parameter gradients keep their bits. The columns are compared to a
        tolerance: BLAS may pick another kernel for a narrower product."""
        rng = np.random.default_rng(9)
        layers = [init_layer(116, 256, rng, dtype), init_layer(256, 32, rng, dtype)]
        x = rng.normal(size=(300, 116)).astype(dtype)
        d_out = rng.normal(size=(300, 32)).astype(dtype)
        _, cache = mlp_forward(layers, x)
        full_grads, grads = _grads_for(layers), _grads_for(layers)
        full = mlp_backward(layers, cache, d_out, full_grads)
        d_x = mlp_backward(layers, cache, d_out, grads, input_cols=input_cols)
        assert d_x.shape == (300, input_cols)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(d_x, full[:, :input_cols], rtol=tol, atol=tol)
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in full_grads]

    def test_cache_holds_input_and_activation(self):
        rng = np.random.default_rng(8)
        layers = _random_net(rng)
        x = rng.normal(size=(6, 5))
        out, cache = mlp_forward(layers, x)
        assert cache[0][0] is x
        assert cache[1][0] is cache[0][1]
        assert cache[1][1] is out
        assert np.all(cache[0][1] >= 0.0)

    def test_caller_buffers_give_the_same_bits(self):
        """With ``out`` and ``work`` both passes write into the caller's buffers
        and give the bits they give without them."""
        rng = np.random.default_rng(7)
        layers = _random_net(rng, dims=(6, 9, 4))
        x = rng.normal(size=(11, 6))
        d_out = rng.normal(size=(11, 4))
        ref_out, ref_cache = mlp_forward(layers, x)
        ref_grads = _grads_for(layers)
        ref_d_x = mlp_backward(layers, ref_cache, d_out, ref_grads)

        acts = [np.full((11, 9), np.nan), np.full((11, 4), np.nan)]
        out, cache = mlp_forward(layers, x, out=acts)
        assert out is acts[1] and cache[0][1] is acts[0]
        deltas = [np.full((11, 6), np.nan), np.full((11, 9), np.nan)]
        work = np.zeros(work_bytes([((11, 9), np.bool_)]), np.uint8)
        grads = _grads_for(layers)
        d_x = mlp_backward(layers, cache, d_out, grads, out=deltas, work=work)
        assert d_x is deltas[0]
        assert out.tobytes() == ref_out.tobytes()
        assert cache[0][1].tobytes() == ref_cache[0][1].tobytes()
        assert d_x.tobytes() == ref_d_x.tobytes()
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]

    def test_peak_memory_is_outputs_and_cache(self):
        """32 -> 1024 -> 256 on 1024 rows allocates the hidden activation and the
        output, and no pre-activation copy beside them."""
        rng = np.random.default_rng(0)
        layers = [init_layer(32, 1024, rng), init_layer(1024, 256, rng)]
        x = rng.normal(size=(1024, 32))
        held = 8 * 1024 * (1024 + 256)
        assert _peak_traced_bytes(lambda: mlp_forward(layers, x)) <= held + (1 << 17)


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("b", [2, 3, 312, 1024])
    def test_bits_match_reference(self, b, dtype):
        rng = np.random.default_rng(b)
        z = rng.normal(size=(b, 48)).astype(dtype)
        z[b // 2] = 0.0
        pos = (np.arange(b) + 1 + rng.integers(b - 1, size=b)) % b
        before = z.copy()
        ref_loss, ref_d_z = _reference_infonce_loss(z, pos, 0.1)
        loss, d_z = infonce_loss(z, pos, temperature=0.1)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert d_z.dtype == np.float64
        assert d_z.tobytes() == ref_d_z.tobytes()
        assert z.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("b", [3, 300])
    def test_caller_buffers_give_the_same_bits(self, b, dtype):
        """``out`` receives the gradient and ``work`` the temporaries, for a batch
        narrower (3) and wider (300) than the embedding."""
        rng = np.random.default_rng(b)
        z = rng.normal(size=(b, 48)).astype(dtype)
        z[1] = 0.0
        pos = (np.arange(b) + 1) % b
        before = z.copy()
        ref_loss, ref_d_z = infonce_loss(z, pos, temperature=0.1)
        out = np.full((b, 48), np.nan)
        work = np.full(work_bytes(infonce_work(b, 48)), 255, np.uint8)
        loss, d_z = infonce_loss(z, pos, temperature=0.1, out=out, work=work)
        assert d_z is out
        assert loss == ref_loss
        assert d_z.tobytes() == ref_d_z.tobytes()
        assert z.tobytes() == before.tobytes()

    @pytest.mark.parametrize("b", [2, 300])
    def test_loss_only_gives_the_same_loss(self, b):
        rng = np.random.default_rng(b)
        z = rng.normal(size=(b, 48))
        pos = (np.arange(b) + 1) % b
        ref_loss, _ = infonce_loss(z, pos, temperature=0.1)
        loss, d_z = infonce_loss(z, pos, temperature=0.1, grad=False)
        assert d_z is None
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()

    def test_short_work_buffer_rejected(self):
        with pytest.raises(ValueError, match="short"):
            carve(np.empty(63, np.uint8), [((2, 4), np.float64)])

    def test_peak_memory_is_one_square_buffer_and_its_transpose(self):
        b = 512
        rng = np.random.default_rng(0)
        z = rng.normal(size=(b, 64))
        pos = (np.arange(b) + 1) % b
        assert _peak_traced_bytes(lambda: infonce_loss(z, pos)) < 3 * b * b * 8

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
        state.grads[0][...] = 1.0
        adam_step([theta], state)
        delta = theta[0] - 0.5
        assert delta == pytest.approx(-0.001 / (1.0 + 1e-8), abs=1e-12)

    def test_zero_gradient_is_noop(self):
        theta = np.array([0.7, -0.3])
        state = AdamState.for_params([theta], lr=0.01)
        state.grads[0][...] = 0.0
        adam_step([theta], state)
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
            np.multiply(2.0, theta, out=state.grads[0])
            adam_step([theta], state)
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
        s1.grads[0][...] = s2.grads[0][...] = g
        for _ in range(10):
            adam_step([p1], s1)
            adam_step([p2], s2)
        assert p1.tobytes() == p2.tobytes()
        assert s1.m[0].tobytes() == s2.m[0].tobytes()

    def test_bits_match_reference_on_mixed_precision_tensors(self):
        """The float32 fine-tune case: a float64 (M, C*E + C) probe buffer
        trains beside float32 encoder tensors; the last tensor takes a float64
        gradient for float32 parameters."""
        rng = np.random.default_rng(4)
        f32, f64 = np.float32, np.float64
        specs = [((2, 1028), f64, f64), ((300, 116), f32, f32), ((300,), f32, f32),
                 ((256, 300), f32, f32), ((256,), f32, f32), ((50_000,), f32, f32),
                 ((170, 200), f64, f64), ((64, 9), f32, f64)]
        params = [rng.normal(size=shape).astype(dtype) for shape, dtype, _ in specs]
        ref_params = [p.copy() for p in params]
        state = AdamState.for_params(params, lr=0.001)
        ref_state = AdamState.for_params(ref_params, lr=0.001)
        for _ in range(20):
            grads = [rng.normal(size=shape).astype(g_dtype) for shape, _, g_dtype in specs]
            grads[1][:3] = 0.0
            # The list itself stands in for the state's buffers, so the last
            # tensor keeps its float64 gradient.
            state.grads = grads
            adam_step(params, state)
            _reference_adam_step(ref_params, grads, ref_state)
            for got, want in zip(params + state.m + state.v, ref_params + ref_state.m + ref_state.v):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
        assert state.t == ref_state.t == 20

    @pytest.mark.parametrize("dtype,big", [(np.float64, 1e308), (np.float32, 3e38)])
    def test_finite_gradient_whose_sum_overflows_steps(self, dtype, big):
        theta = np.zeros(2, dtype=dtype)
        state = AdamState.for_params([theta], lr=0.01)
        state.grads[0][...] = big
        with np.errstate(over="ignore"):
            adam_step([theta], state)
        assert state.t == 1

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "bad", [[np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0], [np.inf, -np.inf]]
    )
    def test_each_nonfinite_gradient_raises(self, bad, dtype):
        theta = np.zeros(2, dtype=dtype)
        state = AdamState.for_params([theta], lr=0.01)
        state.grads[0][...] = bad
        with pytest.raises(OptimizerError, match="non-finite"):
            adam_step([theta], state)
        assert state.t == 0

    def test_scratch_holds_two_rows_per_dtype_of_the_largest_tensor(self):
        params = [np.zeros((3, 4)), np.zeros(5), np.zeros(7, dtype=np.float32)]
        state = AdamState.for_params(params, lr=0.01)
        assert {dtype: rows.shape for dtype, rows in state.scratch.items()} == {
            np.dtype(np.float64): (2, 12), np.dtype(np.float32): (2, 7),
        }

    def test_nonfinite_gradient_fails_fast(self):
        theta = np.array([1.0])
        state = AdamState.for_params([theta], lr=0.01)
        state.grads[0][...] = np.nan
        with pytest.raises(OptimizerError):
            adam_step([theta], state)
        state.grads[0] = np.ones(2)
        with pytest.raises(OptimizerError):
            adam_step([theta], state)
