"""Nearest-neighbor pairing, training steps, early stopping, ensembles, checkpoints."""

from __future__ import annotations

import errno
import importlib
import json
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabalign.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from tabalign.data import split
from tabalign.errors import CheckpointError, ConfigError, TrainingError
from tabalign.fewshot import embed
from tabalign.nncore import AdamState
from tabalign.preprocess import encode, fit
from tabalign.pretrain import (
    RATIO_RANDOM,
    PretrainConfig,
    init_stack,
    member_seed,
    nearest_neighbor_indices,
    nearest_neighbors,
    pretrain,
    pretrain_ensemble,
    train_step,
)
from tabalign.synthetic import make_gaussian_dataset

# The package re-exports the function ``pretrain``, which shadows the module.
pretrain_mod = importlib.import_module("tabalign.pretrain")

SMALL_CFG = PretrainConfig(
    max_epochs=5,
    batch_size=64,
    patience=3,
    hidden_dim=32,
    embed_dim=16,
    projector_dim=16,
)


@pytest.fixture(scope="module")
def encoded_gauss():
    ds = make_gaussian_dataset(n_rows=400, d_raw=16, n_classes=4, separation=6.0, seed=3)
    idx = split(ds, seed=0)
    pp = fit(ds, idx.train)
    return pp, encode(pp, ds, idx.train), encode(pp, ds, idx.valid)


class TestTargetNearestNeighbor:
    def test_by_inspection(self):
        t = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        assert nearest_neighbor_indices(t)[0] == 1

    def test_duplicate_row_wins(self):
        t = np.array([[1.0, 1.0], [3.0, 3.0], [1.0, 1.0]])
        assert nearest_neighbor_indices(t)[0] == 2

    def test_tie_breaks_to_smallest_index(self):
        t = np.array([[0.0], [1.0], [-1.0], [1.0]])
        assert nearest_neighbor_indices(t)[0] == 1

    def test_matches_independent_scan(self):
        """Exhaustive double-loop oracle on random batches."""
        rng = np.random.default_rng(0)
        for _ in range(25):
            b = int(rng.integers(2, 33))
            t = rng.normal(size=(b, int(rng.integers(1, 10))))
            np.testing.assert_array_equal(nearest_neighbor_indices(t), _oracle(t, 1)[:, 0])

    def test_batch_of_one_rejected(self):
        with pytest.raises(TrainingError):
            nearest_neighbor_indices(np.ones((1, 3)))


def _oracle(points, k, queries=None):
    """k nearest points per query by a double loop; ties to the smallest index."""
    out = []
    for i, q in enumerate(points if queries is None else queries):
        dists = [
            (np.square(p - q).sum(), j)
            for j, p in enumerate(points)
            if queries is not None or j != i
        ]
        out.append([j for _, j in sorted(dists)[:k]])
    return np.array(out, dtype=np.int64)


class TestNearestNeighbors:
    def test_matches_stable_argsort_far_from_origin(self):
        """Rows at offset 1e6 with spread 1e-2: Gram distances alone lose the order."""
        rng = np.random.default_rng(4)
        x = 1e6 + 1e-2 * rng.normal(size=(64, 8))
        got = nearest_neighbors(x, 5)
        for i in range(len(x)):
            d = np.square(x - x[i]).sum(axis=1)
            d[i] = np.inf
            np.testing.assert_array_equal(got[i], np.argsort(d, kind="stable")[:5])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_double_loop_oracle(self, data):
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        k = data.draw(st.sampled_from([1, 3]))
        n = data.draw(st.integers(k + 1, 30))
        d = data.draw(st.integers(1, 5))
        values = data.draw(
            st.sampled_from([st.integers(-2, 2), st.floats(-100.0, 100.0, width=32)])
        )
        offset = data.draw(st.sampled_from([0.0, 1e6]))

        def rows(m):
            cells = data.draw(st.lists(values, min_size=m * d, max_size=m * d))
            return (offset + np.array(cells, dtype=np.float64).reshape(m, d)).astype(dtype)

        points = rows(n)
        queries = rows(data.draw(st.integers(2, 12))) if data.draw(st.booleans()) else None
        n_queries = n if queries is None else len(queries)
        # Fewer query rows per block than queries: the search spans two or more blocks.
        block_rows = data.draw(st.integers(1, n_queries - 1))
        with mock.patch.object(pretrain_mod, "_BLOCK_ELEMENTS", block_rows * n):
            got = nearest_neighbors(points, k, queries)
        np.testing.assert_array_equal(got, _oracle(points, k, queries))

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            nearest_neighbors(np.ones((3, 2)), 3)
        with pytest.raises(ValueError):
            nearest_neighbors(np.ones((3, 2)), 4, queries=np.ones((1, 2)))


def _adam(stack):
    return AdamState.for_params(stack.parameters(), lr=stack.cfg.learning_rate)


class TestTrainStep:
    def test_batch_of_two_is_noop(self, encoded_gauss):
        pp, x_train, _ = encoded_gauss
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG)
        before = [p.copy() for p in stack.parameters()]
        loss = train_step(stack, x_train[:2], pp, np.random.default_rng(0), _adam(stack))
        assert abs(loss) <= 1e-12
        for p, b in zip(stack.parameters(), before):
            np.testing.assert_array_equal(p, b)

    def test_deterministic(self, encoded_gauss):
        pp, x_train, _ = encoded_gauss
        losses = []
        params = []
        for _ in range(2):
            stack = init_stack(pp.encoded_dim, 0.3, seed=5, cfg=SMALL_CFG)
            rng = np.random.default_rng(5)
            adam = _adam(stack)
            losses.append([train_step(stack, x_train[:64], pp, rng, adam) for _ in range(3)])
            params.append([p.copy() for p in stack.parameters()])
        assert losses[0] == losses[1]
        for a, b in zip(params[0], params[1]):
            assert a.tobytes() == b.tobytes()

    def test_loss_decreases_over_steps(self, encoded_gauss):
        """200 steps on clustered data end below the first-step loss."""
        pp, x_train, _ = encoded_gauss
        stack = init_stack(pp.encoded_dim, 0.2, seed=1, cfg=SMALL_CFG)
        rng = np.random.default_rng(1)
        adam = _adam(stack)
        first = train_step(stack, x_train[:128], pp, rng, adam)
        last = None
        for _ in range(199):
            last = train_step(stack, x_train[:128], pp, rng, adam)
        assert last < first


class TestPretrain:
    def test_single_epoch_report(self, encoded_gauss):
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "max_epochs": 1})
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=cfg)
        report = pretrain(stack, x_train, x_valid, pp)
        assert report.stopped_epoch == 1
        assert len(report.train_losses) == 1 and len(report.valid_losses) == 1
        assert report.best_validation_loss == report.valid_losses[0]

    def test_best_loss_improves_on_first_epoch(self, encoded_gauss):
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "max_epochs": 25, "patience": 25})
        stack = init_stack(pp.encoded_dim, 0.2, seed=2, cfg=cfg)
        report = pretrain(stack, x_train, x_valid, pp)
        assert report.best_validation_loss < report.valid_losses[0]
        assert report.best_validation_loss == min(report.valid_losses)

    def test_early_stopping_within_patience(self, encoded_gauss):
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "max_epochs": 60, "patience": 3})
        stack = init_stack(pp.encoded_dim, 0.4, seed=4, cfg=cfg)
        report = pretrain(stack, x_train, x_valid, pp)
        assert report.stopped_epoch - report.best_epoch <= 3
        if report.stopped_epoch < 60:
            assert report.stopped_epoch - report.best_epoch == 3

    def test_zero_patience_behaves_as_one(self, encoded_gauss):
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "max_epochs": 60, "patience": 0})
        stack = init_stack(pp.encoded_dim, 0.4, seed=4, cfg=cfg)
        report = pretrain(stack, x_train, x_valid, pp)
        if report.stopped_epoch < 60:
            assert report.stopped_epoch - report.best_epoch == 1

    def test_restores_best_parameters(self, encoded_gauss):
        """Parameters left in the stack reproduce the best validation loss."""
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "max_epochs": 15, "patience": 15})
        stack = init_stack(pp.encoded_dim, 0.2, seed=6, cfg=cfg)
        report = pretrain(stack, x_train, x_valid, pp)

        # Retrain an identical twin, snapshotting at the best epoch. Only the
        # stopping settings differ, and they do not touch the initial draw.
        cfg_best = PretrainConfig(
            **{**cfg.__dict__, "max_epochs": report.best_epoch, "patience": 10**6}
        )
        twin = init_stack(pp.encoded_dim, 0.2, seed=6, cfg=cfg_best)
        pretrain(twin, x_train, x_valid, pp)
        for p, q in zip(stack.parameters(), twin.parameters()):
            assert p.tobytes() == q.tobytes()

    def test_config_comes_from_the_stack(self, encoded_gauss, monkeypatch):
        """A config passed beside the stack would train under one learning rate
        while the stack's layers came from another, so it is refused; the run's
        Adam state takes its step size from ``stack.cfg``."""
        pp, x_train, x_valid = encoded_gauss
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG)
        other = PretrainConfig(**{**SMALL_CFG.__dict__, "learning_rate": 0.5, "max_epochs": 1})
        with pytest.raises(TypeError):
            pretrain(stack, x_train, x_valid, pp, other)
        assert stack.cfg is SMALL_CFG

        rates = []
        adam_step = pretrain_mod.adam_step

        def spy(params, state):
            rates.append(state.lr)
            return adam_step(params, state)

        monkeypatch.setattr(pretrain_mod, "adam_step", spy)
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "learning_rate": 0.005, "max_epochs": 1})
        pretrain(init_stack(pp.encoded_dim, 0.2, seed=0, cfg=cfg), x_train, x_valid, pp)
        assert rates and set(rates) == {cfg.learning_rate}

    def test_stack_holds_no_optimizer_state(self, encoded_gauss):
        pp, _, _ = encoded_gauss
        assert not hasattr(init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG), "adam")

    def test_each_call_starts_adam_at_zero(self, encoded_gauss, monkeypatch):
        """Two calls on one stack each start from step 0 with zero moments."""
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "max_epochs": 1})
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=cfg)
        starts = []
        adam_step = pretrain_mod.adam_step

        def spy(params, state):
            if state.t == 0:
                starts.append(all(not m.any() and not v.any() for m, v in zip(state.m, state.v)))
            return adam_step(params, state)

        monkeypatch.setattr(pretrain_mod, "adam_step", spy)
        pretrain(stack, x_train, x_valid, pp)
        pretrain(stack, x_train, x_valid, pp)
        assert starts == [True, True]

    def test_empty_validation_rejected(self, encoded_gauss):
        pp, x_train, _ = encoded_gauss
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG)
        with pytest.raises(TrainingError):
            pretrain(stack, x_train, x_train[:0], pp)

    def test_one_row_validation_rejected_before_training(self, encoded_gauss, monkeypatch):
        """A 1-row validation set has no batch to score, so no step is taken."""
        pp, x_train, x_valid = encoded_gauss
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG)
        calls = []
        monkeypatch.setattr(pretrain_mod, "train_step", lambda *args: calls.append(args))
        with pytest.raises(TrainingError, match="validation set"):
            pretrain(stack, x_train, x_valid[:1], pp)
        assert calls == []

    def test_nonfinite_loss_aborts_with_diagnostic(self, encoded_gauss):
        pp, x_train, x_valid = encoded_gauss
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG)
        stack.encoder[0].weight[...] = 1e308
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="non-finite"):
            pretrain(stack, x_train, x_valid, pp)


class TestEnsemble:
    def test_five_ratios_five_stacks(self, encoded_gauss):
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "max_epochs": 1})
        stacks, reports = pretrain_ensemble(
            x_train, x_valid, pp, [0.1, 0.2, 0.3, 0.4, 0.5], cfg, master_seed=0
        )
        assert [s.ratio for s in stacks] == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert len(reports) == 5

    def test_single_member_equals_plain_pretrain(self, encoded_gauss):
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "max_epochs": 2})
        stacks, _ = pretrain_ensemble(x_train, x_valid, pp, [0.3], cfg, master_seed=9)
        solo = init_stack(pp.encoded_dim, 0.3, member_seed(9, 0), cfg)
        pretrain(solo, x_train, x_valid, pp)
        for p, q in zip(stacks[0].parameters(), solo.parameters()):
            assert p.tobytes() == q.tobytes()

    def test_same_master_seed_reproduces_members(self, encoded_gauss):
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "max_epochs": 2})
        a, _ = pretrain_ensemble(x_train, x_valid, pp, [0.2, 0.4], cfg, master_seed=3)
        b, _ = pretrain_ensemble(x_train, x_valid, pp, [0.2, 0.4], cfg, master_seed=3)
        for sa, sb in zip(a, b):
            for p, q in zip(sa.parameters(), sb.parameters()):
                assert p.tobytes() == q.tobytes()

    def test_member_isolation(self, encoded_gauss):
        """Member k is a pure function of (master seed, k, data)."""
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "max_epochs": 2})
        both, _ = pretrain_ensemble(x_train, x_valid, pp, [0.2, 0.4], cfg, master_seed=1)
        solo = init_stack(pp.encoded_dim, 0.4, member_seed(1, 1), cfg)
        pretrain(solo, x_train, x_valid, pp)
        for p, q in zip(both[1].parameters(), solo.parameters()):
            assert p.tobytes() == q.tobytes()

    def test_member_seed_is_one_seed_sequence_draw(self):
        for keys in ((1, 1), (0, 3, 7, 1)):
            ss = np.random.SeedSequence(list(keys))
            assert member_seed(*keys) == int(ss.generate_state(1, dtype=np.uint64)[0])

    def test_empty_ratio_list_rejected(self, encoded_gauss):
        pp, x_train, x_valid = encoded_gauss
        with pytest.raises(TrainingError):
            pretrain_ensemble(x_train, x_valid, pp, [], SMALL_CFG, master_seed=0)


class TestVariants:
    def test_conditioning_changes_projector_width(self, encoded_gauss):
        pp, _, _ = encoded_gauss
        on = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG)
        off_cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "conditioned": False})
        off = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=off_cfg)
        assert on.projector[0].in_dim == SMALL_CFG.embed_dim + pp.encoded_dim
        assert off.projector[0].in_dim == SMALL_CFG.embed_dim
        assert on.projector[0].in_dim - off.projector[0].in_dim == pp.encoded_dim
        assert on.conditioned and not off.conditioned
        assert on.encoded_dim == off.encoded_dim == pp.encoded_dim

    @pytest.mark.parametrize("change", [{"imputation": "marginl"}, {"dtype": "float16"}])
    def test_unknown_imputation_or_dtype_rejected(self, change):
        with pytest.raises(ConfigError):
            PretrainConfig(**change)

    @pytest.mark.parametrize(
        "change",
        [
            {"max_epochs": 0},
            {"batch_size": 1},
            {"hidden_dim": 0},
            {"embed_dim": 0},
            {"projector_dim": 0},
            {"temperature": 0.0},
            {"temperature": -0.1},
            {"temperature": float("nan")},
            {"temperature": float("inf")},
            {"learning_rate": 0.0},
            {"learning_rate": -0.001},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
        ],
        ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()),
    )
    def test_out_of_range_setting_rejected(self, change):
        with pytest.raises(ConfigError, match=next(iter(change))):
            PretrainConfig(**change)

    def test_smallest_settings_accepted(self):
        cfg = PretrainConfig(max_epochs=1, batch_size=2, patience=0, hidden_dim=1, embed_dim=1,
                             projector_dim=1, temperature=1e-3, learning_rate=1e-6)
        assert cfg.patience == 0

    def test_unconditioned_training_converges(self, encoded_gauss):
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(
            **{**SMALL_CFG.__dict__, "conditioned": False, "max_epochs": 15, "patience": 15}
        )
        stack = init_stack(pp.encoded_dim, 0.2, seed=3, cfg=cfg)
        report = pretrain(stack, x_train, x_valid, pp)
        assert report.best_validation_loss < report.valid_losses[0]

    def test_random_ratio_mode_trains(self, encoded_gauss):
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "max_epochs": 3})
        stack = init_stack(pp.encoded_dim, RATIO_RANDOM, seed=0, cfg=cfg)
        report = pretrain(stack, x_train, x_valid, pp)
        assert len(report.train_losses) == 3

    def test_marginal_imputation_trains(self, encoded_gauss):
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "imputation": "marginal", "max_epochs": 3})
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=cfg)
        report = pretrain(stack, x_train, x_valid, pp)
        assert np.isfinite(report.train_losses).all()

    def test_float32_mode_trains(self, encoded_gauss):
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "dtype": "float32", "max_epochs": 2})
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=cfg)
        assert stack.encoder[0].weight.dtype == np.float32
        report = pretrain(stack, x_train, x_valid, pp)
        assert np.isfinite(report.train_losses).all()


class TestCheckpoint:
    def test_roundtrip(self, encoded_gauss, tmp_path):
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "max_epochs": 2})
        stack = init_stack(pp.encoded_dim, 0.3, seed=8, cfg=cfg)
        pretrain(stack, x_train, x_valid, pp)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, stack, pp)
        loaded, loaded_pp = load_checkpoint(path)

        assert loaded.ratio == pytest.approx(0.3)
        assert loaded.seed == 8 and loaded.cfg == cfg
        assert loaded.conditioned == stack.conditioned
        for p, q in zip(stack.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(p, q)
        np.testing.assert_array_equal(loaded_pp.means, pp.means)
        np.testing.assert_array_equal(loaded_pp.stds, pp.stds)
        assert loaded_pp.ranges == pp.ranges
        assert loaded_pp.kinds == pp.kinds
        assert loaded_pp.cardinalities == pp.cardinalities
        assert loaded_pp.normalize == pp.normalize

    def test_load_retains_parameters_only(self, encoded_gauss, tmp_path):
        """A reloaded default-width stack keeps its parameters only: no gradient
        buffers and no optimizer moments."""
        pp, _, _ = encoded_gauss
        path = tmp_path / "wide.ckpt"
        save_checkpoint(path, init_stack(pp.encoded_dim, 0.2, seed=0), pp)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded, _ = load_checkpoint(path)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        param_bytes = sum(p.nbytes for p in loaded.parameters())
        assert param_bytes > 6_000_000
        assert retained < 1.5 * param_bytes

    def test_save_is_byte_deterministic(self, encoded_gauss, tmp_path):
        pp, _, _ = encoded_gauss
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG)
        save_checkpoint(tmp_path / "a.ckpt", stack, pp)
        save_checkpoint(tmp_path / "b.ckpt", stack, pp)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_float32_member_reloads_as_float32(self, encoded_gauss, tmp_path):
        """dtype, temperature, imputation and seed survive a save and a load."""
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(
            **{**SMALL_CFG.__dict__, "dtype": "float32", "temperature": 0.5,
               "imputation": "marginal", "max_epochs": 1}
        )
        stack = init_stack(pp.encoded_dim, 0.3, seed=7, cfg=cfg)
        pretrain(stack, x_train, x_valid, pp)
        save_checkpoint(tmp_path / "f32.ckpt", stack, pp)
        loaded, _ = load_checkpoint(tmp_path / "f32.ckpt")

        assert loaded.cfg.dtype == "float32" and loaded.cfg.temperature == 0.5
        assert loaded.cfg.imputation == "marginal" and loaded.seed == 7
        assert all(p.dtype == np.float32 for p in loaded.parameters())
        assert embed(loaded, x_valid).tobytes() == embed(stack, x_valid).tobytes()

    def test_random_ratio_roundtrip(self, encoded_gauss, tmp_path):
        pp, _, _ = encoded_gauss
        stack = init_stack(pp.encoded_dim, RATIO_RANDOM, seed=0, cfg=SMALL_CFG)
        save_checkpoint(tmp_path / "r.ckpt", stack, pp)
        loaded, _ = load_checkpoint(tmp_path / "r.ckpt")
        assert loaded.ratio == RATIO_RANDOM

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, encoded_gauss, tmp_path):
        pp, _, _ = encoded_gauss
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG)
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, stack, pp)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_failed_write_keeps_existing_checkpoint(self, encoded_gauss, tmp_path, monkeypatch):
        """A disk that fills halfway through a save leaves the old file intact."""
        pp, _, _ = encoded_gauss
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG), pp)
        before = path.read_bytes()

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                self.handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        real_open = Path.open
        monkeypatch.setattr(Path, "open", lambda self, *a, **k: FullDisk(real_open(self, *a, **k)))
        with pytest.raises(OSError) as info:
            save_checkpoint(path, init_stack(pp.encoded_dim, 0.4, seed=1, cfg=SMALL_CFG), pp)
        assert info.value.errno == errno.ENOSPC
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    def test_non_finite_tensor_rejected(self, encoded_gauss, tmp_path):
        pp, _, _ = encoded_gauss
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG)
        path = tmp_path / "n.ckpt"
        save_checkpoint(path, stack, pp)
        blob = bytearray(path.read_bytes())
        # Magic, version and header length, the JSON header, then encoder W1, b1.
        (header_len,) = struct.unpack_from("<I", blob, 12)
        offset = 16 + header_len + 8 * stack.encoder[0].weight.size
        blob[offset : offset + 8] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="encoder b1"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, encoded_gauss, tmp_path):
        pp, _, _ = encoded_gauss
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG), pp)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(CheckpointError, match="8 trailing bytes"):
            load_checkpoint(path)

    def test_v1_layout_rejected(self, tmp_path):
        """A format-1 file: magic, version 1, then the ratio flag and six dims."""
        path = tmp_path / "v1.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<Bd", 0, 0.2)
                         + struct.pack("<6I", 16, 32, 16, 32, 32, 16))
        with pytest.raises(CheckpointError, match="unsupported format version 1"):
            load_checkpoint(path)

    def test_corrupt_json_header_rejected(self, encoded_gauss, tmp_path):
        pp, _, _ = encoded_gauss
        path = tmp_path / "j.ckpt"
        save_checkpoint(path, init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG), pp)
        blob = bytearray(path.read_bytes())
        assert blob[16:17] == b"{"
        blob[16:17] = b"["
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="malformed header"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit,match",
        [
            (lambda h: h.pop("seed"), "malformed header"),
            (lambda h: h.update(extra=1), "malformed header"),
            (lambda h: h["config"].pop("dtype"), "malformed header"),
            (lambda h: h["config"].update(temperature=-1.0), "malformed header"),
            (lambda h: h["config"].update(dtype="float16"), "malformed header"),
            (lambda h: h["preprocessor"].pop("normalize"), "malformed header"),
            (lambda h: h["preprocessor"]["kinds"].__setitem__(0, "ordinal"), "unknown column kind"),
            (lambda h: h.update(ratio="banana"), "malformed header"),
            (lambda h: h.update(ratio=7.5), "separation ratio"),
            (lambda h: h.update(seed="x"), "seed must be an int"),
            (lambda h: h["preprocessor"].update(ranges=[[0, 1]] * 4), "layout"),
            (lambda h: h["preprocessor"]["means"].pop(), "one value for each"),
            (lambda h: h["preprocessor"]["stds"].__setitem__(3, 0.0), "stds finite and > 0"),
        ],
        ids=[
            "no-seed", "extra-key", "no-config-dtype", "negative-temperature",
            "unknown-dtype", "no-normalize", "unknown-kind", "ratio-not-a-number",
            "ratio-out-of-range", "seed-not-an-int", "ranges-not-the-layout", "short-means",
            "zero-std",
        ],
    )
    def test_bad_header_rejected(self, encoded_gauss, tmp_path, edit, match):
        pp, _, _ = encoded_gauss
        path = tmp_path / "h.ckpt"
        save_checkpoint(path, init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG), pp)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 12)
        header = json.loads(blob[16 : 16 + header_len])
        edit(header)
        text = json.dumps(header).encode()
        path.write_bytes(blob[:12] + struct.pack("<I", len(text)) + text + blob[16 + header_len :])
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)
