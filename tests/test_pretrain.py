"""Nearest-neighbor pairing, training steps, early stopping, ensembles, checkpoints."""

from __future__ import annotations

import dataclasses
import errno
import hashlib
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
from tabalign.errors import ArrayError, CheckpointError, ConfigError, SplitError, TrainingError
from tabalign.fewshot import embed
from tabalign.nncore import infonce_loss, mlp_backward, mlp_forward, work_bytes
from tabalign.preprocess import encode, fit, make_views, sample_mask
from tabalign.pretrain import (
    RATIO_RANDOM,
    PretrainConfig,
    Workspace,
    composite_loss,
    init_stack,
    member_seed,
    nearest_neighbor_indices,
    nearest_neighbors,
    nearest_neighbors_work,
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
        with pytest.raises(ArrayError):
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
            work = np.empty(work_bytes(nearest_neighbors_work(n_queries, n, d, dtype)), np.uint8)
            in_work = nearest_neighbors(points, k, queries, work=work)
        np.testing.assert_array_equal(got, _oracle(points, k, queries))
        np.testing.assert_array_equal(in_work, got)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            nearest_neighbors(np.ones((3, 2)), 3)
        with pytest.raises(ValueError):
            nearest_neighbors(np.ones((3, 2)), 4, queries=np.ones((1, 2)))


class TestTrainStep:
    def test_batch_of_two_is_noop(self, encoded_gauss):
        pp, x_train, _ = encoded_gauss
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG)
        before = [p.copy() for p in stack.parameters()]
        work = Workspace.for_stack(stack, 2)
        loss = train_step(stack, x_train[:2], pp, np.random.default_rng(0), work=work)
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
            work = Workspace.for_stack(stack, 64)
            losses.append([train_step(stack, x_train[:64], pp, rng, work=work) for _ in range(3)])
            params.append([p.copy() for p in stack.parameters()])
        assert losses[0] == losses[1]
        for a, b in zip(params[0], params[1]):
            assert a.tobytes() == b.tobytes()

    def test_desk_step_allocates_under_one_mib(self):
        """With the run's workspace, a desk-shape step (B=1024, 32 columns,
        float64) writes into buffers it was given."""
        ds = make_gaussian_dataset(n_rows=2000, d_raw=32, n_classes=4, separation=6.0, seed=0)
        idx = split(ds, seed=0)
        pp = fit(ds, idx.train)
        x = encode(pp, ds, idx.train)[:1024]
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=PretrainConfig(batch_size=1024))
        work, rng = Workspace.for_stack(stack, 1024), np.random.default_rng(0)
        train_step(stack, x, pp, rng, work=work)
        tracemalloc.start()
        try:
            train_step(stack, x, pp, rng, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_desk_workspace_is_within_the_one_step_peak_it_replaces(self):
        """Buffers that are never live at once share memory, and the backward
        pass writes its deltas over activations it has read, so the desk-shape
        workspace (31.0 MiB, the run's gradients inside) stays within the
        41.1 MiB that one step allocated before it had a workspace. Its three
        regions are the live activations, the projector output, and the
        scratch, which InfoNCE's unit rows, one B x B block and one tile fill:
        the pairing search and the ReLU masks beside the gradients need less,
        so a second B x B buffer would show here."""
        rows, d, hidden, e, f8 = 1024, 32, 1024, 256, 8
        stack = init_stack(d, 0.2, seed=0, cfg=PretrainConfig(batch_size=rows))
        work = Workspace.for_stack(stack, rows)
        live = rows * (d + 2 * hidden + e + d) * f8
        shared = rows * e * f8
        backward = rows * hidden + sum(p.nbytes for p in stack.parameters())
        pairing = (2 * rows * d + rows * rows) * f8 + rows * rows
        infonce = (rows * e + rows * rows + 256 * 256) * f8
        assert backward < pairing < infonce == work.scratch.nbytes
        arrays = [a for a in vars(work).values() if isinstance(a, np.ndarray)]
        regions = {id(r): r for r in (a if a.base is None else a.base for a in arrays)}
        assert len(regions) == 3
        assert sum(r.nbytes for r in regions.values()) == live + shared + infonce
        assert live + shared + infonce == 31.0 * 2**20 <= 41.1 * 2**20
        assert all(np.shares_memory(g, work.scratch) for g in work.adam.grads)

    def test_float32_workspace_holds_no_float64_array(self):
        cfg = PretrainConfig(hidden_dim=16, embed_dim=8, projector_dim=8, dtype="float32")
        work = Workspace.for_stack(init_stack(116, RATIO_RANDOM, seed=0, cfg=cfg), 256)
        dtypes = {a.dtype for a in vars(work).values() if isinstance(a, np.ndarray)}
        assert dtypes == {np.dtype(np.float32), np.dtype(np.uint8)}

    def test_workspace_and_fresh_buffers_give_the_same_bits(self, encoded_gauss):
        """Steps on a workspace sized for a larger batch (so every buffer is a
        leading-row view) give the bits of steps that each run on a fresh
        workspace of their batch's size, Adam's moments carried over."""
        pp, x_train, _ = encoded_gauss
        results = []
        for fresh in (True, False):
            stack = init_stack(pp.encoded_dim, 0.3, seed=5, cfg=SMALL_CFG)
            rng, work = np.random.default_rng(5), Workspace.for_stack(stack, 64)
            losses = []
            for n in (40, 2, 64):
                if fresh:
                    exact = Workspace.for_stack(stack, n)
                    exact.adam = dataclasses.replace(work.adam, grads=exact.adam.grads)
                    work = exact
                losses.append(train_step(stack, x_train[:n], pp, rng, work=work))
            results.append((losses, b"".join(p.tobytes() for p in stack.parameters())))
        assert results[0] == results[1]

    @pytest.mark.parametrize("conditioned", [True, False])
    def test_deltas_over_activations_give_the_gradients_of_fresh_buffers(
        self, encoded_gauss, conditioned
    ):
        """``composite_loss`` writes each delta over an activation in its
        workspace, and gives the loss and gradients that the kernels give on
        fresh outputs."""
        pp, x_train, _ = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "conditioned": conditioned})
        stack = init_stack(pp.encoded_dim, 0.3, seed=5, cfg=cfg)
        rng = np.random.default_rng(5)
        mask = sample_mask(pp, 0.3, rng)
        x_f, x_t = make_views(x_train[:50], mask)
        mask_vec, pos = mask.encoded_mask, nearest_neighbor_indices(x_t)

        h, enc_cache = mlp_forward(stack.encoder, x_f)
        cond = np.broadcast_to(mask_vec, (50, len(mask_vec)))
        proj_in = np.concatenate([h, cond], axis=1) if conditioned else h
        z, proj_cache = mlp_forward(stack.projector, proj_in)
        ref_loss, d_z = infonce_loss(z, pos, cfg.temperature)
        ref = [np.empty_like(p) for p in stack.parameters()]
        d_h = mlp_backward(stack.projector, proj_cache, d_z, ref[4:], input_cols=cfg.embed_dim)
        mlp_backward(stack.encoder, enc_cache, d_h, ref[:4])

        grads = [np.empty_like(p) for p in stack.parameters()]
        work = Workspace.for_stack(stack, 64)
        loss = composite_loss(stack, x_f, mask_vec, pos, grads, work=work)
        assert loss == ref_loss
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref]

    def test_loss_decreases_over_steps(self, encoded_gauss):
        """200 steps on clustered data end below the first-step loss."""
        pp, x_train, _ = encoded_gauss
        stack = init_stack(pp.encoded_dim, 0.2, seed=1, cfg=SMALL_CFG)
        rng = np.random.default_rng(1)
        work = Workspace.for_stack(stack, 128)
        first = train_step(stack, x_train[:128], pp, rng, work=work)
        last = None
        for _ in range(199):
            last = train_step(stack, x_train[:128], pp, rng, work=work)
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
        with pytest.raises(SplitError):
            pretrain(stack, x_train, x_train[:0], pp)

    def test_one_row_validation_rejected_before_training(self, encoded_gauss, monkeypatch):
        """A 1-row validation set has no batch to score, so no step is taken."""
        pp, x_train, x_valid = encoded_gauss
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG)
        calls = []
        monkeypatch.setattr(pretrain_mod, "train_step", lambda *args, **kw: calls.append(args))
        with pytest.raises(SplitError, match="validation set"):
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

    def test_members_share_one_buffer_set_and_each_starts_adam_at_zero(
        self, encoded_gauss, monkeypatch
    ):
        """Every member trains on one workspace and its Adam state. Each epoch
        makes one module-global ``train_step`` call per training batch, which
        calls ``alignment_loss`` once, and one direct ``alignment_loss`` call
        per validation batch: the calls the benchmark's per-layer figures read."""
        pp, x_train, x_valid = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "max_epochs": 2})
        starts, states, works, calls = [], [], [], []
        adam_step = pretrain_mod.adam_step
        train_step, alignment_loss = pretrain_mod.train_step, pretrain_mod.alignment_loss

        def adam_spy(params, state):
            if state.t == 0:
                starts.append(all(not m.any() and not v.any() for m, v in zip(state.m, state.v)))
            states.append(state)
            return adam_step(params, state)

        def step_spy(*args, work):
            calls.append("train_step")
            works.append(work)
            return train_step(*args, work=work)

        def loss_spy(*args, work):
            calls.append("alignment_loss")
            works.append(work)
            return alignment_loss(*args, work=work)

        monkeypatch.setattr(pretrain_mod, "adam_step", adam_spy)
        monkeypatch.setattr(pretrain_mod, "train_step", step_spy)
        monkeypatch.setattr(pretrain_mod, "alignment_loss", loss_spy)
        _, reports = pretrain_ensemble(x_train, x_valid, pp, [0.2, 0.3, 0.4], cfg, master_seed=2)
        assert starts == [True, True, True]
        assert all(w is works[0] for w in works) and all(s is works[0].adam for s in states)
        n_train, n_valid = (-(-len(x) // cfg.batch_size) for x in (x_train, x_valid))
        epoch = ["train_step", "alignment_loss"] * n_train + ["alignment_loss"] * n_valid
        assert calls == sum((epoch * r.stopped_epoch for r in reports), [])

    def test_buffers_for_other_batch_rows_rejected(self, encoded_gauss):
        pp, x_train, x_valid = encoded_gauss
        stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG)
        with pytest.raises(ValueError, match="rows"):
            pretrain(stack, x_train, x_valid, pp, work=Workspace.for_stack(stack, 32))

    @pytest.mark.parametrize(
        "stack_cfg,buffers_cfg", [({"dtype": "float32"}, {}), ({}, {"hidden_dim": 48})]
    )
    def test_buffers_for_another_shape_or_dtype_rejected_before_any_write(
        self, encoded_gauss, stack_cfg, buffers_cfg
    ):
        """A float64 workspace for a float32 stack, and a workspace for a wider
        hidden layer, are refused before the run writes to it or to the stack."""
        pp, x_train, x_valid = encoded_gauss
        stack, other = (
            init_stack(pp.encoded_dim, 0.2, 0, PretrainConfig(**{**SMALL_CFG.__dict__, **c}))
            for c in (stack_cfg, buffers_cfg)
        )
        work = Workspace.for_stack(other, SMALL_CFG.batch_size)
        work.adam.t = 7
        before = [p.copy() for p in stack.parameters()]
        with pytest.raises(ValueError, match="another shape or dtype"):
            pretrain(stack, x_train, x_valid, pp, work=work)
        assert work.adam.t == 7
        assert all(p.tobytes() == b.tobytes() for p, b in zip(stack.parameters(), before))

    def test_member_seed_is_one_seed_sequence_draw(self):
        for keys in ((1, 1), (0, 3, 7, 1)):
            ss = np.random.SeedSequence(list(keys))
            assert member_seed(*keys) == int(ss.generate_state(1, dtype=np.uint64)[0])

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_seed_that_is_not_an_int_at_least_zero_rejected(self, encoded_gauss, seed):
        pp, x_train, x_valid = encoded_gauss
        with pytest.raises(ConfigError, match="seed must be an int >= 0"):
            init_stack(pp.encoded_dim, 0.2, seed=seed, cfg=SMALL_CFG)
        with pytest.raises(ConfigError, match="master_seed must be an int >= 0"):
            pretrain_ensemble(x_train, x_valid, pp, [0.2], SMALL_CFG, master_seed=seed)

    def test_empty_ratio_list_rejected(self, encoded_gauss):
        pp, x_train, x_valid = encoded_gauss
        with pytest.raises(ConfigError):
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
            {"patience": -1},
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

    @pytest.mark.parametrize(
        "change",
        [
            {"embed_dim": 8.0},
            {"hidden_dim": True},
            {"max_epochs": 1.5},
            {"patience": None},
            {"conditioned": "no"},
            {"temperature": "0.1"},
        ],
        ids=lambda change: "-".join(f"{k}={v!r}" for k, v in change.items()),
    )
    def test_value_of_another_type_rejected(self, change):
        with pytest.raises(ConfigError, match=f"{next(iter(change))} must be"):
            PretrainConfig(**change)

    def test_float_setting_takes_an_int(self):
        assert PretrainConfig(temperature=1, learning_rate=1).temperature == 1

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


@pytest.fixture(scope="module")
def saved_checkpoint(encoded_gauss, tmp_path_factory):
    """A checkpoint of an untrained SMALL_CFG stack, in a directory of its own."""
    pp, _, _ = encoded_gauss
    path = tmp_path_factory.mktemp("saved") / "saved.ckpt"
    save_checkpoint(path, init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG), pp)
    return path


def _with_header_edit(blob: bytes, edit) -> bytes:
    """The checkpoint ``blob`` with ``edit`` applied to its JSON header in place."""
    (header_len,) = struct.unpack_from("<I", blob, 12)
    header = json.loads(blob[16 : 16 + header_len])
    edit(header)
    text = json.dumps(header).encode()
    return blob[:12] + struct.pack("<I", len(text)) + text + blob[16 + header_len :]


def _value_paths(value, path=()):
    """The key path of every value nested in a JSON ``value``; a list's elements
    are alike, so only its first is visited."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value[:1])
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _value_paths(item, path + (key,))


# Any JSON value; a third of the draws are near misses of a valid header's values.
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_JSON_VALUES = (
    st.sampled_from([8.0, 1.5, True, -1, 0, 2**63, 10**400, "random", "categorical", "float32"])
    | _JSON_SCALARS
    | st.recursive(
        _JSON_SCALARS,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=8), inner, max_size=3),
        max_leaves=5,
    )
)


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
        assert loaded_pp.schema == pp.schema
        assert loaded_pp.ranges == pp.ranges
        assert loaded_pp.encoded_dim == pp.encoded_dim

    @pytest.mark.parametrize(
        "change", [{"hidden_dim": 64, "dtype": "float32"}, {"hidden_dim": 64},
                   {"dtype": "float32"}, {"conditioned": False}],
        ids=["width-and-dtype", "width", "dtype", "unconditioned"],
    )
    def test_cfg_of_other_layers_or_dtype_rejected(self, encoded_gauss, tmp_path, change):
        """A ``cfg`` that would label the stored layers with other widths or
        another dtype is refused; one that differs elsewhere replaces the
        stored config."""
        pp, _, _ = encoded_gauss
        cfg = PretrainConfig(**{**SMALL_CFG.__dict__, "hidden_dim": 16})
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_stack(pp.encoded_dim, 0.2, seed=0, cfg=cfg), pp)
        with pytest.raises(ConfigError, match="layers"):
            load_checkpoint(path, PretrainConfig(**{**cfg.__dict__, **change}))
        other = PretrainConfig(**{**cfg.__dict__, "learning_rate": 0.5, "max_epochs": 1})
        assert load_checkpoint(path, other)[0].cfg is other

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

    def test_v2_layout_rejected(self, encoded_gauss, tmp_path):
        """A format-2 file stored the one-hot layout and `normalize` beside the statistics."""
        pp, _, _ = encoded_gauss
        path = tmp_path / "v2.ckpt"
        save_checkpoint(path, init_stack(pp.encoded_dim, 0.2, seed=0, cfg=SMALL_CFG), pp)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 12)
        header = json.loads(blob[16 : 16 + header_len])
        header["preprocessor"] = {
            "kinds": [c.kind for c in pp.schema],
            "means": pp.means.tolist(),
            "stds": pp.stds.tolist(),
            "cardinalities": [c.cardinality for c in pp.schema],
            "ranges": [list(r) for r in pp.ranges],
            "encoded_dim": pp.encoded_dim,
            "normalize": True,
        }
        text = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(MAGIC + struct.pack("<II", 2, len(text)) + text + blob[16 + header_len :])
        with pytest.raises(CheckpointError, match="unsupported format version 2"):
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
            (lambda h: h["preprocessor"]["schema"][0].update(kind="ordinal"), "unknown kind"),
            (lambda h: h["preprocessor"]["schema"][0].update(kind="categorical", cardinality=3.0),
             "cardinality must be an int >= 2"),
            (lambda h: h["preprocessor"]["schema"][0].update(cardinality=3),
             "numerical columns have no cardinality"),
            (lambda h: h["preprocessor"]["schema"][0].update(label=True), "column keys are"),
            (lambda h: h.update(ratio="banana"), "malformed header"),
            (lambda h: h.update(ratio=7.5), "separation ratio"),
            (lambda h: h.update(seed="x"), "seed must be an int"),
            (lambda h: h["preprocessor"]["means"].pop(), "one value for each"),
            (lambda h: h["preprocessor"]["stds"].__setitem__(3, 0.0), "stds finite and > 0"),
            (lambda h: h["config"].update(hidden_dim=8.0), "hidden_dim must be an int"),
            (lambda h: h["config"].update(hidden_dim=True), "hidden_dim must be an int"),
            (lambda h: h["config"].update(patience=None), "patience must be an int"),
            (lambda h: h["config"].update(conditioned="x"), "conditioned must be a bool"),
            (lambda h: h["config"].update(max_epochs=1.5), "max_epochs must be an int"),
            (lambda h: h["preprocessor"]["schema"][0].update(name=5), "name must be a str"),
        ],
        ids=[
            "no-seed", "extra-key", "no-config-dtype", "negative-temperature",
            "unknown-dtype", "unknown-kind", "float-cardinality",
            "numerical-cardinality", "extra-column-key", "ratio-not-a-number",
            "ratio-out-of-range", "seed-not-an-int", "short-means", "zero-std",
            "float-width", "bool-width", "null-patience", "string-conditioned",
            "float-max-epochs", "int-column-name",
        ],
    )
    def test_bad_header_rejected(self, saved_checkpoint, tmp_path, edit, match):
        path = tmp_path / "h.ckpt"
        path.write_bytes(_with_header_edit(saved_checkpoint.read_bytes(), edit))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_edited_or_truncated_file_loads_or_is_rejected(self, saved_checkpoint, data):
        """One header value replaced by any JSON value, or the file cut at any
        offset: loading raises CheckpointError or gives a stack ``embed`` runs on."""
        blob = saved_checkpoint.read_bytes()
        cut = data.draw(st.none() | st.integers(0, len(blob) - 1))
        if cut is not None:
            blob = blob[:cut]
        else:
            (header_len,) = struct.unpack_from("<I", blob, 12)
            paths = list(_value_paths(json.loads(blob[16 : 16 + header_len])))
            *parents, last = data.draw(st.sampled_from(paths))
            value = data.draw(_JSON_VALUES)

            def edit(header):
                for key in parents:
                    header = header[key]
                header[last] = value

            blob = _with_header_edit(blob, edit)
        path = saved_checkpoint.with_name("edited.ckpt")
        path.write_bytes(blob)
        try:
            stack, pp = load_checkpoint(path)
        except CheckpointError:
            return
        assert embed(stack, np.zeros((2, pp.encoded_dim))).shape == (2, stack.embed_dim)


# sha256 of the members' checkpoint bytes and of their loss curves (float64
# bytes) from small ensembles. In the first three every matrix product stays
# below OpenBLAS's threading threshold, so the bytes do not depend on the BLAS
# thread count; each leaves a short last batch in one pass and a skipped 1-row
# batch in the other. The fourth trains batches of 300 and 150 rows, so
# InfoNCE spans two tiles with a ragged edge, and tensors of 3 Adam blocks and
# a remainder. Its products are threaded, and float64 bytes there differ
# between 1 and 2 BLAS threads; float32 bytes do not.
PINNED_RUNS = {
    "float64-zero": (
        dict(dtype="float64", imputation="zero"), [0.25, 0.5], 65, 45,
        "222f57057f74559c4b326f03116c1c955deae15c68b7f57c34173444c3c9a153",
        "9b0ba5f4fb1be977f50244faaff1467db1ae10abe78da3acf4b9fdcd650ebc9a",
    ),
    "float32-marginal-random": (
        dict(dtype="float32", imputation="marginal"), [RATIO_RANDOM, 0.3], 77, 33,
        "ef8329e8d467bf684994b2653d2b75d764dbc74d211e8d2833141a71f3120971",
        "2288f9c272b5371283106e506d7a16bf504f7863ba30db8958bf520a1ae9d654",
    ),
    "unconditioned": (
        dict(conditioned=False), [0.4], 65, 45,
        "485afaf1ef254239a6cc6ab8f2b3555fb14d65fe6df9a6888c1510b90c16b602",
        "178408943ec27c76e8113fda18ce60fb47f0de96e28b059b93fa7a7a9305a714",
    ),
    "float32-wide-batch": (
        dict(dtype="float32", batch_size=300, hidden_dim=400, embed_dim=256, projector_dim=256),
        [0.3, 0.5], 450, 50,
        "7c64461481f09de750fec3df1118ee6107e5f56173940df3e3d90ccdb389f26a",
        "6a0e785f3b26a4c6b903230e22ccc9c1a1e46551ecd668bcf560d122fad4669f",
    ),
}


@pytest.mark.parametrize("run", sorted(PINNED_RUNS))
def test_pinned_output_bytes(run, tmp_path):
    change, ratios, n_train, n_valid, ckpt_digest, loss_digest = PINNED_RUNS[run]
    ds = make_gaussian_dataset(
        n_rows=600, d_raw=8, n_classes=4, separation=6.0, seed=7, n_categorical=2, cardinality=3
    )
    idx = split(ds, seed=1)
    pp = fit(ds, idx.train)
    x_train = encode(pp, ds, idx.train)[:n_train]
    x_valid = encode(pp, ds, idx.valid)[:n_valid]
    small = dict(max_epochs=4, batch_size=32, patience=2, hidden_dim=16, embed_dim=8, projector_dim=8)
    cfg = PretrainConfig(**{**small, **change})
    stacks, reports = pretrain_ensemble(x_train, x_valid, pp, ratios, cfg, master_seed=9)
    ckpt, losses = hashlib.sha256(), hashlib.sha256()
    for k, (stack, report) in enumerate(zip(stacks, reports)):
        save_checkpoint(tmp_path / f"{k}.ckpt", stack, pp)
        ckpt.update((tmp_path / f"{k}.ckpt").read_bytes())
        losses.update(np.array(report.train_losses + report.valid_losses).tobytes())
    assert (ckpt.hexdigest(), losses.hexdigest()) == (ckpt_digest, loss_digest)
