"""Neighborhood label-purity curve and input-vs-latent consistency."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from tabalign.analysis import latent_consistency, neighbor_fraction_curve
from tabalign.data import NUMERICAL, ColumnSchema, Dataset
from tabalign.errors import AnalysisError
from tabalign.nncore import DenseLayer
from tabalign.preprocess import encode, fit
from tabalign.pretrain import PretrainConfig, init_stack, nearest_neighbors, pretrain
from tabalign.synthetic import make_gaussian_dataset


def _numeric_dataset(rows, labels):
    rows = np.asarray(rows, dtype=np.float64)
    return Dataset(
        schema=[ColumnSchema(f"f{j}", NUMERICAL) for j in range(rows.shape[1])],
        rows=rows,
        labels=np.asarray(labels, dtype=np.int64),
        n_classes=int(np.max(labels)) + 1,
    )


def _identity_stack(dim: int):
    """Encoder computing exactly the identity via relu(x) - relu(-x)."""
    cfg = PretrainConfig(hidden_dim=2 * dim, embed_dim=dim, projector_dim=dim)
    stack = init_stack(dim, 0.2, seed=0, cfg=cfg)
    w1 = np.vstack([np.eye(dim), -np.eye(dim)])
    stack.encoder[0] = DenseLayer(w1, np.zeros(2 * dim))
    stack.encoder[1] = DenseLayer(np.hstack([np.eye(dim), -np.eye(dim)]), np.zeros(dim))
    return stack


class TestNeighborFractionCurve:
    def test_two_far_clusters_are_pure(self):
        rng = np.random.default_rng(0)
        offset = np.full(6, 1000.0)
        rows = np.vstack(
            [rng.normal(size=(20, 6)), offset + rng.normal(size=(20, 6))]
        )
        ds = _numeric_dataset(rows, [0] * 20 + [1] * 20)
        pp = fit(ds, np.arange(40))
        x = encode(pp, ds, np.arange(40))
        curve = neighbor_fraction_curve(
            x, ds.labels, pp, 0.5, n_separations=5, k_max=10, rng=np.random.default_rng(1)
        )
        np.testing.assert_allclose(curve, 1.0)

    def test_shuffled_labels_sit_at_chance(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(300, 8))
        labels = np.arange(300) % 4
        rng.shuffle(labels)
        ds = _numeric_dataset(rows, labels)
        pp = fit(ds, np.arange(300))
        x = encode(pp, ds, np.arange(300))
        curve = neighbor_fraction_curve(
            x, ds.labels, pp, 0.3, n_separations=10, k_max=10, rng=np.random.default_rng(3)
        )
        np.testing.assert_allclose(curve, 0.25, atol=0.05)

    def test_decreasing_trend_on_gaussian_clusters(self):
        """Immediate neighbors are purer than a k=10 pool."""
        ds = make_gaussian_dataset(n_rows=400, d_raw=16, n_classes=4, separation=6.0, seed=4)
        pp = fit(ds, np.arange(ds.n_rows))
        x = encode(pp, ds, np.arange(ds.n_rows))
        curve = neighbor_fraction_curve(
            x, ds.labels, pp, 0.2, n_separations=20, k_max=10, rng=np.random.default_rng(5)
        )
        assert curve[0] >= curve[9]

    def test_k_max_too_large(self):
        ds = make_gaussian_dataset(n_rows=60, d_raw=8, n_classes=2, seed=0)
        pp = fit(ds, np.arange(60))
        x = encode(pp, ds, np.arange(60))
        with pytest.raises(AnalysisError):
            neighbor_fraction_curve(
                x, ds.labels, pp, 0.2, 1, k_max=60, rng=np.random.default_rng(0)
            )


class TestLatentConsistency:
    def test_identity_encoder_preserves_counts(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(80, 5))
        ds = _numeric_dataset(rows, np.arange(80) % 3)
        pp = fit(ds, np.arange(80), normalize=False)
        x = encode(pp, ds, np.arange(80))
        table = latent_consistency(x, ds.labels, _identity_stack(5), k=10)
        assert table.overall_latent_mean == pytest.approx(table.overall_input_mean)
        valid = table.bucket_sizes > 0
        np.testing.assert_allclose(
            table.mean_latent_count[valid], table.mean_input_count[valid]
        )

    def test_single_class_saturates(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(30, 4))
        ds = _numeric_dataset(rows, np.zeros(30, dtype=int))
        pp = fit(ds, np.arange(30))
        x = encode(pp, ds, np.arange(30))
        table = latent_consistency(x, ds.labels, _identity_stack(4), k=10)
        assert table.overall_input_mean == 10.0
        assert table.overall_latent_mean == 10.0
        assert table.bucket_sizes[10] == 30

    def test_bucket_partition(self):
        ds = make_gaussian_dataset(n_rows=200, d_raw=8, n_classes=4, separation=3.0, seed=8)
        pp = fit(ds, np.arange(200))
        x = encode(pp, ds, np.arange(200))
        stack = init_stack(
            pp.encoded_dim, 0.2, seed=0,
            cfg=PretrainConfig(hidden_dim=16, embed_dim=8, projector_dim=8),
        )
        table = latent_consistency(x, ds.labels, stack, k=10)
        assert int(table.bucket_sizes.sum()) == 200

    def test_pretrained_stack_raises_consistency(self, gauss_ds):
        """Training on view alignment lifts same-class 10-NN counts."""
        from tabalign.data import split as split_fn

        idx = split_fn(gauss_ds, seed=0)
        pp = fit(gauss_ds, idx.train)
        x_train = encode(pp, gauss_ds, idx.train)
        x_valid = encode(pp, gauss_ds, idx.valid)
        cfg = PretrainConfig(
            max_epochs=40, patience=40, batch_size=256,
            hidden_dim=128, embed_dim=64, projector_dim=64,
        )
        stack = init_stack(pp.encoded_dim, 0.2, seed=2, cfg=cfg)
        pretrain(stack, x_train, x_valid, pp)
        x_all = encode(pp, gauss_ds, np.arange(gauss_ds.n_rows))
        table = latent_consistency(x_all, gauss_ds.labels, stack, k=10)
        assert table.overall_latent_mean >= table.overall_input_mean

    def test_too_few_rows(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(10, 3))
        ds = _numeric_dataset(rows, np.zeros(10, dtype=int))
        pp = fit(ds, np.arange(10))
        x = encode(pp, ds, np.arange(10))
        with pytest.raises(AnalysisError):
            latent_consistency(x, ds.labels, _identity_stack(3), k=10)


class TestTopK:
    def test_self_exclusion_even_with_duplicates(self):
        rows = np.vstack([np.ones((5, 3)), np.zeros((5, 3))])
        nbrs = nearest_neighbors(rows, 4)
        for i in range(10):
            assert i not in nbrs[i]

    def test_matches_full_sort(self, monkeypatch):
        # Seven rows per Gram block: the 50 rows span eight blocks.
        monkeypatch.setattr(importlib.import_module("tabalign.pretrain"), "_BLOCK_ELEMENTS", 7 * 50)
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(50, 4))
        nbrs = nearest_neighbors(pts, 6)
        for i in range(50):
            d = np.square(pts - pts[i]).sum(axis=1)
            d[i] = np.inf
            np.testing.assert_array_equal(nbrs[i], np.argsort(d, kind="stable")[:6])
