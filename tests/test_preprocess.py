"""Encoding statistics, separation masks, and view construction."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabalign.data import CATEGORICAL, NUMERICAL, ColumnSchema, Dataset
from tabalign.errors import ArrayError, MaskError, SchemaError
from tabalign.preprocess import (
    SeparationMask,
    encode,
    encode_rows,
    expand_mask,
    fit,
    make_views,
    make_views_marginal,
    mask_popcount,
    sample_mask,
)

from conftest import mixed_dataset


def _numeric_ds(values):
    return Dataset(
        schema=[ColumnSchema("x", NUMERICAL)],
        rows=np.asarray(values, dtype=np.float64).reshape(-1, 1),
        labels=None,
        n_classes=0,
    )


def _num_cat_ds():
    schema = [ColumnSchema("num", NUMERICAL), ColumnSchema("cat", CATEGORICAL, 3)]
    rows = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]])
    return Dataset(schema=schema, rows=rows, labels=None, n_classes=0)


class TestFit:
    def test_population_statistics(self):
        ds = _numeric_ds([1.0, 2.0, 3.0])
        pp = fit(ds, np.arange(3))
        assert pp.means[0] == pytest.approx(2.0)
        assert pp.stds[0] == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_encoded_dim(self):
        pp = fit(_num_cat_ds(), np.arange(3))
        assert pp.encoded_dim == 4
        assert pp.ranges == [(0, 1), (1, 4)]

    def test_encoded_dim_matches_observed_level_counts(self):
        """Sum of per-column distinct levels, counted independently of fit."""
        ds = mixed_dataset(seed=4)
        pp = fit(ds, np.arange(ds.n_rows))
        expected = 0
        for j, col in enumerate(ds.schema):
            if col.kind == CATEGORICAL:
                expected += len(np.unique(ds.rows[:, j]))
            else:
                expected += 1
        assert pp.encoded_dim == expected

    def test_constant_column_gets_unit_std(self):
        ds = _numeric_ds([5.0, 5.0, 5.0])
        pp = fit(ds, np.arange(3))
        assert pp.stds[0] == 1.0
        np.testing.assert_allclose(encode(pp, ds, np.arange(3)), 0.0)

    def test_no_normalization_flag(self):
        ds = _numeric_ds([1.0, 2.0, 3.0])
        pp = fit(ds, np.arange(3), normalize=False)
        np.testing.assert_allclose(encode(pp, ds, np.arange(3)).ravel(), [1.0, 2.0, 3.0])

    def test_empty_train_rejected(self):
        with pytest.raises(ArrayError):
            fit(_numeric_ds([1.0]), np.array([], dtype=np.int64))


class TestEncode:
    def test_standardization_value(self):
        ds = _numeric_ds([1.0, 2.0, 3.0])
        pp = fit(ds, np.arange(3))
        out = encode_rows(pp, np.array([[3.0]]))
        assert out[0, 0] == pytest.approx(1.224744871391589, abs=1e-12)

    def test_one_hot(self):
        pp = fit(_num_cat_ds(), np.arange(3))
        out = encode_rows(pp, np.array([[2.0, 2.0]]))
        np.testing.assert_allclose(out[0, 1:], [0.0, 0.0, 1.0])

    def test_mixed_row(self):
        pp = fit(_num_cat_ds(), np.arange(3))
        out = encode_rows(pp, np.array([[2.0, 0.0]]))
        np.testing.assert_allclose(out[0], [0.0, 1.0, 0.0, 0.0])

    def test_category_out_of_range(self):
        pp = fit(_num_cat_ds(), np.arange(3))
        with pytest.raises(ArrayError):
            encode_rows(pp, np.array([[1.0, 3.0]]))

    def test_no_leakage_from_heldout_rows(self):
        """Permuting valid/test rows never changes a held-out encoding."""
        ds = mixed_dataset(seed=1, n_rows=40)
        train = np.arange(20)
        pp = fit(ds, train)
        held = encode(pp, ds, np.array([25]))

        shuffled = mixed_dataset(seed=1, n_rows=40)
        rng = np.random.default_rng(0)
        tail = rng.permutation(np.arange(20, 40))
        shuffled.rows[20:] = shuffled.rows[tail]
        row_25_new = int(np.flatnonzero(tail == 25)[0]) + 20
        pp2 = fit(shuffled, train)
        held2 = encode(pp2, shuffled, np.array([row_25_new]))
        np.testing.assert_array_equal(held, held2)

    def test_columns_other_than_the_fitted_ones_rejected(self):
        """The same numerical columns in reverse order would take the wrong statistics."""
        ds = Dataset(
            schema=[ColumnSchema(f"x{j}", NUMERICAL) for j in range(3)],
            rows=np.arange(12.0).reshape(4, 3) ** 2,
            labels=None,
            n_classes=0,
        )
        pp = fit(ds, np.arange(4))
        reversed_ds = dataclasses.replace(ds, schema=ds.schema[::-1], rows=ds.rows[:, ::-1])
        with pytest.raises(SchemaError, match="columns the preprocessor was fitted on"):
            encode(pp, reversed_ds, np.arange(4))


class TestSampleMask:
    def test_popcount_arithmetic(self):
        assert mask_popcount(0.2, 10) == 2
        assert mask_popcount(0.01, 4) == 1
        assert mask_popcount(0.99, 4) == 3
        assert mask_popcount(0.5, 5) == 3

    def test_sampled_popcount(self):
        ds = mixed_dataset()
        pp = fit(ds, np.arange(ds.n_rows))
        rng = np.random.default_rng(0)
        for ratio, expected in [(0.2, 1), (0.5, 2), (0.9, 3)]:
            mask = sample_mask(pp, ratio, rng)
            assert int(mask.raw_mask.sum()) == expected

    def test_expansion_respects_column_blocks(self):
        pp = fit(_num_cat_ds(), np.arange(3))
        np.testing.assert_allclose(
            expand_mask(pp, np.array([1, 0], dtype=np.uint8)), [1.0, 0.0, 0.0, 0.0]
        )
        np.testing.assert_allclose(
            expand_mask(pp, np.array([0, 1], dtype=np.uint8)), [0.0, 1.0, 1.0, 1.0]
        )

    def test_single_column_rejected(self):
        pp = fit(_numeric_ds([1.0, 2.0]), np.arange(2))
        with pytest.raises(MaskError):
            sample_mask(pp, 0.5, np.random.default_rng(0))

    def test_bad_ratio_rejected(self):
        pp = fit(_num_cat_ds(), np.arange(3))
        for ratio in (0.0, 1.0, -0.3):
            with pytest.raises(MaskError):
                sample_mask(pp, ratio, np.random.default_rng(0))


class TestMakeViews:
    def test_elementwise_split(self):
        mask = SeparationMask(
            raw_mask=np.array([0, 1, 0, 1], dtype=np.uint8),
            encoded_mask=np.array([0.0, 1.0, 0.0, 1.0]),
        )
        x_f, x_t = make_views(np.array([1.0, 2.0, 3.0, 4.0]), mask)
        np.testing.assert_allclose(x_f, [1.0, 0.0, 3.0, 0.0])
        np.testing.assert_allclose(x_t, [0.0, 2.0, 0.0, 4.0])

    def test_all_ones_boundary(self):
        mask = SeparationMask(
            raw_mask=np.ones(3, dtype=np.uint8),
            encoded_mask=np.ones(3),
        )
        x = np.array([1.0, -2.0, 5.0])
        x_f, x_t = make_views(x, mask)
        np.testing.assert_allclose(x_f, 0.0)
        np.testing.assert_allclose(x_t, x)

    def test_reconstruction_100_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(2, 20))
            m = (rng.random(d) < 0.5).astype(np.float64)
            mask = SeparationMask(raw_mask=m.astype(np.uint8), encoded_mask=m)
            x = rng.normal(size=d)
            x_f, x_t = make_views(x, mask)
            np.testing.assert_allclose(x_f + x_t, x)
            np.testing.assert_allclose(x_f * x_t, 0.0)

    def test_out_pair_gives_the_same_bits(self):
        rng = np.random.default_rng(6)
        m = (rng.random(7) < 0.5).astype(np.float64)
        mask = SeparationMask(raw_mask=m.astype(np.uint8), encoded_mask=m)
        x = rng.normal(size=(5, 7)).astype(np.float32)
        out = (np.full((5, 7), np.nan), np.full((5, 7), np.nan))
        got = make_views(x, mask, out=out)
        assert got[0] is out[0] and got[1] is out[1]
        assert [v.tobytes() for v in got] == [
            v.astype(np.float64).tobytes() for v in make_views(x, mask)
        ]

    @pytest.mark.parametrize("marginal", [False, True], ids=["zero", "marginal"])
    def test_float32_views_are_the_float64_mask_product_in_float32(self, marginal):
        ds = mixed_dataset(seed=4)
        pp = fit(ds, np.arange(ds.n_rows))
        x = encode(pp, ds, np.arange(ds.n_rows))
        mask = sample_mask(pp, 0.5, np.random.default_rng(0))
        assert mask.encoded_mask.dtype == np.float64

        def views(batch):
            if marginal:
                return make_views_marginal(batch, mask, pp, np.random.default_rng(1))
            return make_views(batch, mask)

        got = views(x.astype(np.float32))
        assert [v.dtype for v in got] == [np.float32, np.float32]
        assert [v.tobytes() for v in got] == [v.astype(np.float32).tobytes() for v in views(x)]

    def test_dimension_mismatch(self):
        mask = SeparationMask(
            raw_mask=np.array([1, 0], dtype=np.uint8),
            encoded_mask=np.array([1.0, 0.0]),
        )
        with pytest.raises(ArrayError):
            make_views(np.ones(3), mask)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    ratio=st.floats(0.05, 0.95),
    kinds=st.lists(
        st.tuples(st.sampled_from([NUMERICAL, CATEGORICAL]), st.integers(2, 5)),
        min_size=2,
        max_size=8,
    ),
)
def test_view_algebra_property(seed, ratio, kinds):
    """Complementarity and categorical atomicity over random schemas and masks."""
    rng = np.random.default_rng(seed)
    schema = []
    cells = []
    for j, (kind, card) in enumerate(kinds):
        if kind == NUMERICAL:
            schema.append(ColumnSchema(f"f{j}", NUMERICAL))
            cells.append(rng.normal(size=12))
        else:
            schema.append(ColumnSchema(f"f{j}", CATEGORICAL, card))
            col = rng.integers(card, size=12).astype(np.float64)
            col[:card] = np.arange(card)
            cells.append(col)
    ds = Dataset(schema=schema, rows=np.column_stack(cells), labels=None, n_classes=0)
    pp = fit(ds, np.arange(ds.n_rows))
    x = encode(pp, ds, np.arange(ds.n_rows))
    mask = sample_mask(pp, ratio, rng)
    x_f, x_t = make_views(x, mask)

    np.testing.assert_allclose(x_f + x_t, x)
    np.testing.assert_allclose(x_f * x_t, 0.0)
    for j, (start, stop) in enumerate(pp.ranges):
        block = mask.encoded_mask[start:stop]
        assert np.all(block == mask.raw_mask[j])


class TestMarginalImputation:
    def test_filled_values_come_from_training_set(self):
        ds = mixed_dataset(seed=9)
        train = np.arange(30)
        pp = fit(ds, train)
        x = encode(pp, ds, np.arange(ds.n_rows))
        rng = np.random.default_rng(3)
        mask = sample_mask(pp, 0.5, rng)
        x_f, x_t = make_views_marginal(x, mask, pp, rng)

        # Target view is unchanged by the imputation policy.
        np.testing.assert_allclose(x_t, x * mask.encoded_mask)
        for j in np.flatnonzero(mask.raw_mask):
            start, stop = pp.ranges[j]
            if pp.schema[j].kind == NUMERICAL:
                observed = set(np.round(pp.marginals[j], 12))
                filled = set(np.round(x_f[:, start], 12))
                assert filled <= observed
            else:
                block = x_f[:, start:stop]
                np.testing.assert_allclose(block.sum(axis=1), 1.0)
                used = np.flatnonzero(block.sum(axis=0) > 0)
                observed_levels = set(pp.marginals[j].tolist())
                assert set(used.tolist()) <= observed_levels

    def test_feature_side_columns_untouched(self):
        ds = mixed_dataset(seed=2)
        pp = fit(ds, np.arange(ds.n_rows))
        x = encode(pp, ds, np.arange(ds.n_rows))
        rng = np.random.default_rng(1)
        mask = sample_mask(pp, 0.3, rng)
        x_f, _ = make_views_marginal(x, mask, pp, rng)
        for j in np.flatnonzero(mask.raw_mask == 0):
            start, stop = pp.ranges[j]
            np.testing.assert_allclose(x_f[:, start:stop], x[:, start:stop])

    def test_requires_marginals(self):
        ds = mixed_dataset()
        pp = dataclasses.replace(fit(ds, np.arange(ds.n_rows)), marginals=None)
        x = encode(pp, ds, np.arange(ds.n_rows))
        mask = sample_mask(pp, 0.5, np.random.default_rng(0))
        with pytest.raises(ArrayError):
            make_views_marginal(x, mask, pp, np.random.default_rng(0))
