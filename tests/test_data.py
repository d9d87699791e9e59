"""Loading, splitting, and episode sampling."""

from __future__ import annotations

import numpy as np
import pytest

from tabalign.data import (
    NUMERICAL,
    ColumnSchema,
    Dataset,
    load_csv,
    load_schema_file,
    sample_episode,
    split,
)
from tabalign.errors import EpisodeError, FormatError, ParseError, SchemaError, SplitError
from tabalign.synthetic import make_gaussian_dataset, write_dataset_files


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


SCHEMA_NUM_CAT = """\
columns:
  - name: num
    kind: numerical
  - name: cat
    kind: categorical
"""


class TestLoadCsv:
    def test_first_appearance_category_indexing(self, tmp_path):
        data = _write(tmp_path, "d.csv", "num,cat\n1.5,b\n2.0,a\n")
        schema = _write(tmp_path, "d.yaml", SCHEMA_NUM_CAT)
        ds = load_csv(data, schema)
        np.testing.assert_allclose(ds.rows, [[1.5, 0.0], [2.0, 1.0]])
        assert ds.schema[1].cardinality == 2
        assert ds.categories["cat"] == ["b", "a"]

    def test_label_column(self, tmp_path):
        data = _write(tmp_path, "d.csv", "num,y\n1,pos\n2,neg\n3,pos\n")
        schema = _write(
            tmp_path,
            "d.yaml",
            "columns:\n  - name: num\n    kind: numerical\n  - name: y\n    label: true\n",
        )
        ds = load_csv(data, schema)
        assert ds.n_classes == 2
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.class_names == ["pos", "neg"]

    def test_header_mismatch_is_schema_error(self, tmp_path):
        data = _write(tmp_path, "d.csv", "num,other\n1,2\n")
        schema = _write(tmp_path, "d.yaml", SCHEMA_NUM_CAT)
        with pytest.raises(SchemaError):
            load_csv(data, schema)

    def test_repeated_header_column_is_schema_error(self, tmp_path):
        """A second ``num`` column would otherwise be dropped without a word."""
        data = _write(tmp_path, "d.csv", "num,cat,num\n1.5,b,7\n2.0,a,8\n")
        schema = _write(tmp_path, "d.yaml", SCHEMA_NUM_CAT)
        with pytest.raises(SchemaError, match=r"repeated=\['num'\]"):
            load_csv(data, schema)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        data = _write(tmp_path, "d.csv", "num,cat\n1.5,b\nxyz,a\n")
        schema = _write(tmp_path, "d.yaml", SCHEMA_NUM_CAT)
        with pytest.raises(ParseError, match=r"row 3.*'num'"):
            load_csv(data, schema)

    def test_empty_file_is_format_error(self, tmp_path):
        data = _write(tmp_path, "d.csv", "")
        schema = _write(tmp_path, "d.yaml", SCHEMA_NUM_CAT)
        with pytest.raises(FormatError):
            load_csv(data, schema)

    def test_header_only_is_format_error(self, tmp_path):
        data = _write(tmp_path, "d.csv", "num,cat\n")
        schema = _write(tmp_path, "d.yaml", SCHEMA_NUM_CAT)
        with pytest.raises(FormatError):
            load_csv(data, schema)

    def test_empty_cell_is_parse_error(self, tmp_path):
        data = _write(tmp_path, "d.csv", "num,cat\n1.0,\n")
        schema = _write(tmp_path, "d.yaml", SCHEMA_NUM_CAT)
        with pytest.raises(ParseError):
            load_csv(data, schema)

    def test_single_level_categorical_rejected(self, tmp_path):
        data = _write(tmp_path, "d.csv", "num,cat\n1,a\n2,a\n")
        schema = _write(tmp_path, "d.yaml", SCHEMA_NUM_CAT)
        with pytest.raises(SchemaError, match="cat"):
            load_csv(data, schema)

    def test_two_label_columns_rejected(self, tmp_path):
        schema = _write(
            tmp_path,
            "d.yaml",
            "columns:\n"
            "  - name: a\n    label: true\n"
            "  - name: b\n    label: true\n"
            "  - name: num\n    kind: numerical\n",
        )
        with pytest.raises(SchemaError):
            load_schema_file(schema)

    def test_synthetic_roundtrip(self, tmp_path):
        ds = make_gaussian_dataset(
            n_rows=120, d_raw=6, n_classes=3, seed=5, n_categorical=2, cardinality=3
        )
        write_dataset_files(ds, tmp_path / "s.csv", tmp_path / "s.yaml")
        back = load_csv(tmp_path / "s.csv", tmp_path / "s.yaml")
        assert back.n_rows == ds.n_rows and back.d_raw == ds.d_raw
        assert [c.kind for c in back.schema] == [c.kind for c in ds.schema]
        assert back.n_classes == ds.n_classes
        # Labels survive up to a relabeling bijection.
        for c in range(ds.n_classes):
            reloaded = back.labels[ds.labels == c]
            assert len(np.unique(reloaded)) == 1
        # Numerical cells survive up to print formatting.
        num_cols = [j for j, c in enumerate(ds.schema) if c.kind == NUMERICAL]
        np.testing.assert_allclose(
            back.rows[:, num_cols], ds.rows[:, num_cols], rtol=1e-8, atol=1e-8
        )


class TestSplit:
    def test_five_to_one_and_ten_percent(self):
        ds = make_gaussian_dataset(n_rows=600, d_raw=8, n_classes=4, seed=0)
        idx = split(ds, seed=0)
        assert len(idx.test) == 100
        assert len(idx.train) + len(idx.valid) == 500
        assert len(idx.valid) == 50

    def test_larger_dataset_arithmetic(self):
        ds = make_gaussian_dataset(n_rows=6000, d_raw=8, n_classes=4, seed=0)
        idx = split(ds, seed=1)
        assert len(idx.test) == 1000

    def test_deterministic_per_seed(self, gauss_ds):
        a = split(gauss_ds, seed=11)
        b = split(gauss_ds, seed=11)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.valid, b.valid)
        np.testing.assert_array_equal(a.test, b.test)
        c = split(gauss_ds, seed=12)
        assert not np.array_equal(a.test, c.test)

    @pytest.mark.parametrize("seed", range(8))
    def test_partition_property(self, gauss_ds, seed):
        idx = split(gauss_ds, seed=seed)
        merged = np.concatenate([idx.train, idx.valid, idx.test])
        assert len(merged) == gauss_ds.n_rows
        np.testing.assert_array_equal(np.sort(merged), np.arange(gauss_ds.n_rows))

    @pytest.mark.parametrize("seed", range(4))
    def test_stratified_per_class(self, seed):
        # Unbalanced class sizes exercise the per-class rounding.
        rng = np.random.default_rng(99)
        labels = np.repeat([0, 1, 2], [300, 140, 61])
        rng.shuffle(labels)
        ds = Dataset(
            schema=[ColumnSchema("x", NUMERICAL)],
            rows=rng.normal(size=(len(labels), 1)),
            labels=labels.astype(np.int64),
            n_classes=3,
        )
        idx = split(ds, seed=seed)
        for c, count in [(0, 300), (1, 140), (2, 61)]:
            n_test = int(np.sum(ds.labels[idx.test] == c))
            assert n_test in (count // 6, count // 6 + 1)

    def test_unlabeled_split(self):
        ds = Dataset(
            schema=[ColumnSchema("x", NUMERICAL)],
            rows=np.random.default_rng(0).normal(size=(90, 1)),
            labels=None,
            n_classes=0,
        )
        idx = split(ds, seed=0)
        assert len(idx.test) == 15

    def test_tiny_class_is_split_error(self):
        labels = np.asarray([0] * 30 + [1] * 5, dtype=np.int64)
        ds = Dataset(
            schema=[ColumnSchema("x", NUMERICAL)],
            rows=np.zeros((35, 1)),
            labels=labels,
            n_classes=2,
        )
        with pytest.raises(SplitError):
            split(ds, seed=0)

    def test_tiny_dataset_is_split_error(self):
        ds = Dataset(
            schema=[ColumnSchema("x", NUMERICAL)],
            rows=np.zeros((5, 1)),
            labels=None,
            n_classes=0,
        )
        with pytest.raises(SplitError):
            split(ds, seed=0)


@pytest.fixture(scope="module")
def big():
    ds = make_gaussian_dataset(n_rows=1400, d_raw=12, n_classes=10, seed=2)
    return ds, split(ds, seed=0)


class TestSampleEpisode:
    def test_sizes(self, big):
        ds, idx = big
        ep = sample_episode(ds, idx, n_way=10, k_shot=5, n_query_per_class=15, seed=0)
        assert len(ep.support_rows) == len(ep.support_labels) == 50
        assert len(ep.query_rows) == len(ep.query_labels) == 150
        assert {a.dtype for a in vars(ep).values()} == {np.dtype(np.int64)}

    def test_one_shot(self, big):
        ds, idx = big
        ep = sample_episode(ds, idx, n_way=10, k_shot=1, n_query_per_class=5, seed=1)
        labels = ep.support_labels.tolist()
        assert sorted(labels) == sorted(set(labels))

    def test_balanced_and_disjoint(self, big):
        ds, idx = big
        for seed in range(5):
            ep = sample_episode(ds, idx, n_way=4, k_shot=3, n_query_per_class=7, seed=seed)
            counts = {}
            for c in ep.support_labels.tolist():
                counts[c] = counts.get(c, 0) + 1
            assert set(counts.values()) == {3}
            assert not set(ep.support_rows.tolist()) & set(ep.query_rows.tolist())
            test_set = set(idx.test.tolist())
            assert set(ep.support_rows.tolist()) <= test_set
            assert set(ep.query_rows.tolist()) <= test_set
            assert np.array_equal(ds.labels[ep.support_rows], ep.support_labels)
            assert np.array_equal(ds.labels[ep.query_rows], ep.query_labels)

    def test_deterministic(self, big):
        ds, idx = big
        a = sample_episode(ds, idx, 5, 2, 4, seed=7)
        b = sample_episode(ds, idx, 5, 2, 4, seed=7)
        for field in ("support_rows", "support_labels", "query_rows", "query_labels"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    def test_twenty_seed_collision(self, big):
        """Distinct seeds give distinct support sets (enumerated and compared)."""
        ds, idx = big
        supports = set()
        for seed in range(20):
            ep = sample_episode(ds, idx, 10, 2, 4, seed=seed)
            supports.add(frozenset(ep.support_rows.tolist()))
        assert len(supports) == 20

    def test_thin_class_error_names_class(self, big):
        ds, idx = big
        with pytest.raises(EpisodeError, match="c\\d"):
            sample_episode(ds, idx, n_way=10, k_shot=5, n_query_per_class=1000, seed=0)

    def test_unlabeled_rejected(self):
        ds = Dataset(
            schema=[ColumnSchema("x", NUMERICAL)],
            rows=np.zeros((20, 1)),
            labels=None,
            n_classes=0,
        )
        idx = split(ds, seed=0)
        with pytest.raises(EpisodeError):
            sample_episode(ds, idx, 2, 1, 1, seed=0)
