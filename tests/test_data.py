"""Loading, splitting, and episode sampling."""

from __future__ import annotations

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tabalign import data
from tabalign.data import (
    CATEGORICAL,
    NUMERICAL,
    ColumnSchema,
    Dataset,
    load_csv,
    load_schema_file,
    sample_episode,
    split,
)
from tabalign.errors import (
    ConfigError, EpisodeError, FormatError, ParseError, SchemaError, SplitError,
)
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
SCHEMA_NUM_LABEL = "columns:\n  - name: num\n    kind: numerical\n  - name: y\n    label: true\n"
SCHEMA_TWO_LABELS = (
    "columns:\n"
    "  - name: a\n    label: true\n"
    "  - name: b\n    label: true\n"
    "  - name: num\n    kind: numerical\n"
)


def _reference_load_csv(data_path, schema_path) -> Dataset:
    """The row-by-row loader ``load_csv`` replaced: each cell is stripped,
    parsed and checked on its own, in row order."""
    data_path = Path(data_path)
    features, label_name = load_schema_file(schema_path)

    with data_path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{data_path}: empty file") from None

        expected = [name for name, _ in features]
        if label_name is not None:
            expected.append(label_name)
        if sorted(header) != sorted(expected):
            missing = sorted(set(expected) - set(header))
            extra = sorted(set(header) - set(expected))
            repeated = sorted({name for name in header if header.count(name) > 1})
            raise SchemaError(
                f"{data_path}: header does not match schema "
                f"(missing={missing}, unknown={extra}, repeated={repeated})"
            )
        col_pos = {name: header.index(name) for name in expected}

        kinds = dict(features)
        vocab: dict[str, dict[str, int]] = {
            name: {} for name, kind in features if kind == CATEGORICAL
        }
        label_vocab: dict[str, int] = {}
        cells: list[list[float]] = []
        label_cells: list[int] = []

        for row_no, row in enumerate(reader):
            if len(row) != len(header):
                raise FormatError(
                    f"{data_path}: row {row_no + 2} has {len(row)} cells, "
                    f"expected {len(header)}"
                )
            parsed: list[float] = []
            for name, _ in features:
                text = row[col_pos[name]].strip()
                if not text:
                    raise ParseError(
                        f"{data_path}: empty cell at row {row_no + 2}, column {name!r}"
                    )
                if kinds[name] == NUMERICAL:
                    try:
                        value = float(text)
                    except ValueError:
                        raise ParseError(
                            f"{data_path}: non-numeric value {text!r} at "
                            f"row {row_no + 2}, column {name!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise ParseError(
                            f"{data_path}: non-finite value {text!r} at "
                            f"row {row_no + 2}, column {name!r}"
                        )
                    parsed.append(value)
                else:
                    levels = vocab[name]
                    if text not in levels:
                        levels[text] = len(levels)
                    parsed.append(float(levels[text]))
            if label_name is not None:
                text = row[col_pos[label_name]].strip()
                if not text:
                    raise ParseError(f"{data_path}: empty label at row {row_no + 2}")
                if text not in label_vocab:
                    label_vocab[text] = len(label_vocab)
                label_cells.append(label_vocab[text])
            cells.append(parsed)

    if not cells:
        raise FormatError(f"{data_path}: no data rows")

    schema = [ColumnSchema(name, kind, len(vocab[name]) if name in vocab else None)
              for name, kind in features]
    labels = np.asarray(label_cells, dtype=np.int64) if label_name is not None else None
    ds = Dataset(
        schema=schema,
        rows=np.asarray(cells, dtype=np.float64),
        labels=labels,
        n_classes=len(label_vocab) if label_name is not None else 0,
        name=data_path.stem,
        class_names=sorted(label_vocab, key=label_vocab.get),
    )
    ds.validate()
    return ds


def _outcome(loader, data_path, schema_path) -> tuple:
    """What ``loader`` gives: the dataset's bytes and fields, or the error's type and message."""
    try:
        ds = loader(data_path, schema_path)
    except Exception as exc:  # noqa: BLE001 - the error itself is the outcome compared
        return type(exc), str(exc)
    labels = None if ds.labels is None else (ds.labels.dtype, ds.labels.tobytes())
    return (
        ds.rows.dtype, ds.rows.shape, ds.rows.tobytes(), labels,
        ds.schema, ds.n_classes, ds.class_names, ds.name,
    )


class TestLoadCsv:
    def test_first_appearance_category_indexing(self, tmp_path):
        data = _write(tmp_path, "d.csv", "num,cat\n1.5,b\n2.0,a\n")
        schema = _write(tmp_path, "d.yaml", SCHEMA_NUM_CAT)
        ds = load_csv(data, schema)
        np.testing.assert_allclose(ds.rows, [[1.5, 0.0], [2.0, 1.0]])
        assert ds.schema[1].cardinality == 2

    def test_label_column(self, tmp_path):
        data = _write(tmp_path, "d.csv", "num,y\n1,pos\n2,neg\n3,pos\n")
        schema = _write(tmp_path, "d.yaml", SCHEMA_NUM_LABEL)
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
        schema = _write(tmp_path, "d.yaml", SCHEMA_TWO_LABELS)
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

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        """Excel's "CSV UTF-8" starts the file with a byte-order mark."""
        text = "num,cat\n1.5,b\n2.0,a\n"
        schema = _write(tmp_path, "d.yaml", SCHEMA_NUM_CAT)
        plain = _write(tmp_path, "d.csv", text)
        marked = tmp_path / "marked" / "d.csv"
        marked.parent.mkdir()
        marked.write_bytes(text.encode("utf-8-sig"))
        assert _outcome(load_csv, marked, schema) == _outcome(load_csv, plain, schema)

    def test_bad_cell_wins_over_a_longer_row_further_down(self, tmp_path):
        data_path = _write(tmp_path, "d.csv", "num,cat\n1.5,b\nxyz,a\n1,a,extra\n")
        schema = _write(tmp_path, "d.yaml", SCHEMA_NUM_CAT)
        with pytest.raises(ParseError, match=r"non-numeric value 'xyz' at row 3"):
            load_csv(data_path, schema)

    def test_first_bad_cell_in_row_order_is_reported(self, tmp_path):
        """Row 3's empty label comes before row 4's bad number in the first column."""
        data_path = _write(tmp_path, "d.csv", "y,num\na,1\n ,2\nb,inf\n")
        schema = _write(tmp_path, "d.yaml", SCHEMA_NUM_LABEL)
        with pytest.raises(ParseError, match=r"empty label at row 3$"):
            load_csv(data_path, schema)

    @pytest.mark.parametrize("tail", [
        "1," + "a" * (csv.field_size_limit() + 1) + "\n",
        "1,\xff\n",
    ], ids=["csv-error", "decode-error"])
    def test_bad_cell_before_a_read_error_in_the_same_block(self, tmp_path, tail):
        """Rows read before the reader fails are still checked first, as a row
        by row reader would; the read error comes several text chunks later."""
        rows = "".join(f"{i},{'b' * 40}\n" for i in range(300))
        data_path = tmp_path / "d.csv"
        data_path.write_bytes(f"num,cat\n1.5,b\nxyz,a\n{rows}".encode() + tail.encode("latin-1"))
        schema = _write(tmp_path, "d.yaml", SCHEMA_NUM_CAT)
        assert _outcome(load_csv, data_path, schema) == _outcome(
            _reference_load_csv, data_path, schema
        )
        with pytest.raises(ParseError, match="row 3"):
            load_csv(data_path, schema)

    def test_benchmark_files_load_to_the_reference_bytes(self, tmp_path):
        """The 2000-row files perfbench generates, without and with categorical columns."""
        for n_categorical in (0, 12):
            ds = make_gaussian_dataset(
                n_rows=2000, d_raw=32, n_classes=4, separation=6.0, seed=1,
                n_categorical=n_categorical, cardinality=8,
            )
            paths = tmp_path / f"{n_categorical}.csv", tmp_path / f"{n_categorical}.yaml"
            write_dataset_files(ds, *paths)
            assert _outcome(load_csv, *paths) == _outcome(_reference_load_csv, *paths)


# Cells the ingest property test draws: numbers in the spellings float() takes,
# padded, empty, non-numeric, non-finite, overflowing and quoted ones.
_CELLS = [
    "0", "1.5", "-0.0", "2e3", "-7", " 4 ", "\t3.25", "1_0", "", "  ", "xyz", "a", "b",
    "inf", "-Infinity", "nan", "1e400", '"5"', '" 6 "', '"x,y"', '"a\nb"', '""', 'a"b',
]


@st.composite
def _csv_files(draw) -> tuple[str, str]:
    """A schema and CSV text: 1-3 features and maybe a label, in any header order,
    rows of the header's length or not, blank lines, with or without a final newline."""
    kinds = draw(st.lists(st.sampled_from([NUMERICAL, CATEGORICAL]), min_size=1, max_size=3))
    names = [f"f{j}" for j in range(len(kinds))]
    schema = ["columns:"] + [f"  - name: {n}\n    kind: {k}" for n, k in zip(names, kinds)]
    if draw(st.booleans()):
        names.append("y")
        schema.append("  - name: y\n    label: true")
    header = draw(st.permutations(names))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 9))):
        width = len(header) + draw(st.sampled_from([0, 0, 0, 0, 0, 0, -1, 1, -len(header)]))
        lines.append(",".join(draw(st.lists(st.sampled_from(_CELLS), min_size=width, max_size=width))))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return "\n".join(schema) + "\n", text


@settings(max_examples=400, deadline=None)
@given(files=_csv_files(), block_rows=st.integers(1, 4))
def test_load_csv_matches_the_row_by_row_reference(files, block_rows):
    """Same rows bytes, labels, schema and class names, or the same error type
    and message, with blocks small enough that a file spans several."""
    schema_text, csv_text = files
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_BLOCK_ROWS", block_rows)
        schema_path, data_path = Path(tmp) / "s.yaml", Path(tmp) / "d.csv"
        schema_path.write_text(schema_text, encoding="utf-8")
        with data_path.open("w", encoding="utf-8", newline="") as handle:
            handle.write(csv_text)
        assert _outcome(load_csv, data_path, schema_path) == _outcome(
            _reference_load_csv, data_path, schema_path
        )


def _written_schema(tmp_path: Path, n_categorical: int) -> str:
    """The schema text ``write_dataset_files`` writes for a small synthetic dataset."""
    ds = make_gaussian_dataset(
        n_rows=60, d_raw=6, n_classes=2, seed=0, n_categorical=n_categorical, cardinality=3
    )
    write_dataset_files(ds, tmp_path / "w.csv", tmp_path / "w.yaml")
    return (tmp_path / "w.yaml").read_text()


# The schemas the suite writes, each made in a test's tmp_path: this module's,
# the synthetic writer's, a reordered one dumped with sorted keys (as the CLI
# tests write it), an optdigits-style listing, and one the property test draws.
_SUITE_SCHEMAS = {
    "num-cat": lambda tmp: SCHEMA_NUM_CAT,
    "num-label": lambda tmp: SCHEMA_NUM_LABEL,
    "two-labels": lambda tmp: SCHEMA_TWO_LABELS,
    "synthetic": lambda tmp: _written_schema(tmp, 0),
    "synthetic-mixed": lambda tmp: _written_schema(tmp, 2),
    "reversed-sorted-keys": lambda tmp: yaml.safe_dump(
        {"columns": yaml.safe_load(_written_schema(tmp, 2))["columns"][::-1]}
    ),
    "optdigits": lambda tmp: "columns:\n"
    + "".join(f"  - name: p{i}\n    kind: numerical\n" for i in range(64))
    + "  - name: digit\n    label: true\n",
    "property-test": lambda tmp: "columns:\n  - name: f0\n    kind: categorical\n"
    "  - name: f1\n    kind: numerical\n  - name: y\n    label: true\n",
}
_MALFORMED_YAML = [
    "columns: [unclosed\n",
    "columns:\n  - name: a\n   kind: numerical\n - b\n",
    "columns:\n\t- name: a\n",
    "columns: {name: 'open\n",
    "a: b: c\n",
]


def _schema_outcome(path: Path) -> tuple:
    try:
        return load_schema_file(path)
    except SchemaError as exc:
        return SchemaError, str(exc)


@pytest.mark.parametrize("name", _SUITE_SCHEMAS)
def test_schema_loads_the_same_with_and_without_libyaml(tmp_path, monkeypatch, name):
    path = _write(tmp_path, "s.yaml", _SUITE_SCHEMAS[name](tmp_path))
    default = _schema_outcome(path)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert _schema_outcome(path) == default


@pytest.mark.parametrize("text", _MALFORMED_YAML, ids=range(len(_MALFORMED_YAML)))
def test_malformed_yaml_is_a_schema_error_with_and_without_libyaml(tmp_path, monkeypatch, text):
    path = _write(tmp_path, "s.yaml", text)
    with pytest.raises(SchemaError, match="not valid YAML"):
        load_schema_file(path)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    with pytest.raises(SchemaError, match="not valid YAML"):
        load_schema_file(path)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_schema_is_parsed_with_libyaml_when_present(tmp_path, monkeypatch):
    loaders = []
    real_load = yaml.load

    def spy(stream, Loader):  # noqa: N803 - PyYAML's keyword
        loaders.append(Loader)
        return real_load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    load_schema_file(_write(tmp_path, "s.yaml", SCHEMA_NUM_CAT))
    assert loaders == [yaml.CSafeLoader]


@pytest.mark.parametrize(
    "kind,cardinality",
    [(CATEGORICAL, 3.0), (CATEGORICAL, "3"), (CATEGORICAL, True), (CATEGORICAL, 1),
     (CATEGORICAL, None), (NUMERICAL, 3), ("ordinal", None)],
)
def test_column_schema_rejects_a_bad_kind_or_cardinality(kind, cardinality):
    with pytest.raises(SchemaError):
        ColumnSchema("c", kind, cardinality)


def test_column_schema_rejects_a_name_that_is_not_a_string():
    with pytest.raises(SchemaError, match="name must be a str"):
        ColumnSchema(5, NUMERICAL)


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

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_seed_that_is_not_an_int_at_least_zero_rejected(self, gauss_ds, seed):
        with pytest.raises(ConfigError, match="seed must be an int >= 0"):
            split(gauss_ds, seed=seed)

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
