"""Tabular dataset loading, train/valid/test splitting, and episode sampling."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import (
    EpisodeError, FormatError, ParseError, SchemaError, SplitError, check_fields, check_seed,
)

NUMERICAL = "numerical"
CATEGORICAL = "categorical"
KINDS = (NUMERICAL, CATEGORICAL)

# One sixth of the rows go to test (train pool : test = 5 : 1), and one tenth
# of the remaining pool becomes the validation set.
TEST_DENOMINATOR = 6
VALID_FRACTION = 0.10
# Rows load_csv reads and parses per block: big enough that the per-column work
# dominates, small enough that a block's cell strings stay a small share of memory.
_BLOCK_ROWS = 512
# Kind of the label column among load_csv's fields.
_LABEL = "label"


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class ColumnSchema:
    """Declared kind of one raw column.

    ``cardinality`` is the number of distinct category levels, an int >= 2,
    and is defined only for categorical columns.
    """

    name: str
    kind: str
    cardinality: int | None = None

    def __post_init__(self) -> None:
        def error(message: str) -> SchemaError:
            return SchemaError(f"column {self.name!r}: {message}")
        check_fields(self, error, {"cardinality": 2}, {"kind": KINDS})
        if (self.kind == CATEGORICAL) != (self.cardinality is not None):
            raise error("numerical columns have no cardinality, categorical ones need one")


@dataclass
class Dataset:
    """In-memory tabular dataset with a per-column type schema.

    ``rows`` is an (n_rows, d_raw) float matrix; categorical cells hold dense
    level indices assigned in first-appearance order. ``labels``, when
    present, are class indices in ``{0..n_classes-1}`` with every class
    represented at least once.
    """

    schema: list[ColumnSchema]
    rows: np.ndarray
    labels: np.ndarray | None
    n_classes: int
    name: str = "dataset"
    class_names: list[str] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    @property
    def d_raw(self) -> int:
        return len(self.schema)

    def class_name(self, c: int) -> str:
        """Class ``c``'s name, or its index as text if it has none."""
        return self.class_names[c] if c < len(self.class_names) else str(c)

    def validate(self) -> None:
        """Check the structural invariants; raises SchemaError on violation."""
        names = [c.name for c in self.schema]
        if len(set(names)) != len(names):
            raise SchemaError("column names are not unique")
        if self.rows.ndim != 2 or self.rows.shape[1] != self.d_raw:
            raise SchemaError(
                f"rows matrix is {self.rows.shape}, expected (*, {self.d_raw})"
            )
        for j, col in enumerate(self.schema):
            if col.kind == CATEGORICAL:
                cells = self.rows[:, j]
                if cells.size and (cells.min() < 0 or cells.max() >= col.cardinality):
                    raise SchemaError(
                        f"column {col.name!r}: category index out of range "
                        f"[0, {col.cardinality})"
                    )
        if self.labels is not None:
            if len(self.labels) != self.n_rows:
                raise SchemaError("labels length does not match row count")
            present = np.unique(self.labels)
            expected = np.arange(self.n_classes)
            if not np.array_equal(present, expected):
                raise SchemaError(
                    f"labels must cover 0..{self.n_classes - 1}, found {present.tolist()}"
                )


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint, exhaustive train/valid/test row indices."""

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class Episode:
    """One N-way K-shot task drawn from the test partition.

    Row indices into the dataset and their labels, all int64, grouped by class
    in draw order. The support holds exactly ``k_shot`` rows per class and never
    overlaps the query set.
    """

    support_rows: np.ndarray
    support_labels: np.ndarray
    query_rows: np.ndarray
    query_labels: np.ndarray


def load_schema_file(path: str | Path) -> tuple[list[tuple[str, str]], str | None]:
    """Parse a YAML column listing.

    The file holds a ``columns`` list; each entry has ``name``, ``kind``
    (``numerical`` or ``categorical``); at most one entry carries ``label: true``
    (a YAML boolean) marking the label column, whose kind, if given, is ignored.

    Returns:
        (feature (name, kind) pairs in file order, label column name or None).
    """
    path = Path(path)
    # libyaml's parser when PyYAML was built with it: the same mapping, about 7x faster.
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=loader)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict) or "columns" not in raw:
        raise SchemaError(f"{path}: expected a mapping with a 'columns' list")
    entries = raw["columns"]
    if not isinstance(entries, list) or not entries:
        raise SchemaError(f"{path}: 'columns' must be a non-empty list")

    features: list[tuple[str, str]] = []
    label_name: str | None = None
    seen: set[str] = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "name" not in entry:
            raise SchemaError(f"{path}: column entry {i} lacks a 'name'")
        name = str(entry["name"])
        if name in seen:
            raise SchemaError(f"{path}: duplicate column name {name!r}")
        seen.add(name)
        label = entry.get("label", False)
        if not isinstance(label, bool):
            raise SchemaError(f"{path}: column {name!r} has label {label!r}, not true or false")
        if label:
            if label_name is not None:
                raise SchemaError(f"{path}: more than one column marked 'label: true'")
            label_name = name
            continue
        kind = entry.get("kind")
        if kind not in KINDS:
            raise SchemaError(
                f"{path}: column {name!r} needs kind 'numerical' or 'categorical', "
                f"got {kind!r}"
            )
        features.append((name, kind))
    if not features:
        raise SchemaError(f"{path}: schema declares no feature columns")
    return features, label_name


def load_csv(data_path: str | Path, schema_path: str | Path) -> Dataset:
    """Load a headered CSV under an explicit column schema.

    Category strings and label values are mapped to dense indices in
    first-appearance order, which makes loading deterministic. A leading
    UTF-8 byte-order mark is skipped. Rows are read ``_BLOCK_ROWS`` at a time
    and parsed a column at a time; the error raised is the one for the first
    bad cell in row order (schema column order within a row, the label
    last), or for the first row with the wrong number of cells before it. A file
    that is not UTF-8 text, or a field over ``csv.field_size_limit()``, is a
    :class:`FormatError` once the rows read before it are checked.
    """
    data_path = Path(data_path)
    features, label_name = load_schema_file(schema_path)

    with data_path.open("r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{data_path}: empty file") from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise _read_error(data_path, reader.line_num, exc) from exc

        expected = [name for name, _ in features]
        if label_name is not None:
            expected.append(label_name)
        # Schema names are unique, so equal sorted lists also rule out a repeated column.
        if sorted(header) != sorted(expected):
            missing = sorted(set(expected) - set(header))
            extra = sorted(set(header) - set(expected))
            repeated = sorted({name for name in header if header.count(name) > 1})
            raise SchemaError(
                f"{data_path}: header does not match schema "
                f"(missing={missing}, unknown={extra}, repeated={repeated})"
            )

        # (name, kind, header position, levels) per column in parse order, the label last.
        fields = [(name, kind, header.index(name), {} if kind == CATEGORICAL else None)
                  for name, kind in features]
        if label_name is not None:
            fields.append((label_name, _LABEL, header.index(label_name), {}))
        row_blocks: list[np.ndarray] = []
        label_blocks: list[np.ndarray] = []
        first_row = 2  # file row number of the block's first row; the header is row 1
        while True:
            block, failure = _read_block(reader)
            short = next((i for i, row in enumerate(block) if len(row) != len(header)), None)
            whole = block[:short]
            if whole:
                columns = _parse_columns(whole, fields)
                if columns is None:
                    raise _first_bad_cell(data_path, whole, first_row, fields)
                row_blocks.append(np.column_stack(columns[: len(features)]))
                if label_name is not None:
                    label_blocks.append(columns[-1])
            if short is not None:
                raise FormatError(
                    f"{data_path}: row {first_row + short} has {len(block[short])} cells, "
                    f"expected {len(header)}"
                )
            if failure is not None:
                raise _read_error(data_path, reader.line_num, failure) from failure
            if len(block) < _BLOCK_ROWS:
                break
            first_row += len(block)

    if not row_blocks:
        raise FormatError(f"{data_path}: no data rows")

    vocab = {name: levels for name, kind, _, levels in fields if kind == CATEGORICAL}
    label_vocab = fields[-1][3] if label_name is not None else {}
    schema = [ColumnSchema(name, kind, len(vocab[name]) if name in vocab else None)
              for name, kind in features]
    ds = Dataset(
        schema=schema,
        rows=np.concatenate(row_blocks),
        labels=np.concatenate(label_blocks) if label_name is not None else None,
        n_classes=len(label_vocab),
        name=data_path.stem,
        class_names=list(label_vocab),
    )
    ds.validate()
    return ds


def _read_block(reader) -> tuple[list[list[str]], Exception | None]:
    """Up to ``_BLOCK_ROWS`` rows, and the error that stopped the reading early, if any.

    The rows read before a decoding or CSV error are returned with it, so that
    a bad cell among them is still reported first, as a row-by-row reader would.
    """
    block: list[list[str]] = []
    try:
        for row in itertools.islice(reader, _BLOCK_ROWS):
            block.append(row)
    except (UnicodeDecodeError, csv.Error) as exc:
        return block, exc
    return block, None


def _read_error(data_path: Path, line: int, exc: Exception) -> FormatError:
    """The error for a file the reader stopped on at ``line``: CSV errors name the line;
    decode errors do not, as the text layer decodes ahead of the row being read."""
    if isinstance(exc, csv.Error):
        return FormatError(f"{data_path}: line {line}: {exc}")
    return FormatError(f"{data_path}: not UTF-8 text ({exc.reason})")


def _parse_columns(rows: list[list[str]], fields: list[tuple]) -> list[np.ndarray] | None:
    """Each field's column of ``rows``: float64 values or level indices for a
    feature, int64 indices for the label. None when any cell is bad.

    New levels are added to each field's dict in first-appearance order.
    """
    cells_by_position = list(zip(*rows))
    columns = []
    for _, kind, position, levels in fields:
        cells = list(map(str.strip, cells_by_position[position]))
        if not all(cells):
            return None
        if kind == NUMERICAL:
            try:
                values = np.fromiter(map(float, cells), np.float64, len(cells))
            except ValueError:
                return None
            if not np.isfinite(values).all():
                return None
        else:
            for text in dict.fromkeys(cells):
                levels.setdefault(text, len(levels))
            dtype = np.int64 if kind == _LABEL else np.float64
            values = np.fromiter(map(levels.__getitem__, cells), dtype, len(cells))
        columns.append(values)
    return columns


def _first_bad_cell(
    data_path: Path, rows: list[list[str]], first_row: int, fields: list[tuple]
) -> ParseError:
    """The error for the first bad cell of ``rows`` in row order, then field order."""
    for row_no, row in enumerate(rows, start=first_row):
        for name, kind, position, _ in fields:
            text = row[position].strip()
            if not text:
                if kind == _LABEL:
                    return ParseError(f"{data_path}: empty label at row {row_no}")
                return ParseError(
                    f"{data_path}: empty cell at row {row_no}, column {name!r}"
                )
            if kind != NUMERICAL:
                continue
            try:
                value = float(text)
            except ValueError:
                return ParseError(
                    f"{data_path}: non-numeric value {text!r} at "
                    f"row {row_no}, column {name!r}"
                )
            if not math.isfinite(value):
                return ParseError(
                    f"{data_path}: non-finite value {text!r} at "
                    f"row {row_no}, column {name!r}"
                )
    raise AssertionError("no bad cell in a block that failed to parse")


def split(ds: Dataset, seed: int) -> SplitIndices:
    """Partition rows into a 5:1 train-pool/test split plus 10% validation.

    Splitting is stratified by label when labels exist: each class sends
    floor(count / 6) rows to test so every class survives into the episode
    pool. Validation rows are drawn unstratified from the remaining pool.
    Deterministic for a given seed; raises :class:`ConfigError` unless it is an int >= 0.
    """
    check_seed(seed)
    n = ds.n_rows
    if n < 2 * TEST_DENOMINATOR:
        raise SplitError(f"dataset has {n} rows; need at least {2 * TEST_DENOMINATOR}")
    rng = np.random.default_rng(seed)

    test_parts: list[np.ndarray] = []
    pool_parts: list[np.ndarray] = []
    if ds.labels is not None:
        for c in range(ds.n_classes):
            rows_c = np.flatnonzero(ds.labels == c)
            n_test = len(rows_c) // TEST_DENOMINATOR
            if n_test < 1:
                raise SplitError(
                    f"class {ds.class_name(c)!r} has {len(rows_c)} rows; too small to give "
                    f"every class a test row"
                )
            order = rng.permutation(rows_c)
            test_parts.append(order[:n_test])
            pool_parts.append(order[n_test:])
    else:
        order = rng.permutation(n)
        test_parts.append(order[: n // TEST_DENOMINATOR])
        pool_parts.append(order[n // TEST_DENOMINATOR:])

    test = np.sort(np.concatenate(test_parts))
    pool = np.concatenate(pool_parts)
    n_valid = _round_half_up(VALID_FRACTION * len(pool))
    pool = rng.permutation(pool)
    valid = np.sort(pool[:n_valid])
    train = np.sort(pool[n_valid:])
    return SplitIndices(train=train, valid=valid, test=test)


def sample_episode(
    ds: Dataset,
    split_indices: SplitIndices,
    n_way: int,
    k_shot: int,
    n_query_per_class: int,
    seed: int,
) -> Episode:
    """Sample an N-way K-shot support set and disjoint query set from test rows.

    Rows are drawn uniformly without replacement per class; deterministic for
    a given seed.
    """
    if ds.labels is None:
        raise EpisodeError("episode sampling requires a labeled dataset")
    if n_way < 1 or n_way > ds.n_classes:
        raise EpisodeError(f"n_way={n_way} outside [1, {ds.n_classes}]")
    if k_shot < 1 or n_query_per_class < 1:
        raise EpisodeError("k_shot and n_query_per_class must be >= 1")

    rng = np.random.default_rng(seed)
    classes = rng.choice(ds.n_classes, size=n_way, replace=False)
    test_labels = ds.labels[split_indices.test]

    picks: list[np.ndarray] = []
    need = k_shot + n_query_per_class
    for c in classes:
        rows_c = split_indices.test[test_labels == c]
        if len(rows_c) < need:
            raise EpisodeError(
                f"class {ds.class_name(c)!r} has {len(rows_c)} test rows; "
                f"episode needs {need}"
            )
        picks.append(rng.choice(rows_c, size=need, replace=False))

    picked = np.asarray(picks, dtype=np.int64)
    support_rows = picked[:, :k_shot].ravel()
    query_rows = picked[:, k_shot:].ravel()
    if np.intersect1d(support_rows, query_rows).size:
        raise EpisodeError("support and query sets overlap")
    labels = classes.astype(np.int64)
    return Episode(
        support_rows=support_rows,
        support_labels=np.repeat(labels, k_shot),
        query_rows=query_rows,
        query_labels=np.repeat(labels, n_query_per_class),
    )
