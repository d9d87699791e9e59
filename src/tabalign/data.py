"""Tabular dataset loading, train/valid/test splitting, and episode sampling."""

from __future__ import annotations

import csv
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

# One sixth of the rows go to test (train pool : test = 5 : 1), and one tenth
# of the remaining pool becomes the validation set.
TEST_DENOMINATOR = 6
VALID_FRACTION = 0.10


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
        check_fields(self, error, {"cardinality": 2}, {"kind": (NUMERICAL, CATEGORICAL)})
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
    (``numerical`` or ``categorical``), and at most one entry carries
    ``label: true`` marking the label column (its kind, if given, is ignored).

    Returns:
        (feature (name, kind) pairs in file order, label column name or None).
    """
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
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
        if entry.get("label", False):
            if label_name is not None:
                raise SchemaError(f"{path}: more than one column marked 'label: true'")
            label_name = name
            continue
        kind = entry.get("kind")
        if kind not in (NUMERICAL, CATEGORICAL):
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
    first-appearance order, which makes loading deterministic.
    """
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
        # Schema names are unique, so equal sorted lists also rule out a repeated column.
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
                    raise ParseError(
                        f"{data_path}: empty label at row {row_no + 2}"
                    )
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
                cname = ds.class_names[c] if c < len(ds.class_names) else str(c)
                raise SplitError(
                    f"class {cname!r} has {len(rows_c)} rows; too small to give "
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
            cname = ds.class_names[c] if c < len(ds.class_names) else str(c)
            raise EpisodeError(
                f"class {cname!r} has {len(rows_c)} test rows; "
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
