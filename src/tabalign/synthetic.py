"""Seeded synthetic Gaussian datasets for tests, demos, and offline runs."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
import yaml

from .data import CATEGORICAL, NUMERICAL, ColumnSchema, Dataset
from .errors import ConfigError, check_seed


def make_gaussian_dataset(
    n_rows: int = 2000,
    d_raw: int = 32,
    n_classes: int = 4,
    separation: float = 6.0,
    seed: int = 0,
    n_categorical: int = 0,
    cardinality: int = 4,
    name: str = "synthetic",
) -> Dataset:
    """Draw a labeled mixture of isotropic unit-variance Gaussians.

    Every pair of class means is exactly ``separation`` apart, with the
    separation spread across all coordinates. Class sizes are as balanced as
    n_rows allows. With ``n_categorical`` > 0 the trailing columns are
    discretized into ``cardinality`` quantile bins and declared categorical. Raises
    :class:`ConfigError` on a bad seed, a ``separation`` that is not finite and >= 0,
    fewer rows than classes, or a ``cardinality`` below 2 with categorical columns.
    """
    if not (math.isfinite(separation) and separation >= 0):
        raise ConfigError(f"separation must be finite and >= 0, got {separation}")
    if n_classes < 2 or n_classes > d_raw:
        raise ConfigError(f"n_classes={n_classes} must be in [2, d_raw={d_raw}]")
    if n_rows < n_classes:
        raise ConfigError(f"n_rows={n_rows} < n_classes={n_classes}; every class needs a row")
    if n_categorical < 0 or n_categorical > d_raw:
        raise ConfigError(f"n_categorical={n_categorical} outside [0, {d_raw}]")
    if n_categorical > 0 and cardinality < 2:
        raise ConfigError(f"cardinality={cardinality} must be >= 2 for categorical columns")

    rng = np.random.default_rng(check_seed(seed))
    # Class means sit on random orthonormal directions so the separation is
    # spread across all coordinates rather than concentrated in a few; any
    # pair of means is exactly `separation` apart.
    basis, _ = np.linalg.qr(rng.standard_normal((d_raw, n_classes)))
    means = (separation / math.sqrt(2.0)) * basis.T

    labels = np.arange(n_rows) % n_classes
    rng.shuffle(labels)
    rows = means[labels] + rng.standard_normal((n_rows, d_raw))

    schema = [ColumnSchema(f"f{j}", NUMERICAL) for j in range(d_raw)]
    for j in range(d_raw - n_categorical, d_raw):
        edges = np.quantile(rows[:, j], np.linspace(0.0, 1.0, cardinality + 1)[1:-1])
        binned = np.digitize(rows[:, j], edges)
        observed = len(np.unique(binned))
        if observed < 2:
            raise ConfigError(f"column f{j}: quantile binning produced one level")
        rows[:, j] = binned
        schema[j] = ColumnSchema(f"f{j}", CATEGORICAL, cardinality)

    ds = Dataset(
        schema=schema,
        rows=rows,
        labels=labels.astype(np.int64),
        n_classes=n_classes,
        name=name,
        class_names=[f"c{i}" for i in range(n_classes)],
    )
    ds.validate()
    return ds


def write_dataset_files(ds: Dataset, data_path: str | Path, schema_path: str | Path) -> None:
    """Write a dataset as a loadable CSV plus its YAML schema file."""
    data_path = Path(data_path)
    schema_path = Path(schema_path)

    columns = [{"name": c.name, "kind": c.kind} for c in ds.schema]
    if ds.labels is not None:
        columns.append({"name": "label", "label": True})
    schema_path.write_text(yaml.safe_dump({"columns": columns}, sort_keys=False))

    with data_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        header = [c.name for c in ds.schema]
        if ds.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(ds.n_rows):
            row: list[str] = []
            for j, col in enumerate(ds.schema):
                if col.kind == NUMERICAL:
                    row.append(f"{ds.rows[i, j]:.9g}")
                else:
                    row.append(f"lv{int(ds.rows[i, j])}")
            if ds.labels is not None:
                row.append(ds.class_name(ds.labels[i]))
            writer.writerow(row)
