"""Versioned binary checkpoints coupling a trained stack with its preprocessor.

Layout: the magic bytes, then the format version and the header length as
little-endian uint32, then a JSON header, then the eight parameter tensors,
little-endian and row-major in the stack's own dtype, in
``EncoderStack.parameters()`` order (encoder W1, b1, W2, b2; projector W1, b1,
W2, b2). The header holds the member's ratio and seed, its
:class:`PretrainConfig`, and the preprocessor statistics; the layer shapes
follow from the config and the encoded width.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from pathlib import Path

import numpy as np

from .data import ColumnSchema
from .errors import CheckpointError, ConfigError, SchemaError, check_seed
from .nncore import DenseLayer
from .preprocess import Preprocessor
from .pretrain import RATIO_RANDOM, EncoderStack, PretrainConfig, layer_shapes, parse_ratio

MAGIC = b"TBALCKPT"
VERSION = 3
_PREFIX = struct.Struct("<8sII")  # magic, version, header length

# Encoder W1, b1, W2, b2, then projector W1, b1, W2, b2.
_TENSOR_NAMES = [f"{net} {t}{i}" for net in ("encoder", "projector") for i in (1, 2) for t in "Wb"]
_HEADER_KEYS = {"config", "preprocessor", "ratio", "seed"}
_CONFIG_KEYS = {f.name for f in dataclasses.fields(PretrainConfig)}
_PREPROCESSOR_KEYS = {"schema", "means", "stds"}
_COLUMN_KEYS = {f.name for f in dataclasses.fields(ColumnSchema)}


def preprocessor_header(pp: Preprocessor) -> dict:
    """The fitted statistics a checkpoint stores; equal dicts mean the same preprocessor."""
    return {
        "schema": [dataclasses.asdict(col) for col in pp.schema],
        "means": pp.means.tolist(),
        "stds": pp.stds.tolist(),
    }


def save_checkpoint(path: str | Path, stack: EncoderStack, pp: Preprocessor) -> None:
    """Serialize a stack and its preprocessor; parameters keep the stack's dtype.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path`` in one rename: a failed write leaves an existing
    checkpoint as it was and no temporary file behind.
    """
    header = {
        "ratio": stack.ratio if stack.ratio == RATIO_RANDOM else float(stack.ratio),
        "seed": int(stack.seed),
        "config": dataclasses.asdict(stack.cfg),
        "preprocessor": preprocessor_header(pp),
    }
    text = json.dumps(header, sort_keys=True).encode()
    dtype = np.dtype(stack.cfg.numpy_dtype()).newbyteorder("<")
    parts = [_PREFIX.pack(MAGIC, VERSION, len(text)), text]
    parts.extend(np.ascontiguousarray(p, dtype=dtype).tobytes() for p in stack.parameters())

    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as handle:
            handle.write(b"".join(parts))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _check_keys(what: str, value: object, expected: set[str]) -> None:
    if not isinstance(value, dict) or value.keys() != expected:
        raise ValueError(f"{what} keys are not {sorted(expected)}")


def load_checkpoint(
    path: str | Path, cfg: PretrainConfig | None = None
) -> tuple[EncoderStack, Preprocessor]:
    """Load a checkpoint as a stack and its fitted preprocessor.

    ``cfg`` replaces the stored config; it raises :class:`ConfigError` unless it
    gives the stored layer shapes and dtype. Raises :class:`CheckpointError` on a
    malformed file or header, including a column :class:`ColumnSchema`
    rejects and means or stds that are not one finite value per column, or
    on a parameter tensor holding NaN or infinity.
    """
    buf = Path(path).read_bytes()
    if len(buf) < _PREFIX.size:
        raise CheckpointError(f"{path}: truncated checkpoint")
    magic, version, size = _PREFIX.unpack_from(buf)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    pos = _PREFIX.size + size
    if pos > len(buf):
        raise CheckpointError(f"{path}: truncated checkpoint")
    try:
        header = json.loads(buf[_PREFIX.size : pos])
        _check_keys("header", header, _HEADER_KEYS)
        _check_keys("config", header["config"], _CONFIG_KEYS)
        _check_keys("preprocessor", header["preprocessor"], _PREPROCESSOR_KEYS)
        stored = PretrainConfig(**header["config"])
        ratio, seed = parse_ratio(header["ratio"]), check_seed(header["seed"])
        fields = header["preprocessor"]
        for entry in fields["schema"]:
            _check_keys("column", entry, _COLUMN_KEYS)
        schema = [ColumnSchema(**entry) for entry in fields["schema"]]
        means, stds = (np.array(fields[key], dtype=np.float64) for key in ("means", "stds"))
        if not means.shape == stds.shape == (len(schema),):
            raise ValueError(f"means and stds need one value for each of {len(schema)} columns")
        if not (np.isfinite(means).all() and np.isfinite(stds).all() and stds.min() > 0.0):
            raise ValueError("means must be finite, and stds finite and > 0")
        pp = Preprocessor(schema, means, stds)
        shapes = layer_shapes(pp.encoded_dim, stored)
    except (ValueError, TypeError, OverflowError, ConfigError, SchemaError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from exc
    if cfg is not None:
        given = (cfg.dtype, layer_shapes(pp.encoded_dim, cfg))
        if given != (stored.dtype, shapes):
            raise ConfigError(f"{path}: cfg gives {given[0]} layers {given[1]}, "
                              f"not the checkpoint's {stored.dtype} layers {shapes}")

    dtype = np.dtype(stored.numpy_dtype())
    tensors = []
    for fan_in, fan_out in shapes:
        for shape, count in (((fan_out, fan_in), fan_out * fan_in), ((fan_out,), fan_out)):
            name = _TENSOR_NAMES[len(tensors)]
            if pos + count * dtype.itemsize > len(buf):
                raise CheckpointError(f"{path}: truncated checkpoint")
            a = np.frombuffer(buf, dtype=dtype.newbyteorder("<"), count=count, offset=pos)
            if not np.all(np.isfinite(a)):
                raise CheckpointError(f"{path}: {name} holds non-finite values")
            tensors.append(a.reshape(shape).astype(dtype))
            pos += count * dtype.itemsize
    if pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - pos} trailing bytes")

    layers = [DenseLayer(w, b) for w, b in zip(tensors[::2], tensors[1::2])]
    return EncoderStack(layers[:2], layers[2:], ratio, seed, cfg or stored), pp
