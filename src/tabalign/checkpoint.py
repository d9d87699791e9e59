"""Versioned binary checkpoints coupling a trained stack with its preprocessor.

Layout (all little-endian): magic bytes, format version, ratio, layer dims,
the eight parameter tensors as row-major float64 in fixed order (encoder W1,
b1, W2, b2; projector W1, b1, W2, b2), then the preprocessor statistics
(per-column kind with mean/std or cardinality, plus the raw-to-encoded
ranges).
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .data import CATEGORICAL, NUMERICAL
from .errors import CheckpointError
from .nncore import DenseLayer
from .preprocess import Preprocessor
from .pretrain import RATIO_RANDOM, EncoderStack, PretrainConfig

MAGIC = b"TBALCKPT"
VERSION = 1

_TENSOR_NAMES = (
    "encoder W1",
    "encoder b1",
    "encoder W2",
    "encoder b2",
    "projector W1",
    "projector b1",
    "projector W2",
    "projector b2",
)

_KIND_CODE = {NUMERICAL: 0, CATEGORICAL: 1}
_CODE_KIND = {0: NUMERICAL, 1: CATEGORICAL}


def _tensor_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.buf):
            raise CheckpointError("truncated checkpoint")
        values = struct.unpack_from(fmt, self.buf, self.pos)
        self.pos += size
        return values

    def tensor(self, shape: tuple[int, ...]) -> np.ndarray:
        count = int(np.prod(shape))
        size = count * 8
        if self.pos + size > len(self.buf):
            raise CheckpointError("truncated checkpoint")
        a = np.frombuffer(self.buf, dtype="<f8", count=count, offset=self.pos)
        self.pos += size
        return a.reshape(shape).astype(np.float64)


def save_checkpoint(path: str | Path, stack: EncoderStack, pp: Preprocessor) -> None:
    """Serialize a stack and its preprocessor; parameters are written as float64.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path`` in one rename: a failed write leaves an existing
    checkpoint as it was and no temporary file behind.
    """
    enc1, enc2 = stack.encoder
    proj1, proj2 = stack.projector
    parts = [MAGIC, struct.pack("<I", VERSION)]
    if stack.ratio == RATIO_RANDOM:
        parts.append(struct.pack("<Bd", 1, 0.0))
    else:
        parts.append(struct.pack("<Bd", 0, float(stack.ratio)))
    parts.append(
        struct.pack(
            "<6I",
            stack.encoded_dim,
            enc1.out_dim,
            enc2.out_dim,
            proj1.in_dim,
            proj1.out_dim,
            proj2.out_dim,
        )
    )
    for layer in (enc1, enc2, proj1, proj2):
        parts.append(_tensor_bytes(layer.weight))
        parts.append(_tensor_bytes(layer.bias))

    parts.append(struct.pack("<IB", pp.d_raw, 1 if pp.normalize else 0))
    for j, kind in enumerate(pp.kinds):
        parts.append(struct.pack("<B", _KIND_CODE[kind]))
        if kind == NUMERICAL:
            parts.append(struct.pack("<dd", float(pp.means[j]), float(pp.stds[j])))
        else:
            parts.append(struct.pack("<I", int(pp.cardinalities[j])))
    for start, stop in pp.ranges:
        parts.append(struct.pack("<II", start, stop))

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


def load_checkpoint(
    path: str | Path, cfg: PretrainConfig | None = None
) -> tuple[EncoderStack, Preprocessor]:
    """Load a checkpoint. The returned stack carries a fresh optimizer state.

    Raises :class:`CheckpointError` on a malformed file or a parameter tensor
    holding NaN or infinity.
    """
    buf = Path(path).read_bytes()
    r = _Reader(buf)
    if r.take("8s")[0] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = r.take("<I")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    ratio_kind, ratio_value = r.take("<Bd")
    ratio: float | str = RATIO_RANDOM if ratio_kind == 1 else float(ratio_value)

    d, enc_hidden, enc_out, proj_in, proj_hidden, proj_out = r.take("<6I")
    shapes = [
        (enc_hidden, d),
        (enc_hidden,),
        (enc_out, enc_hidden),
        (enc_out,),
        (proj_hidden, proj_in),
        (proj_hidden,),
        (proj_out, proj_hidden),
        (proj_out,),
    ]
    tensors = [r.tensor(s) for s in shapes]
    for name, tensor in zip(_TENSOR_NAMES, tensors):
        if not np.all(np.isfinite(tensor)):
            raise CheckpointError(f"{path}: {name} holds non-finite values")
    conditioned = proj_in == enc_out + d
    if not conditioned and proj_in != enc_out:
        raise CheckpointError(
            f"{path}: projector input {proj_in} matches neither {enc_out} nor "
            f"{enc_out + d}"
        )

    (d_raw, normalize) = r.take("<IB")
    kinds: list[str] = []
    means = np.zeros(d_raw)
    stds = np.ones(d_raw)
    cardinalities: list[int | None] = []
    for j in range(d_raw):
        (code,) = r.take("<B")
        if code not in _CODE_KIND:
            raise CheckpointError(f"{path}: unknown column kind code {code}")
        kind = _CODE_KIND[code]
        kinds.append(kind)
        if kind == NUMERICAL:
            means[j], stds[j] = r.take("<dd")
            cardinalities.append(None)
        else:
            (card,) = r.take("<I")
            cardinalities.append(int(card))
    ranges = [tuple(r.take("<II")) for _ in range(d_raw)]
    if r.pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - r.pos} trailing bytes")

    pp = Preprocessor(
        kinds=kinds,
        means=means,
        stds=stds,
        cardinalities=cardinalities,
        ranges=[(int(a), int(b)) for a, b in ranges],
        encoded_dim=d,
        normalize=bool(normalize),
        marginals=None,
    )

    cfg = cfg or PretrainConfig(
        hidden_dim=enc_hidden,
        embed_dim=enc_out,
        projector_dim=proj_out,
        conditioned=conditioned,
    )
    encoder = [
        DenseLayer(tensors[0], tensors[1]),
        DenseLayer(tensors[2], tensors[3]),
    ]
    projector = [
        DenseLayer(tensors[4], tensors[5]),
        DenseLayer(tensors[6], tensors[7]),
    ]
    return EncoderStack(encoder=encoder, projector=projector, ratio=ratio, seed=0, cfg=cfg), pp
