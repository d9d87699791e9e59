"""Train one pinned ensemble and print its digests and the CPU class it ran under.

``python pinned_run.py OUT_DIR CASE_JSON`` trains the small ensemble that
``CASE_JSON`` (``{"change", "ratios", "n_train", "n_valid"}``) describes,
writes its checkpoints into ``OUT_DIR`` and prints one JSON object: the sha256
of the checkpoint bytes and of the loss curves, OpenBLAS's core name (None
when the library does not report one) and the numpy dispatch targets that are
still on. ``tests/test_pretrain.py::test_pinned_output_bytes`` runs it with the
CPU class forced through the environment, before numpy is imported.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from tabalign.checkpoint import save_checkpoint
from tabalign.data import split
from tabalign.preprocess import encode, fit
from tabalign.pretrain import PretrainConfig, pretrain_ensemble
from tabalign.synthetic import make_gaussian_dataset

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

# numpy 2 wheels bundle scipy-openblas, numpy 1 wheels libopenblas64_.
_CORENAME = ("scipy_openblas_get_corename64_", "openblas_get_corename64_")


def openblas_core() -> str | None:
    """The core name reported by the OpenBLAS that numpy's Linux wheel bundles."""
    for path in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        lib = ctypes.CDLL(str(path))
        for name in _CORENAME:
            if hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_char_p
                return getattr(lib, name)().decode()
    return None


def run(out_dir: Path, change: dict, ratios: list, n_train: int, n_valid: int) -> tuple[str, str]:
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
        save_checkpoint(out_dir / f"{k}.ckpt", stack, pp)
        ckpt.update((out_dir / f"{k}.ckpt").read_bytes())
        losses.update(np.array(report.train_losses + report.valid_losses).tobytes())
    return ckpt.hexdigest(), losses.hexdigest()


if __name__ == "__main__":
    case = json.loads(sys.argv[2])
    digests = run(Path(sys.argv[1]), **case)
    features = _multiarray_umath.__cpu_features__
    on = [t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t)]
    print(json.dumps({"digests": digests, "core": openblas_core(), "dispatch_on": on}))
