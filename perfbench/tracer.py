"""In-memory span tracer that wraps tabalign functions at module boundaries.

Each wrapped function is replaced, on the module whose globals its callers
read, by a wrapper that records one span: name, start, end, parent span,
and two shape-derived counts (rows and computed floating-point operations).
Wrappers read only argument shapes; they never draw from or reseed an RNG,
so traced and untraced runs produce the same bits.

Spans are appended to flat arrays and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

import numpy as np


def _mlp_flops(layers, x, *_, **__) -> tuple[int, float]:
    """Forward pass: one (rows x in) @ (in x out) matmul per layer, 2 flops per MAC."""
    rows = int(np.shape(x)[0])
    return rows, 2.0 * rows * sum(layer.in_dim * layer.out_dim for layer in layers)


def _mlp_backward_flops(layers, cache, d_out, *_, **__) -> tuple[int, float]:
    """Backward pass: weight-gradient and input-gradient matmuls per layer."""
    rows = int(np.shape(d_out)[0])
    return rows, 4.0 * rows * sum(layer.in_dim * layer.out_dim for layer in layers)


def _pairing_flops(t, *_, **__) -> tuple[int, float]:
    """Exact O(B^2 D) scan: subtract, square and add per row pair and column."""
    b, d = np.shape(t)
    return int(b), 3.0 * b * b * d


def _infonce_flops(z, *_, **__) -> tuple[int, float]:
    """Two B x B x E matmuls: the similarity matrix and the gradient."""
    b, e = np.shape(z)
    return int(b), 4.0 * b * b * e


# (span name, module, attribute). The module is the one whose globals the
# caller reads, so patching it reroutes exactly that caller. A name may
# appear more than once when several modules import the same function.
WRAPPED: tuple[tuple[str, str, str], ...] = (
    ("pretrain.pretrain_ensemble", "tabalign.pretrain", "pretrain_ensemble"),
    ("pretrain.pretrain", "tabalign.pretrain", "pretrain"),
    ("pretrain.train_step", "tabalign.pretrain", "train_step"),
    ("pretrain.alignment_loss", "tabalign.pretrain", "alignment_loss"),
    ("pretrain.nn_pairing", "tabalign.pretrain", "nearest_neighbor_indices"),
    ("preprocess.sample_mask", "tabalign.pretrain", "sample_mask"),
    ("preprocess.make_views", "tabalign.pretrain", "make_views"),
    ("preprocess.make_views_marginal", "tabalign.pretrain", "make_views_marginal"),
    ("nncore.mlp_forward", "tabalign.pretrain", "mlp_forward"),
    ("nncore.mlp_backward", "tabalign.pretrain", "mlp_backward"),
    ("nncore.infonce_loss", "tabalign.pretrain", "infonce_loss"),
    ("nncore.adam_step.pretrain", "tabalign.pretrain", "adam_step"),
    ("nncore.adam_step.fewshot", "tabalign.fewshot", "adam_step"),
    ("nncore.mlp_forward", "tabalign.fewshot", "mlp_forward"),
    ("nncore.mlp_backward", "tabalign.fewshot", "mlp_backward"),
    ("fewshot.evaluate", "tabalign.fewshot", "evaluate"),
    ("fewshot.linear_probe", "tabalign.fewshot", "linear_probe_probs"),
    ("fewshot.finetune", "tabalign.fewshot", "finetune_probs"),
    ("fewshot.embed", "tabalign.fewshot", "embed"),
    ("fewshot.embed", "tabalign.analysis", "embed"),
    ("fewshot.knn", "tabalign.fewshot", "knn_probs"),
    ("fewshot.prototype", "tabalign.fewshot", "prototype_probs"),
    ("data.sample_episode", "tabalign.fewshot", "sample_episode"),
    ("preprocess.encode", "tabalign.fewshot", "encode"),
    ("checkpoint.save", "tabalign.checkpoint", "save_checkpoint"),
    ("checkpoint.load", "tabalign.checkpoint", "load_checkpoint"),
    ("analysis.latent_consistency", "tabalign.analysis", "latent_consistency"),
    ("analysis.neighbor_fraction_curve", "tabalign.analysis", "neighbor_fraction_curve"),
)

WORK: dict[str, Callable[..., tuple[int, float]]] = {
    "pretrain.nn_pairing": _pairing_flops,
    "nncore.mlp_forward": _mlp_flops,
    "nncore.mlp_backward": _mlp_backward_flops,
    "nncore.infonce_loss": _infonce_flops,
}


def resolve(module: str, attribute: str) -> Callable:
    """The callable at ``module.attribute``; raises if it is gone or not callable."""
    target = getattr(importlib.import_module(module), attribute)
    if not callable(target):
        raise TypeError(f"{module}.{attribute} is not callable")
    return target


class Tracer:
    """Span store plus the install/uninstall of the module-level wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = sorted({name for name, _, _ in WRAPPED})
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.flops = array("d")
        self.segments: list[tuple[str, int, int]] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._ids[name]
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.name)
            rows, flops = work(*args, **kwargs) if work else (0, 0.0)
            self.name.append(name_id)
            self.parent.append(self._open[-1] if self._open else -1)
            self.rows.append(rows)
            self.flops.append(flops)
            self.end.append(0.0)
            self._open.append(i)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._open.pop()

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        # Resolve everything before patching anything, so a missing name
        # leaves every module untouched.
        originals = [resolve(module, attribute) for _, module, attribute in WRAPPED]
        for (name, module, attribute), original in zip(WRAPPED, originals):
            mod = importlib.import_module(module)
            self._saved.append((mod, attribute, original))
            setattr(mod, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        for mod, attribute, original in reversed(self._saved):
            setattr(mod, attribute, original)
        self._saved.clear()

    @contextmanager
    def segment(self, label: str) -> Iterator[None]:
        """Trace the enclosed block and tag its spans with ``label``."""
        first = len(self.name)
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.segments.append((label, first, len(self.name)))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.int64).copy(),
            "flops": np.frombuffer(self.flops, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span, the name table and the segments as one ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            segment_label=np.array([s[0] for s in self.segments]),
            segment_range=np.array([s[1:] for s in self.segments], dtype=np.int64).reshape(-1, 2),
            **self.arrays(),
        )
