"""The README's config reference, checkpoint header and head table against the code."""

from __future__ import annotations

import inspect
import json
import re
import struct
from pathlib import Path

import pytest

from tabalign.checkpoint import save_checkpoint
from tabalign.config import _KEYS
from tabalign.fewshot import (
    ensemble_predict,
    finetune_probs,
    knn_probs,
    linear_probe_probs,
    prototype_probs,
)
from tabalign.preprocess import fit
from tabalign.pretrain import PretrainConfig, init_stack
from tabalign.synthetic import make_gaussian_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def test_config_reference_names_exactly_the_parsed_keys():
    reference = _section("Config reference")
    documented = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", reference, flags=re.M)
    assert len(documented) == len(set(documented))
    assert set(documented) == {(section, key) for section in _KEYS for key in _KEYS[section]}


def test_checkpoint_section_names_every_header_key(tmp_path):
    ds = make_gaussian_dataset(n_rows=40, d_raw=3, n_classes=2, separation=6.0, seed=0)
    pp = fit(ds, list(range(ds.n_rows)))
    cfg = PretrainConfig(hidden_dim=4, embed_dim=2, projector_dim=2)
    save_checkpoint(tmp_path / "m.ckpt", init_stack(pp.encoded_dim, 0.2, 0, cfg), pp)
    blob = (tmp_path / "m.ckpt").read_bytes()
    (length,) = struct.unpack_from("<I", blob, 12)
    header = json.loads(blob[16 : 16 + length])
    documented = set(re.findall(r"^- `(\w+)`:", _section("Checkpoints"), flags=re.M))
    assert documented == set(header)


@pytest.mark.parametrize(
    "head", [prototype_probs, knn_probs, linear_probe_probs, finetune_probs, ensemble_predict]
)
def test_head_table_names_each_head_with_its_parameters(head):
    table = dict(re.findall(r"^\| `(\w+)\(([^)]*)\)` \|", _section("Python API"), flags=re.M))
    assert table.get(head.__name__) == ", ".join(inspect.signature(head).parameters)
