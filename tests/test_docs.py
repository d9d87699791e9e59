"""The README's config reference and head table against the code."""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

from tabalign.config import _KEYS
from tabalign.fewshot import (
    ensemble_predict,
    finetune_probs,
    knn_probs,
    linear_probe_probs,
    prototype_probs,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def test_config_reference_names_exactly_the_parsed_keys():
    reference = _section("Config reference")
    documented = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", reference, flags=re.M)
    assert len(documented) == len(set(documented))
    assert set(documented) == {(section, key) for section in _KEYS for key in _KEYS[section]}


@pytest.mark.parametrize(
    "head", [prototype_probs, knn_probs, linear_probe_probs, finetune_probs, ensemble_predict]
)
def test_head_table_names_each_head_with_its_parameters(head):
    table = dict(re.findall(r"^\| `(\w+)\(([^)]*)\)` \|", _section("Python API"), flags=re.M))
    assert table.get(head.__name__) == ", ".join(inspect.signature(head).parameters)
