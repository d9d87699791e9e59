"""The README's config reference against the parser."""

from __future__ import annotations

import re
from pathlib import Path

from tabalign.config import _KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_config_reference_names_exactly_the_parsed_keys():
    text = README.read_text(encoding="utf-8")
    reference = text.split("## Config reference", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", reference, flags=re.M)
    assert len(documented) == len(set(documented))
    assert set(documented) == {(section, key) for section in _KEYS for key in _KEYS[section]}
