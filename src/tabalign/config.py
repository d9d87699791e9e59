"""Run configuration: flat key=value sections in INI files, overridable by CLI flags."""

from __future__ import annotations

import configparser
import dataclasses
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .fewshot import Protocol
from .pretrain import DEFAULT_RATIOS, PretrainConfig, parse_ratio


@dataclass
class RunConfig:
    """Everything a command needs: data paths, training and evaluation settings.

    ``protocol.n_way`` 0 means all classes of the dataset.
    """

    data_path: Path
    schema_path: Path
    dataset_name: str = ""
    split_seed: int = 0
    normalize: bool = True
    out_dir: Path = Path("runs")
    ratios: list[float | str] = field(default_factory=lambda: list(DEFAULT_RATIOS))
    seed: int = 0
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    protocol: Protocol = field(default_factory=lambda: Protocol(n_way=0, k_shot=5))


def _same_names(part: str, names: Iterable[str]) -> dict[str, tuple[str, str]]:
    return {name: (part, name) for name in names}


# Each INI section's keys and the field each one sets, as (part, field): part
# "" is the RunConfig itself, otherwise the RunConfig field holding the target.
_KEYS: dict[str, dict[str, tuple[str, str]]] = {
    "data": {
        "data": ("", "data_path"),
        "schema": ("", "schema_path"),
        "name": ("", "dataset_name"),
        **_same_names("", ("split_seed", "normalize")),
    },
    "pretrain": {
        **_same_names("", ("out_dir", "ratios", "seed")),
        **_same_names("pretrain", (f.name for f in dataclasses.fields(PretrainConfig))),
    },
    "eval": {
        "episodes": ("protocol", "n_episodes"),
        "seeds": ("protocol", "n_seeds"),
        "n_query": ("protocol", "n_query_per_class"),
        **_same_names("protocol", ("n_way", "k_shot", "head", "base_seed")),
    },
}


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def parse_ratios(text: str) -> list[float | str]:
    tokens = (token.strip() for token in text.replace(";", ",").split(","))
    ratios = [parse_ratio(token) for token in tokens if token]
    if not ratios:
        raise ValueError("empty list")
    return ratios


# How the text of a key is read, by the type of the field it sets.
_PARSERS = {
    int: int,
    float: float,
    bool: _parse_bool,
    str: str,
    Path: Path,
    list[float | str]: parse_ratios,
}


def _parse(part: str, name: str, text: str):
    owner = get_type_hints(RunConfig)[part] if part else RunConfig
    return _PARSERS[get_type_hints(owner)[name]](text)


def load_run_config(path: str | Path) -> RunConfig:
    """Parse an INI config file; unknown sections or keys are errors.

    Each value is checked by the dataclass that holds it, when it is built.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    values: dict[str, dict[str, object]] = defaultdict(dict)
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, text in parser[section].items():
            if key not in _KEYS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            part, name = _KEYS[section][key]
            try:
                values[part][name] = _parse(part, name, text)
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {key}: {exc}") from exc

    run = values.pop("", {})
    if "data_path" not in run or "schema_path" not in run:
        raise ConfigError(f"{path}: [data] section must set 'data' and 'schema'")
    cfg = RunConfig(**run)
    for part, changes in values.items():
        setattr(cfg, part, dataclasses.replace(getattr(cfg, part), **changes))
    if not cfg.dataset_name:
        cfg.dataset_name = cfg.data_path.stem
    return cfg
