"""The INI run configuration: every key and its default, and each rejected value."""

from __future__ import annotations

from pathlib import Path

import pytest

from tabalign.cli import main
from tabalign.config import load_run_config
from tabalign.errors import ConfigError
from tabalign.fewshot import Protocol
from tabalign.pretrain import DEFAULT_RATIOS, PretrainConfig

DATA = "[data]\ndata = rows.csv\nschema = rows.schema.yaml\n"


def _load(tmp_path: Path, text: str):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return load_run_config(path)


def _with(section: str, line: str) -> str:
    """The minimal config plus one ``key = value`` line in ``section``."""
    if section == "data":
        return f"{DATA}{line}\n"
    return f"{DATA}\n[{section}]\n{line}\n"


def _eval_protocol(cfg) -> Protocol:
    """The protocol the eval and ablate commands run for this config; ``evaluate``
    resolves an ``n_way`` of 0 to every class of the dataset."""
    return cfg.protocol


def test_defaults(tmp_path):
    cfg = _load(tmp_path, DATA)
    assert cfg.data_path == Path("rows.csv")
    assert cfg.schema_path == Path("rows.schema.yaml")
    assert cfg.dataset_name == "rows"
    assert cfg.split_seed == 0
    assert cfg.normalize is True
    assert cfg.out_dir == Path("runs")
    assert cfg.ratios == list(DEFAULT_RATIOS) == [0.1, 0.2, 0.3, 0.4, 0.5]
    assert cfg.seed == 0
    assert cfg.pretrain == PretrainConfig()
    assert cfg.pretrain == PretrainConfig(
        max_epochs=10000,
        batch_size=1024,
        learning_rate=0.001,
        patience=100,
        hidden_dim=1024,
        embed_dim=256,
        projector_dim=256,
        temperature=0.1,
        conditioned=True,
        imputation="zero",
        dtype="float64",
    )
    assert _eval_protocol(cfg) == Protocol(
        n_way=0,
        k_shot=5,
        n_episodes=100,
        n_seeds=1,
        n_query_per_class=15,
        head="auto",
        base_seed=0,
    )


def _pretrain_field(name):
    return lambda cfg: getattr(cfg.pretrain, name)


def _protocol_field(name):
    return lambda cfg: getattr(_eval_protocol(cfg), name)


EVERY_KEY = [
    ("data", "name", "iris", lambda cfg: cfg.dataset_name, "iris"),
    ("data", "split_seed", "7", lambda cfg: cfg.split_seed, 7),
    ("data", "normalize", "false", lambda cfg: cfg.normalize, False),
    ("pretrain", "out_dir", "out/here", lambda cfg: cfg.out_dir, Path("out/here")),
    ("pretrain", "ratios", "0.25, 0.5", lambda cfg: cfg.ratios, [0.25, 0.5]),
    ("pretrain", "seed", "11", lambda cfg: cfg.seed, 11),
    ("pretrain", "max_epochs", "12", _pretrain_field("max_epochs"), 12),
    ("pretrain", "batch_size", "64", _pretrain_field("batch_size"), 64),
    ("pretrain", "learning_rate", "0.05", _pretrain_field("learning_rate"), 0.05),
    ("pretrain", "patience", "3", _pretrain_field("patience"), 3),
    ("pretrain", "hidden_dim", "16", _pretrain_field("hidden_dim"), 16),
    ("pretrain", "embed_dim", "8", _pretrain_field("embed_dim"), 8),
    ("pretrain", "projector_dim", "6", _pretrain_field("projector_dim"), 6),
    ("pretrain", "temperature", "0.5", _pretrain_field("temperature"), 0.5),
    ("pretrain", "conditioned", "no", _pretrain_field("conditioned"), False),
    ("pretrain", "imputation", "marginal", _pretrain_field("imputation"), "marginal"),
    ("pretrain", "dtype", "float32", _pretrain_field("dtype"), "float32"),
    ("eval", "n_way", "3", _protocol_field("n_way"), 3),
    ("eval", "k_shot", "1", _protocol_field("k_shot"), 1),
    ("eval", "episodes", "9", _protocol_field("n_episodes"), 9),
    ("eval", "seeds", "2", _protocol_field("n_seeds"), 2),
    ("eval", "n_query", "4", _protocol_field("n_query_per_class"), 4),
    ("eval", "head", "knn-cos", _protocol_field("head"), "knn-cos"),
    ("eval", "base_seed", "13", _protocol_field("base_seed"), 13),
]


@pytest.mark.parametrize(
    "section,key,text,read,expected", EVERY_KEY, ids=[f"{s}.{k}" for s, k, *_ in EVERY_KEY]
)
def test_every_key_sets_its_field(tmp_path, section, key, text, read, expected):
    default = read(_load(tmp_path, DATA))
    assert default != expected
    assert read(_load(tmp_path, _with(section, f"{key} = {text}"))) == expected


@pytest.mark.parametrize(
    "text,value",
    [
        ("true", True),
        ("True", True),
        ("YES", True),
        ("1", True),
        ("on", True),
        ("false", False),
        ("No", False),
        ("0", False),
        ("OFF", False),
    ],
)
def test_boolean_spellings(tmp_path, text, value):
    assert _load(tmp_path, _with("data", f"normalize = {text}")).normalize is value
    assert _load(tmp_path, _with("pretrain", f"conditioned = {text}")).pretrain.conditioned is value


@pytest.mark.parametrize(
    "text,ratios",
    [
        ("random", ["random"]),
        ("0.2; 0.4", [0.2, 0.4]),
        ("0.1; random, 0.3", [0.1, "random", 0.3]),
        ("0.2, 0.4,", [0.2, 0.4]),
    ],
)
def test_ratio_lists(tmp_path, text, ratios):
    assert _load(tmp_path, _with("pretrain", f"ratios = {text}")).ratios == ratios


@pytest.mark.parametrize(
    "text",
    [
        # sections and keys
        DATA + "\n[train]\nseed = 1\n",
        _with("data", "turbo = yes"),
        _with("pretrain", "turbo = yes"),
        _with("eval", "seed = 1"),
        _with("data", "ratios = 0.2"),
        "[pretrain]\nseed = 1\n",
        "[data]\ndata = rows.csv\n",
        "[data]\nschema = rows.schema.yaml\n",
        # numbers
        _with("data", "split_seed = x"),
        _with("pretrain", "max_epochs = ten"),
        _with("pretrain", "temperature = hot"),
        _with("eval", "seeds = 1.5"),
        # booleans
        _with("data", "normalize = maybe"),
        _with("pretrain", "conditioned = 2"),
        # ratios
        _with("pretrain", "ratios = 0"),
        _with("pretrain", "ratios = 1.0"),
        _with("pretrain", "ratios = 0.2, 1.5"),
        _with("pretrain", "ratios = 0.2, abc"),
        _with("pretrain", "ratios = ,"),
        # named values
        _with("eval", "head = banana"),
        _with("pretrain", "imputation = marginl"),
        _with("pretrain", "dtype = float16"),
        # ranges (PretrainConfig's are in test_pretrain.py)
        _with("eval", "n_way = -1"),
        _with("eval", "k_shot = 0"),
        _with("eval", "episodes = 0"),
        _with("eval", "seeds = 0"),
        _with("eval", "n_query = 0"),
        # seeds
        _with("data", "split_seed = -1"),
        _with("pretrain", "seed = -1"),
        _with("eval", "base_seed = -1"),
    ],
)
def test_rejected_configs(tmp_path, text):
    with pytest.raises(ConfigError):
        _load(tmp_path, text)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "absent.ini")


def test_misspelled_imputation_exits_2(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(_with("pretrain", "imputation = marginl"))
    assert main(["pretrain", "--config", str(path)]) == 2


def test_percent_sign_is_read_as_itself(tmp_path):
    """A value is the text after ``=``: ``%`` starts no interpolation."""
    cfg = _load(tmp_path, "[data]\ndata = rows%1.csv\nschema = 100%.yaml\nname = a%(b)s\n")
    assert cfg.data_path == Path("rows%1.csv") and cfg.schema_path == Path("100%.yaml")
    assert cfg.dataset_name == "a%(b)s"
