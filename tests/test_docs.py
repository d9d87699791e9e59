"""The README's config reference, output files, checkpoint header, head table, exit
codes and desk buffer sizes against the code."""

from __future__ import annotations

import csv
import importlib
import inspect
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import tabalign
from tabalign.checkpoint import save_checkpoint
from tabalign.cli import _OVERRIDES, main
from tabalign.config import _KEYS
from tabalign.errors import TabAlignError, UsageError
from tabalign.fewshot import finetune_probs, knn_probs, linear_probe_probs, prototype_probs
from tabalign.preprocess import encode, fit
from tabalign.pretrain import PretrainConfig, Workspace, init_stack
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
    section = _section("Checkpoints")
    documented = set(re.findall(r"^- `(\w+)`:", section, flags=re.M))
    assert documented == set(header)
    # The `preprocessor` bullet names its keys and the keys of each column entry.
    bullet = re.search(r"^- `preprocessor`:(.*?)(?=\n\n|\n- )", section, flags=re.M | re.S)
    fitted = header["preprocessor"]
    assert set(re.findall(r"`(\w+)`", bullet.group(1))) == set(fitted) | set(fitted["schema"][0])


@pytest.mark.parametrize("head", [prototype_probs, knn_probs, linear_probe_probs, finetune_probs])
def test_head_table_names_each_head_with_its_parameters(head):
    table = dict(re.findall(r"^\| `(\w+)\(([^)]*)\)` \|", _section("Python API"), flags=re.M))
    assert table.get(head.__name__) == ", ".join(inspect.signature(head).parameters)


def _parameter_names(fn) -> list[str]:
    """``fn``'s parameter names in order, with ``*`` before the first keyword-only one."""
    names = []
    for parameter in inspect.signature(fn).parameters.values():
        if parameter.kind is parameter.KEYWORD_ONLY and "*" not in names:
            names.append("*")
        names.append(parameter.name)
    return names


def test_kernel_list_names_each_kernel_with_its_parameters():
    kernels = " ".join(_section("Python API").split("The training kernels in", 1)[1].split())
    documented = dict(re.findall(r"`([\w.]+)\(([^`)]*)\)`", kernels))
    assert {"mlp_forward", "mlp_backward", "infonce_loss", "nearest_neighbors",
            "preprocess.make_views", "make_views_marginal", "adam_step",
            "AdamState.for_params", "train_step", "pretrain.pretrain",
            "Workspace.for_stack"} <= set(documented)
    modules = {name: importlib.import_module(f"tabalign.{name}")
               for name in ("nncore", "pretrain", "preprocess")}
    for name, params in documented.items():
        head, *rest = name.split(".")
        target = modules.get(head) or next(
            getattr(m, head) for m in modules.values() if hasattr(m, head)
        )
        for attribute in rest:
            target = getattr(target, attribute)
        assert [p.split("=")[0] for p in params.split(", ")] == _parameter_names(target), name


def test_determinism_sentence_states_its_scope():
    """Same seeds give the same bytes only within one numpy and OpenBLAS
    build, CPU class and BLAS thread count; the sentence names all four."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    (sentence,) = [s for s in text.split(". ") if "fully determine" in s]
    for scope in ("numpy", "OpenBLAS build", "CPU class", "BLAS thread count"):
        assert scope in sentence


def test_desk_buffer_sizes_are_those_the_code_builds():
    text = " ".join(README.read_text(encoding="utf-8").split())
    stated = re.search(
        r"At the desk shape \(B=1024, float64, 32 encoded columns\) the workspace is "
        r"([\d.]+) MiB and Adam's scratch ([\d.]+) MiB", text
    )
    assert stated, "the README states no desk workspace and Adam scratch size"
    stack = init_stack(32, 0.2, 0, PretrainConfig(batch_size=1024, dtype="float64"))
    work = Workspace.for_stack(stack, 1024)
    arrays = [a for a in vars(work).values() if isinstance(a, np.ndarray)]
    regions = {id(r): r for r in (a if a.base is None else a.base for a in arrays)}
    built = [sum(r.nbytes for r in regions.values()),
             sum(a.nbytes for a in work.adam.scratch.values())]
    assert [float(size) for size in stated.groups()] == [round(n / 2**20, 2) for n in built]


def test_one_step_snippet_runs():
    """The Python API's one-step snippet runs as written on a small stack and batch."""
    (snippet,) = [block for block in re.findall(r"```python\n(.*?)```", _section("Python API"),
                                                 flags=re.S) if "train_step(" in block]
    ds = make_gaussian_dataset(n_rows=40, d_raw=3, n_classes=2, separation=6.0, seed=0)
    pp = fit(ds, list(range(ds.n_rows)))
    cfg = PretrainConfig(batch_size=16, hidden_dim=4, embed_dim=2, projector_dim=2)
    stack = init_stack(pp.encoded_dim, 0.2, 0, cfg)
    before = [p.copy() for p in stack.parameters()]
    scope = {"ta": tabalign, "stack": stack, "batch": encode(pp, ds, list(range(16))), "pp": pp,
             "rng": np.random.default_rng(0)}
    exec(snippet, scope)
    assert np.isfinite(scope["loss"]) and scope["work"].adam.t == 1
    assert any(p.tobytes() != b.tobytes() for p, b in zip(stack.parameters(), before))


def test_output_files_table_lists_the_headers_the_commands_write(tmp_path):
    rows = re.findall(r"^\| `([\w-]+)` \| `([\w<>.]+)` \| (.+) \|$", _section("Output files"),
                      flags=re.M)
    documented = {
        name.replace("<axis>", "conditioning"): re.findall(r"`(\w+)`", columns)
        for _, name, columns in rows
    }
    assert len(documented) == len(rows)

    data = tmp_path / "data"
    assert main(["gen-data", "--rows", "120", "--dims", "3", "--classes", "2",
                 "--out", str(data / "synth")]) == 0
    ini = tmp_path / "tiny.ini"
    ini.write_text(
        f"[data]\ndata = {data / 'synth.csv'}\nschema = {data / 'synth.schema.yaml'}\n"
        f"[pretrain]\nout_dir = {tmp_path / 'run'}\nratios = 0.4\nmax_epochs = 1\n"
        "batch_size = 32\nhidden_dim = 4\nembed_dim = 2\nprojector_dim = 2\n"
        "[eval]\nk_shot = 1\nepisodes = 1\nn_query = 2\n"
    )
    run = str(tmp_path / "run")
    for argv in (
        ["pretrain", "--config", str(ini)],
        ["eval", run, "--config", str(ini)],
        ["ablate", "--config", str(ini), "--axis", "conditioning",
         "--out-dir", str(tmp_path / "ablate")],
        ["theory", "--dim", "4", "--delta-sq-grid", "0,4", "--n-grid", "1,2",
         "--trials", "20", "--subsets", "2", "--out-dir", str(tmp_path / "theory")],
        ["analyze", run, "--config", str(ini), "--separations", "1", "--k-max", "2",
         "--out-dir", str(tmp_path / "analyze")],
    ):
        assert main(argv) == 0, argv

    written = {}
    for path in tmp_path.rglob("*.csv"):
        if data not in path.parents:
            with path.open(encoding="utf-8", newline="") as handle:
                written.setdefault(path.name, []).append(next(csv.reader(handle)))
    assert set(written) == set(documented)
    for name, headers in written.items():
        assert headers == [documented[name]] * len(headers), name


def test_commands_section_lists_exactly_the_override_flags():
    rows = re.findall(r"^\| `([\w-]+)` \| `--([\w-]+)` \| `\[(\w+)\] (\w+)` \|$",
                      _section("Commands"), flags=re.M)
    assert sorted(rows) == sorted(
        (command, key.replace("_", "-"), command, key)
        for command, keys in _OVERRIDES.items() for key in keys
    )


def _descendants(cls: type) -> set[type]:
    return {d for sub in cls.__subclasses__() for d in (sub, *_descendants(sub))}


def test_exit_code_list_names_exactly_the_usage_errors():
    """The bullets under "exits 2" are the ``UsageError`` classes; the exit-1 paragraph
    names only other package errors."""
    exits_2, exits_1 = _section("Commands").split("Any other failure exits 1", 1)
    listed = re.findall(r"^- `(\w+)`:", exits_2, flags=re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == {cls.__name__ for cls in _descendants(UsageError)}
    faults = _descendants(TabAlignError) - _descendants(UsageError) - {UsageError}
    named = set(re.findall(r"`(\w+Error)`", exits_1.split("\n\n", 1)[0]))
    assert named == {cls.__name__ for cls in faults} | {"OSError"}
