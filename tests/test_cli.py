"""End-to-end command-line behavior: exit codes, artifacts, reproducibility."""

from __future__ import annotations

import csv
import errno
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from tabalign import analysis, cli
from tabalign.checkpoint import load_checkpoint, save_checkpoint
from tabalign.cli import main
from tabalign.config import _KEYS, load_run_config
from tabalign.data import load_csv
from tabalign.errors import TabAlignError, UsageError
from tabalign.fewshot import HEADS, evaluate
from tabalign.preprocess import fit
from tabalign.pretrain import PretrainConfig, init_stack

pytestmark = pytest.mark.usefixtures("workdir")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main(
        [
            "gen-data",
            "--rows", "240",
            "--dims", "8",
            "--classes", "4",
            "--separation", "6.0",
            "--seed", "0",
            "--out", str(root / "synth"),
        ]
    )
    assert rc == 0
    (root / "small.ini").write_text(
        f"""\
[data]
data = {root / 'synth.csv'}
schema = {root / 'synth.schema.yaml'}
split_seed = 0

[pretrain]
out_dir = {root / 'run'}
ratios = 0.2, 0.4
seed = 1
max_epochs = 2
batch_size = 64
patience = 2
hidden_dim = 16
embed_dim = 8
projector_dim = 8

[eval]
k_shot = 1
episodes = 2
seeds = 1
n_query = 3
"""
    )
    (root / "default_ratios.ini").write_text(
        f"""\
[data]
data = {root / 'synth.csv'}
schema = {root / 'synth.schema.yaml'}

[pretrain]
out_dir = {root / 'run5'}
seed = 1
max_epochs = 1
batch_size = 64
hidden_dim = 16
embed_dim = 8
projector_dim = 8

[eval]
k_shot = 1
episodes = 1
seeds = 1
n_query = 3
"""
    )
    return root


@pytest.fixture(scope="module")
def run_dir(workdir):
    """The checkpoints ``small.ini`` pretrains, for every test that reads them."""
    rc = main(["pretrain", "--config", str(workdir / "small.ini")])
    assert rc == 0
    return workdir / "run"


def _read_csv(path: Path) -> list[list[str]]:
    with path.open() as handle:
        return list(csv.reader(handle))


def _is_fixed(cell: str, places: int) -> bool:
    return re.fullmatch(rf"-?\d+\.\d{{{places}}}", cell) is not None


class TestGenData:
    def test_files_are_loadable(self, workdir):
        ds = load_csv(workdir / "synth.csv", workdir / "synth.schema.yaml")
        assert ds.n_rows == 240 and ds.d_raw == 8 and ds.n_classes == 4

    def test_categorical_option(self, workdir):
        rc = main(
            [
                "gen-data", "--rows", "100", "--dims", "6", "--classes", "2",
                "--categorical", "2", "--cardinality", "3",
                "--out", str(workdir / "mixed"),
            ]
        )
        assert rc == 0
        ds = load_csv(workdir / "mixed.csv", workdir / "mixed.schema.yaml")
        assert sum(c.kind == "categorical" for c in ds.schema) == 2


class TestPretrainCommand:
    def test_writes_checkpoints_and_reports(self, run_dir):
        ckpts = sorted(run_dir.glob("*.ckpt"))
        assert [p.name for p in ckpts] == [
            "member-00-ratio-0.20.ckpt",
            "member-01-ratio-0.40.ckpt",
        ]
        assert (run_dir / "pretrain_history.csv").exists()
        assert (run_dir / "pretrain_summary.csv").exists()

    def test_history_and_summary_csvs(self, workdir):
        out = workdir / "pre-csv"
        rc = main(["pretrain", "--config", str(workdir / "small.ini"), "--out-dir", str(out)])
        assert rc == 0
        history = _read_csv(out / "pretrain_history.csv")
        summary = _read_csv(out / "pretrain_summary.csv")
        assert history[0] == ["member", "ratio", "epoch", "train_loss", "valid_loss"]
        assert summary[0] == [
            "member", "ratio", "stopped_epoch", "best_epoch", "best_valid_loss", "wall_seconds"
        ]
        # One summary row per member; one history row per member per trained epoch.
        assert [row[:2] for row in summary[1:]] == [["0", "0.2"], ["1", "0.4"]]
        assert len(history) - 1 == sum(int(row[2]) for row in summary[1:])
        for member, ratio, stopped, best, best_loss, _ in summary[1:]:
            assert 1 <= int(best) <= int(stopped)
            mine = [row for row in history[1:] if row[0] == member]
            assert [row[1] for row in mine] == [ratio] * int(stopped)
            assert [row[2] for row in mine] == [str(e) for e in range(1, int(stopped) + 1)]
            assert mine[int(best) - 1][4] == best_loss
        assert all(_is_fixed(cell, 6) for row in history[1:] for cell in row[3:])
        assert all(_is_fixed(row[4], 6) and _is_fixed(row[5], 2) for row in summary[1:])

    def test_default_ratio_set_gives_five_checkpoints(self, workdir):
        rc = main(["pretrain", "--config", str(workdir / "default_ratios.ini")])
        assert rc == 0
        assert len(list((workdir / "run5").glob("*.ckpt"))) == 5

    def test_rerun_is_byte_identical(self, workdir):
        out_a = workdir / "det-a"
        out_b = workdir / "det-b"
        for out in (out_a, out_b):
            rc = main(
                ["pretrain", "--config", str(workdir / "small.ini"), "--out-dir", str(out)]
            )
            assert rc == 0
        for name in ("member-00-ratio-0.20.ckpt", "member-01-ratio-0.40.ckpt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_missing_schema_is_usage_error(self, workdir):
        bad = workdir / "bad.ini"
        bad.write_text(
            f"[data]\ndata = {workdir / 'synth.csv'}\nschema = {workdir / 'nope.yaml'}\n"
        )
        assert main(["pretrain", "--config", str(bad)]) == 2

    def test_unknown_config_key_is_usage_error(self, workdir):
        bad = workdir / "bad2.ini"
        bad.write_text(
            f"[data]\ndata = x.csv\nschema = y.yaml\nturbo = yes\n"
        )
        assert main(["pretrain", "--config", str(bad)]) == 2

    def test_batch_of_one_is_usage_error(self, workdir):
        bad = workdir / "batch1.ini"
        text = (workdir / "small.ini").read_text()
        bad.write_text(text.replace("batch_size = 64", "batch_size = 1"))
        assert main(["pretrain", "--config", str(bad), "--out-dir", str(workdir / "batch1")]) == 2

    def test_missing_config_flag_is_usage_error(self):
        assert main(["pretrain"]) == 2


class TestEvalCommand:
    def test_single_episode_single_row(self, workdir, run_dir):
        out = workdir / "eval1.csv"
        rc = main(
            [
                "eval", str(run_dir),
                "--config", str(workdir / "small.ini"),
                "--episodes", "1", "--seeds", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert len(rows) == 2
        assert rows[0] == ["dataset", "n_way", "k_shot", "head", "seed", "episode", "accuracy"]
        assert rows[1][3] == "proto-cos"

    def test_report_and_summary_csvs(self, workdir, run_dir):
        out = workdir / "eval-2x2.csv"
        rc = main(
            [
                "eval", str(run_dir),
                "--config", str(workdir / "small.ini"),
                "--n-way", "3", "--k-shot", "1", "--episodes", "2", "--seeds", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert rows[0] == ["dataset", "n_way", "k_shot", "head", "seed", "episode", "accuracy"]
        assert len(rows) == 1 + 4
        assert [row[:6] for row in rows[1:]] == [
            ["synth", "3", "1", "proto-cos", seed, episode]
            for seed in ("0", "1") for episode in ("0", "1")
        ]
        assert all(_is_fixed(row[6], 6) for row in rows[1:])
        srows = _read_csv(workdir / "eval-2x2_summary.csv")
        assert srows[0] == [
            "dataset", "n_way", "k_shot", "head", "n_seeds", "n_episodes",
            "mean_accuracy", "std_accuracy",
        ]
        assert len(srows) == 2
        assert srows[1][:6] == ["synth", "3", "1", "proto-cos", "2", "2"]
        assert _is_fixed(srows[1][6], 6) and _is_fixed(srows[1][7], 6)
        accuracies = [float(row[6]) for row in rows[1:]]
        assert float(srows[1][6]) == pytest.approx(np.mean(accuracies), abs=1e-6)

    def test_out_directory_is_usage_error(self, workdir, run_dir, capsys):
        out = workdir / "out-is-a-dir"
        out.mkdir()
        capsys.readouterr()
        rc = main(
            [
                "eval", str(run_dir),
                "--config", str(workdir / "small.ini"),
                "--episodes", "1", "--out", str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_in_missing_directory_is_created(self, workdir, run_dir):
        out = workdir / "missing" / "nested" / "eval.csv"
        rc = main(
            [
                "eval", str(run_dir),
                "--config", str(workdir / "small.ini"),
                "--episodes", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        assert len(_read_csv(out)) == 2
        assert len(_read_csv(out.with_name("eval_summary.csv"))) == 2

    def test_head_override_in_metadata(self, workdir, run_dir):
        out = workdir / "eval_knn.csv"
        rc = main(
            [
                "eval", str(run_dir),
                "--config", str(workdir / "small.ini"),
                "--episodes", "1", "--seeds", "1",
                "--head", "knn-eucl",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert _read_csv(out)[1][3] == "knn-eucl"

    def test_unknown_head_is_usage_error(self, workdir, run_dir):
        rc = main(
            [
                "eval", str(run_dir),
                "--config", str(workdir / "small.ini"),
                "--head", "banana",
            ]
        )
        assert rc == 2

    def test_rerun_gives_identical_csv(self, workdir, run_dir):
        outs = []
        for name in ("rep-a.csv", "rep-b.csv"):
            out = workdir / name
            rc = main(
                [
                    "eval", str(run_dir),
                    "--config", str(workdir / "small.ini"),
                    "--out", str(out),
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_zero_episodes_is_usage_error(self, workdir, run_dir):
        rc = main(
            [
                "eval", str(run_dir),
                "--config", str(workdir / "small.ini"),
                "--episodes", "0",
                "--out", str(workdir / "eval0.csv"),
            ]
        )
        assert rc == 2

    def test_empty_checkpoint_dir_is_usage_error(self, workdir):
        empty = workdir / "empty"
        empty.mkdir(exist_ok=True)
        rc = main(
            ["eval", str(empty), "--config", str(workdir / "small.ini")]
        )
        assert rc == 2

    def test_mismatched_preprocessors_are_usage_error(self, workdir):
        ds = load_csv(workdir / "synth.csv", workdir / "synth.schema.yaml")
        cfg = PretrainConfig(hidden_dim=16, embed_dim=8, projector_dim=8)
        mixed = workdir / "mixed-pp"
        mixed.mkdir()
        for k, rows in enumerate((np.arange(0, 120), np.arange(120, 240))):
            pp = fit(ds, rows)
            stack = init_stack(pp.encoded_dim, 0.2, seed=k, cfg=cfg)
            save_checkpoint(mixed / f"member-{k:02d}.ckpt", stack, pp)
        rc = main(["eval", str(mixed), "--config", str(workdir / "small.ini")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_columns_other_than_the_checkpoints_are_usage_error(
        self, workdir, run_dir, command, capsys
    ):
        """The same columns listed in reverse order would take each other's statistics."""
        schema = yaml.safe_load((workdir / "synth.schema.yaml").read_text())
        features = [c for c in schema["columns"] if not c.get("label")]
        labels = [c for c in schema["columns"] if c.get("label")]
        reversed_schema = workdir / f"reversed-{command}.schema.yaml"
        reversed_schema.write_text(yaml.safe_dump({"columns": features[::-1] + labels}))
        ini = workdir / f"reversed-{command}.ini"
        ini.write_text(
            (workdir / "small.ini").read_text().replace(
                str(workdir / "synth.schema.yaml"), str(reversed_schema)
            )
        )
        capsys.readouterr()
        rc = main([command, str(run_dir), "--config", str(ini),
                   "--out" if command == "eval" else "--out-dir",
                   str(workdir / f"reversed-{command}")])
        assert rc == 2
        assert "columns the preprocessor was fitted on" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit,command,flags",
    [
        (("split_seed = 0", "split_seed = -1"), "pretrain", []),
        (("seed = 1\n", "seed = -1\n"), "pretrain", []),
        (("", ""), "pretrain", ["--seed", "-1"]),
        (("n_query = 3\n", "n_query = 3\nbase_seed = -1\n"), "eval", []),
    ],
    ids=["split_seed", "seed", "seed-flag", "base_seed"],
)
def test_negative_seed_is_usage_error(workdir, run_dir, capsys, edit, command, flags):
    ini = workdir / "negative-seed.ini"
    ini.write_text((workdir / "small.ini").read_text().replace(*edit))
    if command == "pretrain":
        args = ["pretrain", "--out-dir", str(workdir / "negative-seed")]
    else:
        args = ["eval", str(run_dir), "--out", str(workdir / "negative-seed.csv")]
    capsys.readouterr()
    assert main([*args, "--config", str(ini), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed must be an int >= 0" in err


class TestAblateCommand:
    def test_ratio_axis_emits_seven_rows(self, workdir, monkeypatch):
        calls = []

        def counted_evaluate(members, *args, **kwargs):
            calls.append(len(members))
            return evaluate(members, *args, **kwargs)

        monkeypatch.setattr(cli, "evaluate", counted_evaluate)
        out = workdir / "ab-ratio"
        rc = main(
            [
                "ablate", "--config", str(workdir / "small.ini"),
                "--axis", "ratio", "--out-dir", str(out),
            ]
        )
        assert rc == 0
        # The five fixed-ratio members and their fusion in one call; the random member in one.
        assert calls == [5, 1]
        rows = _read_csv(out / "ablation_ratio.csv")
        assert [r[1] for r in rows[1:]] == [
            "ratio-0.10",
            "ratio-0.20",
            "ratio-0.30",
            "ratio-0.40",
            "ratio-0.50",
            "ensemble",
            "random",
        ]

    def test_conditioning_axis_projector_widths(self, workdir):
        out = workdir / "ab-cond"
        rc = main(
            [
                "ablate", "--config", str(workdir / "small.ini"),
                "--axis", "conditioning", "--out-dir", str(out),
            ]
        )
        assert rc == 0
        rows = _read_csv(out / "ablation_conditioning.csv")
        assert [r[1] for r in rows[1:]] == ["conditioned", "unconditioned"]
        on, _ = load_checkpoint(sorted((out / "conditioned").glob("*.ckpt"))[0])
        off, _ = load_checkpoint(sorted((out / "unconditioned").glob("*.ckpt"))[0])
        assert on.projector[0].in_dim - off.projector[0].in_dim == on.encoded_dim

    def test_imputation_axis_two_rows(self, workdir):
        out = workdir / "ab-imp"
        rc = main(
            [
                "ablate", "--config", str(workdir / "small.ini"),
                "--axis", "imputation", "--out-dir", str(out),
            ]
        )
        assert rc == 0
        rows = _read_csv(out / "ablation_imputation.csv")
        assert [r[1] for r in rows[1:]] == ["zero", "marginal"]

    def test_normalization_axis_two_rows(self, workdir):
        out = workdir / "ab-norm"
        rc = main(
            [
                "ablate", "--config", str(workdir / "small.ini"),
                "--axis", "normalization", "--out-dir", str(out),
            ]
        )
        assert rc == 0
        rows = _read_csv(out / "ablation_normalization.csv")
        assert [r[1] for r in rows[1:]] == ["normalized", "unnormalized"]

    def test_classifier_axis_six_rows(self, workdir):
        out = workdir / "ab-clf"
        rc = main(
            [
                "ablate", "--config", str(workdir / "small.ini"),
                "--axis", "classifier", "--out-dir", str(out),
            ]
        )
        assert rc == 0
        rows = _read_csv(out / "ablation_classifier.csv")
        assert [r[1] for r in rows[1:]] == list(HEADS)

    def test_invalid_axis_is_usage_error(self, workdir):
        rc = main(
            ["ablate", "--config", str(workdir / "small.ini"), "--axis", "nonsense"]
        )
        assert rc == 2


class TestTheoryCommand:
    def test_zero_separation_grid(self, workdir):
        out = workdir / "th"
        rc = main(
            [
                "theory", "--dim", "10", "--delta-sq-grid", "0",
                "--n-grid", "2,5", "--trials", "20000", "--subsets", "20",
                "--seed", "0", "--out-dir", str(out),
            ]
        )
        assert rc == 0
        rows = _read_csv(out / "theory_cells.csv")
        assert len(rows) == 3
        for row in rows[1:]:
            assert abs(float(row[5]) - 0.5) < 0.02
        bound = _read_csv(out / "theory_bound.csv")
        assert bound[1][1] == "1"

    def test_failed_write_is_runtime_error(self, workdir, monkeypatch, capsys):
        def disk_full(path, header, rows):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(cli, "_write_csv", disk_full)
        capsys.readouterr()
        rc = main(
            [
                "theory", "--dim", "4", "--delta-sq-grid", "1", "--n-grid", "2",
                "--trials", "10", "--subsets", "1", "--out-dir", str(workdir / "th-full"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No space left" in err and err.count("\n") == 1

    def test_out_of_range_subset_size_rejected_before_any_cell(self, workdir, capsys):
        capsys.readouterr()
        rc = main(
            [
                "theory", "--dim", "10", "--n-grid", "2,20", "--delta-sq-grid", "0,4",
                "--trials", "2000", "--subsets", "10", "--out-dir", str(workdir / "th-range"),
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "[theory] D=" not in captured.out
        assert "subset size 20 outside [1, 10]" in captured.err

    def test_zero_trials_is_usage_error(self, workdir):
        rc = main(["theory", "--trials", "0", "--out-dir", str(workdir / "x")])
        assert rc == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--delta-sq-grid", "1,x"],
            ["--n-grid", "5,2.5"],
            ["--delta-sq-grid", "nan"],
            ["--delta-sq-grid", "inf"],
            ["--dim", "0"],
            ["--delta-sq-grid=-1"],
        ],
    )
    def test_bad_grid_or_dim_is_usage_error(self, tmp_path, capsys, recwarn, flags):
        capsys.readouterr()
        out = tmp_path / "th"
        argv = ["theory", "--dim", "6", "--n-grid", "2", "--trials", "10", "--subsets", "1"]
        rc = main(argv + flags + ["--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(recwarn)
        assert not out.exists()


class TestAnalyzeCommand:
    def test_writes_both_csvs(self, workdir, run_dir):
        out = workdir / "an"
        rc = main(
            [
                "analyze", str(run_dir),
                "--config", str(workdir / "small.ini"),
                "--separations", "3", "--k-max", "5",
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        curve = _read_csv(out / "neighbor_fraction.csv")
        assert curve[0] == ["k", "mean_fraction"]
        assert len(curve) == 6
        table = _read_csv(out / "latent_consistency.csv")
        assert table[0] == ["input_bucket", "mean_input_count", "mean_latent_count", "bucket_size"]
        assert len(table) == 12
        assert sum(int(row[3]) for row in table[1:]) == 240
        assert [row[0] for row in table[1:]] == [str(b) for b in range(11)]
        for row in table[1:]:
            assert _is_fixed(row[1], 6)
            assert _is_fixed(row[2], 6) if int(row[3]) else row[2] == "nan"

    def test_curve_csv_formats_each_k(self, workdir, run_dir, monkeypatch):
        monkeypatch.setattr(
            analysis, "neighbor_fraction_curve", lambda *args: np.array([0.9, 0.8, 0.7])
        )
        out = workdir / "an-fixed"
        rc = main(
            [
                "analyze", str(run_dir),
                "--config", str(workdir / "small.ini"),
                "--k-max", "3", "--out-dir", str(out),
            ]
        )
        assert rc == 0
        rows = _read_csv(out / "neighbor_fraction.csv")
        assert rows[0] == ["k", "mean_fraction"]
        assert rows[1] == ["1", "0.900000"]
        assert len(rows) == 4

    @pytest.mark.parametrize(
        "flags",
        [
            ["--ratio", "1.5"],
            ["--ratio", "0"],
            ["--separations", "0"],
            ["--k-max", "0"],
            ["--k-max", "240"],
        ],
    )
    def test_bad_flag_is_usage_error(self, workdir, run_dir, flags):
        rc = main(
            [
                "analyze", str(run_dir),
                "--config", str(workdir / "small.ini"),
                "--separations", "2", *flags,
                "--out-dir", str(workdir / "an-bad"),
            ]
        )
        assert rc == 2


@pytest.fixture(scope="module")
def bad_inputs(workdir, run_dir) -> dict[str, Path]:
    """Inputs that do not fit a command, by the placeholder the exit table names them with:
    INI files, each naming ``small.ini``'s data and schema or a broken copy of one, and a
    directory holding a truncated checkpoint."""
    root = workdir / "bad"
    root.mkdir()
    ini_text = (workdir / "small.ini").read_text()
    data, schema = workdir / "synth.csv", workdir / "synth.schema.yaml"
    header, *rows = data.read_bytes().splitlines(keepends=True)

    def config(name: str, data_path: Path = data, schema_path: Path = schema) -> Path:
        path = root / f"{name}.ini"
        path.write_text(ini_text.replace(str(data), str(data_path))
                        .replace(str(schema), str(schema_path)))
        return path

    def data_file(name: str, content: bytes) -> Path:
        path = root / f"{name}.csv"
        path.write_bytes(content)
        return path

    # Two classes over 12 rows split into 9 training rows, 1 validation row and 2 test rows.
    assert main(["gen-data", "--rows", "12", "--dims", "4", "--classes", "2",
                 "--out", str(root / "rows12")]) == 0
    schema_ff = root / "ff.schema.yaml"
    schema_ff.write_bytes(schema.read_bytes() + b"# \xff\n")
    ini_ff = root / "ff.ini"
    ini_ff.write_bytes(ini_text.encode() + b"# \xff\n")
    checkpoint = sorted(run_dir.glob("*.ckpt"))[0].read_bytes()
    (root / "truncated").mkdir()
    (root / "truncated" / "member.ckpt").write_bytes(checkpoint[: len(checkpoint) // 2])
    # 1,200 rows fill two 512-row blocks before the bad bytes.
    body = header + b"".join(rows * 5)
    return {
        "rows10": config("rows10", data_file("rows10", header + b"".join(rows[:10]))),
        "rows12": config("rows12", root / "rows12.csv", root / "rows12.schema.yaml"),
        "truncated": root / "truncated",
        "ini_ff": ini_ff,
        "schema_ff": config("schema_ff", schema_path=schema_ff),
        "header_ff": config("header_ff", data_file("header_ff", b"\xff" + header + rows[0])),
        "body_ff": config("body_ff", data_file("body_ff", body + b"\xff" + rows[0])),
        "long_field": config("long_field", data_file(
            "long_field", body + b"1" * (csv.field_size_limit() + 1) + rows[0]
        )),
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-data", "--seed", "-1", "--out", "{out}/synth"],
        ["gen-data", "--separation", "nan", "--out", "{out}/synth"],
        ["gen-data", "--rows", "-1", "--out", "{out}/synth"],
        ["theory", "--seed", "-1", "--dim", "4", "--n-grid", "2", "--trials", "10",
         "--subsets", "1", "--out-dir", "{out}"],
        ["analyze", "{run}", "--config", "{ini}", "--seed", "-1", "--out-dir", "{out}"],
        ["eval", "{run}", "--config", "{ini}", "--n-way", "10", "--out", "{out}/eval.csv"],
        ["eval", "{run}", "--config", "{ini}", "--seed", "3", "--out", "{out}/eval.csv"],
        ["eval", "{run}", "--config", "{ini}", "--k-shot", "x", "--out", "{out}/eval.csv"],
        ["pretrain", "--config", "{ini}", "--seed", "x", "--out-dir", "{out}"],
        ["pretrain", "--config", "{rows10}", "--out-dir", "{out}"],
        ["pretrain", "--config", "{rows12}", "--out-dir", "{out}"],
        ["ablate", "--config", "{rows12}", "--axis", "classifier", "--out-dir", "{out}"],
        ["eval", "{truncated}", "--config", "{ini}", "--out", "{out}/eval.csv"],
        ["analyze", "{truncated}", "--config", "{ini}", "--out-dir", "{out}"],
        ["pretrain", "--config", "{ini_ff}", "--out-dir", "{out}"],
        ["pretrain", "--config", "{schema_ff}", "--out-dir", "{out}"],
        ["pretrain", "--config", "{header_ff}", "--out-dir", "{out}"],
        ["pretrain", "--config", "{body_ff}", "--out-dir", "{out}"],
        ["pretrain", "--config", "{long_field}", "--out-dir", "{out}"],
        ["gen-data", "--categorical", "2", "--cardinality", "-3", "--out", "{out}/synth"],
    ],
    ids=["gen-data-seed", "gen-data-separation", "gen-data-rows", "theory-seed", "analyze-seed",
         "eval-n-way", "eval-abbreviated-seeds", "eval-k-shot", "pretrain-seed", "pretrain-10-rows",
         "pretrain-12-rows", "ablate-12-rows", "eval-truncated-checkpoint", "analyze-truncated-checkpoint",
         "ini-not-utf8", "schema-not-utf8", "csv-header-not-utf8", "csv-body-not-utf8",
         "csv-field-over-limit", "gen-data-cardinality"],
)
def test_bad_argument_exits_2_with_one_error_line_and_no_output(
    workdir, run_dir, bad_inputs, tmp_path, capsys, argv
):
    out = tmp_path / "out"
    fill = {"out": out, "run": run_dir, "ini": workdir / "small.ini", **bad_inputs}
    capsys.readouterr()
    assert main([arg.format(**fill) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error: " in line] == [err.splitlines()[-1]]
    assert "Traceback" not in err
    assert not out.exists()


_OVERRIDE_TEXTS = {"out_dir": "elsewhere", "seed": "7", "n_way": "3", "k_shot": "1",
                   "episodes": "9", "seeds": "2", "head": "knn-cos"}


@pytest.mark.parametrize(
    "command,key", [(command, key) for command, keys in cli._OVERRIDES.items() for key in keys]
)
def test_override_flag_sets_the_config_key_of_its_name(workdir, tmp_path, command, key):
    """``--k-shot 1`` gives the RunConfig that ``k_shot = 1`` in ``[eval]`` gives."""
    assert key in _KEYS[command]
    data = f"[data]\ndata = {workdir / 'synth.csv'}\nschema = {workdir / 'synth.schema.yaml'}\n"
    plain, keyed = tmp_path / "plain.ini", tmp_path / "keyed.ini"
    plain.write_text(data)
    keyed.write_text(f"{data}[{command}]\n{key} = {_OVERRIDE_TEXTS[key]}\n")
    positional = [str(workdir / "run")] if command == "eval" else []
    flag = "--" + key.replace("_", "-")
    args = cli.build_parser().parse_args(
        [command, *positional, "--config", str(plain), flag, _OVERRIDE_TEXTS[key]]
    )
    assert cli._run_config(args) == load_run_config(keyed) != load_run_config(plain)


def test_eval_flags_write_what_the_same_keys_in_the_file_write(workdir, run_dir, tmp_path):
    keys = {"n_way": "3", "k_shot": "2", "episodes": "2", "seeds": "2", "head": "knn-cos"}
    base = (workdir / "small.ini").read_text().split("[eval]")[0] + "[eval]\nn_query = 3\n"
    plain, keyed = tmp_path / "plain.ini", tmp_path / "keyed.ini"
    plain.write_text(base)
    keyed.write_text(base + "".join(f"{key} = {text}\n" for key, text in keys.items()))
    flags = [arg for key, text in keys.items() for arg in ("--" + key.replace("_", "-"), text)]
    for ini, extra, name in ((plain, flags, "flags"), (keyed, [], "keys")):
        rc = main(["eval", str(run_dir), "--config", str(ini), *extra,
                   "--out", str(tmp_path / f"{name}.csv")])
        assert rc == 0
    for suffix in (".csv", "_summary.csv"):
        written = (tmp_path / f"flags{suffix}").read_bytes()
        assert written == (tmp_path / f"keys{suffix}").read_bytes()
    assert _read_csv(tmp_path / "flags.csv")[1][:4] == ["synth", "3", "2", "knn-cos"]


def _descendants(cls: type) -> list[type]:
    return [d for sub in cls.__subclasses__() for d in (sub, *_descendants(sub))]


@pytest.mark.parametrize("error", _descendants(TabAlignError), ids=lambda cls: cls.__name__)
def test_the_error_class_decides_the_exit_code(tmp_path, monkeypatch, capsys, error):
    """Exit 2 for an input the caller handed in, 1 for any other failure of the run."""
    def fail(**kwargs):
        raise error("no dataset")

    monkeypatch.setattr(cli, "make_gaussian_dataset", fail)
    capsys.readouterr()
    assert main(["gen-data", "--out", str(tmp_path / "synth")]) == (
        2 if issubclass(error, UsageError) else 1
    )
    assert capsys.readouterr().err == "error: no dataset\n"
