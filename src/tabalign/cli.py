"""Command-line interface.

Subcommands: gen-data, pretrain, eval, ablate, theory, analyze. Exit codes:
0 success, 2 an input that does not fit the command (a ``UsageError``, or a
missing or misplaced file), 1 any other failure. All randomness
flows from the configured seeds, so reruns with identical inputs reproduce
identical outputs. The compute modules return data; every report table is
written here, by ``_write_csv``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import analysis as analysis_mod
from . import theory as theory_mod
from .checkpoint import load_checkpoint, preprocessor_header, save_checkpoint
from .config import RunConfig, load_run_config
from .data import Dataset, SplitIndices, load_csv, split
from .errors import ConfigError, TabAlignError, UsageError, check_seed
from .fewshot import HEADS, EvalReport, evaluate
from .preprocess import Preprocessor, encode, fit
from .pretrain import (
    DEFAULT_RATIOS,
    RATIO_RANDOM,
    EncoderStack,
    pretrain_ensemble,
)
from .synthetic import make_gaussian_dataset, write_dataset_files

# The config keys each command's flags override, in the section named like the command;
# key ``n_way`` is flag ``--n-way``.
_OVERRIDES = {"pretrain": ("out_dir", "seed"),
              "eval": ("n_way", "k_shot", "episodes", "seeds", "head")}


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write one report table: UTF-8, the default ``csv`` dialect, header first."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _accuracy_cells(report: EvalReport) -> list[str]:
    """The mean/std cells of a one-row-per-report table."""
    return [f"{report.mean_accuracy:.6f}", f"{report.std_accuracy:.6f}"]


def _ratio_tag(ratio: float | str) -> str:
    return RATIO_RANDOM if ratio == RATIO_RANDOM else f"ratio-{float(ratio):.2f}"


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file with the override flags given to the command applied over it."""
    flags = {k: v for k, v in vars(args).items() if k in _OVERRIDES.get(args.command, ())}
    return load_run_config(args.config, {args.command: flags})


def _load_dataset(cfg: RunConfig) -> Dataset:
    """The run's dataset, named by ``dataset_name``."""
    ds = load_csv(cfg.data_path, cfg.schema_path)
    ds.name = cfg.dataset_name
    return ds


def _train_ensemble(
    cfg: RunConfig, out_dir: Path
) -> tuple[list[EncoderStack], Preprocessor, Dataset, SplitIndices]:
    """Pretrain one ensemble on the run's split and write its checkpoints and report CSVs."""
    ds = _load_dataset(cfg)
    indices = split(ds, cfg.split_seed)
    pp = fit(ds, indices.train, normalize=cfg.normalize)
    x_train = encode(pp, ds, indices.train)
    x_valid = encode(pp, ds, indices.valid)
    stacks, reports = pretrain_ensemble(x_train, x_valid, pp, cfg.ratios, cfg.pretrain, cfg.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [f"member-{k:02d}-{_ratio_tag(stack.ratio)}.ckpt" for k, stack in enumerate(stacks)]
    for name, stack in zip(names, stacks):
        save_checkpoint(out_dir / name, stack, pp)

    members = list(enumerate(zip(stacks, reports)))
    _write_csv(
        out_dir / "pretrain_history.csv",
        ["member", "ratio", "epoch", "train_loss", "valid_loss"],
        [
            [k, stack.ratio, epoch, f"{tl:.6f}", f"{vl:.6f}"]
            for k, (stack, report) in members
            for epoch, (tl, vl) in enumerate(
                zip(report.train_losses, report.valid_losses), start=1
            )
        ],
    )
    _write_csv(
        out_dir / "pretrain_summary.csv",
        ["member", "ratio", "stopped_epoch", "best_epoch", "best_valid_loss", "wall_seconds"],
        [
            [k, stack.ratio, report.stopped_epoch, report.best_epoch,
             f"{report.best_validation_loss:.6f}", f"{report.wall_seconds:.2f}"]
            for k, (stack, report) in members
        ],
    )
    # Printed once every file is written, so a closed stdout leaves a whole run.
    for name, report in zip(names, reports):
        print(
            f"[pretrain] {name}: {report.stopped_epoch} epochs, "
            f"best valid loss {report.best_validation_loss:.4f} "
            f"(epoch {report.best_epoch})"
        )
    return stacks, pp, ds, indices


def _load_ensemble(ckpt_dir: Path) -> tuple[list[EncoderStack], Preprocessor]:
    paths = sorted(ckpt_dir.glob("*.ckpt"))
    if not paths:
        raise ConfigError(f"no .ckpt files under {ckpt_dir}")
    members = [load_checkpoint(path) for path in paths]
    for path, (_, pp) in zip(paths, members):
        if preprocessor_header(pp) != preprocessor_header(members[0][1]):
            raise ConfigError(f"{path.name} and {paths[0].name} have different preprocessors")
    return [stack for stack, _ in members], members[0][1]


def cmd_pretrain(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    _train_ensemble(cfg, cfg.out_dir)
    print(f"[pretrain] wrote checkpoints to {cfg.out_dir}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    members, pp = _load_ensemble(Path(args.checkpoint_dir))
    ds = _load_dataset(cfg)
    report = evaluate(members, pp, ds, split(ds, cfg.split_seed), cfg.protocol)
    out = Path(args.out) if args.out else Path(args.checkpoint_dir) / "eval.csv"
    out.parent.mkdir(parents=True, exist_ok=True)

    protocol = report.protocol
    meta = [report.dataset, protocol.n_way, protocol.k_shot, protocol.head]
    _write_csv(
        out,
        ["dataset", "n_way", "k_shot", "head", "seed", "episode", "accuracy"],
        [[*meta, seed, ep, f"{acc:.6f}"] for seed, ep, acc in report.rows],
    )
    _write_csv(
        out.with_name(out.stem + "_summary.csv"),
        ["dataset", "n_way", "k_shot", "head", "n_seeds", "n_episodes",
         "mean_accuracy", "std_accuracy"],
        [[*meta, protocol.n_seeds, protocol.n_episodes, *_accuracy_cells(report)]],
    )
    print(
        f"[eval] {protocol.head} {protocol.n_way}-way {protocol.k_shot}-shot: "
        f"accuracy {report.mean_accuracy:.4f} +/- {report.std_accuracy:.4f} "
        f"({len(report.rows)} episodes) -> {out}"
    )
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    out_dir = Path(args.out_dir) if args.out_dir else cfg.out_dir / f"ablate-{args.axis}"
    rows: list[tuple[str, EvalReport]] = []

    def pretrain_with(**changes) -> RunConfig:
        return dataclasses.replace(cfg, pretrain=dataclasses.replace(cfg.pretrain, **changes))

    # Each axis that retrains the whole ensemble under two settings.
    variants = {
        "conditioning": [
            ("conditioned", pretrain_with(conditioned=True)),
            ("unconditioned", pretrain_with(conditioned=False)),
        ],
        "imputation": [(v, pretrain_with(imputation=v)) for v in ("zero", "marginal")],
        "normalization": [
            ("normalized", dataclasses.replace(cfg, normalize=True)),
            ("unnormalized", dataclasses.replace(cfg, normalize=False)),
        ],
    }
    if args.axis in variants:
        for variant, variant_cfg in variants[args.axis]:
            stacks, pp, ds, indices = _train_ensemble(variant_cfg, out_dir / variant)
            rows.append((variant, evaluate(stacks, pp, ds, indices, cfg.protocol)))
    elif args.axis == "ratio":
        # The ratio axis always sweeps the standard grid plus the two
        # aggregate modes, regardless of the configured deployment ensemble.
        sweep = dataclasses.replace(cfg, ratios=list(DEFAULT_RATIOS) + [RATIO_RANDOM])
        stacks, pp, ds, indices = _train_ensemble(sweep, out_dir / "members")
        fixed = evaluate(stacks[:-1], pp, ds, indices, cfg.protocol)
        rows += [(_ratio_tag(s.ratio), m) for s, m in zip(stacks[:-1], fixed.members)]
        rows.append(("ensemble", fixed))
        rows.append((RATIO_RANDOM, evaluate(stacks[-1:], pp, ds, indices, cfg.protocol)))
    else:  # classifier
        stacks, pp, ds, indices = _train_ensemble(cfg, out_dir / "members")
        for head in HEADS:
            protocol = dataclasses.replace(cfg.protocol, head=head)
            rows.append((head, evaluate(stacks, pp, ds, indices, protocol)))

    out_dir.mkdir(parents=True, exist_ok=True)
    table = out_dir / f"ablation_{args.axis}.csv"
    _write_csv(
        table,
        ["axis", "variant", "n_way", "k_shot", "head", "mean_accuracy", "std_accuracy"],
        [
            [args.axis, variant, report.protocol.n_way, report.protocol.k_shot,
             report.protocol.head, *_accuracy_cells(report)]
            for variant, report in rows
        ],
    )
    for variant, report in rows:
        print(f"[ablate:{args.axis}] {variant}: {report.mean_accuracy:.4f}")
    print(f"[ablate] wrote {table}")
    return 0


def _grid(flag: str, text: str, kind: type) -> list:
    """The comma-separated entries of a grid flag, each parsed by ``kind``."""
    try:
        values = [kind(entry) for entry in text.split(",") if entry.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    if not values:
        raise ConfigError(f"empty {flag}")
    return values


def cmd_theory(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.subsets < 1:
        raise ConfigError(f"--subsets must be >= 1, got {args.subsets}")
    trials_per_subset = max(1, args.trials // args.subsets)
    delta_grid = _grid("--delta-sq-grid", args.delta_sq_grid, float)
    n_grid = _grid("--n-grid", args.n_grid, int)
    for n in n_grid:
        if not 1 <= n <= args.dim:
            raise ConfigError(f"--n-grid: subset size {n} outside [1, {args.dim}]")
    rng = np.random.default_rng(check_seed(args.seed, "--seed"))

    estimates = []
    for delta_sq in delta_grid:
        spec = theory_mod.GaussianPairSpec(args.dim, theory_mod.ramp_offset(args.dim, delta_sq))
        for n in n_grid:
            est = theory_mod.expected_mismatch(spec, n, args.subsets, trials_per_subset, rng)
            estimates.append(est)
            print(
                f"[theory] D={args.dim} delta_sq={delta_sq:g} n={n}: "
                f"{est.estimate:.4f} +/- {est.stderr:.4f}"
            )
    report = theory_mod.check_bound(estimates)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "theory_cells.csv",
        ["D", "n", "delta_sq", "n_subsets", "trials", "estimate", "stderr"],
        [
            [e.dim, e.subset_size, f"{e.delta_sq:.6g}", e.n_subsets, e.trials_per_subset,
             f"{e.estimate:.8f}", f"{e.stderr:.8f}"]
            for e in estimates
        ],
    )
    # An unbound c_star is infinite and formats as "inf".
    _write_csv(
        out_dir / "theory_bound.csv",
        ["c_star", "passed", "slope", "floor"],
        [[f"{report.c_star:.8f}", int(report.passed), f"{report.slope:.8f}",
          f"{report.floor:.3e}"]],
    )
    print(
        f"[theory] fitted C* = {report.c_star:.4f} (passed={report.passed}), "
        f"log-slope {report.slope:.4f}"
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    members, pp = _load_ensemble(Path(args.checkpoint_dir))
    ds = _load_dataset(cfg)
    if ds.labels is None:
        raise ConfigError("analysis needs a labeled dataset")

    # Prefer the member whose training ratio is closest to the requested one.
    def ratio_gap(stack: EncoderStack) -> float:
        return 1.0 if stack.ratio == RATIO_RANDOM else abs(float(stack.ratio) - args.ratio)

    stack = min(members, key=ratio_gap)
    x = encode(pp, ds, np.arange(ds.n_rows))
    rng = np.random.default_rng(check_seed(args.seed, "--seed"))
    curve = analysis_mod.neighbor_fraction_curve(
        x, ds.labels, pp, args.ratio, args.separations, args.k_max, rng
    )
    table = analysis_mod.latent_consistency(x, ds.labels, stack, k=10)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "neighbor_fraction.csv",
        ["k", "mean_fraction"],
        [[k, f"{value:.6f}"] for k, value in enumerate(curve, start=1)],
    )
    _write_csv(
        out_dir / "latent_consistency.csv",
        ["input_bucket", "mean_input_count", "mean_latent_count", "bucket_size"],
        [
            [b, f"{table.mean_input_count[b]:.6f}", f"{table.mean_latent_count[b]:.6f}",
             int(table.bucket_sizes[b])]
            for b in range(table.k + 1)
        ],
    )
    print(
        f"[analyze] same-class fraction at k=1: {curve[0]:.4f}; "
        f"mean same-class 10-NN count input {table.overall_input_mean:.2f} "
        f"-> latent {table.overall_latent_mean:.2f} (member {_ratio_tag(stack.ratio)})"
    )
    return 0


def cmd_gen_data(args: argparse.Namespace) -> int:
    ds = make_gaussian_dataset(
        n_rows=args.rows,
        d_raw=args.dims,
        n_classes=args.classes,
        separation=args.separation,
        seed=args.seed,
        n_categorical=args.categorical,
        cardinality=args.cardinality,
    )
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    data_path = prefix.with_suffix(".csv")
    schema_path = prefix.with_suffix(".schema.yaml")
    write_dataset_files(ds, data_path, schema_path)
    print(f"[gen-data] wrote {data_path} and {schema_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabalign",
        description="Augmentation-free self-supervised pretraining and "
        "few-shot evaluation for tabular data.",
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, **kwargs) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, allow_abbrev=False, **kwargs)
        for key in _OVERRIDES.get(name, ()):
            p.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS,
                           help=f"overrides [{name}] {key}")
        return p

    p = sub("gen-data", help="write a synthetic Gaussian dataset as CSV + schema")
    p.add_argument("--rows", type=int, default=2000)
    p.add_argument("--dims", type=int, default=32)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--separation", type=float, default=6.0)
    p.add_argument("--categorical", type=int, default=0)
    p.add_argument("--cardinality", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_gen_data)

    p = sub("pretrain", help="pretrain one stack per separation ratio")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub("eval", help="few-shot evaluation of a checkpoint directory")
    p.add_argument("checkpoint_dir")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub("ablate", help="run one ablation axis and emit per-variant accuracy")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--axis",
        required=True,
        choices=("conditioning", "imputation", "normalization", "ratio", "classifier"),
    )
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_ablate)

    p = sub("theory", help="Monte Carlo check of the mismatch bound")
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--delta-sq-grid", default="0,4,16,36")
    p.add_argument("--n-grid", default="5,10,25,50")
    p.add_argument("--trials", type=int, default=100000, help="pooled trials per cell")
    p.add_argument("--subsets", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="theory-out")
    p.set_defaults(func=cmd_theory)

    p = sub("analyze", help="neighborhood diagnostics CSVs")
    p.add_argument("checkpoint_dir")
    p.add_argument("--config", required=True)
    p.add_argument("--ratio", type=float, default=0.2)
    p.add_argument("--separations", type=int, default=100)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="analysis-out")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TabAlignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
