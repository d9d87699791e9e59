"""Command-line interface.

Subcommands: gen-data, pretrain, eval, ablate, theory, analyze. Exit codes:
0 success, 1 runtime failure, 2 usage or configuration error. All randomness
flows from the configured seeds, so reruns with identical inputs reproduce
identical outputs.
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
from .errors import (
    ConfigError,
    FormatError,
    ParseError,
    SchemaError,
    TabAlignError,
)
from .fewshot import (
    HEADS,
    EvalReport,
    evaluate,
    write_report_csv,
    write_summary_csv,
)
from .preprocess import Preprocessor, encode, fit
from .pretrain import (
    DEFAULT_RATIOS,
    RATIO_RANDOM,
    EncoderStack,
    PretrainReport,
    pretrain_ensemble,
)
from .synthetic import make_gaussian_dataset, write_dataset_files

_USAGE_ERRORS = (ConfigError, SchemaError, FormatError, ParseError, FileNotFoundError)


def _ratio_tag(ratio: float | str) -> str:
    return RATIO_RANDOM if ratio == RATIO_RANDOM else f"ratio-{float(ratio):.2f}"


def _prepare(cfg: RunConfig) -> tuple[Dataset, SplitIndices, Preprocessor, np.ndarray, np.ndarray]:
    """Load, split, fit, and encode the train/valid partitions."""
    ds = load_csv(cfg.data_path, cfg.schema_path)
    ds.name = cfg.dataset_name or ds.name
    indices = split(ds, cfg.split_seed)
    pp = fit(ds, indices.train, normalize=cfg.normalize)
    x_train = encode(pp, ds, indices.train)
    x_valid = encode(pp, ds, indices.valid)
    return ds, indices, pp, x_train, x_valid


def _train_ensemble(
    cfg: RunConfig, out_dir: Path
) -> tuple[list[EncoderStack], list[PretrainReport], Preprocessor, Dataset, SplitIndices]:
    """Pretrain one ensemble and write its checkpoints and report CSVs."""
    ds, indices, pp, x_train, x_valid = _prepare(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    stacks, reports = pretrain_ensemble(x_train, x_valid, pp, cfg.ratios, cfg.pretrain, cfg.seed)
    for k, (stack, report) in enumerate(zip(stacks, reports)):
        name = f"member-{k:02d}-{_ratio_tag(stack.ratio)}.ckpt"
        save_checkpoint(out_dir / name, stack, pp)
        print(
            f"[pretrain] {name}: {report.stopped_epoch} epochs, "
            f"best valid loss {report.best_validation_loss:.4f} "
            f"(epoch {report.best_epoch})"
        )

    with (out_dir / "pretrain_history.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["member", "ratio", "epoch", "train_loss", "valid_loss"])
        for k, (stack, report) in enumerate(zip(stacks, reports)):
            for epoch, (tl, vl) in enumerate(
                zip(report.train_losses, report.valid_losses), start=1
            ):
                writer.writerow([k, stack.ratio, epoch, f"{tl:.6f}", f"{vl:.6f}"])
    with (out_dir / "pretrain_summary.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["member", "ratio", "stopped_epoch", "best_epoch", "best_valid_loss", "wall_seconds"]
        )
        for k, (stack, report) in enumerate(zip(stacks, reports)):
            writer.writerow(
                [
                    k,
                    stack.ratio,
                    report.stopped_epoch,
                    report.best_epoch,
                    f"{report.best_validation_loss:.6f}",
                    f"{report.wall_seconds:.2f}",
                ]
            )
    return stacks, reports, pp, ds, indices


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
    cfg = load_run_config(args.config)
    if args.out_dir:
        cfg.out_dir = Path(args.out_dir)
    if args.seed is not None:
        cfg.seed = args.seed
    _train_ensemble(cfg, cfg.out_dir)
    print(f"[pretrain] wrote checkpoints to {cfg.out_dir}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    flags = {
        "n_way": args.n_way,
        "k_shot": args.k_shot,
        "n_episodes": args.episodes,
        "n_seeds": args.seeds,
        "head": args.head,
    }
    members, pp = _load_ensemble(Path(args.checkpoint_dir))
    ds = load_csv(cfg.data_path, cfg.schema_path)
    ds.name = cfg.dataset_name or ds.name
    indices = split(ds, cfg.split_seed)
    changes = {k: v for k, v in flags.items() if v is not None}
    report = evaluate(members, pp, ds, indices, dataclasses.replace(cfg.protocol, **changes))

    out = Path(args.out) if args.out else Path(args.checkpoint_dir) / "eval.csv"
    write_report_csv(report, out)
    write_summary_csv([report], out.with_name(out.stem + "_summary.csv"))
    protocol = report.protocol
    print(
        f"[eval] {protocol.head} {protocol.n_way}-way {protocol.k_shot}-shot: "
        f"accuracy {report.mean_accuracy:.4f} +/- {report.std_accuracy:.4f} "
        f"({len(report.rows)} episodes) -> {out}"
    )
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    out_dir = Path(args.out_dir) if args.out_dir else cfg.out_dir / f"ablate-{args.axis}"
    out_dir.mkdir(parents=True, exist_ok=True)
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
            stacks, _, pp, ds, indices = _train_ensemble(variant_cfg, out_dir / variant)
            rows.append((variant, evaluate(stacks, pp, ds, indices, cfg.protocol)))
    elif args.axis == "ratio":
        # The ratio axis always sweeps the standard grid plus the two
        # aggregate modes, regardless of the configured deployment ensemble.
        sweep = dataclasses.replace(cfg, ratios=list(DEFAULT_RATIOS) + [RATIO_RANDOM])
        stacks, _, pp, ds, indices = _train_ensemble(sweep, out_dir / "members")
        fixed, random_member = stacks[:-1], stacks[-1]
        for stack in fixed:
            rows.append(
                (
                    _ratio_tag(stack.ratio),
                    evaluate([stack], pp, ds, indices, cfg.protocol),
                )
            )
        rows.append(("ensemble", evaluate(fixed, pp, ds, indices, cfg.protocol)))
        rows.append(
            (RATIO_RANDOM, evaluate([random_member], pp, ds, indices, cfg.protocol))
        )
    elif args.axis == "classifier":
        stacks, _, pp, ds, indices = _train_ensemble(cfg, out_dir / "members")
        for head in ("linear", "proto-eucl", "proto-cos", "knn-eucl", "knn-cos", "finetune"):
            protocol = dataclasses.replace(cfg.protocol, head=head)
            rows.append((head, evaluate(stacks, pp, ds, indices, protocol)))
    else:
        raise ConfigError(f"unknown ablation axis {args.axis!r}")

    table = out_dir / f"ablation_{args.axis}.csv"
    with table.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["axis", "variant", "n_way", "k_shot", "head", "mean_accuracy", "std_accuracy"]
        )
        for variant, report in rows:
            writer.writerow(
                [
                    args.axis,
                    variant,
                    report.protocol.n_way,
                    report.protocol.k_shot,
                    report.protocol.head,
                    f"{report.mean_accuracy:.6f}",
                    f"{report.std_accuracy:.6f}",
                ]
            )
    for variant, report in rows:
        print(f"[ablate:{args.axis}] {variant}: {report.mean_accuracy:.4f}")
    print(f"[ablate] wrote {table}")
    return 0


def cmd_theory(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.subsets < 1:
        raise ConfigError(f"--subsets must be >= 1, got {args.subsets}")
    trials_per_subset = max(1, args.trials // args.subsets)
    delta_grid = [float(t) for t in args.delta_sq_grid.split(",") if t.strip()]
    n_grid = [int(t) for t in args.n_grid.split(",") if t.strip()]
    if not delta_grid or not n_grid:
        raise ConfigError("empty --delta-sq-grid or --n-grid")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
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
    theory_mod.write_estimates_csv(estimates, out_dir / "theory_cells.csv")
    theory_mod.write_bound_csv(report, out_dir / "theory_bound.csv")
    print(
        f"[theory] fitted C* = {report.c_star:.4f} (passed={report.passed}), "
        f"log-slope {report.slope:.4f}"
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    members, pp = _load_ensemble(Path(args.checkpoint_dir))
    ds = load_csv(cfg.data_path, cfg.schema_path)
    if ds.labels is None:
        raise ConfigError("analysis needs a labeled dataset")

    # Prefer the member whose training ratio is closest to the requested one.
    def ratio_gap(stack: EncoderStack) -> float:
        return 1.0 if stack.ratio == RATIO_RANDOM else abs(float(stack.ratio) - args.ratio)

    stack = min(members, key=ratio_gap)
    x = encode(pp, ds, np.arange(ds.n_rows))
    rng = np.random.default_rng(args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    curve = analysis_mod.neighbor_fraction_curve(
        x, ds.labels, pp, args.ratio, args.separations, args.k_max, rng
    )
    analysis_mod.write_curve_csv(curve, out_dir / "neighbor_fraction.csv")
    table = analysis_mod.latent_consistency(x, ds.labels, stack, k=10)
    analysis_mod.write_consistency_csv(table, out_dir / "latent_consistency.csv")
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
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic Gaussian dataset as CSV + schema")
    p.add_argument("--rows", type=int, default=2000)
    p.add_argument("--dims", type=int, default=32)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--separation", type=float, default=6.0)
    p.add_argument("--categorical", type=int, default=0)
    p.add_argument("--cardinality", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="pretrain one stack per separation ratio")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("eval", help="few-shot evaluation of a checkpoint directory")
    p.add_argument("checkpoint_dir")
    p.add_argument("--config", required=True)
    p.add_argument("--n-way", type=int)
    p.add_argument("--k-shot", type=int)
    p.add_argument("--episodes", type=int)
    p.add_argument("--seeds", type=int)
    p.add_argument("--head", choices=("auto",) + HEADS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run one ablation axis and emit per-variant accuracy")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--axis",
        required=True,
        choices=("conditioning", "imputation", "normalization", "ratio", "classifier"),
    )
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("theory", help="Monte Carlo check of the mismatch bound")
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--delta-sq-grid", default="0,4,16,36")
    p.add_argument("--n-grid", default="5,10,25,50")
    p.add_argument("--trials", type=int, default=100000, help="pooled trials per cell")
    p.add_argument("--subsets", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="theory-out")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("analyze", help="neighborhood diagnostics CSVs")
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
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TabAlignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
