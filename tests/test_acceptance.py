"""Acceptance criteria, one printed PASS/FAIL line per check.

Run with ``pytest tests/test_acceptance.py -v -s``. The optional benchmark
check at the end only runs when an optdigits CSV is supplied via the
``OPTDIGITS_CSV`` environment variable (``OPTDIGITS_SCHEMA`` optionally names
its schema file; otherwise the last CSV column is treated as the label and
the rest as numerical).
"""

from __future__ import annotations

import csv
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from tabalign.analysis import latent_consistency
from tabalign.checkpoint import load_checkpoint
from tabalign.cli import main
from tabalign.data import CATEGORICAL, NUMERICAL, ColumnSchema, Dataset, load_csv, split
from tabalign.fewshot import Protocol, evaluate
from tabalign.nncore import infonce_loss
from tabalign.preprocess import encode, fit, make_views, sample_mask
from tabalign.pretrain import (
    PretrainConfig,
    composite_loss,
    init_stack,
    nearest_neighbor_indices,
    pretrain_ensemble,
)
from tabalign.synthetic import make_gaussian_dataset, write_dataset_files
from tabalign.theory import (
    GaussianPairSpec,
    check_bound,
    expected_mismatch,
    mean_subset_separation,
    ramp_offset,
)

from conftest import central_diff_grads, max_rel_error


def _verdict(tag: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{tag}: {detail}"


# -----------------------------------------------------------------------
# Criterion 1: composite gradient correctness
# -----------------------------------------------------------------------


def test_criterion_1_composite_gradient():
    """Analytic gradient of encoder -> conditioned projector -> loss vs
    central finite differences (h = 1e-6) at 10 random f64 points."""
    started = time.perf_counter()
    d, e, b = 12, 8, 8
    cfg = PretrainConfig(hidden_dim=10, embed_dim=e, projector_dim=e, temperature=0.1)
    worst = 0.0
    for point in range(10):
        rng = np.random.default_rng(1000 + point)
        stack = init_stack(d, 0.3, seed=point, cfg=cfg)
        x = rng.normal(size=(b, d))
        mask_vec = np.zeros(d)
        mask_vec[rng.choice(d, size=4, replace=False)] = 1.0
        x_f = x * (1.0 - mask_vec)
        pos = nearest_neighbor_indices(x * mask_vec)

        analytic = [np.zeros_like(p) for p in stack.parameters()]
        composite_loss(stack, x_f, mask_vec, pos, grads=analytic)
        numeric = central_diff_grads(
            lambda: composite_loss(stack, x_f, mask_vec, pos),
            stack.parameters(),
            h=1e-6,
        )
        for a, n in zip(analytic, numeric):
            worst = max(worst, max_rel_error(a, n))
    elapsed = time.perf_counter() - started
    _verdict(
        "1 composite-gradient",
        worst < 1e-4 and elapsed < 30.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------
# Criterion 2: closed-form loss values
# -----------------------------------------------------------------------


def test_criterion_2_loss_closed_forms():
    z2 = np.random.default_rng(0).normal(size=(2, 6))
    loss2, grad2 = infonce_loss(z2, [1, 0], temperature=0.1)
    z3 = np.tile(np.array([0.4, -0.9, 1.3]), (3, 1))
    loss3, _ = infonce_loss(z3, [2, 0, 1], temperature=0.1)
    ok = (
        abs(loss2) <= 1e-12
        and np.allclose(grad2, 0.0, atol=1e-15)
        and abs(loss3 - math.log(2.0)) <= 1e-10
    )
    _verdict(
        "2 loss-closed-forms",
        ok,
        f"B=2 loss {loss2:.2e}, B=3 loss-log2 {abs(loss3 - math.log(2.0)):.2e}",
    )


# -----------------------------------------------------------------------
# Criterion 3: view algebra over 10^4 random cases
# -----------------------------------------------------------------------


def test_criterion_3_view_algebra():
    rng = np.random.default_rng(42)
    cases = 0
    ok = True
    for _ in range(100):
        n_cols = int(rng.integers(2, 10))
        schema = []
        cols = []
        for j in range(n_cols):
            if rng.random() < 0.5:
                schema.append(ColumnSchema(f"f{j}", NUMERICAL))
                cols.append(rng.normal(size=100))
            else:
                card = int(rng.integers(2, 6))
                schema.append(ColumnSchema(f"f{j}", CATEGORICAL, card))
                col = rng.integers(card, size=100).astype(np.float64)
                col[:card] = np.arange(card)
                cols.append(col)
        ds = Dataset(schema=schema, rows=np.column_stack(cols), labels=None, n_classes=0)
        pp = fit(ds, np.arange(100))
        x = encode(pp, ds, np.arange(100))
        mask = sample_mask(pp, float(rng.uniform(0.05, 0.95)), rng)
        x_f, x_t = make_views(x, mask)

        ok = ok and np.allclose(x_f + x_t, x) and np.allclose(x_f * x_t, 0.0)
        for j, (start, stop) in enumerate(pp.ranges):
            ok = ok and bool(np.all(mask.encoded_mask[start:stop] == mask.raw_mask[j]))
        cases += 100
    _verdict("3 view-algebra", ok and cases == 10_000, f"{cases} cases")


# -----------------------------------------------------------------------
# Criterion 4: nearest-neighbor oracle
# -----------------------------------------------------------------------


def test_criterion_4_nearest_neighbor_oracle():
    rng = np.random.default_rng(7)
    agree = True
    for _ in range(100):
        b = int(rng.integers(2, 65))
        t = rng.normal(size=(b, int(rng.integers(1, 12))))
        got = nearest_neighbor_indices(t)
        for i in range(b):
            best, best_d = -1, np.inf
            for j in range(b):
                if j == i:
                    continue
                dist = float(np.sum((t[i] - t[j]) ** 2))
                if dist < best_d:
                    best, best_d = j, dist
            agree = agree and got[i] == best
    _verdict("4 nearest-neighbor-oracle", agree, "100 batches, B <= 64")


# -----------------------------------------------------------------------
# Criterion 5: mismatch-bound Monte Carlo
# -----------------------------------------------------------------------

THEORY_DIM = 50
THEORY_DELTAS = (0.0, 4.0, 16.0, 36.0)
THEORY_NS = (5, 10, 25, 50)


@pytest.fixture(scope="module")
def theory_sweep():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    cells = {}
    for delta_sq in THEORY_DELTAS:
        spec = GaussianPairSpec(THEORY_DIM, ramp_offset(THEORY_DIM, delta_sq))
        for n in THEORY_NS:
            cells[(delta_sq, n)] = expected_mismatch(spec, n, 100, 1000, rng)
    separations = {}
    for delta_sq in THEORY_DELTAS[1:]:
        spec = GaussianPairSpec(THEORY_DIM, ramp_offset(THEORY_DIM, delta_sq))
        for n in THEORY_NS:
            separations[(delta_sq, n)] = mean_subset_separation(spec, n, 2000, rng)
    return cells, separations, time.perf_counter() - started


def test_criterion_5a_symmetry(theory_sweep):
    cells, _, _ = theory_sweep
    ok = True
    worst = 0.0
    for n in THEORY_NS:
        est = cells[(0.0, n)]
        gap = abs(est.estimate - 0.5)
        worst = max(worst, gap)
        ok = ok and gap <= 3.0 * est.stderr
    _verdict("5a symmetry-at-zero", ok, f"max |p-0.5| = {worst:.4f}")


def test_criterion_5b_monotonicity(theory_sweep):
    cells, _, _ = theory_sweep
    ok = True
    for delta_sq in THEORY_DELTAS:
        for lo_n, hi_n in zip(THEORY_NS[:-1], THEORY_NS[1:]):
            a, b = cells[(delta_sq, lo_n)], cells[(delta_sq, hi_n)]
            ok = ok and b.estimate <= a.estimate + 3.0 * math.hypot(a.stderr, b.stderr)
    for n in THEORY_NS:
        for lo_d, hi_d in zip(THEORY_DELTAS[:-1], THEORY_DELTAS[1:]):
            a, b = cells[(lo_d, n)], cells[(hi_d, n)]
            ok = ok and b.estimate <= a.estimate + 3.0 * math.hypot(a.stderr, b.stderr)
    _verdict("5b monotonicity", ok, "non-increasing in n and delta^2 beyond 3 SE")


def test_criterion_5c_bound_fit(theory_sweep):
    cells, _, _ = theory_sweep
    report = check_bound(list(cells.values()))
    ok = report.c_star > 0.0
    for est in cells.values():
        x = est.subset_size * est.delta_sq / est.dim
        ok = ok and est.estimate <= 2.0 * math.exp(-report.c_star * x) + 3.0 * est.stderr + 1e-12
    _verdict(
        "5c exponential-bound",
        ok,
        f"C* = {report.c_star:.4f}, log-slope {report.slope:.4f}",
    )


def test_criterion_5d_subset_separation_linearity(theory_sweep):
    _, separations, _ = theory_sweep
    ok = True
    for (delta_sq, n), (mean, se) in separations.items():
        expected = n / THEORY_DIM * delta_sq
        ok = ok and abs(mean - expected) <= 3.0 * max(se, 1e-9)
    _verdict("5d subset-separation-linearity", ok, "E_S[d_S^2] = (n/D) d^2 within 3 SE")


def test_criterion_5_runtime(theory_sweep):
    _, _, elapsed = theory_sweep
    _verdict("5 runtime", elapsed < 300.0, f"{elapsed:.1f}s (< 300s)")


# -----------------------------------------------------------------------
# Criterion 6: desk-scale end-to-end on synthetic data
# -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_run():
    started = time.perf_counter()
    ds = make_gaussian_dataset(n_rows=2000, d_raw=32, n_classes=4, separation=6.0, seed=7)
    idx = split(ds, seed=7)
    pp = fit(ds, idx.train)
    x_train = encode(pp, ds, idx.train)
    x_valid = encode(pp, ds, idx.valid)
    cfg = PretrainConfig(max_epochs=300, patience=30)
    stacks, _ = pretrain_ensemble(x_train, x_valid, pp, [0.2, 0.4], cfg, master_seed=7)

    protocol = Protocol(n_way=4, k_shot=5, n_episodes=20, n_seeds=5, head="linear")
    report = evaluate(stacks, pp, ds, idx, protocol)
    ensemble_acc = report.mean_accuracy
    member_accs = [member.mean_accuracy for member in report.members]
    baseline_acc = evaluate(
        [], pp, ds, idx,
        Protocol(n_way=4, k_shot=5, n_episodes=20, n_seeds=5, head="knn-eucl"),
        raw_space=True,
    ).mean_accuracy

    x_all = encode(pp, ds, np.arange(ds.n_rows))
    table = latent_consistency(x_all, ds.labels, stacks[0], k=10)
    return {
        "ensemble": ensemble_acc,
        "members": member_accs,
        "baseline": baseline_acc,
        "consistency": table,
        "elapsed": time.perf_counter() - started,
    }


def test_criterion_6a_probe_beats_raw_baseline(desk_run):
    margin = desk_run["ensemble"] - desk_run["baseline"]
    _verdict(
        "6a probe-vs-raw-1nn",
        margin >= 0.05,
        f"probe {desk_run['ensemble']:.4f} vs 1-NN {desk_run['baseline']:.4f} "
        f"(margin {margin * 100:.1f} points)",
    )


def test_criterion_6b_ensemble_at_least_min_member(desk_run):
    worst = min(desk_run["members"])
    _verdict(
        "6b ensemble-vs-members",
        desk_run["ensemble"] >= worst,
        f"ensemble {desk_run['ensemble']:.4f}, members "
        + "/".join(f"{a:.4f}" for a in desk_run["members"]),
    )


def test_criterion_6c_latent_consistency(desk_run):
    table = desk_run["consistency"]
    _verdict(
        "6c latent-consistency",
        table.overall_latent_mean >= table.overall_input_mean,
        f"input {table.overall_input_mean:.3f} -> latent {table.overall_latent_mean:.3f}",
    )


def test_criterion_6_runtime(desk_run):
    _verdict("6 runtime", desk_run["elapsed"] < 900.0, f"{desk_run['elapsed']:.0f}s (< 900s)")


# -----------------------------------------------------------------------
# Criterion 7: optional benchmark-number check (user-supplied optdigits)
# -----------------------------------------------------------------------


def _locate_optdigits(tmp_path: Path) -> tuple[Path, Path] | None:
    csv_path = os.environ.get("OPTDIGITS_CSV", "")
    if not csv_path:
        bundled = Path(__file__).parent / "data" / "optdigits.csv"
        if not bundled.exists():
            return None
        csv_path = str(bundled)
    csv_path = Path(csv_path)
    schema_env = os.environ.get("OPTDIGITS_SCHEMA", "")
    if schema_env:
        return csv_path, Path(schema_env)
    with csv_path.open() as handle:
        header = next(csv.reader(handle))
    lines = ["columns:"]
    for name in header[:-1]:
        lines.append(f"  - name: {name}")
        lines.append("    kind: numerical")
    lines.append(f"  - name: {header[-1]}")
    lines.append("    label: true")
    schema_path = tmp_path / "optdigits.schema.yaml"
    schema_path.write_text("\n".join(lines) + "\n")
    return csv_path, schema_path


def test_criterion_7_optdigits_numbers(tmp_path):
    located = _locate_optdigits(tmp_path)
    if located is None:
        pytest.skip("optdigits not supplied (set OPTDIGITS_CSV to enable)")
    started = time.perf_counter()
    ds = load_csv(*located)
    cfg = PretrainConfig(max_epochs=200, patience=25)
    one_shot, five_shot = [], []
    for master_seed in range(3):
        idx = split(ds, seed=master_seed)
        pp = fit(ds, idx.train)
        x_train = encode(pp, ds, idx.train)
        x_valid = encode(pp, ds, idx.valid)
        stacks, _ = pretrain_ensemble(
            x_train, x_valid, pp, [0.1, 0.2, 0.3, 0.4, 0.5], cfg, master_seed
        )
        one_shot.append(
            evaluate(
                stacks, pp, ds, idx,
                Protocol(n_way=ds.n_classes, k_shot=1, n_episodes=20, n_seeds=1,
                         head="proto-cos", base_seed=master_seed),
            ).mean_accuracy
        )
        five_shot.append(
            evaluate(
                stacks, pp, ds, idx,
                Protocol(n_way=ds.n_classes, k_shot=5, n_episodes=20, n_seeds=1,
                         head="linear", base_seed=master_seed),
            ).mean_accuracy
        )
    acc1 = float(np.mean(one_shot)) * 100.0
    acc5 = float(np.mean(five_shot)) * 100.0
    elapsed = time.perf_counter() - started
    _verdict(
        "7 optdigits-numbers",
        abs(acc1 - 78.94) <= 5.0 and abs(acc5 - 90.11) <= 5.0 and elapsed < 3600.0,
        f"1-shot {acc1:.2f} (target 78.94 +/- 5), 5-shot {acc5:.2f} "
        f"(target 90.11 +/- 5), {elapsed:.0f}s",
    )


# -----------------------------------------------------------------------
# Criteria 8 and 9: CLI determinism and ablation plumbing
# -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-cli")
    ds = make_gaussian_dataset(n_rows=240, d_raw=8, n_classes=4, separation=6.0, seed=0)
    write_dataset_files(ds, root / "synth.csv", root / "synth.schema.yaml")
    (root / "run.ini").write_text(
        f"""\
[data]
data = {root / 'synth.csv'}
schema = {root / 'synth.schema.yaml'}
split_seed = 0

[pretrain]
out_dir = {root / 'run'}
ratios = 0.2, 0.4
seed = 3
max_epochs = 3
batch_size = 64
patience = 3
hidden_dim = 16
embed_dim = 8
projector_dim = 8

[eval]
k_shot = 1
episodes = 3
seeds = 2
n_query = 3
"""
    )
    return root


def test_criterion_8_determinism(cli_config):
    root = cli_config
    blobs = []
    for out in ("det-a", "det-b"):
        rc = main(
            ["pretrain", "--config", str(root / "run.ini"), "--out-dir", str(root / out)]
        )
        assert rc == 0
        blobs.append(
            [p.read_bytes() for p in sorted((root / out).glob("*.ckpt"))]
        )
    ckpt_ok = blobs[0] == blobs[1] and len(blobs[0]) == 2

    reports = []
    for name in ("acc-a.csv", "acc-b.csv"):
        rc = main(
            [
                "eval", str(root / "det-a"),
                "--config", str(root / "run.ini"),
                "--out", str(root / name),
            ]
        )
        assert rc == 0
        reports.append((root / name).read_bytes())
    eval_ok = reports[0] == reports[1]
    _verdict(
        "8 cli-determinism",
        ckpt_ok and eval_ok,
        f"checkpoints identical: {ckpt_ok}, eval CSVs identical: {eval_ok}",
    )


def test_criterion_9_ablation_plumbing(cli_config):
    root = cli_config
    rc = main(
        [
            "ablate", "--config", str(root / "run.ini"),
            "--axis", "conditioning", "--out-dir", str(root / "ab-cond"),
        ]
    )
    assert rc == 0
    on, _ = load_checkpoint(sorted((root / "ab-cond" / "conditioned").glob("*.ckpt"))[0])
    off, _ = load_checkpoint(sorted((root / "ab-cond" / "unconditioned").glob("*.ckpt"))[0])
    width_ok = on.projector[0].in_dim - off.projector[0].in_dim == on.encoded_dim

    rc = main(
        [
            "ablate", "--config", str(root / "run.ini"),
            "--axis", "ratio", "--out-dir", str(root / "ab-ratio"),
        ]
    )
    assert rc == 0
    with (root / "ab-ratio" / "ablation_ratio.csv").open() as handle:
        rows = list(csv.reader(handle))
    ratio_ok = len(rows) - 1 == 7
    _verdict(
        "9 ablation-plumbing",
        width_ok and ratio_ok,
        f"projector width gap = encoded dim: {width_ok}, ratio rows: {len(rows) - 1}",
    )
