"""The benchmark workloads: set-up, one timed repetition, and output checks.

Every input derives from the workload seed. Calls into tabalign go through
module attributes looked up at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import importlib
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

synthetic = importlib.import_module("tabalign.synthetic")
data = importlib.import_module("tabalign.data")
preprocess = importlib.import_module("tabalign.preprocess")
pretrain = importlib.import_module("tabalign.pretrain")
fewshot = importlib.import_module("tabalign.fewshot")
checkpoint = importlib.import_module("tabalign.checkpoint")
analysis = importlib.import_module("tabalign.analysis")

N_ROWS = 2000
D_RAW = 32
N_CLASSES = 4
SEPARATION = 6.0
CARDINALITY = 8
N_WAY = 4
PRETRAIN_EPOCHS = 3  # fixed length: patience equals max_epochs, so no early stop
PROTO_EPISODES = 100
# eval-fewshot: the frozen ensemble's recipe and the suite run per repetition.
EVAL_RATIOS = (0.2, 0.4)
EVAL_EPOCHS = 2
EVAL_BATCH = 1024
LINEAR_EPISODES = 6
FINETUNE_EPISODES = 1
CHEAP_EPISODES = 20
# Accuracy floors: chance is 1/N_WAY = 0.25; a trained encoder scores ~0.9.
MIN_PROTO_ACCURACY = 0.6
MIN_LINEAR_ACCURACY = 0.7


class CheckFailed(Exception):
    """An output or determinism check did not hold."""


@dataclass
class Prepared:
    ds: object
    split: object
    pp: object
    x_train: np.ndarray
    x_valid: np.ndarray


def write_dataset(out_dir: Path, tag: str, seed: int, n_categorical: int) -> tuple[Path, Path]:
    """Generate the seeded dataset as the CSV and schema files the program ingests."""
    ds = synthetic.make_gaussian_dataset(
        n_rows=N_ROWS,
        d_raw=D_RAW,
        n_classes=N_CLASSES,
        separation=SEPARATION,
        seed=seed,
        n_categorical=n_categorical,
        cardinality=CARDINALITY,
    )
    paths = out_dir / f"{tag}.csv", out_dir / f"{tag}.schema.yaml"
    synthetic.write_dataset_files(ds, *paths)
    return paths


def prepare(paths: tuple[Path, Path], seed: int) -> Prepared:
    """Load, split, fit and encode: what a user pays before pretraining."""
    ds = data.load_csv(*paths)
    split = data.split(ds, seed)
    pp = preprocess.fit(ds, split.train)
    return Prepared(
        ds,
        split,
        pp,
        preprocess.encode(pp, ds, split.train),
        preprocess.encode(pp, ds, split.valid),
    )


def steps_per_epoch(n_rows: int, batch_size: int) -> int:
    """Batches per epoch; a trailing batch of one row is skipped by pretrain."""
    full, rest = divmod(n_rows, batch_size)
    return full + (1 if rest >= 2 else 0)


def computed_step_flops(batch: int, encoded: int, cfg) -> dict[str, float]:
    """Operation counts of one full training step, from shapes alone."""
    h, e, p = cfg.hidden_dim, cfg.embed_dim, cfg.projector_dim
    proj_in = e + (encoded if cfg.conditioned else 0)
    encoder = 2.0 * batch * (encoded * h + h * e)
    projector = 2.0 * batch * (proj_in * h + h * p)
    return {
        "encoder_forward": encoder,
        "projector_forward": projector,
        "encoder_backward": 2.0 * encoder,
        "projector_backward": 2.0 * projector,
        "nn_pairing_3B2D": 3.0 * batch * batch * encoded,
        "infonce_4B2E": 4.0 * batch * batch * p,
    }


@dataclass
class Trained:
    """What one checked, fixed-length ensemble pretraining run measured."""

    rows_per_s: float
    best_valid_loss: float
    params_digest: str
    checkpoint_bytes: int
    epochs: int
    steps: int


def train(prep: Prepared, ratios: tuple, cfg, seed: int, out_dir: Path, tag: str):
    """Pretrain an ensemble, check its losses, and round-trip it through checkpoints.

    Returns the trained stacks, the members loaded back from their
    checkpoints (as ``tabalign eval`` sees them), and a :class:`Trained`
    whose params digest is the sha256 of all checkpoint bytes.
    """
    t0 = perf_counter()
    stacks, reports = pretrain.pretrain_ensemble(
        prep.x_train, prep.x_valid, prep.pp, list(ratios), cfg, seed
    )
    seconds = perf_counter() - t0

    bound = math.log(cfg.batch_size - 1) + 2.0 / cfg.temperature
    for k, r in enumerate(reports):
        if r.stopped_epoch != cfg.max_epochs:
            raise CheckFailed(f"member {k} stopped at epoch {r.stopped_epoch}, not {cfg.max_epochs}")
        losses = np.array(r.train_losses + r.valid_losses)
        if not np.all(np.isfinite(losses)) or losses.min() < 0.0 or losses.max() > bound:
            raise CheckFailed(f"member {k}: loss outside [0, {bound:.3f}]")

    digest = hashlib.sha256()
    members, checkpoint_bytes = [], 0
    for k, stack in enumerate(stacks):
        path = out_dir / f"{tag}-member{k}.ckpt"
        checkpoint.save_checkpoint(path, stack, prep.pp)
        blob = path.read_bytes()
        digest.update(blob)
        checkpoint_bytes += len(blob)
        member, _ = checkpoint.load_checkpoint(path)
        if member.ratio != stack.ratio or not all(
            np.array_equal(a.astype(np.float64), b)
            for a, b in zip(stack.parameters(), member.parameters())
        ):
            raise CheckFailed(f"member {k}: checkpoint round trip changed the stack")
        members.append(member)

    epochs = cfg.max_epochs * len(ratios)
    return stacks, members, Trained(
        rows_per_s=len(prep.x_train) * epochs / seconds,
        best_valid_loss=float(np.mean([r.best_validation_loss for r in reports])),
        params_digest=digest.hexdigest(),
        checkpoint_bytes=checkpoint_bytes,
        epochs=epochs,
        steps=steps_per_epoch(len(prep.x_train), cfg.batch_size) * epochs,
    )


def episode_seed(seed: int, j: int) -> int:
    return seed * 10_007 + j


def timed_episodes(members, prep: Prepared, seed: int, count: int, k_shot: int, head: str):
    """``count`` episodes, each its own ``evaluate`` call timed from outside."""
    ms, acc = [], []
    for j in range(count):
        protocol = fewshot.Protocol(
            n_way=N_WAY, k_shot=k_shot, n_episodes=1, head=head, base_seed=episode_seed(seed, j)
        )
        t0 = perf_counter()
        report = fewshot.evaluate(members, prep.pp, prep.ds, prep.split, protocol)
        ms.append((perf_counter() - t0) * 1e3)
        acc.extend(report.accuracies.tolist())
    return ms, acc


def digest_values(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


@dataclass
class Setup:
    """One set-up's product; ``members`` and ``trained`` when the set-up pretrains."""

    prep: Prepared
    members: list | None = None
    trained: Trained | None = None


@dataclass
class Rep:
    """One timed repetition; ``trained`` when the repetition pretrains."""

    wall_s: float
    eval_s: float
    episode_ms: list[float]
    accuracy: float
    accuracy_digest: str
    ops: int
    trained: Trained | None = None


@dataclass
class PretrainWorkload:
    """Fixed-length ensemble pretraining, then a cheap proto-cos 5-shot pass."""

    name: str
    n_categorical: int
    dtype: str
    batch_size: int
    ratios: tuple
    imputation: str
    out_dir: Path
    warmup_reps: int = 1
    setups_per_rep: int = 4  # ~60 ms each; ~40 per run

    def config(self):
        return pretrain.PretrainConfig(
            max_epochs=PRETRAIN_EPOCHS,
            patience=PRETRAIN_EPOCHS,
            batch_size=self.batch_size,
            dtype=self.dtype,
            imputation=self.imputation,
            conditioned=True,
        )

    def generate(self, seed: int) -> tuple[Path, Path]:
        return write_dataset(self.out_dir, self.name, seed, self.n_categorical)

    def setup(self, paths: tuple[Path, Path], seed: int) -> Setup:
        return Setup(prepare(paths, seed))

    def rep(self, setup: Setup, seed: int) -> Rep:
        prep = setup.prep
        t0 = perf_counter()
        stacks, _, trained = train(prep, self.ratios, self.config(), seed, self.out_dir, self.name)
        t1 = perf_counter()
        ms, acc = timed_episodes(stacks, prep, seed, PROTO_EPISODES, 5, "proto-cos")
        eval_s = perf_counter() - t1
        accuracy = float(np.mean(acc))
        if accuracy < MIN_PROTO_ACCURACY:
            raise CheckFailed(f"proto-cos accuracy {accuracy:.3f} < {MIN_PROTO_ACCURACY}")
        return Rep(
            wall_s=perf_counter() - t0,
            eval_s=eval_s,
            episode_ms=ms,
            accuracy=accuracy,
            accuracy_digest=digest_values(acc),
            ops=trained.steps + PROTO_EPISODES,
            trained=trained,
        )

    def facts(self, setup: Setup) -> dict:
        prep = setup.prep
        return {
            "rows": N_ROWS,
            "raw_columns": D_RAW,
            "categorical_columns": self.n_categorical,
            "encoded_width": int(prep.pp.encoded_dim),
            "train_rows": len(prep.x_train),
            "valid_rows": len(prep.x_valid),
            "dtype": self.dtype,
            "batch_size": self.batch_size,
            "ratios": list(self.ratios),
            "imputation": self.imputation,
            "epochs_per_member": PRETRAIN_EPOCHS,
            "proto_cos_4way_5shot_episodes_per_rep": PROTO_EPISODES,
            "computed_flops_per_full_step": computed_step_flops(
                self.batch_size, int(prep.pp.encoded_dim), self.config()
            ),
        }


@dataclass
class EvalWorkload:
    """Few-shot suite on a frozen ensemble pretrained, saved and reloaded in set-up."""

    name: str
    out_dir: Path
    warmup_reps: int = 0
    setups_per_rep: int = 2  # ~1.6 s each, as each pretrains; 5-7 per run

    def generate(self, seed: int) -> tuple[Path, Path]:
        return write_dataset(self.out_dir, self.name, seed, 0)

    def setup(self, paths: tuple[Path, Path], seed: int) -> Setup:
        prep = prepare(paths, seed)
        cfg = pretrain.PretrainConfig(
            max_epochs=EVAL_EPOCHS, patience=EVAL_EPOCHS, batch_size=EVAL_BATCH
        )
        _, members, trained = train(prep, EVAL_RATIOS, cfg, seed, self.out_dir, self.name)
        return Setup(prep, members, trained)

    def rep(self, setup: Setup, seed: int) -> Rep:
        prep, members = setup.prep, setup.members
        t0 = perf_counter()
        linear_ms, linear_acc = timed_episodes(members, prep, seed, LINEAR_EPISODES, 5, "linear")
        accs = list(linear_acc)
        for head, k_shot, n, raw in (
            ("finetune", 5, FINETUNE_EPISODES, False),
            ("proto-cos", 1, CHEAP_EPISODES, False),
            ("knn-eucl", 5, CHEAP_EPISODES, True),
        ):
            protocol = fewshot.Protocol(
                n_way=N_WAY, k_shot=k_shot, n_episodes=n, head=head, base_seed=seed
            )
            report = fewshot.evaluate(members, prep.pp, prep.ds, prep.split, protocol, raw_space=raw)
            if len(report.rows) != n:
                raise CheckFailed(f"{head}: {len(report.rows)} episodes, expected {n}")
            accs.extend(report.accuracies.tolist())
        x_test = preprocess.encode(prep.pp, prep.ds, prep.split.test)
        y_test = prep.ds.labels[prep.split.test]
        table = analysis.latent_consistency(x_test, y_test, members[0], k=10)
        curve = analysis.neighbor_fraction_curve(
            x_test, y_test, prep.pp, 0.2, 5, 10, np.random.default_rng(seed)
        )
        eval_s = perf_counter() - t0
        accuracy = float(np.mean(linear_acc))
        if accuracy < MIN_LINEAR_ACCURACY:
            raise CheckFailed(f"linear accuracy {accuracy:.3f} < {MIN_LINEAR_ACCURACY}")
        if not np.all((curve >= 0.0) & (curve <= 1.0)):
            raise CheckFailed("neighbour fraction curve outside [0, 1]")
        analysis_values = list(curve) + [table.overall_input_mean, table.overall_latent_mean]
        return Rep(
            wall_s=eval_s,
            eval_s=eval_s,
            episode_ms=linear_ms,
            accuracy=accuracy,
            accuracy_digest=digest_values(accs + analysis_values),
            ops=LINEAR_EPISODES + FINETUNE_EPISODES + 2 * CHEAP_EPISODES + 2,
        )

    def facts(self, setup: Setup) -> dict:
        return {
            "rows": N_ROWS,
            "raw_columns": D_RAW,
            "encoded_width": int(setup.prep.pp.encoded_dim),
            "test_rows": len(setup.prep.split.test),
            "setup_recipe": {
                "ratios": list(EVAL_RATIOS),
                "epochs_per_member": EVAL_EPOCHS,
                "batch_size": EVAL_BATCH,
                "dtype": "float64",
            },
            "suite_per_rep": {
                "linear_4way_5shot_episodes": LINEAR_EPISODES,
                "finetune_4way_5shot_episodes": FINETUNE_EPISODES,
                "proto_cos_4way_1shot_episodes": CHEAP_EPISODES,
                "raw_knn_eucl_4way_5shot_episodes": CHEAP_EPISODES,
                "latent_consistency_calls": 1,
                "neighbor_fraction_curve_calls": 1,
            },
            "probe_step_cap": fewshot.ProbeConfig().max_epochs,
        }


def make_workloads(out_dir: Path) -> dict:
    return {
        w.name: w
        for w in (
            PretrainWorkload(
                name="pretrain-desk",
                n_categorical=0,
                dtype="float64",
                batch_size=1024,
                ratios=(0.2, 0.4),
                imputation="zero",
                out_dir=out_dir,
            ),
            PretrainWorkload(
                name="pretrain-mixed-f32",
                n_categorical=12,
                dtype="float32",
                batch_size=256,
                ratios=(0.3, "random"),
                imputation="marginal",
                out_dir=out_dir,
            ),
            EvalWorkload(name="eval-fewshot", out_dir=out_dir),
        )
    }
