"""tabalign benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload pretrain-desk --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/``; BLAS
threads are pinned before numpy loads. With ``--trace 0`` the last stdout
line holds every end-to-end metric; with ``--trace 1`` it holds every
per-layer metric, taken from traced repetitions interleaved with untraced
ones. Outputs (checkpoints, digests, result JSON and span files) go to
``.perfbench-out/``. The exit code is 1 when an output or determinism check
fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("pretrain-desk", "pretrain-mixed-f32", "eval-fewshot")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 2


def pin_blas_threads() -> int:
    """Pin BLAS to min(nproc, 2) threads; must run before numpy is imported."""
    threads = min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def code_fingerprint() -> str:
    """sha256 over the program's and the benchmark's sources, so stored digests
    follow the code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "tabalign").glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts(blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": blas_threads,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_stored_digest(key: str, digest: dict) -> None:
    """Compare with the digest an earlier run of the same code and seed stored."""
    import workloads

    path = OUT / "digests" / f"{key}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        if stored != digest:
            raise workloads.CheckFailed(f"digest differs from an earlier run: {stored} != {digest}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digest, sort_keys=True))


def run(name: str, seed: int, seconds: float, trace: bool, blas_threads: int) -> tuple[dict, dict]:
    """Set up, repeat the timed part for ``seconds``, check, and summarise."""
    import numpy as np
    import layers
    import tracer as tracing
    import workloads

    workload = workloads.make_workloads(OUT)[name]
    tracer = tracing.Tracer() if trace else None
    traced = lambda label: tracer.segment(label) if tracer else nullcontext()  # noqa: E731

    paths = workload.generate(seed)
    setup_s, setup_trained = [], []

    def set_up():
        t0 = perf_counter()
        with traced("setup"):
            made = workload.setup(paths, seed)
        setup_s.append(perf_counter() - t0)
        if made.trained:
            setup_trained.append(made.trained)
        return made

    setup = set_up()  # every repetition runs on this first set-up
    warmup = [workload.rep(setup, seed) for _ in range(workload.warmup_reps)]
    reps, traced_reps = [], []
    measured = 0.0
    while True:
        # Further set-ups are timed between repetitions, so setup_s samples
        # the host across the whole run; their products are dropped at once.
        for _ in range(workload.setups_per_rep):
            set_up()
        is_traced = tracer is not None and (len(reps) + len(traced_reps)) % 2 == 1
        t0 = perf_counter()
        with traced("timed") if is_traced else nullcontext():
            rep = workload.rep(setup, seed)
        measured += perf_counter() - t0
        (traced_reps if is_traced else reps).append(rep)
        done = len(reps) + len(traced_reps)
        if done >= 2 + int(trace) and measured + 0.5 * measured / done >= seconds:
            break

    everything = warmup + reps + traced_reps
    trained = [r.trained for r in everything if r.trained] or setup_trained
    digest = {"params": trained[0].params_digest, "accuracies": everything[0].accuracy_digest}
    if len({t.params_digest for t in trained}) > 1:
        raise workloads.CheckFailed("checkpoint digests differ between runs of the same seed")
    if len({r.accuracy_digest for r in everything}) > 1:
        raise workloads.CheckFailed("episode accuracy digests differ between repetitions")
    key = f"{name}-s{seed}-t{blas_threads}-{code_fingerprint()[:16]}"
    check_stored_digest(key, digest)

    timed_trained = [r.trained for r in reps if r.trained] or setup_trained
    episode_ms = [ms for r in reps for ms in r.episode_ms]
    episode_tail, tail_q = layers.repetition_tail([r.episode_ms for r in reps])
    e2e = {
        "setup_s": (statistics.median(setup_s), "s"),
        "pretrain_rows_per_s": (statistics.median(t.rows_per_s for t in timed_trained), "rows/s"),
        "eval_s": (statistics.median(r.eval_s for r in reps), "s"),
        "episode_ms.p50": (statistics.median(episode_ms), "ms"),
        "episode_ms.tail": (episode_tail, "ms"),
        "accuracy": (everything[0].accuracy, "ratio"),
        "best_valid_loss": (trained[0].best_valid_loss, "nats"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_facts(blas_threads),
        "config": workload.facts(setup),
        "digest": digest,
        "repetitions": len(reps),
        "traced_repetitions": len(traced_reps),
        "setup_repetitions": len(setup_s),
        "episode_ms_samples": len(episode_ms),
        "episode_ms_samples_per_repetition": min(len(r.episode_ms) for r in reps),
        "episode_ms_tail_percentile": tail_q,
        "ops_attempted": sum(r.ops for r in everything),
    }
    if not trace:
        return e2e, info

    spans = tracer.arrays()
    timed = np.zeros(len(spans["name"]), dtype=bool)
    for label, first_span, last_span in tracer.segments:
        timed[first_span:last_span] |= label == "timed"
    metrics = layers.layer_metrics(
        tracer.names,
        spans,
        timed,
        epochs=sum(r.trained.epochs for r in traced_reps if r.trained),
        probe_cap=workloads.fewshot.ProbeConfig().max_epochs,
    )
    metrics["checkpoint.bytes"] = (trained[0].checkpoint_bytes, "bytes")
    untraced = statistics.median(r.wall_s for r in reps)
    overhead = statistics.median(r.wall_s for r in traced_reps) - untraced
    metrics["trace.overhead"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced, "ratio")
    tracer.save(OUT / f"spans-{name}.npz")
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "tabalign" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'tabalign'} is missing", file=sys.stderr)
        return 2

    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import tabalign

    if Path(tabalign.__file__).resolve().parent != SRC / "tabalign":
        print(f"perfbench: imported {tabalign.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    try:
        metrics, info = run(args.workload, args.seed, args.seconds, bool(args.trace), blas_threads)
    except workloads.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": True,
        "attempted": info["ops_attempted"],
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"info": info, **result}, indent=2, sort_keys=True)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
