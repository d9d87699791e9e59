"""Per-layer metrics computed from the spans of a traced run.

Shares are taken against the summed duration of ``pretrain.train_step``
spans; a layer counts toward a step when the step is one of its ancestors.
The pairing, forward, backward and InfoNCE figures cover calls inside
training steps only: validation has its own metric, and the few-shot heads'
forward passes sit inside the ``fewshot.*`` spans.
FLOP figures come from argument shapes (see ``tracer.WORK``) and are
labelled ``computed``: they are operation counts, not hardware counters.
"""

from __future__ import annotations

import numpy as np

# Layers whose time a training step is made of; what is left is its self time.
STEP_LAYERS = (
    "preprocess.sample_mask",
    "preprocess.make_views",
    "preprocess.make_views_marginal",
    "pretrain.nn_pairing",
    "nncore.mlp_forward",
    "nncore.infonce_loss",
    "nncore.mlp_backward",
    "nncore.adam_step.pretrain",
)
VIEW_LAYERS = STEP_LAYERS[:3]


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples above it, kept within [50, 90].

    The cap keeps the tail off the rare multi-millisecond stalls a shared
    host adds to short calls, which would otherwise decide a p99.
    """
    if n <= 20:
        return 50.0
    return float(min(90.0, np.floor(100.0 * (n - 10) / n)))


def repetition_tail(per_repetition: list[list[float]]) -> tuple[float, float]:
    """Median over repetitions of each repetition's tail; returns (value, percentile).

    The host's speed shifts in phases of about a second, so a tail pooled
    over a whole run measures how many samples fell into slow phases.
    Repetitions of twenty samples or fewer have no tail above their median,
    so their samples are pooled instead.
    """
    q = tail_percentile(min(len(samples) for samples in per_repetition))
    if q == 50.0:
        pooled = np.concatenate(per_repetition)
        q = tail_percentile(len(pooled))
        return float(np.percentile(pooled, q)), q
    tails = [float(np.percentile(samples, q)) for samples in per_repetition]
    return float(np.median(tails)), q


def under(parent: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Which spans have a span with ``hit`` set at or above them.

    Parents are always recorded before their children, so one forward pass
    resolves every chain.
    """
    out = hit.copy()
    for i in np.flatnonzero(parent >= 0):
        out[i] |= out[parent[i]]
    return out


class SpanTable:
    """Spans restricted to a subset, with per-name lookups."""

    def __init__(self, names: list[str], spans: dict[str, np.ndarray], keep: np.ndarray):
        self.ids = {name: i for i, name in enumerate(names)}
        self.keep = keep
        self.name = spans["name"]
        self.parent = spans["parent"]
        self.dur = spans["end"] - spans["start"]
        self.rows = spans["rows"]
        self.flops = spans["flops"]

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.ids[n] for n in names]
        return self.keep & np.isin(self.name, ids)


def _per_call(table: SpanTable, m: np.ndarray) -> float:
    return float(table.dur[m].sum() * 1e3 / m.sum()) if m.any() else 0.0


def _probe_metrics(table: SpanTable, probe: str, cap: int, out: dict) -> None:
    """Time and Adam-step accounting per probe span."""
    probes = table.mask(probe)
    steps = table.mask("nncore.adam_step.fewshot") & (table.parent >= 0)
    per_probe = np.bincount(table.parent[steps], minlength=len(table.name))[probes]
    out[f"{probe}.calls"] = (int(probes.sum()), "count")
    out[f"{probe}.ms_per_probe"] = (_per_call(table, probes), "ms")
    out[f"{probe}.steps_mean"] = (float(per_probe.mean()) if len(per_probe) else 0.0, "count")
    out[f"{probe}.steps_max"] = (int(per_probe.max()) if len(per_probe) else 0, "count")
    out[f"{probe}.capped_share"] = (
        float((per_probe >= cap).mean()) if len(per_probe) else 0.0,
        "ratio",
    )


def layer_metrics(
    names: list[str],
    spans: dict[str, np.ndarray],
    timed: np.ndarray,
    epochs: int,
    probe_cap: int,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``timed`` selects the spans of the traced timed repetitions; checkpoint
    figures use every span, because eval-fewshot saves and loads in set-up.
    ``epochs`` is the number of pretraining epochs the timed spans cover.
    """
    t = SpanTable(names, spans, timed)
    every = SpanTable(names, spans, np.ones_like(timed))
    out: dict[str, tuple[float, str]] = {}

    steps = t.mask("pretrain.train_step")
    step_total = float(t.dur[steps].sum())
    in_step = under(t.parent, steps)

    def share(m: np.ndarray) -> float:
        return float(t.dur[m & in_step].sum() / step_total) if step_total else 0.0

    step_ms = t.dur[steps] * 1e3
    self_ms = (step_total - float(t.dur[t.mask(*STEP_LAYERS) & in_step].sum())) * 1e3
    out["pretrain.train_step.calls"] = (int(steps.sum()), "count")
    out["pretrain.train_step.ms_p50"] = (float(np.median(step_ms)) if len(step_ms) else 0.0, "ms")
    out["pretrain.train_step.ms_tail"] = (
        float(np.percentile(step_ms, tail_percentile(len(step_ms)))) if len(step_ms) else 0.0,
        "ms",
    )
    out["pretrain.train_step.self_ms"] = (float(self_ms / len(step_ms)) if len(step_ms) else 0.0, "ms")
    out["pretrain.train_step.self_share"] = (
        float(self_ms / (step_total * 1e3)) if step_total else 0.0,
        "ratio",
    )

    pretrains = t.mask("pretrain.pretrain")
    validate = t.mask("pretrain.alignment_loss") & np.isin(t.parent, np.flatnonzero(pretrains))
    child_of_pretrain = np.isin(t.parent, np.flatnonzero(pretrains)) & t.keep
    epoch_self = t.dur[pretrains].sum() - t.dur[child_of_pretrain].sum()
    out["pretrain.validate.ms_per_epoch"] = (
        float(t.dur[validate].sum() * 1e3 / epochs) if epochs else 0.0,
        "ms",
    )
    out["pretrain.epoch.self_ms"] = (float(epoch_self * 1e3 / epochs) if epochs else 0.0, "ms")

    views = t.mask(*VIEW_LAYERS)
    masks = t.mask("preprocess.sample_mask")
    out["preprocess.views.calls"] = (int(masks.sum()), "count")
    out["preprocess.views.ms_per_call"] = (
        float(t.dur[views].sum() * 1e3 / masks.sum()) if masks.any() else 0.0,
        "ms",
    )
    out["preprocess.views.share_of_step"] = (share(views), "ratio")

    for layer in (
        "pretrain.nn_pairing",
        "nncore.mlp_forward",
        "nncore.mlp_backward",
        "nncore.infonce_loss",
    ):
        m = t.mask(layer) & in_step
        seconds = float(t.dur[m].sum())
        out[f"{layer}.calls"] = (int(m.sum()), "count")
        out[f"{layer}.ms_per_call"] = (_per_call(t, m), "ms")
        out[f"{layer}.share_of_step"] = (share(m), "ratio")
        out[f"{layer}.computed_gflop_per_call"] = (
            float(t.flops[m].mean() / 1e9) if m.any() else 0.0,
            "GFLOP",
        )
        out[f"{layer}.computed_gflop_per_s"] = (
            float(t.flops[m].sum() / 1e9 / seconds) if seconds else 0.0,
            "GFLOP/s",
        )
    pairing = t.mask("pretrain.nn_pairing") & in_step
    out["pretrain.nn_pairing.rows_per_call"] = (
        float(t.rows[pairing].mean()) if pairing.any() else 0.0,
        "count",
    )

    for caller in ("pretrain", "fewshot"):
        m = t.mask(f"nncore.adam_step.{caller}")
        out[f"nncore.adam_step.{caller}.calls"] = (int(m.sum()), "count")
        out[f"nncore.adam_step.{caller}.ms_per_call"] = (_per_call(t, m), "ms")
    out["nncore.adam_step.pretrain.share_of_step"] = (
        share(t.mask("nncore.adam_step.pretrain")),
        "ratio",
    )

    _probe_metrics(t, "fewshot.linear_probe", probe_cap, out)
    _probe_metrics(t, "fewshot.finetune", probe_cap, out)
    for layer in (
        "fewshot.embed",
        "fewshot.knn",
        "fewshot.prototype",
        "data.sample_episode",
        "preprocess.encode",
    ):
        m = t.mask(layer)
        out[f"{layer}.calls"] = (int(m.sum()), "count")
        out[f"{layer}.ms_per_call"] = (_per_call(t, m), "ms")

    for layer in ("checkpoint.save", "checkpoint.load"):
        out[f"{layer}.ms"] = (_per_call(every, every.mask(layer)), "ms")
    for layer in ("analysis.latent_consistency", "analysis.neighbor_fraction_curve"):
        out[f"{layer}.ms"] = (_per_call(t, t.mask(layer)), "ms")
    return out
