"""Self-test of the benchmark tracer.

A renamed or bypassed tabalign function must fail here, loudly, instead of
silently dropping a per-layer metric from the benchmark.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layers import layer_metrics, repetition_tail, tail_percentile  # noqa: E402
from tracer import WRAPPED, Tracer, resolve  # noqa: E402


@pytest.mark.parametrize("name,module,attribute", WRAPPED)
def test_wrapped_name_resolves_to_a_callable(name, module, attribute):
    # The package attribute tabalign.pretrain is the pretrain() function, so
    # modules must come from importlib, never from attribute access.
    assert isinstance(importlib.import_module(module), ModuleType)
    assert callable(resolve(module, attribute)), name


def test_uninstall_restores_the_originals():
    originals = [resolve(module, attribute) for _, module, attribute in WRAPPED]
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
        wrapped = [resolve(module, attribute) for _, module, attribute in WRAPPED]
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    restored = [resolve(module, attribute) for _, module, attribute in WRAPPED]
    assert all(r is o for r, o in zip(restored, originals))


def _pipeline(tmp_path: Path) -> tuple[list[np.ndarray], list[float]]:
    """A miniature of every workload: both view builders, every head, both
    analyses and a checkpoint round trip."""
    ta = importlib.import_module("tabalign")
    fewshot = importlib.import_module("tabalign.fewshot")
    pretrain = importlib.import_module("tabalign.pretrain")
    checkpoint = importlib.import_module("tabalign.checkpoint")
    analysis = importlib.import_module("tabalign.analysis")

    ds = ta.make_gaussian_dataset(
        n_rows=240, d_raw=6, n_classes=4, separation=6.0, seed=3, n_categorical=2, cardinality=3
    )
    split = ta.split(ds, 3)
    pp = ta.fit(ds, split.train)
    x_train, x_valid = ta.encode(pp, ds, split.train), ta.encode(pp, ds, split.valid)
    params: list[np.ndarray] = []
    members = []
    for imputation, ratios in (("zero", [0.3]), ("marginal", ["random"])):
        cfg = ta.PretrainConfig(
            max_epochs=2, patience=2, batch_size=64, hidden_dim=16, embed_dim=8,
            projector_dim=8, imputation=imputation,
        )
        stacks, _ = pretrain.pretrain_ensemble(x_train, x_valid, pp, ratios, cfg, 5)
        path = tmp_path / f"{imputation}.ckpt"
        checkpoint.save_checkpoint(path, stacks[0], pp)
        member, _ = checkpoint.load_checkpoint(path, cfg)
        members.append(member)
        params.extend(member.parameters())

    accuracies: list[float] = []
    for head, k_shot, raw in (
        ("linear", 2, False),
        ("finetune", 2, False),
        ("proto-cos", 1, False),
        ("knn-eucl", 2, True),
        ("knn-cos", 2, False),
    ):
        protocol = fewshot.Protocol(
            n_way=4, k_shot=k_shot, n_episodes=1, n_query_per_class=3, head=head, base_seed=1
        )
        report = fewshot.evaluate(members, pp, ds, split, protocol, raw_space=raw)
        accuracies.extend(report.accuracies.tolist())
    x_test = ta.encode(pp, ds, split.test)
    y_test = ds.labels[split.test]
    table = analysis.latent_consistency(x_test, y_test, members[0], k=3)
    curve = analysis.neighbor_fraction_curve(
        x_test, y_test, pp, 0.3, 2, 3, np.random.default_rng(0)
    )
    return params, accuracies + curve.tolist() + [table.overall_latent_mean]


def test_tracing_records_every_layer_and_changes_no_bits(tmp_path):
    untraced = _pipeline(tmp_path)
    tracer = Tracer()
    with tracer.segment("timed"):
        traced = _pipeline(tmp_path)

    assert all(np.array_equal(a, b) for a, b in zip(untraced[0], traced[0]))
    assert untraced[1] == traced[1]

    spans = tracer.arrays()
    counts = np.bincount(spans["name"], minlength=len(tracer.names))
    silent = [name for name, n in zip(tracer.names, counts) if n == 0]
    assert not silent, f"wrapped layers that recorded no span: {silent}"
    assert np.all(spans["end"] >= spans["start"])
    assert np.all(spans["parent"] < np.arange(len(spans["parent"])))
    assert tracer.segments == [("timed", 0, len(spans["name"]))]

    timed = np.ones(len(spans["name"]), dtype=bool)
    metrics = layer_metrics(tracer.names, spans, timed, epochs=4, probe_cap=10_000)
    assert metrics["pretrain.train_step.calls"][0] > 0
    assert metrics["fewshot.linear_probe.steps_mean"][0] > 0
    assert metrics["fewshot.finetune.steps_mean"][0] > 0
    assert 0.0 < metrics["pretrain.nn_pairing.share_of_step"][0] < 1.0
    assert metrics["pretrain.nn_pairing.computed_gflop_per_call"][0] > 0.0


def test_tail_percentile_keeps_ten_samples_above():
    assert tail_percentile(12) == 50.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(300) == 90.0


def test_repetition_tail_is_the_median_of_per_repetition_tails():
    slow_phase = [10.0] * 20
    runs = [list(np.arange(1.0, 101.0)), list(np.arange(1.0, 101.0)), slow_phase * 5]
    value, q = repetition_tail(runs)
    assert q == 90.0
    assert value == pytest.approx(np.percentile(np.arange(1.0, 101.0), 90))
    assert repetition_tail([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]]) == (4.0, 50.0)
