"""Few-shot heads, ensemble fusion, and the episode evaluation loop."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from tabalign.data import split
from tabalign.errors import DimensionError, HeadError
from tabalign.fewshot import (
    EmbeddingSet,
    ProbeConfig,
    Protocol,
    embed,
    ensemble_predict,
    evaluate,
    finetune_probs,
    knn_probs,
    linear_probe_probs,
    prototype_probs,
    write_report_csv,
    write_summary_csv,
)
from tabalign.fewshot import _cross_entropy
from tabalign.preprocess import encode, fit
from tabalign.pretrain import PretrainConfig, init_stack
from tabalign.synthetic import make_gaussian_dataset

from conftest import central_diff_grads, max_rel_error

TINY_CFG = PretrainConfig(hidden_dim=16, embed_dim=8, projector_dim=8)
FAST_PROBE = ProbeConfig(max_epochs=800, seed=0)


def _labeled(vectors, labels):
    return EmbeddingSet(np.asarray(vectors, dtype=np.float64), np.asarray(labels))


def _predict(head_probs, *args, **kwargs):
    """Labels from a ``*_probs`` head: the argmax class, ties to the lowest."""
    classes, probs = head_probs(*args, **kwargs)
    return classes[np.argmax(probs, axis=1)]


@pytest.fixture(scope="module")
def eval_setup():
    ds = make_gaussian_dataset(n_rows=700, d_raw=12, n_classes=4, separation=6.0, seed=1)
    idx = split(ds, seed=0)
    pp = fit(ds, idx.train)
    stack = init_stack(pp.encoded_dim, 0.2, seed=0, cfg=TINY_CFG)
    return ds, idx, pp, stack


class TestEmbed:
    def test_zero_weight_encoder_collapses_to_bias_path(self):
        stack = init_stack(6, 0.2, seed=0, cfg=TINY_CFG)
        for layer in stack.encoder:
            layer.weight[...] = 0.0
        x = np.random.default_rng(0).normal(size=(5, 6))
        out = embed(stack, x).vectors
        expected = np.maximum(stack.encoder[0].bias, 0.0) @ stack.encoder[1].weight.T
        expected = expected + stack.encoder[1].bias
        np.testing.assert_allclose(out, np.tile(expected, (5, 1)))

    def test_deterministic(self):
        stack = init_stack(6, 0.2, seed=1, cfg=TINY_CFG)
        x = np.random.default_rng(1).normal(size=(10, 6))
        a = embed(stack, x).vectors
        b = embed(stack, x).vectors
        assert a.tobytes() == b.tobytes()

    def test_dimension_mismatch(self):
        stack = init_stack(6, 0.2, seed=0, cfg=TINY_CFG)
        with pytest.raises(DimensionError):
            embed(stack, np.ones((3, 7)))

    def test_non_finite_embedding_rejected(self):
        stack = init_stack(6, 0.2, seed=0, cfg=TINY_CFG)
        stack.encoder[0].weight[0, 0] = np.nan
        with pytest.raises(HeadError, match="non-finite"):
            embed(stack, np.ones((3, 6)))

    def test_finite_on_many_rows_after_training(self, eval_setup):
        from tabalign.pretrain import PretrainConfig as PC
        from tabalign.pretrain import pretrain

        ds, idx, pp, _ = eval_setup
        cfg = PC(max_epochs=3, batch_size=128, hidden_dim=16, embed_dim=8, projector_dim=8)
        stack = init_stack(pp.encoded_dim, 0.2, seed=9, cfg=cfg)
        pretrain(stack, encode(pp, ds, idx.train), encode(pp, ds, idx.valid), pp, cfg)
        rows = np.random.default_rng(0).normal(size=(1000, pp.encoded_dim))
        vectors = embed(stack, rows).vectors
        assert np.all(np.isfinite(np.linalg.norm(vectors, axis=1)))


class TestPrototype:
    def test_query_equal_to_support_vector(self):
        sup = _labeled([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0, 1, 2])
        qry = EmbeddingSet(np.array([[0.0, 1.0]]))
        assert _predict(prototype_probs, sup, qry)[0] == 1

    def test_two_class_example(self):
        sup = _labeled([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        qry = EmbeddingSet(np.array([[0.9, 0.1]]))
        assert _predict(prototype_probs, sup, qry)[0] == 0

    def test_matches_exhaustive_similarity_table(self):
        """Independent per-query cosine table, 3 classes, 5 shots."""
        rng = np.random.default_rng(4)
        labels = np.repeat([0, 1, 2], 5)
        sup = _labeled(rng.normal(size=(15, 6)), labels)
        qry = EmbeddingSet(rng.normal(size=(20, 6)))
        preds = _predict(prototype_probs, sup, qry)

        protos = [sup.vectors[labels == c].mean(axis=0) for c in (0, 1, 2)]
        for i in range(20):
            sims = []
            for p in protos:
                q = qry.vectors[i]
                sims.append(q @ p / (np.linalg.norm(q) * np.linalg.norm(p)))
            assert preds[i] == int(np.argmax(sims))

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        sup = _labeled(rng.normal(size=(12, 4)), np.repeat([0, 1, 2], 4))
        qry = EmbeddingSet(rng.normal(size=(30, 4)))
        base = _predict(prototype_probs, sup, qry)
        for c in (0.001, 7.5, 2048.0):
            scaled_sup = _labeled(sup.vectors * c, sup.labels)
            scaled_qry = EmbeddingSet(qry.vectors * c)
            scaled = _predict(prototype_probs, scaled_sup, scaled_qry)
            np.testing.assert_array_equal(scaled, base)

    def test_euclidean_variant_differs_from_cosine_when_it_should(self):
        sup = _labeled([[10.0, 0.0], [0.0, 1.0]], [0, 1])
        qry = EmbeddingSet(np.array([[2.0, 0.5]]))
        assert _predict(prototype_probs, sup, qry, metric="cosine")[0] == 0
        assert _predict(prototype_probs, sup, qry, metric="euclidean")[0] == 1

    def test_unlabeled_support_rejected(self):
        with pytest.raises(HeadError):
            prototype_probs(EmbeddingSet(np.ones((2, 2))), EmbeddingSet(np.ones((1, 2))))


class TestLinearProbe:
    def test_separable_support_is_fit_perfectly(self):
        rng = np.random.default_rng(0)
        sup = _labeled(
            np.vstack([rng.normal(-3.0, 0.3, size=(10, 4)), rng.normal(3.0, 0.3, size=(10, 4))]),
            np.repeat([0, 1], 10),
        )
        preds = _predict(linear_probe_probs, sup, sup, FAST_PROBE)
        np.testing.assert_array_equal(preds, sup.labels)

    def test_support_duplicated_as_query(self):
        rng = np.random.default_rng(2)
        sup = _labeled(rng.normal(size=(10, 4)), np.repeat([0, 1], 5))
        qry = EmbeddingSet(sup.vectors.copy())
        preds_q = _predict(linear_probe_probs, sup, qry, FAST_PROBE)
        preds_s = _predict(linear_probe_probs, sup, sup, FAST_PROBE)
        np.testing.assert_array_equal(preds_q, preds_s)

    def test_cross_entropy_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        h = rng.normal(size=(12, 5))
        y = rng.integers(3, size=12)
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=3)

        def loss():
            return _cross_entropy(h @ w.T + b, y)[0]

        _, d_logits = _cross_entropy(h @ w.T + b, y)
        analytic = [d_logits.T @ h, d_logits.sum(axis=0)]
        numeric = central_diff_grads(loss, [w, b])
        for a, n in zip(analytic, numeric):
            assert max_rel_error(a, n) < 1e-5

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        sup = _labeled(rng.normal(size=(8, 4)), np.repeat([0, 1], 4))
        qry = EmbeddingSet(rng.normal(size=(10, 4)))
        a = linear_probe_probs(sup, qry, ProbeConfig(max_epochs=50, seed=5))[1]
        b = linear_probe_probs(sup, qry, ProbeConfig(max_epochs=50, seed=5))[1]
        assert a.tobytes() == b.tobytes()


class TestKnn:
    def test_one_nn_on_support_vector(self):
        sup = _labeled([[0.0, 0.0], [5.0, 5.0]], [0, 1])
        qry = EmbeddingSet(np.array([[5.0, 5.0]]))
        assert _predict(knn_probs, sup, qry, k=1)[0] == 1

    def test_full_k_returns_majority(self):
        sup = _labeled([[0.0], [0.1], [0.2], [9.0]], [1, 1, 1, 0])
        qry = EmbeddingSet(np.array([[100.0]]))
        assert _predict(knn_probs, sup, qry, k=4)[0] == 1

    def test_vote_tie_breaks_to_lowest_class(self):
        sup = _labeled([[0.0], [1.0]], [1, 0])
        qry = EmbeddingSet(np.array([[0.5]]))
        assert _predict(knn_probs, sup, qry, k=2)[0] == 0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(6)
        sup = _labeled(rng.normal(size=(20, 5)), rng.integers(3, size=20))
        qry = EmbeddingSet(rng.normal(size=(15, 5)))
        for k in (1, 3, 7):
            preds = _predict(knn_probs, sup, qry, k=k, metric="euclidean")
            for i in range(15):
                d = np.sqrt(((sup.vectors - qry.vectors[i]) ** 2).sum(axis=1))
                nearest = np.argsort(d, kind="stable")[:k]
                votes = np.bincount(sup.labels[nearest], minlength=3)
                assert preds[i] == int(np.argmax(votes))

    def test_bad_k_rejected(self):
        sup = _labeled([[0.0], [1.0]], [0, 1])
        qry = EmbeddingSet(np.array([[0.5]]))
        with pytest.raises(HeadError):
            knn_probs(sup, qry, k=0)
        with pytest.raises(HeadError):
            knn_probs(sup, qry, k=3)


class TestFinetune:
    def test_zero_lr_matches_linear_probe(self, eval_setup):
        ds, idx, pp, stack = eval_setup
        x_sup = encode(pp, ds, idx.test[:12])
        y_sup = np.asarray(np.arange(12) % 3)
        x_qry = encode(pp, ds, idx.test[12:30])
        cfg = ProbeConfig(learning_rate=0.0, max_epochs=60, seed=4)

        ft_classes, ft = finetune_probs(stack, x_sup, y_sup, x_qry, cfg)
        sup = embed(stack, x_sup)
        sup.labels = y_sup
        lp_classes, lp = linear_probe_probs(sup, embed(stack, x_qry), cfg)
        np.testing.assert_array_equal(ft_classes, lp_classes)
        assert ft.tobytes() == lp.tobytes()

    def test_original_stack_untouched(self, eval_setup):
        """At lr > 0 the encoder trains, on a clone: the probabilities leave the
        frozen probe's, and the caller's stack keeps its bits."""
        ds, idx, pp, stack = eval_setup
        before = [p.copy() for p in stack.parameters()]
        x_sup = encode(pp, ds, idx.test[:12])
        y_sup = np.asarray(np.arange(12) % 3)
        x_qry = encode(pp, ds, idx.test[12:20])
        cfg = ProbeConfig(max_epochs=40, seed=0)
        _, ft = finetune_probs(stack, x_sup, y_sup, x_qry, cfg)
        for p, b in zip(stack.parameters(), before):
            assert p.tobytes() == b.tobytes()

        sup = embed(stack, x_sup)
        sup.labels = y_sup
        _, lp = linear_probe_probs(sup, embed(stack, x_qry), cfg)
        assert np.max(np.abs(ft - lp)) > 1e-6

    def test_competitive_with_linear_probe_on_synthetic(self, eval_setup):
        """Accuracy within 5 points of the probe across 5 seeded episodes."""
        ds, idx, pp, stack = eval_setup
        gaps = []
        for seed in range(5):
            proto = Protocol(
                n_way=4, k_shot=5, n_episodes=1, n_seeds=1,
                n_query_per_class=10, head="finetune", base_seed=seed,
            )
            ft = evaluate([stack], pp, ds, idx, proto)
            lp = evaluate(
                [stack], pp, ds, idx,
                Protocol(
                    n_way=4, k_shot=5, n_episodes=1, n_seeds=1,
                    n_query_per_class=10, head="linear", base_seed=seed,
                ),
            )
            gaps.append(ft.mean_accuracy - lp.mean_accuracy)
        assert float(np.mean(gaps)) >= -0.05


class TestEnsemble:
    def test_single_member_equals_plain_head(self, eval_setup):
        ds, idx, pp, stack = eval_setup
        x_sup = encode(pp, ds, idx.test[:8])
        y_sup = np.asarray(np.arange(8) % 2)
        x_qry = encode(pp, ds, idx.test[8:20])
        ens = ensemble_predict([stack], x_sup, y_sup, x_qry, head="proto-cos")
        sup = embed(stack, x_sup)
        sup.labels = y_sup
        solo = _predict(prototype_probs, sup, embed(stack, x_qry))
        np.testing.assert_array_equal(ens, solo)

    def test_identical_members_preserve_argmax(self, eval_setup):
        ds, idx, pp, stack = eval_setup
        x_sup = encode(pp, ds, idx.test[:8])
        y_sup = np.asarray(np.arange(8) % 2)
        x_qry = encode(pp, ds, idx.test[8:20])
        one = ensemble_predict([stack], x_sup, y_sup, x_qry, head="proto-cos")
        two = ensemble_predict([stack, stack.clone()], x_sup, y_sup, x_qry, head="proto-cos")
        np.testing.assert_array_equal(one, two)

    def test_ensemble_at_least_min_member(self, eval_setup):
        ds, idx, pp, _ = eval_setup
        members = [init_stack(pp.encoded_dim, r, seed=s, cfg=TINY_CFG)
                   for s, r in enumerate((0.1, 0.2, 0.3, 0.4, 0.5))]
        proto = Protocol(n_way=4, k_shot=5, n_episodes=8, n_seeds=1,
                         n_query_per_class=10, head="proto-cos")
        ens = evaluate(members, pp, ds, idx, proto)
        worst = min(
            evaluate([m], pp, ds, idx, proto).mean_accuracy for m in members
        )
        assert ens.mean_accuracy >= worst - 1e-12

    def test_empty_ensemble_rejected(self):
        with pytest.raises(HeadError):
            ensemble_predict([], np.ones((2, 2)), np.array([0, 1]), np.ones((1, 2)))


class TestEvaluate:
    def test_single_episode_reports_zero_std(self, eval_setup):
        ds, idx, pp, stack = eval_setup
        proto = Protocol(n_way=3, k_shot=1, n_episodes=1, n_seeds=1, n_query_per_class=5)
        report = evaluate([stack], pp, ds, idx, proto)
        assert len(report.rows) == 1
        assert report.std_accuracy == 0.0
        assert report.head == "proto-cos"

    def test_auto_head_selection(self, eval_setup):
        ds, idx, pp, stack = eval_setup
        one = Protocol(n_way=3, k_shot=1, n_episodes=1, n_seeds=1, n_query_per_class=5)
        five = Protocol(n_way=3, k_shot=5, n_episodes=1, n_seeds=1, n_query_per_class=5)
        assert one.resolved_head() == "proto-cos"
        assert five.resolved_head() == "linear"

    def test_chance_level_on_shuffled_labels(self, eval_setup):
        """Untrained encoder on label-shuffled data sits at 1/n_way."""
        ds, idx, pp, stack = eval_setup
        shuffled = make_gaussian_dataset(
            n_rows=700, d_raw=12, n_classes=4, separation=6.0, seed=1
        )
        rng = np.random.default_rng(123)
        rng.shuffle(shuffled.labels)
        proto = Protocol(n_way=4, k_shot=1, n_episodes=40, n_seeds=1, n_query_per_class=10)
        report = evaluate([stack], pp, shuffled, idx, proto)
        accs = report.accuracies
        sem = accs.std() / np.sqrt(len(accs))
        assert abs(report.mean_accuracy - 0.25) <= 3.0 * max(sem, 1e-6) + 0.02

    def test_one_shot_prototype_equals_one_nn_cosine_predictions(self):
        """With one support per class the prototypes are the supports."""
        rng = np.random.default_rng(21)
        for _ in range(20):
            sup = _labeled(rng.normal(size=(5, 6)), np.arange(5))
            qry = EmbeddingSet(rng.normal(size=(25, 6)))
            np.testing.assert_array_equal(
                _predict(prototype_probs, sup, qry, "cosine"),
                _predict(knn_probs, sup, qry, k=1, metric="cosine"),
            )

    def test_one_shot_prototype_equals_one_nn_cosine(self, eval_setup):
        ds, idx, pp, stack = eval_setup
        for raw_space in (False, True):
            for base_seed in range(3):
                proto_report = evaluate(
                    [stack], pp, ds, idx,
                    Protocol(n_way=4, k_shot=1, n_episodes=3, n_seeds=1,
                             n_query_per_class=8, head="proto-cos", base_seed=base_seed),
                    raw_space=raw_space,
                )
                knn_report = evaluate(
                    [stack], pp, ds, idx,
                    Protocol(n_way=4, k_shot=1, n_episodes=3, n_seeds=1,
                             n_query_per_class=8, head="knn-cos", base_seed=base_seed),
                    raw_space=raw_space,
                )
                np.testing.assert_allclose(proto_report.accuracies, knn_report.accuracies)

    def test_raw_space_ignores_members(self, eval_setup):
        ds, idx, pp, stack = eval_setup
        for head, k_shot in (("proto-eucl", 1), ("knn-eucl", 3), ("linear", 2)):
            proto = Protocol(n_way=4, k_shot=k_shot, n_episodes=2, n_seeds=1,
                             n_query_per_class=5, head=head, base_seed=3)
            empty = evaluate([], pp, ds, idx, proto, raw_space=True)
            one = evaluate([stack], pp, ds, idx, proto, raw_space=True)
            assert empty.rows == one.rows

    def test_raw_space_finetune_rejected(self, eval_setup):
        ds, idx, pp, stack = eval_setup
        proto = Protocol(n_way=4, k_shot=2, n_episodes=1, n_seeds=1,
                         n_query_per_class=5, head="finetune")
        for members in ([], [stack]):
            with pytest.raises(HeadError, match="needs a trained stack"):
                evaluate(members, pp, ds, idx, proto, raw_space=True)

    def test_bitwise_reproducible(self, eval_setup):
        ds, idx, pp, stack = eval_setup
        proto = Protocol(n_way=4, k_shot=5, n_episodes=4, n_seeds=2, n_query_per_class=5)
        a = evaluate([stack], pp, ds, idx, proto)
        b = evaluate([stack], pp, ds, idx, proto)
        assert a.rows == b.rows

    def test_csv_writers(self, eval_setup, tmp_path):
        ds, idx, pp, stack = eval_setup
        proto = Protocol(n_way=3, k_shot=1, n_episodes=2, n_seeds=2, n_query_per_class=5)
        report = evaluate([stack], pp, ds, idx, proto)
        write_report_csv(report, tmp_path / "r.csv")
        write_summary_csv([report], tmp_path / "s.csv")
        with (tmp_path / "r.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["dataset", "n_way", "k_shot", "head", "seed", "episode", "accuracy"]
        assert len(rows) == 1 + 4
        with (tmp_path / "s.csv").open() as handle:
            srows = list(csv.reader(handle))
        assert len(srows) == 2
        assert float(srows[1][6]) == pytest.approx(report.mean_accuracy, abs=1e-6)
