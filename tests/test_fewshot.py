"""Few-shot heads, ensemble fusion, and the episode evaluation loop."""

from __future__ import annotations

import copy
import functools

import numpy as np
import pytest

from tabalign import fewshot
from tabalign.data import sample_episode, split
from tabalign.errors import ArrayError, ConfigError, HeadError
from tabalign.fewshot import (
    ProbeConfig,
    Protocol,
    embed,
    evaluate,
    finetune_probs,
    knn_probs,
    linear_probe_probs,
    prototype_probs,
)
from tabalign.fewshot import (
    _cross_entropy,
    _fit_probe,
    _frozen_probs,
    _label_constants,
    _member_probs,
)
from tabalign.preprocess import encode, fit
from tabalign.pretrain import PretrainConfig, init_stack, member_seed
from tabalign.synthetic import make_gaussian_dataset

from conftest import central_diff_grads, max_rel_error

TINY_CFG = PretrainConfig(hidden_dim=16, embed_dim=8, projector_dim=8)
WIDE_CFG = PretrainConfig(hidden_dim=16, embed_dim=12, projector_dim=8)
FAST_PROBE = ProbeConfig(max_epochs=800, seed=0)


def _labeled(vectors, labels):
    """Float64 support rows and their labels: a head's first two arguments."""
    return np.asarray(vectors, dtype=np.float64), np.asarray(labels)


def _predict(head_probs, *args, **kwargs):
    """Labels from a ``*_probs`` head: the argmax class, ties to the lowest."""
    classes, probs = head_probs(*args, **kwargs)
    return classes[np.argmax(probs, axis=1)]


def _unstacked_member_probs(members, support_x, support_y, query_x, head, cfg):
    """The head dispatch of the per-episode loop that episode stacking replaced,
    kept as an oracle: support and query are embedded apart, once per episode."""
    if head == "finetune":
        if any(member is None for member in members):
            raise HeadError(f"head {head!r} needs a trained stack")
        results = [finetune_probs(m, support_x, support_y, query_x, cfg) for m in members]
        return results[0][0], [probs for _, probs in results]
    vectors = [
        (support_x, query_x)
        if member is None
        else (embed(member, support_x), embed(member, query_x))
        for member in members
    ]
    if head != "linear":
        results = [_frozen_probs(head, sup, support_y, qry) for sup, qry in vectors]
        return results[0][0], [probs for _, probs in results]
    probs = {}
    widths = [sup.shape[1] for sup, _ in vectors]
    for width in dict.fromkeys(widths):
        group = [i for i, w in enumerate(widths) if w == width]
        classes, stacked = linear_probe_probs(
            np.stack([vectors[i][0] for i in group]),
            support_y,
            np.stack([vectors[i][1] for i in group]),
            cfg,
        )
        probs.update(zip(group, stacked))
    return classes, [probs[i] for i in range(len(members))]


def _unstacked_evaluate(members, pp, ds, split_indices, protocol, raw_space=False):
    """The per-episode ``evaluate`` loop that episode stacking replaced; returns its rows."""
    head = protocol.resolved_head()
    rows = []
    encoders = [None] if raw_space else members
    for seed_idx in range(protocol.n_seeds):
        for ep_idx in range(protocol.n_episodes):
            episode = sample_episode(
                ds,
                split_indices,
                protocol.n_way,
                protocol.k_shot,
                protocol.n_query_per_class,
                member_seed(protocol.base_seed, seed_idx, ep_idx, 0),
            )
            cfg = fewshot.ProbeConfig(seed=member_seed(protocol.base_seed, seed_idx, ep_idx, 1))
            x_sup = encode(pp, ds, episode.support_rows)
            x_qry = encode(pp, ds, episode.query_rows)
            classes, probs = _unstacked_member_probs(
                encoders, x_sup, episode.support_labels, x_qry, head, cfg
            )
            total = probs[0]
            for member_probs in probs[1:]:
                total = total + member_probs
            preds = classes[np.argmax(total / len(encoders), axis=1)]
            accuracy = float(np.mean(preds == episode.query_labels))
            rows.append((seed_idx, ep_idx, accuracy))
    return rows


@pytest.fixture
def short_probes(monkeypatch):
    # ``evaluate`` builds its probe configs from ``fewshot.ProbeConfig``; a
    # 600-step cap keeps probes, and the per-episode oracle's, affordable.
    monkeypatch.setattr(fewshot, "ProbeConfig", functools.partial(ProbeConfig, max_epochs=600))


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
        out = embed(stack, x)
        expected = np.maximum(stack.encoder[0].bias, 0.0) @ stack.encoder[1].weight.T
        expected = expected + stack.encoder[1].bias
        np.testing.assert_allclose(out, np.tile(expected, (5, 1)))

    def test_deterministic(self):
        stack = init_stack(6, 0.2, seed=1, cfg=TINY_CFG)
        x = np.random.default_rng(1).normal(size=(10, 6))
        a = embed(stack, x)
        b = embed(stack, x)
        assert a.tobytes() == b.tobytes()

    def test_dimension_mismatch(self):
        stack = init_stack(6, 0.2, seed=0, cfg=TINY_CFG)
        with pytest.raises(ArrayError):
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
        pretrain(stack, encode(pp, ds, idx.train), encode(pp, ds, idx.valid), pp)
        rows = np.random.default_rng(0).normal(size=(1000, pp.encoded_dim))
        vectors = embed(stack, rows)
        assert np.all(np.isfinite(np.linalg.norm(vectors, axis=1)))


class TestPrototype:
    def test_query_equal_to_support_vector(self):
        sup = _labeled([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0, 1, 2])
        qry = np.array([[0.0, 1.0]])
        assert _predict(prototype_probs, *sup, qry)[0] == 1

    def test_two_class_example(self):
        sup = _labeled([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        qry = np.array([[0.9, 0.1]])
        assert _predict(prototype_probs, *sup, qry)[0] == 0

    def test_matches_exhaustive_similarity_table(self):
        """Independent per-query cosine table, 3 classes, 5 shots."""
        rng = np.random.default_rng(4)
        labels = np.repeat([0, 1, 2], 5)
        sup_x, sup_y = _labeled(rng.normal(size=(15, 6)), labels)
        qry = rng.normal(size=(20, 6))
        preds = _predict(prototype_probs, sup_x, sup_y, qry)

        protos = [sup_x[labels == c].mean(axis=0) for c in (0, 1, 2)]
        for i in range(20):
            sims = []
            for p in protos:
                q = qry[i]
                sims.append(q @ p / (np.linalg.norm(q) * np.linalg.norm(p)))
            assert preds[i] == int(np.argmax(sims))

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        sup_x, sup_y = _labeled(rng.normal(size=(12, 4)), np.repeat([0, 1, 2], 4))
        qry = rng.normal(size=(30, 4))
        base = _predict(prototype_probs, sup_x, sup_y, qry)
        for c in (0.001, 7.5, 2048.0):
            scaled = _predict(prototype_probs, sup_x * c, sup_y, qry * c)
            np.testing.assert_array_equal(scaled, base)

    def test_euclidean_variant_differs_from_cosine_when_it_should(self):
        sup = _labeled([[10.0, 0.0], [0.0, 1.0]], [0, 1])
        qry = np.array([[2.0, 0.5]])
        assert _predict(prototype_probs, *sup, qry, metric="cosine")[0] == 0
        assert _predict(prototype_probs, *sup, qry, metric="euclidean")[0] == 1

    def test_unlabeled_support_rejected(self):
        with pytest.raises(HeadError):
            prototype_probs(np.ones((2, 2)), None, np.ones((1, 2)))


class TestLinearProbe:
    def test_separable_support_is_fit_perfectly(self):
        rng = np.random.default_rng(0)
        sup_x, sup_y = _labeled(
            np.vstack([rng.normal(-3.0, 0.3, size=(10, 4)), rng.normal(3.0, 0.3, size=(10, 4))]),
            np.repeat([0, 1], 10),
        )
        preds = _predict(linear_probe_probs, sup_x, sup_y, sup_x, FAST_PROBE)
        np.testing.assert_array_equal(preds, sup_y)

    def test_support_duplicated_as_query(self):
        rng = np.random.default_rng(2)
        sup_x, sup_y = _labeled(rng.normal(size=(10, 4)), np.repeat([0, 1], 5))
        qry = sup_x.copy()
        preds_q = _predict(linear_probe_probs, sup_x, sup_y, qry, FAST_PROBE)
        preds_s = _predict(linear_probe_probs, sup_x, sup_y, sup_x, FAST_PROBE)
        np.testing.assert_array_equal(preds_q, preds_s)

    def test_cross_entropy_gradient_matches_finite_differences(self):
        """Stacked probes, each with its own labels: the summed loss's gradient
        splits per probe, and each slice is the single-probe gradient."""
        rng = np.random.default_rng(9)
        h = rng.normal(size=(12, 5))
        for n_probes in (1, 2):
            y = rng.integers(3, size=(n_probes, 12))
            w = rng.normal(size=(n_probes, 3, 5))
            b = rng.normal(size=(n_probes, 3))

            def logits():
                return np.matmul(h, w.swapaxes(1, 2)) + b[:, None]

            def loss():
                return _cross_entropy(logits(), *_label_constants(y, 3))[0].sum()

            losses, d_logits = _cross_entropy(logits(), *_label_constants(y, 3))
            assert losses.shape == (n_probes,)
            analytic = [np.matmul(d_logits.swapaxes(1, 2), h), d_logits.sum(axis=1)]
            numeric = central_diff_grads(loss, [w, b])
            for a, n in zip(analytic, numeric):
                assert max_rel_error(a, n) < 1e-5
            for m in range(n_probes):
                solo_loss, solo_d = _cross_entropy(
                    logits()[m : m + 1], *_label_constants(y[m : m + 1], 3)
                )
                assert solo_loss.tobytes() == losses[m : m + 1].tobytes()
                assert solo_d.tobytes() == d_logits[m : m + 1].tobytes()

    def test_cross_entropy_matches_unhoisted_expression(self):
        """The hoisted label index and one-hot give the bits of indexing
        ``d[:, arange(n), y]`` and subtracting the boolean one-hot each step."""
        rng = np.random.default_rng(10)
        y = rng.integers(4, size=20)
        logits = rng.normal(scale=5.0, size=(3, 20, 4))
        d = logits.copy()
        d -= d.max(axis=-1, keepdims=True)
        np.exp(d, out=d)
        d /= d.sum(axis=-1, keepdims=True)
        expected_loss = -np.log(d[:, np.arange(20), y] + 1e-300).sum(axis=1) / 20
        d -= y[:, None] == np.arange(4)
        d /= 20
        loss, grad = _cross_entropy(logits, *_label_constants(np.stack([y] * 3), 4))
        assert loss.tobytes() == expected_loss.tobytes()
        assert grad.tobytes() == d.tobytes()

    @pytest.mark.parametrize("n_way", [2, 3, 4, 5])
    def test_cross_entropy_row_max_matches_the_reduction(self, n_way):
        """The row max taken column by column gives the bits of ``max(axis=-1)``,
        also on tied logits, signed zeros, +-1e300 and a -inf column."""
        rng = np.random.default_rng(n_way)
        logits = rng.normal(scale=5.0, size=(3, 12, n_way))
        logits[0, :4] = 1.5
        logits[0, 4:8] = rng.choice([0.0, -0.0], size=(4, n_way))
        logits[1, :, 0] = -np.inf
        logits[2, :6] = rng.choice([1e300, -1e300], size=(6, n_way))
        picks, onehot = _label_constants(rng.integers(n_way, size=(3, 12)), n_way)
        d = logits.copy()
        d -= d.max(axis=-1, keepdims=True)
        np.exp(d, out=d)
        d /= d.sum(axis=-1, keepdims=True)
        expected_loss = -np.log(np.take(d, picks) + 1e-300).sum(axis=1) / 12
        d -= onehot
        d /= 12
        loss, grad = _cross_entropy(logits.copy(), picks, onehot)
        assert loss.tobytes() == expected_loss.tobytes()
        assert grad.tobytes() == d.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("width", [32, PretrainConfig().embed_dim])
    def test_stacked_fit_matches_solo_fits(self, dtype, width, monkeypatch):
        """Each probe in a stack ends with the bits it has when trained alone,
        and the stack takes as many Adam steps as its slowest probe. Every
        probe has its own labels, class ids and seed. The probes stop at
        different steps: far-apart classes stop on ``tol``, and a support of
        pure noise runs to the cap."""
        steps = [0]
        adam_step = fewshot.adam_step

        def counting(*args):
            steps[0] += 1
            return adam_step(*args)

        monkeypatch.setattr(fewshot, "adam_step", counting)
        max_epochs = 1000
        rng = np.random.default_rng(width)
        supports, queries, labels, cfgs = [], [], [], []
        for m, separation in enumerate((1000.0, 0.0, 3000.0, 1500.0, 0.0)):
            y = rng.permutation(np.repeat(np.arange(4), 5))
            centers = rng.normal(size=(4, width))
            centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
            supports.append((centers[y] + rng.normal(size=(20, width))).astype(dtype))
            queries.append(rng.normal(scale=30.0, size=(9, width)).astype(dtype))
            labels.append(np.sort(rng.choice(10, size=4, replace=False))[y])
            cfgs.append(ProbeConfig(max_epochs=max_epochs, seed=3 + m))

        solo, solo_steps = [], []
        for sup, qry, y, cfg in zip(supports, queries, labels, cfgs):
            steps[0] = 0
            classes, index = np.unique(y, return_inverse=True)
            w, b = _fit_probe(sup[None], index[None], 4, [cfg.seed], max_epochs)
            solo_steps.append(steps[0])
            solo_classes, probs = linear_probe_probs(sup, y, qry, cfg)
            np.testing.assert_array_equal(solo_classes, classes)
            solo.append((w[0], b[0], classes, probs))
        assert min(solo_steps) < max_epochs // 2
        assert solo_steps.count(max_epochs) == 2
        assert len(set(solo_steps)) == 4

        for n_probes in (1, 2, 3, 5):
            steps[0] = 0
            classes, probs = linear_probe_probs(
                np.stack(supports[:n_probes]),
                np.stack(labels[:n_probes]),
                np.stack(queries[:n_probes]),
                cfgs[:n_probes],
            )
            assert steps[0] == max(solo_steps[:n_probes])
            assert probs.shape == (n_probes, 9, 4)
            assert classes.shape == (n_probes, 4)
            for m, (solo_w, solo_b, solo_classes, solo_probs) in enumerate(solo[:n_probes]):
                np.testing.assert_array_equal(classes[m], solo_classes)
                assert probs[m].tobytes() == solo_probs.tobytes()
            index = np.stack([np.unique(y, return_inverse=True)[1] for y in labels[:n_probes]])
            seeds = [c.seed for c in cfgs[:n_probes]]
            w, b = _fit_probe(np.stack(supports[:n_probes]), index, 4, seeds, max_epochs)
            for m, (solo_w, solo_b, _, _) in enumerate(solo[:n_probes]):
                assert w[m].tobytes() == solo_w.tobytes()
                assert b[m].tobytes() == solo_b.tobytes()

    def test_stacked_configs_must_agree(self):
        rng = np.random.default_rng(1)
        sup, qry = rng.normal(size=(2, 6, 3)), rng.normal(size=(2, 4, 3))
        y = np.arange(6) % 2
        with pytest.raises(HeadError, match="2 probes"):
            linear_probe_probs(sup, y, qry, [ProbeConfig(max_epochs=5)])
        with pytest.raises(HeadError, match="2 probes"):
            linear_probe_probs(sup, y, qry, [ProbeConfig(max_epochs=5), ProbeConfig(max_epochs=6)])
        with pytest.raises(HeadError, match="same number of classes"):
            linear_probe_probs(sup, np.stack([y, np.arange(6) % 3]), qry, FAST_PROBE)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        sup = _labeled(rng.normal(size=(8, 4)), np.repeat([0, 1], 4))
        qry = rng.normal(size=(10, 4))
        a = linear_probe_probs(*sup, qry, ProbeConfig(max_epochs=50, seed=5))[1]
        b = linear_probe_probs(*sup, qry, ProbeConfig(max_epochs=50, seed=5))[1]
        assert a.tobytes() == b.tobytes()


class TestKnn:
    def test_one_nn_on_support_vector(self):
        sup = _labeled([[0.0, 0.0], [5.0, 5.0]], [0, 1])
        qry = np.array([[5.0, 5.0]])
        assert _predict(knn_probs, *sup, qry, k=1)[0] == 1

    def test_full_k_returns_majority(self):
        sup = _labeled([[0.0], [0.1], [0.2], [9.0]], [1, 1, 1, 0])
        qry = np.array([[100.0]])
        assert _predict(knn_probs, *sup, qry, k=4)[0] == 1

    def test_vote_tie_breaks_to_lowest_class(self):
        sup = _labeled([[0.0], [1.0]], [1, 0])
        qry = np.array([[0.5]])
        assert _predict(knn_probs, *sup, qry, k=2)[0] == 0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(6)
        sup_x, sup_y = _labeled(rng.normal(size=(20, 5)), rng.integers(3, size=20))
        qry = rng.normal(size=(15, 5))
        for k in (1, 3, 7):
            preds = _predict(knn_probs, sup_x, sup_y, qry, k=k, metric="euclidean")
            for i in range(15):
                d = np.sqrt(((sup_x - qry[i]) ** 2).sum(axis=1))
                nearest = np.argsort(d, kind="stable")[:k]
                votes = np.bincount(sup_y[nearest], minlength=3)
                assert preds[i] == int(np.argmax(votes))

    def test_one_nn_far_from_origin(self):
        """Rows at offset 1e6 with spread 1e-2 vote their exact nearest label."""
        rng = np.random.default_rng(7)
        sup_x, sup_y = _labeled(1e6 + 1e-2 * rng.normal(size=(20, 8)), np.arange(20) % 4)
        qry = 1e6 + 1e-2 * rng.normal(size=(60, 8))
        preds = _predict(knn_probs, sup_x, sup_y, qry, k=1)
        for i in range(60):
            d = np.square(sup_x - qry[i]).sum(axis=1)
            assert preds[i] == sup_y[np.argmin(d)]

    def test_bad_k_rejected(self):
        sup = _labeled([[0.0], [1.0]], [0, 1])
        qry = np.array([[0.5]])
        with pytest.raises(HeadError):
            knn_probs(*sup, qry, k=0)
        with pytest.raises(HeadError):
            knn_probs(*sup, qry, k=3)


class TestSupportCheck:
    @pytest.mark.parametrize("n_labels", [4, 8])
    def test_row_and_label_counts_must_agree(self, n_labels):
        """Every head, the stacked probe included, refuses 6 support rows
        with another number of labels instead of voting or indexing past them."""
        rng = np.random.default_rng(0)
        sup = rng.normal(size=(6, 6))
        y = np.arange(n_labels) % 3
        qry = rng.normal(size=(4, 6))
        stack = init_stack(6, 0.2, seed=0, cfg=TINY_CFG)
        calls = (
            lambda: prototype_probs(sup, y, qry),
            lambda: knn_probs(sup, y, qry, k=1),
            lambda: linear_probe_probs(sup, y, qry, FAST_PROBE),
            lambda: linear_probe_probs(np.stack([sup, sup]), y, np.stack([qry, qry]), FAST_PROBE),
            lambda: finetune_probs(stack, sup, y, qry, FAST_PROBE),
        )
        for call in calls:
            with pytest.raises(HeadError, match=f"6 rows but {n_labels} labels"):
                call()


class TestFinetune:
    def test_zero_lr_matches_linear_probe(self, eval_setup, monkeypatch):
        ds, idx, pp, stack = eval_setup
        x_sup = encode(pp, ds, idx.test[:12])
        y_sup = np.asarray(np.arange(12) % 3)
        x_qry = encode(pp, ds, idx.test[12:30])
        monkeypatch.setattr(fewshot, "PROBE_LR", 0.0)
        cfg = ProbeConfig(max_epochs=60, seed=4)

        ft_classes, ft = finetune_probs(stack, x_sup, y_sup, x_qry, cfg)
        lp_classes, lp = linear_probe_probs(embed(stack, x_sup), y_sup, embed(stack, x_qry), cfg)
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

        _, lp = linear_probe_probs(embed(stack, x_sup), y_sup, embed(stack, x_qry), cfg)
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
        protocol = Protocol(n_way=2, k_shot=4, n_episodes=3, n_query_per_class=6,
                            head="proto-cos", base_seed=7)
        expected = []
        for ep_idx in range(protocol.n_episodes):
            episode = sample_episode(ds, idx, 2, 4, 6, member_seed(7, 0, ep_idx, 0))
            sup = embed(stack, encode(pp, ds, episode.support_rows))
            qry = embed(stack, encode(pp, ds, episode.query_rows))
            solo = _predict(prototype_probs, sup, episode.support_labels, qry)
            expected.append((0, ep_idx, float(np.mean(solo == episode.query_labels))))
        assert evaluate([stack], pp, ds, idx, protocol).rows == expected

    def test_identical_members_preserve_argmax(self, eval_setup):
        ds, idx, pp, stack = eval_setup
        x = encode(pp, ds, idx.test[:20])
        y_sup = np.asarray(np.arange(8) % 2)
        args = (x, np.arange(8)[None], y_sup[None], np.arange(8, 20)[None], "proto-cos", [FAST_PROBE])
        _, (one,) = _member_probs([stack], *args)
        _, two = _member_probs([stack, copy.deepcopy(stack)], *args)
        for member_probs in two:
            assert member_probs.tobytes() == one.tobytes()
        np.testing.assert_array_equal(np.argmax(sum(two) / 2, axis=2), np.argmax(one, axis=2))
        protocol = Protocol(n_way=4, k_shot=2, n_episodes=6, n_query_per_class=5,
                            head="proto-cos")
        pair = evaluate([stack, copy.deepcopy(stack)], pp, ds, idx, protocol)
        assert pair.rows == evaluate([stack], pp, ds, idx, protocol).rows

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

    def test_mixed_width_members_match_solo_probes(self, eval_setup, short_probes):
        """Members of embedding width 8 and 12 and a raw-space member (the
        encoded width is 12 too) each get the probabilities of their own
        linear probe, and ``evaluate`` scores the argmax of their average. A
        ``None`` member is the identity member that raw space runs through."""
        ds, idx, pp, stack = eval_setup
        members = [
            stack,
            init_stack(pp.encoded_dim, 0.3, seed=1, cfg=WIDE_CFG),
            None,
            init_stack(pp.encoded_dim, 0.4, seed=2, cfg=TINY_CFG),
        ]
        protocol = Protocol(n_way=4, k_shot=3, n_episodes=1, n_query_per_class=7,
                            head="linear", base_seed=4)
        episode = sample_episode(ds, idx, 4, 3, 7, member_seed(4, 0, 0, 0))
        x_sup = encode(pp, ds, episode.support_rows)
        y_sup = episode.support_labels
        x_qry = encode(pp, ds, episode.query_rows)
        cfg = fewshot.ProbeConfig(seed=member_seed(4, 0, 0, 1))
        _, fused = _member_probs(
            members,
            np.concatenate([x_sup, x_qry]),
            np.arange(12)[None],
            y_sup[None],
            np.arange(12, 40)[None],
            "linear",
            [cfg],
        )
        total = 0.0
        for member, (member_probs,) in zip(members, fused):
            sup = x_sup if member is None else embed(member, x_sup)
            qry = x_qry if member is None else embed(member, x_qry)
            classes, probs = linear_probe_probs(sup, y_sup, qry, cfg)
            assert member_probs.tobytes() == probs.tobytes()
            total = total + probs
        expected = classes[np.argmax(total / len(members), axis=1)]
        report = evaluate(members, pp, ds, idx, protocol)
        assert report.rows == [(0, 0, float(np.mean(expected == episode.query_labels)))]

    def test_empty_ensemble_rejected(self, eval_setup):
        ds, idx, pp, _ = eval_setup
        protocol = Protocol(n_way=2, k_shot=1, n_episodes=1, n_query_per_class=2)
        with pytest.raises(HeadError, match="at least one member"):
            evaluate([], pp, ds, idx, protocol)
        with pytest.raises(HeadError, match="at least one member"):
            _member_probs(
                [], np.ones((3, 2)), np.array([[0, 1]]), np.array([[0, 1]]),
                np.array([[2]]), "proto-cos", [FAST_PROBE],
            )


class TestEvaluate:
    def test_single_episode_reports_zero_std(self, eval_setup):
        ds, idx, pp, stack = eval_setup
        proto = Protocol(n_way=3, k_shot=1, n_episodes=1, n_seeds=1, n_query_per_class=5)
        report = evaluate([stack], pp, ds, idx, proto)
        assert len(report.rows) == 1
        assert report.std_accuracy == 0.0
        assert report.protocol.head == "proto-cos"

    def test_auto_head_selection(self, eval_setup):
        ds, idx, pp, stack = eval_setup
        one = Protocol(n_way=3, k_shot=1, n_episodes=1, n_seeds=1, n_query_per_class=5)
        five = Protocol(n_way=3, k_shot=5, n_episodes=1, n_seeds=1, n_query_per_class=5)
        assert one.resolved_head() == "proto-cos"
        assert five.resolved_head() == "linear"

    def test_unknown_head_rejected(self):
        with pytest.raises(ConfigError):
            Protocol(n_way=3, k_shot=1, head="banana")

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
            qry = rng.normal(size=(25, 6))
            np.testing.assert_array_equal(
                _predict(prototype_probs, *sup, qry, "cosine"),
                _predict(knn_probs, *sup, qry, k=1, metric="cosine"),
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


class TestEpisodeStacking:
    """``evaluate`` encodes and embeds each seed's rows once and stacks the
    probes; the per-episode loop above is the oracle."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize(
        "head,raw_space",
        # finetune needs a trained stack, so it has no raw-space case.
        [(h, raw) for h in fewshot.HEADS for raw in (False, True) if h != "finetune" or not raw],
    )
    def test_rows_match_per_episode_loop(self, eval_setup, short_probes, head, raw_space, dtype):
        ds, idx, pp, _ = eval_setup
        tiny = PretrainConfig(hidden_dim=16, embed_dim=8, projector_dim=8, dtype=dtype)
        wide = PretrainConfig(hidden_dim=16, embed_dim=12, projector_dim=8, dtype=dtype)
        # Two embedding widths, one of them shared by two members.
        members = [
            init_stack(pp.encoded_dim, 0.2, seed=0, cfg=tiny),
            init_stack(pp.encoded_dim, 0.3, seed=1, cfg=wide),
            init_stack(pp.encoded_dim, 0.4, seed=2, cfg=tiny),
        ]
        protocol = Protocol(
            n_way=3, k_shot=2, n_episodes=3, n_seeds=2, n_query_per_class=4,
            head=head, base_seed=5,
        )
        report = evaluate(members, pp, ds, idx, protocol, raw_space=raw_space)
        expected = _unstacked_evaluate(members, pp, ds, idx, protocol, raw_space=raw_space)
        assert len(report.rows) == 6
        assert report.rows == expected
        # Each member's own report has the rows of a one-member call; under
        # raw space the one report is the identity member's, the fused rows.
        member_rows = [m.rows for m in report.members]
        if raw_space:
            assert member_rows == [report.rows]
        else:
            assert member_rows == [
                evaluate([m], pp, ds, idx, protocol).rows for m in members
            ]

    def test_tiny_support_changes_bits_not_accuracy(self, eval_setup, short_probes):
        """2-way 1-shot: a support of 2 rows. BLAS rounds a batch of 1-3 rows
        differently from the same rows inside a larger batch, so embedding
        them with their query and the other episodes' rows may change bits.
        Accuracy stays within one standard error of the per-episode loop."""
        ds, idx, pp, stack = eval_setup
        members = [stack, init_stack(pp.encoded_dim, 0.4, seed=3, cfg=TINY_CFG)]
        for head in ("proto-cos", "linear"):
            protocol = Protocol(
                n_way=2, k_shot=1, n_episodes=30, n_query_per_class=5, head=head, base_seed=2
            )
            report = evaluate(members, pp, ds, idx, protocol)
            rows = _unstacked_evaluate(members, pp, ds, idx, protocol)
            expected = np.array([acc for *_, acc in rows])
            sem = expected.std() / np.sqrt(len(expected))
            assert abs(report.mean_accuracy - expected.mean()) <= sem

    def test_one_episode_encodes_only_its_rows(self, eval_setup, monkeypatch):
        ds, idx, pp, stack = eval_setup
        encoded, embedded = [], []

        def counted_encode(pp, ds, rows):
            encoded.append(len(rows))
            return encode(pp, ds, rows)

        def counted_embed(member, x):
            embedded.append(len(x))
            return embed(member, x)

        monkeypatch.setattr(fewshot, "encode", counted_encode)
        monkeypatch.setattr(fewshot, "embed", counted_embed)
        protocol = Protocol(n_way=4, k_shot=5, n_episodes=1, n_query_per_class=15, head="linear")
        evaluate([stack, stack], pp, ds, idx, protocol)
        assert encoded == [80]
        assert embedded == [80, 80]

    def test_zero_way_takes_every_class(self, eval_setup):
        """``Protocol`` documents n_way 0 as every class; the report records the count."""
        ds, idx, pp, stack = eval_setup
        every = evaluate(
            [stack], pp, ds, idx, Protocol(n_way=0, k_shot=1, n_episodes=2, n_query_per_class=5)
        )
        four = evaluate(
            [stack], pp, ds, idx, Protocol(n_way=4, k_shot=1, n_episodes=2, n_query_per_class=5)
        )
        assert every.protocol == four.protocol
        assert every.protocol.n_way == ds.n_classes == 4
        assert every.rows == four.rows
