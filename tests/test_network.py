"""Network substrate: losses against hand values, finite-difference oracle,
determinism, dropout behavior, and the SGD update rule."""

import numpy as np
import pytest
from conftest import (
    ce_loss_fn,
    data_loss_fn,
    draw_grad_check_case,
    flat_grad,
    grad_check,
    knowledge_loss_fn,
    view_of,
)

from os2e.network import (
    Checkpoint,
    NetworkConfig,
    ParamStore,
    backward,
    build_layout,
    cross_entropy_loss,
    forward,
    init_params,
    param_count,
    sgd_momentum_step,
    soft_target_loss,
    SOFT_TARGET_IN_LOG,
    SOFT_TARGET_AS_DISTRIBUTION,
)


TINY_LAYOUT = [("head0.W", 0, (2, 2)), ("head0.b", 4, (2,))]


def small_net(heads=(4,), trunk=(8, 6), dropout=0.0, input_dim=5):
    return NetworkConfig(
        input_dim=input_dim, trunk=trunk, heads=heads, dropout_rate=dropout
    )


class TestForward:
    def test_zero_trunk_is_softmax_of_affine(self):
        cfg = small_net(heads=(3,), trunk=(), input_dim=3)
        params = init_params(cfg, seed=0)
        w = params.view("head0.W")
        w[:] = np.eye(3)
        params.view("head0.b")[:] = 0.0
        x = np.array([[2.0, 0.0, 0.0]])
        cache = forward(cfg, params, x)
        z = x @ w
        expected = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(cache.head_prob[0], expected, atol=1e-15)

    def test_dropout_zero_train_equals_eval(self):
        cfg = small_net(dropout=0.0)
        params = init_params(cfg, seed=1)
        x = np.random.default_rng(2).normal(size=(6, 5))
        train = forward(cfg, params, x, mode="train", rng=np.random.default_rng(0))
        evald = forward(cfg, params, x, mode="eval")
        np.testing.assert_array_equal(train.head_prob[0], evald.head_prob[0])

    def test_fixed_seed_bitwise_identical(self):
        cfg = small_net(dropout=0.5)
        params = init_params(cfg, seed=3)
        x = np.random.default_rng(4).normal(size=(6, 5))
        a = forward(cfg, params, x, mode="train", rng=np.random.default_rng(9))
        b = forward(cfg, params, x, mode="train", rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.dropout_mask, b.dropout_mask)
        np.testing.assert_array_equal(a.head_prob[0], b.head_prob[0])

    def test_softmax_rows_on_simplex(self):
        cfg = small_net()
        params = init_params(cfg, seed=5)
        x = np.random.default_rng(6).normal(scale=100.0, size=(20, 5))
        cache = forward(cfg, params, x)
        np.testing.assert_allclose(cache.head_prob[0].sum(axis=1), 1.0, atol=1e-9)

    def test_stable_at_large_magnitudes(self):
        cfg = small_net(trunk=())
        params = init_params(cfg, seed=7)
        x = np.full((2, 5), 1e3)
        cache = forward(cfg, params, x)
        assert np.all(np.isfinite(cache.head_prob[0]))
        assert np.all(np.isfinite(cache.head_logprob[0]))

    def test_dimension_mismatch_rejected(self):
        cfg = small_net()
        params = init_params(cfg, seed=8)
        with pytest.raises(ValueError, match="input_dim"):
            forward(cfg, params, np.zeros((2, 7)))

    @pytest.mark.parametrize("trunk", [(), (64,)], ids=["linear", "trunk64"])
    def test_eval_rows_order_invariant_and_within_1e12_across_batch_sizes(self, trunk):
        # the eval contract: a row scores bitwise the same wherever it sits
        # in its batch, and within 1e-12 of itself in a batch of another
        # size (the matrix product's blocking depends on the batch size)
        cfg = NetworkConfig(input_dim=256, trunk=trunk, heads=(4,), dropout_rate=0.0)
        params = init_params(cfg, seed=1)
        x = np.random.default_rng(24).uniform(-0.5, 0.5, size=(1800, 256))
        full = forward(cfg, params, x, mode="eval").head_prob[0]
        perm = np.random.default_rng(25).permutation(len(x))
        permuted = forward(cfg, params, x[perm], mode="eval").head_prob[0]
        assert permuted.tobytes() == full[perm].tobytes()
        for size in (1, 9, 126):
            rows = np.concatenate([
                forward(cfg, params, x[i : i + size], mode="eval").head_prob[0]
                for i in range(0, len(x), size)
            ])
            assert np.max(np.abs(rows - full)) <= 1e-12


class TestCrossEntropy:
    def test_uniform_prediction(self):
        cfg = small_net(heads=(4,), trunk=(), input_dim=4)
        params = init_params(cfg, seed=13)
        params.values[:] = 0.0
        cache = forward(cfg, params, np.zeros((3, 4)))
        loss, _ = cross_entropy_loss(cache, [0, 1, 2])
        np.testing.assert_allclose(loss, np.log(4.0), atol=1e-15)

    def test_hand_evaluated_two_class(self):
        # p = [0.25, 0.75] from logits [0, ln 3]; loss on y=1 is -ln 0.75
        cfg = small_net(heads=(2,), trunk=(), input_dim=2)
        params = init_params(cfg, seed=14)
        params.view("head0.W")[:] = np.diag([0.0, np.log(3.0)])
        params.view("head0.b")[:] = 0.0
        cache = forward(cfg, params, np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(cache.head_prob[0], [[0.25, 0.75]], atol=1e-15)
        loss, grad = cross_entropy_loss(cache, [1])
        np.testing.assert_allclose(loss, -np.log(0.75), atol=1e-15)
        np.testing.assert_allclose(grad, [[0.25, -0.25]], atol=1e-15)

    def test_perfect_prediction_near_zero(self):
        cfg = small_net(heads=(2,), trunk=(), input_dim=2)
        params = init_params(cfg, seed=15)
        params.view("head0.W")[:] = np.diag([50.0, -50.0])
        cache = forward(cfg, params, np.array([[1.0, 1.0]]))
        loss, _ = cross_entropy_loss(cache, [0])
        assert loss < 1e-12

    @pytest.mark.parametrize("labels", [[0, -1], [3, 0], [np.iinfo(np.int64).min, 1]])
    def test_label_out_of_range_rejected(self, labels):
        cfg = small_net(heads=(3,), trunk=(), input_dim=2)
        cache = forward(cfg, init_params(cfg, seed=16), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="label out of range for head 0 with 3 classes"):
            cross_entropy_loss(cache, labels)


class TestSoftTargetLoss:
    def setup_method(self):
        self.cfg = small_net(heads=(4, 2), trunk=(), input_dim=2)
        self.params = init_params(self.cfg, seed=16)
        self.params.values[:] = 0.0  # head 1 outputs exactly [0.5, 0.5]
        self.cache = forward(self.cfg, self.params, np.array([[1.0, 1.0]]))

    def test_matched_distributions_give_entropy(self):
        loss, grad = soft_target_loss(self.cache, [[0.5, 0.5]])
        np.testing.assert_allclose(loss, np.log(2.0), atol=1e-15)
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_one_hot_target_reduces_to_cross_entropy(self):
        loss, grad = soft_target_loss(self.cache, [[0.0, 1.0]])
        ce, ce_grad = cross_entropy_loss(self.cache, [1], head=1)
        np.testing.assert_allclose(loss, ce, atol=1e-15)
        np.testing.assert_allclose(grad, ce_grad, atol=1e-15)

    def test_target_in_log_hand_value(self):
        loss, _ = soft_target_loss(
            self.cache, [[0.9, 0.1]], direction=SOFT_TARGET_IN_LOG
        )
        expected = -0.5 * np.log(0.9) - 0.5 * np.log(0.1)
        np.testing.assert_allclose(loss, expected, atol=1e-12)
        assert loss == pytest.approx(1.203973, abs=1e-6)

    def test_target_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="target shape"):
            soft_target_loss(self.cache, [[0.5, 0.25, 0.25]])


class TestKnowledgeLoss:
    def test_linear_combination(self):
        # the knowledge step sends both head gradients to one backward; that
        # equals the event and alpha-weighted imitation backwards summed
        cfg = small_net(heads=(4, 3))
        params = init_params(cfg, seed=19)
        rng = np.random.default_rng(20)
        x = rng.normal(size=(5, 5))
        y = rng.integers(0, 4, size=5)
        f = rng.dirichlet(np.ones(3), size=5)
        cache = forward(cfg, params, x)
        _, g_event = cross_entropy_loss(cache, y)
        _, g_soft = soft_target_loss(cache, f)
        joint = flat_grad(cache, {0: g_event, 1: 0.5 * g_soft})
        apart = flat_grad(cache, {0: g_event}) + flat_grad(cache, {1: 0.5 * g_soft})
        np.testing.assert_allclose(joint, apart, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(
            view_of(params, joint, "head1.W"), view_of(params, apart, "head1.W")
        )


class TestDataLoss:
    def test_identical_batches_scale_trunk_gradient(self):
        # aux head copied from the event head, same batch, beta=1:
        # the trunk gradient doubles exactly
        cfg = small_net(heads=(3, 3), trunk=(6,))
        params = init_params(cfg, seed=23)
        params.view("head1.W")[:] = params.view("head0.W")
        params.view("head1.b")[:] = params.view("head0.b")
        rng = np.random.default_rng(24)
        x = rng.normal(size=(4, 5))
        y = rng.integers(0, 3, size=4)
        event_cache = forward(cfg, params, x)
        aux_cache = forward(cfg, params, x)
        _, g_event = cross_entropy_loss(event_cache, y)
        _, g_aux = cross_entropy_loss(aux_cache, y, head=1)
        single = flat_grad(event_cache, {0: g_event})
        full = single + flat_grad(aux_cache, {1: 1.0 * g_aux})
        np.testing.assert_allclose(
            view_of(params, full, "trunk0.W"),
            2.0 * view_of(params, single, "trunk0.W"),
            rtol=1e-12,
        )


class TestBackward:
    def test_unused_head_gradient_is_zero(self):
        cfg = small_net(heads=(4, 3))
        params = init_params(cfg, seed=27)
        x = np.random.default_rng(28).normal(size=(5, 5))
        cache = forward(cfg, params, x)
        _, g = cross_entropy_loss(cache, [0, 1, 2, 3, 0])
        grad = flat_grad(cache, {0: g})
        assert np.all(view_of(params, grad, "head1.W") == 0.0)
        assert np.all(view_of(params, grad, "head1.b") == 0.0)

    def test_one_layer_closed_form(self):
        # single-sample softmax classifier: dW = x^T (p - onehot)
        cfg = small_net(heads=(3,), trunk=(), input_dim=4)
        params = init_params(cfg, seed=29)
        x = np.array([[0.5, -1.0, 2.0, 0.25]])
        cache = forward(cfg, params, x)
        _, g = cross_entropy_loss(cache, [2])
        grad = flat_grad(cache, {0: g})
        p = cache.head_prob[0][0]
        residual = p - np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(
            view_of(params, grad, "head0.W"),
            np.outer(x[0], residual),
            atol=1e-15,
        )


class TestGradientStore:
    """``backward`` adds into a caller-owned store laid out like the params."""

    def _two_passes(self):
        cfg = small_net(heads=(4, 3), trunk=(8, 6), dropout=0.5)
        params = init_params(cfg, seed=50)
        rng = np.random.default_rng(51)
        drop = np.random.default_rng(52)
        event = forward(cfg, params, rng.normal(size=(7, 5)), mode="train", rng=drop)
        aux = forward(cfg, params, rng.normal(size=(7, 5)), mode="train", rng=drop)
        _, g_event = cross_entropy_loss(event, rng.integers(0, 4, size=7))
        _, g_soft = soft_target_loss(event, rng.dirichlet(np.ones(3), size=7))
        _, g_aux = cross_entropy_loss(aux, rng.integers(0, 3, size=7), head=1)
        return params, (event, {0: g_event, 1: 0.25 * g_soft}), (aux, {1: 0.5 * g_aux})

    def test_two_passes_into_one_store_equal_sum_of_separate_stores(self):
        params, first, second = self._two_passes()
        shared = params.zeros_like()
        backward(*first, shared)
        backward(*second, shared)
        apart = flat_grad(*first) + flat_grad(*second)
        assert shared.values.tobytes() == apart.tobytes()

    def test_backward_adds_to_what_the_store_holds(self):
        params, first, _ = self._two_passes()
        grad = params.zeros_like()
        grad.values[:] = 1.5
        backward(*first, grad)
        assert grad.values.tobytes() == (1.5 + flat_grad(*first)).tobytes()

    def test_store_of_another_layout_rejected(self):
        params, first, _ = self._two_passes()
        other = init_params(small_net(heads=(4,)), seed=53).zeros_like()
        with pytest.raises(ValueError, match="gradient store of shape"):
            backward(*first, other)

    def test_views_are_bound_once_and_follow_in_place_updates(self):
        cfg = small_net(heads=(4, 3))
        params = init_params(cfg, seed=54)
        w = params.view("trunk1.W")
        assert params.view("trunk1.W") is w
        assert params.layers[1][0] is w and params.layers[1][1] is params.view("trunk1.b")
        assert [pair[0].shape for pair in params.layers] == [(5, 8), (8, 6), (6, 4), (6, 3)]
        velocity = np.zeros_like(params.values)
        sgd_momentum_step(params, np.ones_like(params.values), velocity, 0.5, 0.0)
        np.testing.assert_array_equal(w, view_of(params, params.values, "trunk1.W"))


class TestHeadSelection:
    """``forward(..., heads=...)`` computes only the named heads."""

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("head", [0, 1])
    def test_named_head_bitwise_equal_full_forward(self, mode, head):
        cfg = small_net(heads=(4, 3), dropout=0.5)
        params = init_params(cfg, seed=55)
        x = np.random.default_rng(56).normal(size=(9, 5))
        full = forward(cfg, params, x, mode, rng=np.random.default_rng(57))
        one = forward(cfg, params, x, mode, rng=np.random.default_rng(57), heads=(head,))
        for outputs in ("head_prob", "head_logprob"):
            got, want = getattr(one, outputs), getattr(full, outputs)
            assert got[head].tobytes() == want[head].tobytes()
            assert got[1 - head] is None
        assert one.head_input.tobytes() == full.head_input.tobytes()

    def test_losses_and_backward_refuse_an_uncomputed_head(self):
        cfg = small_net(heads=(4, 3))
        params = init_params(cfg, seed=58)
        cache = forward(cfg, params, np.zeros((2, 5)), heads=(0,))
        with pytest.raises(ValueError, match="head 1 was not computed"):
            cross_entropy_loss(cache, [0, 1], head=1)
        with pytest.raises(ValueError, match="head 1 was not computed"):
            soft_target_loss(cache, np.full((2, 3), 1 / 3))
        with pytest.raises(ValueError, match="head 1 was not computed"):
            backward(cache, {1: np.zeros((2, 3))}, params.zeros_like())

    def test_out_of_range_head_rejected(self):
        cfg = small_net(heads=(4,))
        params = init_params(cfg, seed=59)
        with pytest.raises(ValueError, match=r"heads \(1,\) out of range for 1 heads"):
            forward(cfg, params, np.zeros((2, 5)), heads=(1,))


class TestGradCheck:
    def test_two_layer_cross_entropy(self):
        rng = np.random.default_rng(30)
        cfg = small_net()
        params = init_params(cfg, seed=31)
        x = rng.normal(size=(7, 5))
        y = rng.integers(0, 4, size=7)
        assert grad_check(cfg, params, ce_loss_fn(cfg, x, y)) <= 1e-5

    @pytest.mark.parametrize(
        "direction", [SOFT_TARGET_AS_DISTRIBUTION, SOFT_TARGET_IN_LOG]
    )
    def test_knowledge_loss_both_directions(self, direction):
        rng = np.random.default_rng(32)
        cfg = small_net(heads=(4, 3))
        params = init_params(cfg, seed=33)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 4, size=6)
        f = rng.dirichlet(np.ones(3), size=6)
        fn = knowledge_loss_fn(cfg, x, y, f, alpha=0.25, direction=direction)
        assert grad_check(cfg, params, fn) <= 1e-5

    def test_data_loss_shared_trunk(self):
        rng = np.random.default_rng(34)
        cfg = small_net(heads=(4, 3))
        params = init_params(cfg, seed=35)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 4, size=6)
        xa = rng.normal(size=(5, 5))
        ya = rng.integers(0, 3, size=5)
        fn = data_loss_fn(cfg, x, y, xa, ya, beta=0.5)
        assert grad_check(cfg, params, fn) <= 1e-5

    def test_random_configs_all_losses(self):
        rng = np.random.default_rng(36)
        for _ in range(8):
            cfg, params, x, y, f = draw_grad_check_case(rng)
            fn = knowledge_loss_fn(cfg, x, y, f, alpha=0.125)
            assert grad_check(cfg, params, fn) <= 1e-4


class TestSGDMomentum:
    def test_plain_gradient_step(self):
        cfg = small_net(heads=(2,), trunk=(), input_dim=2)
        params = init_params(cfg, seed=37)
        before = params.values.copy()
        velocity = np.zeros_like(params.values)
        sgd_momentum_step(params, np.ones_like(before), velocity, lr=1.0, momentum=0.0)
        np.testing.assert_array_equal(params.values, before - 1.0)

    def test_zero_gradient_decays_velocity(self):
        cfg = small_net(heads=(2,), trunk=(), input_dim=2)
        params = init_params(cfg, seed=38)
        before = params.values.copy()
        velocity = np.zeros_like(params.values)
        sgd_momentum_step(params, np.zeros_like(before), velocity, lr=0.1, momentum=0.9)
        np.testing.assert_array_equal(params.values, before)
        np.testing.assert_array_equal(velocity, 0.0)

    def test_velocity_recurrence(self):
        cfg = small_net(heads=(2,), trunk=(), input_dim=2)
        params = init_params(cfg, seed=39)
        g = np.full_like(params.values, 2.0)
        velocity = np.full_like(params.values, 0.5)
        expected_v = 0.9 * 0.5 - 0.01 * 2.0
        expected_p = params.values + expected_v
        sgd_momentum_step(params, g, velocity, lr=0.01, momentum=0.9)
        np.testing.assert_allclose(velocity, expected_v, atol=1e-15)
        np.testing.assert_allclose(params.values, expected_p, atol=1e-15)

    def test_non_finite_gradient_rejected(self):
        cfg = small_net(heads=(2,), trunk=(), input_dim=2)
        params = init_params(cfg, seed=40)
        g = np.zeros_like(params.values)
        g[0] = np.nan
        with pytest.raises(ValueError, match="divergence"):
            sgd_momentum_step(params, g, np.zeros_like(g), 0.01, 0.9)


class TestParamStore:
    def test_layout_covers_every_parameter_once(self):
        cfg = small_net(heads=(4, 3), trunk=(8, 6))
        layout = build_layout(cfg)
        covered = np.zeros(param_count(cfg), dtype=int)
        for _, offset, shape in layout:
            covered[offset : offset + int(np.prod(shape))] += 1
        assert np.all(covered == 1)

    def test_init_deterministic_per_seed(self):
        cfg = small_net()
        a = init_params(cfg, seed=41)
        b = init_params(cfg, seed=41)
        np.testing.assert_array_equal(a.values, b.values)

    def test_event_head_init_independent_of_second_head(self):
        one = NetworkConfig(input_dim=5, trunk=(8,), heads=(4,), dropout_rate=0.0)
        two = NetworkConfig(input_dim=5, trunk=(8,), heads=(4, 3), dropout_rate=0.0)
        pa = init_params(one, seed=42)
        pb = init_params(two, seed=42)
        np.testing.assert_array_equal(pa.view("head0.W"), pb.view("head0.W"))
        np.testing.assert_array_equal(pa.view("trunk0.W"), pb.view("trunk0.W"))

    def test_init_from_source_copies_trunk_and_reinits_heads(self):
        src_cfg = small_net(heads=(9,), trunk=(8,))
        source = init_params(src_cfg, seed=43)
        tgt_cfg = small_net(heads=(4, 3), trunk=(8,))
        params = init_params(tgt_cfg, seed=44, source=source)
        np.testing.assert_array_equal(
            params.view("trunk0.W"), source.view("trunk0.W")
        )
        assert params.view("head0.W").shape == (8, 4)

    def test_init_from_shallower_source_raises_for_missing_trunk_layer(self):
        # the source's head0.W is (8, 8), the shape the target's trunk1.W
        # wants: matching layers by position would copy the head silently
        source = init_params(small_net(heads=(8,), trunk=(8,)), seed=47)
        with pytest.raises(KeyError, match="trunk1.W"):
            init_params(small_net(heads=(4,), trunk=(8, 8)), seed=48, source=source)

    def test_init_from_source_of_other_trunk_shape_rejected(self):
        source = init_params(small_net(trunk=(8,)), seed=49)
        with pytest.raises(ValueError, match=r"source trunk0.W has shape \(5, 8\)"):
            init_params(small_net(trunk=(7,)), seed=49, source=source)

    def test_checkpoint_holds_config_and_params(self):
        cfg = small_net()
        ckpt = Checkpoint(config=cfg, params=init_params(cfg, seed=45))
        assert ckpt.config.heads == (4,)

    def test_unknown_name_raises_key_error(self):
        params = init_params(small_net(), seed=46)
        with pytest.raises(KeyError, match="trunk9.W"):
            params.view("trunk9.W")

    @pytest.mark.parametrize(
        "layout, size, message",
        [
            (TINY_LAYOUT, 5, r"'head0.b' \(offset 4, shape \(2,\)\) runs past the end"),
            (TINY_LAYOUT, 8, r"layout covers 6 values, got values of shape \(8,\)"),
            (
                [("head0.W", 0, (2, 2)), ("head0.b", 5, (2,))],
                7,
                "'head0.b' starts at offset 5, expected 4",
            ),
        ],
        ids=["short", "long", "gap"],
    )
    def test_layout_must_tile_values(self, layout, size, message):
        with pytest.raises(ValueError, match=message):
            ParamStore(values=np.zeros(size), layout=layout, rng_seed=0)
