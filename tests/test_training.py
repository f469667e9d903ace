"""Trainer mechanics: evaluation protocol, degenerate-weight equivalence,
schedules, determinism, and the probe."""

import numpy as np
import pytest
from conftest import param_steps, reference_training

from os2e.datagen import (
    gen_aux_dataset,
    gen_vector_dataset,
    make_source_checkpoint,
    make_truth,
    preset_vector_benchmark,
)
from os2e import training
from os2e.network import (
    DEFAULT_MOMENTUM,
    SOFT_TARGET_AS_DISTRIBUTION,
    SOFT_TARGET_IN_LOG,
    backward,
    cross_entropy_loss,
    forward,
    init_params,
    sgd_momentum_step,
    soft_target_loss,
)
from os2e.training import (
    Dataset,
    SoftTargets,
    TransferConfig,
    data_transfer_train,
    evaluate,
    init_transfer_train,
    knowledge_transfer_train,
    linear_probe_train,
    probe_features,
)


def benchmark_parts(seed=0, n_train=None):
    config = preset_vector_benchmark(seed)
    if n_train is not None:
        from dataclasses import replace

        config = replace(config, n_train=n_train)
    truth = make_truth(config)
    train, test, soft = gen_vector_dataset(config, truth)
    source = make_source_checkpoint(
        config, truth, trunk=(64,), kind="planted", seed=seed
    )
    return config, truth, train, test, soft, source


def quick_config(seed=0, **kw):
    defaults = dict(k_iters=40, batch_size=16, dropout_rate=0.0, seed=seed)
    defaults.update(kw)
    return TransferConfig(**defaults)


class TestEvaluate:
    def test_hand_computed_ap(self):
        # class-0 positives land at ranks 1 and 3: AP = (1/1 + 2/3) / 2 = 5/6
        scores = np.array([[0.9, 0.1], [0.5, 0.5], [0.4, 0.6], [0.1, 0.9]])
        labels = np.array([0, 1, 0, 1])
        result = evaluate(scores, labels)
        assert result.average_precision[0] == (1.0 + 2.0 / 3.0) / 2.0
        np.testing.assert_allclose(result.average_precision[0], 5.0 / 6.0, atol=1e-15)

    def test_perfect_scores(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        scores = np.eye(3)[labels]
        result = evaluate(scores, labels)
        assert result.accuracy == 1.0
        assert result.mean_ap == 1.0

    def test_identical_scores_tie_rule(self):
        labels = np.array([1, 0, 2, 0])
        result = evaluate(np.full((4, 3), 0.25), labels)
        # argmax resolves ties to index 0, so accuracy = frequency of class 0
        assert result.accuracy == 0.5

    def test_zero_positive_class_excluded(self):
        scores = np.random.default_rng(0).random((5, 3))
        labels = np.array([0, 0, 1, 1, 0])
        result = evaluate(scores, labels)
        assert result.skipped_classes == [2]
        assert np.isnan(result.average_precision[2])
        assert np.isfinite(result.mean_ap)

    def test_map_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.random((30, 4))
        labels = rng.integers(0, 4, size=30)
        base = evaluate(scores, labels)
        warped = scores.copy()
        warped[:, 2] = np.exp(3.0 * warped[:, 2]) + 5.0
        assert evaluate(warped, labels).average_precision[2] == base.average_precision[2]

    def test_descending_tie_broken_by_sample_index(self):
        # equal scores keep sample order; positive at index 0 outranks index 1
        scores = np.array([[0.5, 0.5], [0.5, 0.5]])
        result = evaluate(scores, np.array([0, 1]))
        assert result.average_precision[0] == 1.0
        assert result.average_precision[1] == 0.5


class TestInitTransfer:
    def test_overfit_sanity_small_train_set(self):
        config, truth, train, test, soft, source = benchmark_parts(seed=3, n_train=32)
        tc = TransferConfig(k_iters=200, batch_size=32, dropout_rate=0.0, lr=0.05, seed=3)
        report = init_transfer_train(source, train, test, tc)
        assert report.final.iteration == 500
        assert report.final.train_loss < 0.01

    def test_zero_iterations_reports_initialization(self):
        config, truth, train, test, soft, source = benchmark_parts(seed=4)
        tc = quick_config(seed=4, k_iters=0)
        report = init_transfer_train(source, train, test, tc)
        assert len(report.records) == 1
        assert report.records[0].iteration == 0
        net = report.checkpoint.config
        expected = init_params(net, tc.seed, source.params)
        np.testing.assert_array_equal(report.checkpoint.params.values, expected.values)

    def test_planted_source_beats_random_source(self):
        diffs = []
        for seed in range(5):
            config, truth, train, test, soft, _ = benchmark_parts(seed=seed)
            tc = quick_config(seed=seed, k_iters=60)
            planted = make_source_checkpoint(config, truth, (64,), "planted", seed)
            random_src = make_source_checkpoint(config, truth, (64,), "random", seed)
            rep_p = init_transfer_train(planted, train, test, tc)
            rep_r = init_transfer_train(random_src, train, test, tc)
            diffs.append(rep_r.final.test_loss - rep_p.final.test_loss)
        assert np.mean(diffs) > 0.0

    def test_seeded_determinism_bitwise(self):
        config, truth, train, test, soft, source = benchmark_parts(seed=5)
        tc = quick_config(seed=5)
        a = init_transfer_train(source, train, test, tc)
        b = init_transfer_train(source, train, test, tc)
        np.testing.assert_array_equal(
            a.checkpoint.params.values, b.checkpoint.params.values
        )

    def test_train_loss_decreases(self):
        config, truth, train, test, soft, source = benchmark_parts(seed=6)
        report = init_transfer_train(source, train, test, quick_config(seed=6))
        assert report.final.train_loss <= report.records[0].train_loss

    def test_divergence_reported_with_iteration(self):
        config, truth, train, test, soft, source = benchmark_parts(seed=7)
        tc = quick_config(seed=7, lr=1e6)
        with pytest.raises(ValueError, match="divergence at iteration"):
            init_transfer_train(source, train, test, tc)

    def test_lr_schedule_steps(self):
        tc = TransferConfig(k_iters=100, lr=0.01)
        assert tc.total_iters == 250
        assert tc.lr_at(0) == 0.01
        assert tc.lr_at(99) == 0.01
        assert tc.lr_at(100) == pytest.approx(0.001)
        assert tc.lr_at(249) == pytest.approx(0.0001)


def _shared_slices(report, steps):
    """Trunk and event-head parameter values, concatenated, per iteration."""
    params = report.checkpoint.params
    names = [n for n, _, _ in params.layout if n.startswith(("trunk", "head0"))]
    slices = [params.slice_of(n) for n in names]

    def extract(flat):
        return np.concatenate([flat[s] for s in slices])

    return [extract(step) for step in steps]


class TestDegenerateWeights:
    def test_alpha_zero_matches_init_bitwise(self, monkeypatch):
        config, truth, train, test, soft, source = benchmark_parts(seed=8)
        tc_init = quick_config(seed=8)
        tc_know = quick_config(seed=8, alpha=0.0)
        rep_init = param_steps(monkeypatch, init_transfer_train, source, train, test, tc_init)
        rep_know = param_steps(
            monkeypatch, knowledge_transfer_train, source, train, test, soft, tc_know
        )
        for a, b in zip(_shared_slices(*rep_init), _shared_slices(*rep_know)):
            np.testing.assert_array_equal(a, b)

    def test_beta_zero_matches_init_bitwise(self, monkeypatch):
        config, truth, train, test, soft, source = benchmark_parts(seed=9)
        aux = gen_aux_dataset(config, truth)
        tc_init = quick_config(seed=9)
        tc_data = quick_config(seed=9, beta=0.0)
        rep_init = param_steps(monkeypatch, init_transfer_train, source, train, test, tc_init)
        rep_data = param_steps(
            monkeypatch, data_transfer_train, source, train, test, aux, tc_data
        )
        for a, b in zip(_shared_slices(*rep_init), _shared_slices(*rep_data)):
            np.testing.assert_array_equal(a, b)


def _hand_first_step(mode, source, train, soft, aux, tc):
    """Parameters after the loop's first step, composed from the primitives."""
    second = soft.values.shape[1] if mode == "knowledge" else aux.num_classes
    net = training._target_net(source, (train.num_classes, second), tc)
    params = init_params(net, tc.seed, source.params)
    batch_rng = np.random.default_rng([tc.seed, training._STREAM_BATCH])
    drop_rng = np.random.default_rng([tc.seed, training._STREAM_DROPOUT])
    idx = batch_rng.integers(0, len(train), size=tc.batch_size)
    cache = forward(net, params, train.features[idx], mode="train", rng=drop_rng)
    _, g_event = cross_entropy_loss(cache, train.labels[idx])
    grad = params.zeros_like()
    if mode == "knowledge":
        _, g_soft = soft_target_loss(cache, soft.values[idx], tc.soft_direction)
        backward(cache, {0: g_event, 1: tc.alpha * g_soft}, grad)
    else:
        aux_rng = np.random.default_rng([tc.seed, training._STREAM_AUX_BATCH])
        aux_drop_rng = np.random.default_rng([tc.seed, training._STREAM_AUX_DROPOUT])
        aux_idx = aux_rng.integers(0, len(aux), size=tc.batch_size)
        aux_cache = forward(
            net, params, aux.features[aux_idx], mode="train", rng=aux_drop_rng
        )
        _, g_aux = cross_entropy_loss(aux_cache, aux.labels[aux_idx], head=1)
        backward(cache, {0: g_event}, grad)
        backward(aux_cache, {1: tc.beta * g_aux}, grad)
    velocity = np.zeros_like(params.values)
    sgd_momentum_step(params, grad.values, velocity, lr=tc.lr_at(0), momentum=DEFAULT_MOMENTUM)
    return params.values


def _train(mode, source, train, test, soft, aux, tc):
    if mode == "knowledge":
        return knowledge_transfer_train(source, train, test, soft, tc)
    return data_transfer_train(source, train, test, aux, tc)


class TestLossComposition:
    """The loop alone weights the second term: alpha on the imitation loss,
    beta on the auxiliary cross-entropy, in both the gradient and the loss."""

    @pytest.mark.parametrize(
        "mode, direction",
        [
            ("knowledge", SOFT_TARGET_AS_DISTRIBUTION),
            ("knowledge", SOFT_TARGET_IN_LOG),
            ("data", SOFT_TARGET_AS_DISTRIBUTION),
        ],
    )
    def test_first_step_matches_hand_composition(self, monkeypatch, mode, direction):
        config, truth, train, test, soft, source = benchmark_parts(seed=17)
        aux = gen_aux_dataset(config, truth)
        tc = quick_config(
            seed=17, k_iters=1, alpha=0.3, beta=0.7, dropout_rate=0.5,
            soft_direction=direction,
        )
        _, steps = param_steps(monkeypatch, _train, mode, source, train, test, soft, aux, tc)
        expected = _hand_first_step(mode, source, train, soft, aux, tc)
        assert steps[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", ["knowledge", "data"])
    def test_divergence_check_sees_weighted_term(self, monkeypatch, mode):
        # a second term of 1e308 overflows the loss only once it is weighted
        # by 4, so the loop raises at iteration 0 only if it applies the weight
        def huge_soft(*args, **kwargs):
            return 1e308, soft_target_loss(*args, **kwargs)[1]

        def huge_aux(cache, labels, head=0):
            loss, grad = cross_entropy_loss(cache, labels, head=head)
            return (1e308 if head == 1 else loss), grad

        monkeypatch.setattr(training, "soft_target_loss", huge_soft)
        monkeypatch.setattr(training, "cross_entropy_loss", huge_aux)
        config, truth, train, test, soft, source = benchmark_parts(seed=18)
        aux = gen_aux_dataset(config, truth)
        tc = quick_config(seed=18, k_iters=1, alpha=0.5, beta=0.5)
        _train(mode, source, train, test, soft, aux, tc)  # 0.5 * 1e308 is finite
        tc = quick_config(seed=18, k_iters=1, alpha=4.0, beta=4.0)
        with pytest.raises(ValueError, match="divergence at iteration 0: loss=inf"):
            _train(mode, source, train, test, soft, aux, tc)


class TestReferenceLoop:
    """Twenty seeded steps of each mode leave the same parameter bytes as the
    plain reference loop of ``conftest``; compared to each other on the same
    machine, so no stored digest depends on the BLAS kernels."""

    @pytest.mark.parametrize(
        "mode, direction",
        [
            ("init", SOFT_TARGET_AS_DISTRIBUTION),
            ("knowledge", SOFT_TARGET_AS_DISTRIBUTION),
            ("knowledge", SOFT_TARGET_IN_LOG),
            ("data", SOFT_TARGET_AS_DISTRIBUTION),
            ("probe", SOFT_TARGET_AS_DISTRIBUTION),
        ],
    )
    def test_params_bitwise_equal_reference(self, mode, direction):
        config, truth, train, test, soft, source = benchmark_parts(seed=21)
        aux = gen_aux_dataset(config, truth)
        tc = quick_config(
            seed=21, k_iters=8, batch_size=12, alpha=0.3, beta=0.7, dropout_rate=0.5,
            soft_direction=direction,
        )
        assert tc.total_iters == 20
        if mode == "probe":
            train = Dataset(probe_features(train.features), train.labels, train.num_classes)
            test = Dataset(probe_features(test.features), test.labels, test.num_classes)
            report = linear_probe_train(train, test, tc)
            net = report.checkpoint.config
            start = training.init_params(net, tc.seed)
        else:
            report = {
                "init": lambda: init_transfer_train(source, train, test, tc),
                "knowledge": lambda: knowledge_transfer_train(source, train, test, soft, tc),
                "data": lambda: data_transfer_train(source, train, test, aux, tc),
            }[mode]()
            net = report.checkpoint.config
            start = init_params(net, tc.seed, source.params)
        expected = reference_training(
            net, start, train, tc,
            soft=soft if mode == "knowledge" else None,
            aux=aux if mode == "data" else None,
        )
        assert report.final.iteration == 20
        assert report.checkpoint.params.values.tobytes() == expected.tobytes()


class TestSoftTargets:
    def test_off_simplex_rows_rejected(self):
        # checked once here, so the per-batch imitation loss need not; the
        # sum of a row holding NaN compares false against any tolerance
        for rows in (
            [[0.5, 0.5], [0.9, 0.3]], [[1.2, -0.2]], [[0.5, 0.5], [np.nan, np.nan]],
            [[np.nan, 1.0]], [[np.inf, 0.0]], [[1.0, -np.inf]],
        ):
            with pytest.raises(ValueError, match="on the simplex"):
                SoftTargets(values=np.array(rows))


class TestTransferConfig:
    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_nonpositive_batch_size_rejected(self, batch_size):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            TransferConfig(batch_size=batch_size)

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan")])
    def test_nonpositive_or_nan_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="lr must be > 0, got"):
            TransferConfig(lr=lr)

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf")])
    def test_negative_or_non_finite_weight_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0, got"):
            TransferConfig(**{name: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TransferConfig(seed=-1)


class TestKnowledgeTransfer:
    def test_missing_soft_target_row_rejected(self):
        config, truth, train, test, soft, source = benchmark_parts(seed=10)
        short = SoftTargets(values=soft.values[:-1], concept_ids=soft.concept_ids)
        with pytest.raises(ValueError, match="missing soft target row"):
            knowledge_transfer_train(source, train, test, short, quick_config())

    def test_one_hot_soft_targets_act_as_labels(self):
        # teacher rows that are exact one-hots make the imitation loss a
        # second classification loss; training still runs and improves
        config, truth, train, test, soft, source = benchmark_parts(seed=11)
        onehot = np.zeros_like(soft.values)
        onehot[np.arange(len(train)), soft.values.argmax(axis=1)] = 1.0
        report = knowledge_transfer_train(
            source, train, test,
            SoftTargets(values=onehot, concept_ids=soft.concept_ids),
            quick_config(seed=11, alpha=0.25),
        )
        assert report.final.train_loss <= report.records[0].train_loss


class TestDataTransfer:
    def test_empty_aux_rejected(self):
        config, truth, train, test, soft, source = benchmark_parts(seed=12)
        empty = Dataset(np.zeros((0, config.feature_dim)), np.zeros(0, dtype=int), 4)
        with pytest.raises(ValueError, match="empty aux dataset"):
            data_transfer_train(source, train, test, empty, quick_config())

    def test_runs_and_improves(self):
        config, truth, train, test, soft, source = benchmark_parts(seed=13)
        aux = gen_aux_dataset(config, truth)
        report = data_transfer_train(
            source, train, test, aux, quick_config(seed=13)
        )
        assert report.final.train_loss <= report.records[0].train_loss
        assert report.checkpoint.config.heads == (4, aux.num_classes)


class TestLinearProbe:
    def test_separable_two_class_toy(self):
        rng = np.random.default_rng(14)
        protos = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        labels = rng.integers(0, 2, size=120)
        features = probe_features(protos[labels])
        train = Dataset(features[:60], labels[:60], 2)
        test = Dataset(features[60:], labels[60:], 2)
        report = linear_probe_train(train, test, quick_config(k_iters=80))
        assert report.final.test_accuracy == 1.0

    def test_shuffled_labels_give_chance_accuracy(self):
        config, truth, train, test, soft, source = benchmark_parts(seed=15)
        rng = np.random.default_rng(15)
        shuffled = train.labels.copy()
        rng.shuffle(shuffled)
        probe_train = Dataset(probe_features(train.features), shuffled, 4)
        probe_test = Dataset(probe_features(test.features), test.labels, 4)
        report = linear_probe_train(
            probe_train, probe_test, quick_config(seed=15, k_iters=150)
        )
        assert abs(report.final.test_accuracy - 0.25) <= 0.1

    def test_rejects_unnormalized_rows(self):
        train = Dataset(np.full((4, 3), 2.0), [0, 1, 0, 1], 2)
        with pytest.raises(ValueError, match="l2-normalized"):
            linear_probe_train(train, train, quick_config())


class TestProbeFeatures:
    def test_rows_unit_or_zero(self):
        rng = np.random.default_rng(16)
        raw = rng.random((10, 6))
        raw[3] = 0.0
        norms = np.linalg.norm(probe_features(raw), axis=1)
        assert norms[3] == 0.0
        np.testing.assert_allclose(np.delete(norms, 3), 1.0, atol=1e-12)


def _array_holders():
    """One builder per dataclass that holds an array, each call a fresh object."""
    from os2e import datagen, network, pipeline, selection, stats

    config = preset_vector_benchmark(0)
    net = network.NetworkConfig(input_dim=3, trunk=(2,), heads=(2,), dropout_rate=0.0)

    def responses():
        return stats.ResponseMatrix(np.full((2, 2), 0.5), ["a", "b"])

    def labels():
        return stats.EventLabels([0, 1], 2)

    def posterior():
        return stats.bayes_posterior(stats.estimate_conditional(responses(), labels()))

    def problem():
        return selection.SelectionProblem.from_posterior(posterior(), k=1)

    return {
        "ParamStore": lambda: network.init_params(net, 0),
        "Checkpoint": lambda: network.Checkpoint(net, network.init_params(net, 0)),
        "ForwardCache": lambda: forward(net, network.init_params(net, 0), np.ones((2, 3))),
        "Dataset": lambda: Dataset(np.zeros((2, 3)), [0, 1], 2),
        "SoftTargets": lambda: SoftTargets(np.full((2, 2), 0.5)),
        "EvalResult": lambda: evaluate(np.eye(2), [0, 1]),
        "ImageBuffer": lambda: pipeline.ImageBuffer(np.zeros((2, 2))),
        "ResponseMatrix": responses,
        "EventLabels": labels,
        "ConditionalTable": lambda: stats.estimate_conditional(responses(), labels()),
        "PosteriorTable": posterior,
        "SelectionProblem": problem,
        "SelectionResult": lambda: selection.greedy_select(problem()),
        "PlantedTruth": lambda: datagen.make_truth(config),
    }


@pytest.mark.parametrize("name", list(_array_holders()))
def test_array_holders_compare_by_identity(name):
    # a generated field-wise __eq__ would raise "truth value of an array ...
    # is ambiguous" on the array fields
    build = _array_holders()[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a == a and a != b
