"""Generators: determinism, planted structure, recovery, and the toy scorer."""

import numpy as np
import pytest
from conftest import make_blob_scorer, preset_high_concentration
from dataclasses import replace

from os2e.datagen import (
    GeneratorConfig,
    benchmark_transfer_config,
    blob_levels,
    gen_aux_dataset,
    gen_image_dataset,
    gen_response_data,
    gen_vector_dataset,
    make_source_checkpoint,
    make_truth,
    preset_responses,
    preset_vector_benchmark,
    teacher_soft_targets,
)
from os2e.selection import SelectionProblem, greedy_select
from os2e.stats import bayes_posterior, estimate_conditional
from os2e.training import TransferConfig


def recovery_rate(config):
    objects, scenes, labels, truth = gen_response_data(config)
    table = estimate_conditional(objects, labels)
    posterior = bayes_posterior(table)
    planted = set(truth.planted_objects())
    problem = SelectionProblem.from_posterior(posterior, k=len(planted))
    selected = set(greedy_select(problem).selected)
    return len(selected & planted) / len(planted)


class TestResponseGenerator:
    def test_rows_on_simplex(self):
        objects, scenes, labels, truth = gen_response_data(preset_responses(0))
        np.testing.assert_allclose(objects.values.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(scenes.values.sum(axis=1), 1.0, atol=1e-9)

    def test_seeded_determinism(self):
        a = gen_response_data(preset_responses(3))
        b = gen_response_data(preset_responses(3))
        np.testing.assert_array_equal(a[0].values, b[0].values)
        np.testing.assert_array_equal(a[2].labels, b[2].labels)
        assert a[3].object_signatures == b[3].object_signatures

    def test_high_concentration_rows_near_uniform_on_signature(self):
        config = replace(
            preset_high_concentration(1), concentration=1e9, noise_sigma=0.0
        )
        objects, _, labels, truth = gen_response_data(config)
        i = 0
        sig = truth.object_signatures[labels.labels[i]]
        row = objects.values[i]
        np.testing.assert_allclose(row[sig], 1.0 / len(sig), atol=1e-6)
        off = np.delete(row, sig)
        assert off.max() < 1e-6

    def test_signatures_disjoint_when_space_allows(self):
        truth = make_truth(preset_responses(5))
        seen = set()
        for sig in truth.object_signatures:
            assert not (seen & set(sig))
            seen |= set(sig)

    def test_recovery_on_high_concentration_preset(self):
        rates = [recovery_rate(preset_high_concentration(seed)) for seed in range(10)]
        assert np.mean(rates) >= 0.8

    def test_single_seed_recovers_most(self):
        assert recovery_rate(preset_high_concentration(0)) >= 7 / 8

    def test_recovery_monotone_in_concentration(self):
        means = []
        for concentration in (0.5, 4.0, 32.0):
            rates = [
                recovery_rate(
                    replace(preset_high_concentration(seed), concentration=concentration)
                )
                for seed in range(10)
            ]
            means.append(np.mean(rates))
        assert means[0] <= means[1] + 1e-12
        assert means[1] <= means[2] + 1e-12


class TestVectorGenerator:
    def test_zero_noise_is_separable(self):
        config = replace(preset_vector_benchmark(2), noise_sigma=0.0)
        truth = make_truth(config)
        train, test, soft = gen_vector_dataset(config, truth)
        protos = {tuple(row) for row in train.features}
        assert len(protos) == config.num_events

    def test_teacher_deterministic(self):
        config = preset_vector_benchmark(4)
        truth = make_truth(config)
        train, _, soft_a = gen_vector_dataset(config, truth)
        soft_b = teacher_soft_targets(config, truth, train.features)
        np.testing.assert_array_equal(soft_a.values, soft_b.values)

    def test_soft_targets_on_simplex_aligned_with_train(self):
        config = preset_vector_benchmark(5)
        truth = make_truth(config)
        train, test, soft = gen_vector_dataset(config, truth)
        assert soft.values.shape == (len(train), len(truth.planted_objects()))
        np.testing.assert_allclose(soft.values.sum(axis=1), 1.0, atol=1e-9)

    def test_aux_labels_match_signature_concepts(self):
        config = preset_vector_benchmark(6)
        truth = make_truth(config)
        aux = gen_aux_dataset(config, truth)
        assert len(aux) == config.n_aux
        assert aux.num_classes == len(truth.planted_objects())

    def test_feature_dim_guard(self):
        config = replace(preset_vector_benchmark(7), feature_dim=10)
        with pytest.raises(ValueError, match="feature_dim"):
            gen_vector_dataset(config, make_truth(config))


class TestImageGenerator:
    def test_blob_identifies_class_without_noise(self):
        config = replace(preset_vector_benchmark(8), noise_sigma=0.0, n_train=4, n_test=4)
        truth = make_truth(config)
        train, test = gen_image_dataset(config, truth)
        levels = blob_levels(config.num_events)
        for img, label in zip(train.features, train.labels):
            assert img.pixels.max() == levels[label]

    def test_blob_side_respected(self):
        config = replace(preset_vector_benchmark(9), noise_sigma=0.0, n_train=2, n_test=2)
        truth = make_truth(config)
        train, _ = gen_image_dataset(config, truth)
        img = train.features[0]
        assert (img.pixels > 0).sum() == config.blob_side**2

    def test_seeded_determinism(self):
        config = preset_vector_benchmark(10)
        truth = make_truth(config)
        a, _ = gen_image_dataset(config, truth)
        b, _ = gen_image_dataset(config, truth)
        np.testing.assert_array_equal(a.features[0].pixels, b.features[0].pixels)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestBlobScorer:
    def test_scores_blob_class_highest(self):
        config = replace(
            preset_vector_benchmark(11), noise_sigma=0.0, n_train=8, n_test=8
        )
        truth = make_truth(config)
        train, _ = gen_image_dataset(config, truth)
        scorer = make_blob_scorer(config.num_events)
        for img, label in zip(train.features, train.labels):
            scores = scorer((img.pixels - 0.5)[None])[0]
            assert scores.argmax() == label

    def test_abstains_on_empty_crop(self):
        scorer = make_blob_scorer(4)
        scores = scorer(np.zeros((1, 16, 16, 1)) - 0.5)[0]
        np.testing.assert_array_equal(scores, 0.25)

    def test_output_on_simplex(self):
        rng = np.random.default_rng(12)
        scorer = make_blob_scorer(4)
        for _ in range(20):
            scores = scorer(rng.random((1, 16, 16, 1)) - 0.5)[0]
            assert abs(scores.sum() - 1.0) <= 1e-9


class TestSourceCheckpoints:
    def test_kinds(self):
        config = preset_vector_benchmark(13)
        truth = make_truth(config)
        for kind in ("random", "planted", "vocabulary"):
            ckpt = make_source_checkpoint(config, truth, (8,), kind, seed=1)
            assert ckpt.config.trunk == (8,)

    def test_planted_units_point_at_planted_dims(self):
        config = preset_vector_benchmark(14)
        truth = make_truth(config)
        ckpt = make_source_checkpoint(config, truth, (16,), "planted", seed=2)
        w0 = ckpt.params.view("trunk0.W")
        planted = truth.planted_objects()
        assert all(int(np.abs(w0[:, j]).argmax()) in planted for j in range(16))

    def test_unknown_kind_rejected(self):
        config = preset_vector_benchmark(15)
        with pytest.raises(ValueError, match="unknown source kind"):
            make_source_checkpoint(config, make_truth(config), (8,), "exotic", 0)


class TestGeneratorConfig:
    def test_sparsity_guard(self):
        with pytest.raises(ValueError, match="sparsity"):
            GeneratorConfig(num_objects=4, num_scenes=4, signature_sparsity=5)

    def test_counts_guard(self):
        with pytest.raises(ValueError, match="counts"):
            GeneratorConfig(num_events=0)


class TestBenchmarkTransferConfig:
    def test_library_defaults_with_half_dropout(self):
        config = benchmark_transfer_config("data", seed=3, beta=0.25)
        assert config == replace(TransferConfig(), dropout_rate=0.5, seed=3, beta=0.25)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            benchmark_transfer_config("bogus", seed=0)
