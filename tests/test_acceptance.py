"""Acceptance suite: one test per shipped criterion, each printing a
[PASS]/[FAIL] line and enforcing its stated tolerance and runtime budget.

Run verbosely with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
from conftest import (
    ce_loss_fn,
    data_loss_fn,
    draw_aux_batch,
    draw_grad_check_case,
    fixture_path,
    grad_check,
    knowledge_loss_fn,
    make_blob_scorer,
    param_steps,
    preset_high_concentration,
)

from os2e import io
from os2e.datagen import (
    BENCHMARK_SOURCE_KIND,
    BENCHMARK_TRUNK,
    benchmark_transfer_config,
    gen_aux_dataset,
    gen_image_dataset,
    gen_response_data,
    gen_vector_dataset,
    make_source_checkpoint,
    make_truth,
    preset_image_benchmark,
    preset_responses,
    preset_vector_benchmark,
)
from os2e.network import (
    DEFAULT_DROPOUT,
    DEFAULT_LR,
    DEFAULT_MOMENTUM,
    SOFT_TARGET_IN_LOG,
    SOFT_TARGET_AS_DISTRIBUTION,
)
from os2e.pipeline import CropConfig, classify_image, generate_regions
from os2e.selection import (
    DEFAULT_K_OBJECTS,
    DEFAULT_K_SCENES,
    DEFAULT_LAMBDA,
    SelectionProblem,
    energy,
    exhaustive_select,
    greedy_select,
)
from os2e.stats import (
    EventLabels,
    PosteriorTable,
    ResponseMatrix,
    bayes_posterior,
    conditional_entropy,
    default_class_ids,
    estimate_conditional,
    marginalize,
)
from os2e.training import (
    ALPHA_OBJECT_DEFAULT,
    ALPHA_SCENE_DEFAULT,
    BETA_DEFAULT,
    LR_DECAY_DEFAULT,
    Dataset,
    TransferConfig,
    data_transfer_train,
    evaluate,
    init_transfer_train,
    knowledge_transfer_train,
    linear_probe_train,
    probe_features,
)


def passed(n, message):
    print(f"[PASS] criterion {n}: {message}")


def run_benchmark_mode(mode, seed):
    config = preset_vector_benchmark(seed)
    truth = make_truth(config)
    train, test, soft = gen_vector_dataset(config, truth)
    source = make_source_checkpoint(
        config, truth, trunk=BENCHMARK_TRUNK, kind=BENCHMARK_SOURCE_KIND, seed=seed
    )
    tc = benchmark_transfer_config(mode, seed)
    if mode == "init":
        return init_transfer_train(source, train, test, tc)
    if mode == "knowledge":
        return knowledge_transfer_train(source, train, test, soft, tc)
    return data_transfer_train(
        source, train, test, gen_aux_dataset(config, truth), tc
    )


class TestCriterion1Probability:
    def test_probability_invariants(self):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for trial in range(1000):
            n = int(rng.integers(4, 16))
            c = int(rng.integers(2, 10))
            m = int(rng.integers(1, min(6, n + 1)))
            rows = rng.dirichlet(np.ones(c) * rng.uniform(0.3, 3.0), size=n)
            if trial % 5 == 0 and c > 2:
                # exercise the zero-marginal mask path
                dead = int(rng.integers(0, c))
                rows[:, dead] = 0.0
                rows /= rows.sum(axis=1, keepdims=True)
            labels = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
            responses = ResponseMatrix(rows, default_class_ids(c))
            table = estimate_conditional(responses, EventLabels(labels, m))
            assert np.all(np.abs(table.cond.sum(axis=0) - 1.0) <= 1e-9)
            assert abs(table.prior.sum() - 1.0) <= 1e-12
            assert np.array_equal(table.prior, table.counts / table.total)
            marginal = marginalize(table)
            assert abs(marginal.sum() - 1.0) <= 1e-9
            posterior = bayes_posterior(table)
            live = ~posterior.undefined_mask
            assert np.all(np.abs(posterior.post[live].sum(axis=1) - 1.0) <= 1e-9)
            assert np.all(posterior.post[posterior.undefined_mask] == 1.0 / m)
            recovered = posterior.post.T @ posterior.marginal
            assert np.all(np.abs(recovered - table.prior) <= 1e-8)
            for row in posterior.post:
                h = conditional_entropy(row)
                assert 0.0 <= h <= np.log2(m) + 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        passed(1, f"1000 random matrices keep all probability invariants "
                  f"(round-trip <= 1e-8) in {elapsed:.1f}s")


class TestCriterion2SelectionOracle:
    def test_selection_oracle(self):
        start = time.perf_counter()
        rng = np.random.default_rng(0)  # pinned clean battery seed
        for _ in range(100):
            c = int(rng.integers(3, 13))
            k = int(rng.integers(1, min(c, 4) + 1))
            m = int(rng.integers(2, 6))
            rows = rng.dirichlet(np.ones(m), size=c)
            posterior = PosteriorTable(
                post=rows,
                marginal=np.full(c, 1.0 / c),
                undefined_mask=np.zeros(c, dtype=bool),
            )
            problem = SelectionProblem.from_posterior(posterior, k=k, lam=0.5)
            greedy = greedy_select(problem)
            _, oracle_energy = exhaustive_select(problem)
            assert oracle_energy <= greedy.energy + 1e-12
            randoms = []
            for _ in range(50):
                pick = rng.choice(c, size=k, replace=False)
                indicator = np.zeros(c, dtype=np.int8)
                indicator[pick] = 1
                randoms.append(energy(problem, indicator))
            assert greedy.energy <= np.mean(randoms) + 1e-9
        table = io.read_conditional_json(fixture_path("three_class_conditional.json"))
        fixture_problem = SelectionProblem.from_posterior(bayes_posterior(table), k=2)
        result = greedy_select(fixture_problem)
        assert result.selected == [0, 1]
        assert result.energy == 0.0
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        passed(2, f"greedy <= random-subset mean and oracle <= greedy on 100 "
                  f"instances; fixture selects [0, 1] at energy 0 ({elapsed:.1f}s)")


class TestCriterion3Gradients:
    def test_gradient_correctness(self):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(20):
            cfg, params, x, y, f = draw_grad_check_case(rng)
            xa, ya = draw_aux_batch(cfg, params, rng)
            for fn in (
                ce_loss_fn(cfg, x, y),
                knowledge_loss_fn(cfg, x, y, f, 0.25, SOFT_TARGET_AS_DISTRIBUTION),
                knowledge_loss_fn(cfg, x, y, f, 0.25, SOFT_TARGET_IN_LOG),
                data_loss_fn(cfg, x, y, xa, ya, beta=0.5),
            ):
                err = grad_check(cfg, params, fn, epsilon=1e-5)
                worst = max(worst, err)
                assert err <= 1e-4
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        passed(3, f"finite-difference error <= 1e-4 for all loss compositions "
                  f"over 20 configs (worst {worst:.2e}, {elapsed:.1f}s)")


class TestCriterion4DegenerateWeights:
    @staticmethod
    def shared_trajectory(report, steps):
        params = report.checkpoint.params
        names = [n for n, _, _ in params.layout if n.startswith(("trunk", "head0"))]
        slices = [params.slice_of(n) for n in names]
        return [np.concatenate([step[s] for s in slices]) for step in steps]

    def test_degenerate_weight_equivalence(self, monkeypatch):
        config = preset_vector_benchmark(0)
        truth = make_truth(config)
        train, test, soft = gen_vector_dataset(config, truth)
        aux = gen_aux_dataset(config, truth)
        source = make_source_checkpoint(config, truth, BENCHMARK_TRUNK, "vocabulary", 0)

        def tc(**kw):
            return TransferConfig(k_iters=40, batch_size=16, dropout_rate=0.5, seed=11, **kw)

        rep_init = param_steps(monkeypatch, init_transfer_train, source, train, test, tc())
        rep_know = param_steps(
            monkeypatch, knowledge_transfer_train, source, train, test, soft, tc(alpha=0.0)
        )
        rep_data = param_steps(
            monkeypatch, data_transfer_train, source, train, test, aux, tc(beta=0.0)
        )
        base = self.shared_trajectory(*rep_init)
        for other in (self.shared_trajectory(*rep_know), self.shared_trajectory(*rep_data)):
            assert len(base) == len(other)
            for a, b in zip(base, other):
                assert a.tobytes() == b.tobytes()
        passed(4, "alpha=0 and beta=0 reproduce the init-mode trunk+event-head "
                  "trajectory bitwise over all 100 iterations")


class TestCriterion5ShippedConstants:
    def test_shipped_defaults(self):
        assert CropConfig().region_count == 54
        assert len(CropConfig().scale_factors) == 3
        assert len(CropConfig().ratio_modes) == 2
        assert CropConfig().grid == 3
        assert DEFAULT_LAMBDA == 0.5
        assert ALPHA_OBJECT_DEFAULT == 0.125
        assert ALPHA_SCENE_DEFAULT == 0.25
        assert BETA_DEFAULT == 0.5
        assert DEFAULT_DROPOUT == 0.7
        assert DEFAULT_MOMENTUM == 0.9
        assert DEFAULT_LR == 0.01
        tc = TransferConfig()
        assert (tc.alpha, tc.beta) == (0.125, 0.5)
        assert (tc.dropout_rate, DEFAULT_MOMENTUM, tc.lr) == (0.7, 0.9, 0.01)
        assert LR_DECAY_DEFAULT == 0.1
        assert (DEFAULT_K_OBJECTS, DEFAULT_K_SCENES) == (300, 150)
        passed(5, "54-region default crop config and lambda/alpha/beta/dropout/"
                  "momentum/lr defaults all match the shipped constants")


class TestCriterion6TransferOrdering:
    def test_transfer_ordering_benchmark(self):
        start = time.perf_counter()
        acc = {}
        gap = {}
        for mode in ("init", "knowledge", "data"):
            finals = [run_benchmark_mode(mode, seed).final for seed in range(10)]
            acc[mode] = float(np.mean([r.test_accuracy for r in finals]))
            gap[mode] = float(np.mean([r.test_loss - r.train_loss for r in finals]))
        assert acc["knowledge"] >= acc["init"] - 0.01
        assert acc["data"] >= acc["init"] - 0.01
        assert max(acc["knowledge"], acc["data"]) >= acc["init"] + 0.02
        assert gap["knowledge"] <= gap["init"] + 0.02
        assert gap["data"] <= gap["init"] + 0.02
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        passed(6, f"mode means over 10 seeds: init {acc['init']:.3f}, knowledge "
                  f"{acc['knowledge']:.3f}, data {acc['data']:.3f}; gaps "
                  f"{gap['init']:.2f}/{gap['knowledge']:.2f}/{gap['data']:.2f} "
                  f"({elapsed:.0f}s)")


class TestCriterion7MultiCrop:
    def test_multi_crop_benefit(self):
        start = time.perf_counter()
        config = preset_image_benchmark(0)
        truth = make_truth(config)
        _, test = gen_image_dataset(config, truth)
        scorer = make_blob_scorer(config.num_events)
        crop_cfg = CropConfig(base_side=32, crop_side=16)
        scorers = {"object": scorer, "scene": scorer}
        fused_hits = center_hits = 0
        for image, label in zip(test.features, test.labels):
            scores, fused = classify_image(image, crop_cfg, scorers)
            fused_hits += scores.argmax() == label
            center = next(
                i for i, spec in enumerate(
                    generate_regions(image.height, image.width, crop_cfg)
                )
                if spec.ratio_mode == "square" and spec.scale_factor == 1.0
                and (spec.grid_row, spec.grid_col) == (1, 1)
            )
            center_hits += fused[center].argmax() == label
        n = len(test.labels)
        assert n == 200
        fused_acc, center_acc = fused_hits / n, center_hits / n
        assert fused_acc >= center_acc
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        passed(7, f"54-region fusion accuracy {fused_acc:.3f} >= single center "
                  f"crop {center_acc:.3f} on 200 blob images ({elapsed:.0f}s)")


class TestCriterion8ProbeCombination:
    @staticmethod
    def probe_map(features, labels, n_train, seed):
        train = Dataset(features[:n_train], labels[:n_train], 4)
        test = Dataset(features[n_train:], labels[n_train:], 4)
        tc = TransferConfig(k_iters=120, batch_size=32, dropout_rate=0.0, seed=seed)
        return linear_probe_train(train, test, tc).final.test_map

    def test_probe_combination(self):
        start = time.perf_counter()
        maps = {"objects": [], "scenes": [], "combination": []}
        for seed in range(5):
            config = preset_responses(seed)
            objects, scenes, labels, _ = gen_response_data(config)
            n_train = config.n_train
            obj = probe_features(objects.values)
            scn = probe_features(scenes.values)
            both = np.concatenate([obj, scn], axis=1)
            both = probe_features(both)
            maps["objects"].append(self.probe_map(obj, labels.labels, n_train, seed))
            maps["scenes"].append(self.probe_map(scn, labels.labels, n_train, seed))
            maps["combination"].append(
                self.probe_map(both, labels.labels, n_train, seed)
            )
        means = {k: float(np.mean(v)) for k, v in maps.items()}
        assert means["combination"] >= max(means["objects"], means["scenes"]) - 0.005
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        passed(8, f"probe mAP objects {means['objects']:.3f}, scenes "
                  f"{means['scenes']:.3f}, combination {means['combination']:.3f} "
                  f"({elapsed:.0f}s)")


class TestCriterion9PlantedRecovery:
    def test_planted_recovery(self):
        start = time.perf_counter()
        rates = []
        for seed in range(10):
            objects, _, labels, truth = gen_response_data(preset_high_concentration(seed))
            table = estimate_conditional(objects, labels)
            posterior = bayes_posterior(table)
            planted = set(truth.planted_objects())
            problem = SelectionProblem.from_posterior(posterior, k=len(planted))
            selected = set(greedy_select(problem).selected)
            rates.append(len(selected & planted) / len(planted))
        mean_rate = float(np.mean(rates))
        assert mean_rate >= 0.8
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        passed(9, f"greedy selection recovers {mean_rate:.0%} of planted concepts "
                  f"(mean over 10 seeds, {elapsed:.1f}s)")


class TestCriterion10Determinism:
    def test_determinism_and_round_trips(self, tmp_path):
        # identical seeds -> bitwise identical checkpoints
        rep_a = run_benchmark_mode("init", 3)
        rep_b = run_benchmark_mode("init", 3)
        assert (
            rep_a.checkpoint.params.values.tobytes()
            == rep_b.checkpoint.params.values.tobytes()
        )

        # file round-trips at stated tolerances
        config = preset_responses(1)
        objects, _, labels, _ = gen_response_data(config)
        resp_path = str(tmp_path / "resp.csv")
        io.write_response_csv(resp_path, objects)
        loaded, _ = io.read_response_csv(resp_path)
        assert np.max(np.abs(loaded.values - objects.values)) <= 1e-12

        ckpt_path = str(tmp_path / "ckpt.json")
        io.write_checkpoint_json(ckpt_path, rep_a.checkpoint)
        loaded_ckpt = io.read_checkpoint_json(ckpt_path)
        assert (
            loaded_ckpt.params.values.tobytes()
            == rep_a.checkpoint.params.values.tobytes()
        )

        table = estimate_conditional(objects, labels)
        cond_path = str(tmp_path / "cond.json")
        io.write_conditional_json(cond_path, table)
        reloaded = io.read_conditional_json(cond_path)
        assert reloaded.cond.tobytes() == table.cond.tobytes()

        # hand-computed ranking fixture: positives at ranks 1 and 3
        scores = np.array([[0.9, 0.1], [0.5, 0.5], [0.4, 0.6], [0.1, 0.9]])
        result = evaluate(scores, np.array([0, 1, 0, 1]))
        assert result.average_precision[0] == (1.0 + 2.0 / 3.0) / 2.0
        np.testing.assert_allclose(result.average_precision[0], 5.0 / 6.0, atol=1e-15)
        passed(10, "seeded checkpoints bitwise stable; CSV/JSON round-trips within "
                   "tolerance; AP fixture returns 5/6")
