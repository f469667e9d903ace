"""End-to-end CLI: subcommands, error paths, reproducibility, artifacts."""

import dataclasses
import json
import os

import numpy as np
import pytest
from conftest import fixture_path

from os2e.cli import run
from os2e import io, pipeline
from os2e.datagen import gen_image_dataset, make_truth, preset_image_benchmark
from os2e.network import (
    Checkpoint,
    NetworkConfig,
    forward,
    init_params,
)
from os2e.pipeline import CropConfig, ImageBuffer, classify_image, generate_regions


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestSelectCommand:
    def test_bundled_fixture_selects_0_1(self, tmp_path):
        out = str(tmp_path / "sel")
        code = run(
            [
                "select",
                "--table", fixture_path("three_class_conditional.json"),
                "--k", "2",
                "--out", out,
            ]
        )
        assert code == 0
        result = read_json(os.path.join(out, "selection.json"))
        assert result["selected"] == [0, 1]
        assert result["energy"] == 0.0
        assert os.path.exists(os.path.join(out, "selection_report.csv"))
        assert os.path.exists(os.path.join(out, "resolved_config.json"))

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lam_named_before_any_output(self, tmp_path, capsys, lam):
        out = tmp_path / "sel"
        code = run(["select", "--table", fixture_path("three_class_conditional.json"),
                    "--k", "2", "--lam", lam, "--out", str(out)])
        assert code == 1
        assert f"lam must be finite and >= 0, got {lam}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_counts_name_table_file(self, tmp_path, capsys):
        table = tmp_path / "conditional.json"
        payload = read_json(fixture_path("three_class_conditional.json"))
        payload.update(counts=[-1, 5], prior=[-0.25, 1.25])
        table.write_text(json.dumps(payload))
        out = tmp_path / "sel"
        code = run(["select", "--table", str(table), "--k", "2", "--out", str(out)])
        assert code == 1
        assert f"{table}: counts must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestStatsCommand:
    def test_off_simplex_row_fails_with_line(self, tmp_path, capsys):
        resp = tmp_path / "resp.csv"
        resp.write_text("image_id,class_0,class_1\nimg_0,0.5,0.5\nimg_1,0.9,0.4\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("image_id,event_index\nimg_0,0\nimg_1,1\n")
        code = run(
            ["stats", "--responses", str(resp), "--labels", str(labels),
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "unnormalized scores" in err
        assert "line 3" in err

    @pytest.mark.parametrize(
        "ids, row, first, second",
        [
            (["img_1", "img_0", "img_2"], 1, "img_0", "img_1"),
            (["new_0", "new_1", "new_2"], 1, "img_0", "new_0"),
            (["img_0", "img_1"], 3, "img_2", "(none)"),
        ],
        ids=["reordered", "new_ids", "missing_row"],
    )
    def test_labels_for_other_images_fail_before_any_output(
        self, tmp_path, capsys, ids, row, first, second
    ):
        resp = tmp_path / "resp.csv"
        resp.write_text(
            "image_id,class_0,class_1\nimg_0,0.5,0.5\nimg_1,0.9,0.1\nimg_2,0.2,0.8\n"
        )
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "image_id,event_index\n" + "".join(f"{i},{n % 2}\n" for n, i in enumerate(ids))
        )
        out = tmp_path / "out"
        code = run(["stats", "--responses", str(resp), "--labels", str(labels),
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{resp} and {labels} must list the same image ids" in err
        assert f"first differ on data row {row}: {first} vs {second}" in err
        assert not out.exists()

    def test_writes_tables(self, tmp_path):
        gen_dir = str(tmp_path / "gen")
        assert run(["gen", "--preset", "responses", "--seed", "1", "--out", gen_dir]) == 0
        out = str(tmp_path / "stats")
        code = run(
            ["stats",
             "--responses", os.path.join(gen_dir, "object_responses.csv"),
             "--labels", os.path.join(gen_dir, "labels.csv"),
             "--out", out]
        )
        assert code == 0
        table = io.read_conditional_json(os.path.join(out, "conditional.json"))
        assert table.num_events == 4
        posterior = read_json(os.path.join(out, "posterior.json"))
        assert posterior["num_classes"] == 20


class TestGenCommand:
    def test_vectors_preset_files(self, tmp_path):
        out = str(tmp_path / "v")
        code = run(
            ["gen", "--preset", "vectors", "--seed", "2", "--n-train", "16",
             "--n-test", "16", "--out", out]
        )
        assert code == 0
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert set(manifest["files"]) >= {"train.csv", "test.csv", "aux.csv",
                                          "soft_targets.json", "truth.json"}
        truth = read_json(os.path.join(out, "truth.json"))
        assert len(truth["object_signatures"]) == 4
        # the teacher in truth.json scores the train rows into soft_targets.json
        train = io.read_dataset_csv(os.path.join(out, "train.csv"))
        soft = io.read_soft_targets_json(os.path.join(out, "soft_targets.json"))
        logits = train.features @ np.array(truth["teacher_weights"]) + truth["teacher_bias"]
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs, soft.values, rtol=1e-12, atol=0)
        assert soft.concept_ids == truth["teacher_concepts"]

    def test_images_preset_files(self, tmp_path):
        out = str(tmp_path / "i")
        code = run(
            ["gen", "--preset", "images", "--seed", "3", "--n-train", "2",
             "--n-test", "2", "--out", out]
        )
        assert code == 0
        for split in ("train", "test"):
            assert sorted(os.listdir(os.path.join(out, split))) == ["img.npy", "labels.csv"]
            ids, pixels = io.read_image(os.path.join(out, split, "img.npy"))
            assert pixels.shape == (2, 64, 64, 1)
            _, label_ids = io.read_labels_csv(os.path.join(out, split, "labels.csv"))
            assert ids == label_ids == ["img_0000", "img_0001"]
        truth = read_json(os.path.join(out, "truth.json"))
        teacher = [truth[k] for k in ("teacher_weights", "teacher_bias", "teacher_concepts")]
        assert teacher == [None, None, []]

    @pytest.mark.parametrize("preset", ["responses", "vectors", "images"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "seed must be >= 0, got -1"),
            ("--concentration", "nan", "concentration must be finite and >= 0, got nan"),
            ("--noise-sigma", "nan", "noise_sigma must be finite and >= 0, got nan"),
            ("--noise-sigma", "inf", "noise_sigma must be finite and >= 0, got inf"),
        ],
        ids=["seed_negative", "concentration_nan", "noise_sigma_nan", "noise_sigma_inf"],
    )
    def test_bad_setting_named_before_any_output(
        self, tmp_path, capsys, preset, flag, value, message
    ):
        out = tmp_path / "g"
        assert run(["gen", "--preset", preset, flag, value, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_wrongly_typed_config_value_fails_before_any_output(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": "abc"}))
        out = tmp_path / "g"
        assert run(["gen", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "'seed'" in err
        assert not out.exists()

    def test_null_override_keeps_preset_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"concentration": None, "n_test": 3}))
        out = tmp_path / "g"
        assert run(["gen", "--preset", "images", "--n-train", "1",
                    "--config", str(cfg), "--out", str(out)]) == 0
        assert [path.name for path in (out / "test").glob("*.npy")] == ["img.npy"]
        assert io.read_image(str(out / "test" / "img.npy"))[1].shape == (3, 64, 64, 1)


class TestTrainCommand:
    def gen_data(self, tmp_path, seed="4"):
        gen_dir = str(tmp_path / "data")
        run(["gen", "--preset", "vectors", "--seed", seed, "--n-train", "24",
             "--n-test", "24", "--out", gen_dir])
        return gen_dir

    def common_args(self, gen_dir, out, extra=()):
        return [
            "train", "--train", os.path.join(gen_dir, "train.csv"),
            "--test", os.path.join(gen_dir, "test.csv"),
            "--schedule", "6", "--batch-size", "8", "--dropout", "0.0",
            "--trunk", "8", "--seed", "7", "--out", out, *extra,
        ]

    @pytest.mark.parametrize("trunk", ["a", "8,x"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_trunk_named_before_any_output(self, tmp_path, capsys, trunk, source):
        gen_dir = self.gen_data(tmp_path)
        out = tmp_path / "t"
        args = self.common_args(gen_dir, str(out), ["--mode", "init"])
        if source == "flag":
            args[args.index("--trunk") + 1] = trunk
        else:
            del args[args.index("--trunk") : args.index("--trunk") + 2]
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"trunk": trunk}))
            args += ["--config", str(cfg)]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert f"setting 'trunk' must be comma-separated integer widths, got {trunk!r}" in err
        assert not out.exists()

    def test_init_deterministic_checkpoints(self, tmp_path):
        gen_dir = self.gen_data(tmp_path)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(self.common_args(gen_dir, out_a, ["--mode", "init"])) == 0
        assert run(self.common_args(gen_dir, out_b, ["--mode", "init"])) == 0
        with open(os.path.join(out_a, "checkpoint.json"), "rb") as fh:
            bytes_a = fh.read()
        with open(os.path.join(out_b, "checkpoint.json"), "rb") as fh:
            bytes_b = fh.read()
        assert bytes_a == bytes_b

    def test_knowledge_and_data_modes(self, tmp_path):
        gen_dir = self.gen_data(tmp_path)
        out_k = str(tmp_path / "k")
        code = run(
            self.common_args(
                gen_dir, out_k,
                ["--mode", "knowledge",
                 "--soft-targets", os.path.join(gen_dir, "soft_targets.json")],
            )
        )
        assert code == 0
        out_d = str(tmp_path / "d")
        code = run(
            self.common_args(
                gen_dir, out_d,
                ["--mode", "data", "--aux", os.path.join(gen_dir, "aux.csv")],
            )
        )
        assert code == 0
        report = read_json(os.path.join(out_d, "report.json"))
        assert report["records"][-1]["iteration"] == 15

    def test_probe_mode(self, tmp_path):
        gen_dir = self.gen_data(tmp_path)
        out = str(tmp_path / "p")
        assert run(self.common_args(gen_dir, out, ["--mode", "probe"])) == 0
        assert os.path.exists(os.path.join(out, "report.csv"))

    def test_knowledge_without_targets_fails(self, tmp_path, capsys):
        gen_dir = self.gen_data(tmp_path)
        code = run(
            self.common_args(gen_dir, str(tmp_path / "x"), ["--mode", "knowledge"])
        )
        assert code == 1
        assert "soft-targets" in capsys.readouterr().err

    def test_config_file_precedence(self, tmp_path):
        gen_dir = self.gen_data(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 99, "schedule": 4}))
        out = str(tmp_path / "c")
        code = run(
            ["train", "--train", os.path.join(gen_dir, "train.csv"),
             "--test", os.path.join(gen_dir, "test.csv"),
             "--mode", "init", "--trunk", "8", "--batch-size", "8",
             "--dropout", "0.0", "--config", str(cfg), "--seed", "7",
             "--out", out]
        )
        assert code == 0
        resolved = read_json(os.path.join(out, "resolved_config.json"))
        assert resolved["schedule"] == 4  # from config file
        assert resolved["seed"] == 7  # flag overrides file

    def test_unknown_config_key_fails_before_any_output(self, tmp_path, capsys):
        gen_dir = self.gen_data(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shcedule": 5}))
        out = tmp_path / "c"
        code = run(self.common_args(gen_dir, str(out), ["--config", str(cfg)]))
        assert code == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "'shcedule'" in err
        assert not out.exists()

    def test_wrongly_typed_config_value_fails_before_any_output(self, tmp_path, capsys):
        gen_dir = self.gen_data(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schedule": [3]}))
        out = tmp_path / "c"
        code = run(self.common_args(gen_dir, str(out), ["--config", str(cfg)]))
        assert code == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "'schedule'" in err
        assert not out.exists()

    @pytest.mark.parametrize("batch_size", ["0", "-3"])
    def test_nonpositive_batch_size_names_setting(self, tmp_path, capsys, batch_size):
        gen_dir = self.gen_data(tmp_path)
        out = tmp_path / "c"
        args = self.common_args(gen_dir, str(out))
        args[args.index("--batch-size") + 1] = batch_size
        assert run(args) == 1
        assert "batch_size must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["0", "-1", "inf"])
    def test_nonpositive_lr_names_setting(self, tmp_path, capsys, lr):
        gen_dir = self.gen_data(tmp_path)
        out = tmp_path / "c"
        assert run(self.common_args(gen_dir, str(out), ["--lr", lr])) == 1
        assert "lr must be finite and > 0, got" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--mode", "knowledge", "--alpha", "nan"], "alpha must be finite and >= 0"),
            (["--mode", "init", "--alpha", "nan"], "alpha must be finite and >= 0"),
            (["--mode", "data", "--beta", "inf"], "beta must be finite and >= 0"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
        ids=["knowledge_alpha_nan", "init_alpha_nan", "data_beta_inf", "seed_negative"],
    )
    def test_bad_setting_named_before_any_output(self, tmp_path, capsys, extra, message):
        gen_dir = self.gen_data(tmp_path)
        out = tmp_path / "c"
        assert run(self.common_args(gen_dir, str(out), extra)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_int_config_value_sets_float_setting(self, tmp_path):
        # the run's resolved_config.json keeps the file's 0; the checkpoint
        # holds the float dropout rate the network ran with
        gen_dir = self.gen_data(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dropout": 0}))
        out = str(tmp_path / "c")
        args = self.common_args(gen_dir, out, ["--config", str(cfg)])
        del args[args.index("--dropout") : args.index("--dropout") + 2]
        assert run(args) == 0
        assert read_json(os.path.join(out, "resolved_config.json"))["dropout"] == 0
        with open(os.path.join(out, "checkpoint.json"), encoding="utf-8") as fh:
            assert '"dropout_rate": 0.0' in fh.read()


class TestInferCommand:
    def make_checkpoint(self, path, num_classes=4):
        cfg = NetworkConfig(
            input_dim=16 * 16, trunk=(), heads=(num_classes,), dropout_rate=0.0
        )
        io.write_checkpoint_json(path, Checkpoint(cfg, init_params(cfg, seed=5)))

    def test_scores_and_specs(self, tmp_path):
        img_dir = str(tmp_path / "imgs")
        run(["gen", "--preset", "images", "--seed", "6", "--n-train", "1",
             "--n-test", "3", "--out", img_dir])
        ckpt_o = str(tmp_path / "o.json")
        ckpt_s = str(tmp_path / "s.json")
        self.make_checkpoint(ckpt_o)
        self.make_checkpoint(ckpt_s)
        out = str(tmp_path / "infer")
        code = run(
            ["infer", "--checkpoint-o", ckpt_o, "--checkpoint-s", ckpt_s,
             "--image-dir", os.path.join(img_dir, "test"),
             "--base-side", "32", "--crop-side", "16", "--out", out]
        )
        assert code == 0
        (specs,) = read_json(os.path.join(out, "region_specs.json"))["sizes"]
        assert len(specs["specs"]) == 54
        with open(os.path.join(out, "scores.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "image_id,score_0,score_1,score_2,score_3"
        assert len(lines) == 4
        row = np.array([float(x) for x in lines[1].split(",")[1:]])
        assert abs(row.sum() - 1.0) <= 1e-9

    def test_crop_config_file(self, tmp_path):
        img_dir = str(tmp_path / "imgs")
        run(["gen", "--preset", "images", "--seed", "6", "--n-train", "1",
             "--n-test", "1", "--out", img_dir])
        ckpt = str(tmp_path / "o.json")
        self.make_checkpoint(ckpt)
        crop_cfg = tmp_path / "crop.json"
        crop_cfg.write_text(json.dumps(
            {"base_side": 32, "crop_side": 16, "scale_factors": [1.0],
             "ratio_modes": ["square"], "grid": 2}
        ))
        out = str(tmp_path / "infer")
        code = run(
            ["infer", "--checkpoint-o", ckpt, "--checkpoint-s", ckpt,
             "--image-dir", os.path.join(img_dir, "test"),
             "--crop-config", str(crop_cfg), "--out", out]
        )
        assert code == 0
        (specs,) = read_json(os.path.join(out, "region_specs.json"))["sizes"]
        assert len(specs["specs"]) == 4

    def test_specs_for_every_image_size(self, tmp_path):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        rng = np.random.default_rng(18)
        for name, shape in (("a", (64, 64)), ("b", (48, 80)), ("c", (64, 64))):
            io.write_image(str(img_dir / f"{name}.npy"), rng.random((*shape, 1)))
        ckpt = str(tmp_path / "o.json")
        self.make_checkpoint(ckpt)
        out = str(tmp_path / "infer")
        code = run(
            ["infer", "--checkpoint-o", ckpt, "--checkpoint-s", ckpt,
             "--image-dir", str(img_dir), "--base-side", "32", "--crop-side", "16",
             "--out", out]
        )
        assert code == 0
        sizes = read_json(os.path.join(out, "region_specs.json"))["sizes"]
        assert [(s["height"], s["width"]) for s in sizes] == [(64, 64), (48, 80)]
        config = CropConfig(base_side=32, crop_side=16)
        for size in sizes:
            views, offsets = generate_regions(size["height"], size["width"], config)
            specs = size["specs"]
            assert [[s["top"], s["left"]] for s in specs] == offsets.tolist()
            assert [
                (s["ratio_mode"], s["scale_factor"], s["resized_height"], s["resized_width"])
                for s in specs
            ] == [view for view in views for _ in range(config.grid**2)]

    def test_region_specs_match_golden_file(self, tmp_path):
        # three sizes in first-seen order, both ratio modes, and int scale
        # factors, which the file keeps as ints
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        rng = np.random.default_rng(19)
        for name, shape in (("a", (64, 64)), ("b", (48, 80)), ("c", (80, 40))):
            np.save(img_dir / f"{name}.npy", rng.random((*shape, 1)))
        ckpt = str(tmp_path / "o.json")
        self.make_checkpoint(ckpt)
        crop_cfg = tmp_path / "crop.json"
        crop_cfg.write_text(json.dumps(
            {"base_side": 32, "crop_side": 16, "scale_factors": [1, 2],
             "ratio_modes": ["aspect_preserving", "square"], "grid": 2}
        ))
        out = tmp_path / "infer"
        assert run(
            ["infer", "--checkpoint-o", ckpt, "--checkpoint-s", ckpt,
             "--image-dir", str(img_dir), "--crop-config", str(crop_cfg),
             "--out", str(out)]
        ) == 0
        with open(fixture_path("region_specs_mixed_sizes.json"), "rb") as fh:
            golden = fh.read()
        assert (out / "region_specs.json").read_bytes() == golden

    def test_unknown_crop_config_key_fails_before_any_output(self, tmp_path, capsys):
        img_dir = str(tmp_path / "imgs")
        run(["gen", "--preset", "images", "--seed", "6", "--n-train", "1",
             "--n-test", "1", "--out", img_dir])
        ckpt = str(tmp_path / "o.json")
        self.make_checkpoint(ckpt)
        crop_cfg = tmp_path / "crop.json"
        crop_cfg.write_text(json.dumps({"base_side": 32, "crop_side": 16, "grdi": 2}))
        out = tmp_path / "infer"
        code = run(
            ["infer", "--checkpoint-o", ckpt, "--checkpoint-s", ckpt,
             "--image-dir", os.path.join(img_dir, "test"),
             "--crop-config", str(crop_cfg), "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(crop_cfg) in err and "'grdi'" in err
        assert not out.exists()

    def test_wrongly_typed_crop_config_fails_before_any_output(self, tmp_path, capsys):
        img_dir = str(tmp_path / "imgs")
        run(["gen", "--preset", "images", "--seed", "6", "--n-train", "1",
             "--n-test", "1", "--out", img_dir])
        ckpt = str(tmp_path / "o.json")
        self.make_checkpoint(ckpt)
        out = tmp_path / "infer"
        for bad in ({"grid": "3"}, {"scale_factors": [1.0, "2"]}, {"crop_side": 16.0}):
            crop_cfg = tmp_path / "crop.json"
            crop_cfg.write_text(json.dumps(bad))
            code = run(
                ["infer", "--checkpoint-o", ckpt, "--checkpoint-s", ckpt,
                 "--image-dir", os.path.join(img_dir, "test"),
                 "--crop-config", str(crop_cfg), "--out", str(out)]
            )
            assert code == 1
            err = capsys.readouterr().err
            (key,) = bad
            assert str(crop_cfg) in err and repr(key) in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--scales", "1,inf"], "scale_factors must be finite"),
            (["--scales", "nan"], "scale_factors must be finite"),
            (["--crop-config", "Infinity"], "scale_factors must be finite"),
            (["--mean-pixel", "nan"], "mean_pixel must be finite"),
        ],
        ids=["scales_inf", "scales_nan", "crop_config_infinity", "mean_pixel_nan"],
    )
    def test_non_finite_setting_named_before_any_output(
        self, tmp_path, capsys, flags, message
    ):
        img_dir = str(tmp_path / "imgs")
        run(["gen", "--preset", "images", "--seed", "6", "--n-train", "1",
             "--n-test", "1", "--out", img_dir])
        ckpt = str(tmp_path / "o.json")
        self.make_checkpoint(ckpt)
        if flags[0] == "--crop-config":
            # json accepts the non-standard Infinity literal
            crop_cfg = tmp_path / "crop.json"
            crop_cfg.write_text('{"scale_factors": [1.0, Infinity]}')
            flags = ["--crop-config", str(crop_cfg)]
        out = tmp_path / "infer"
        code = run(
            ["infer", "--checkpoint-o", ckpt, "--checkpoint-s", ckpt,
             "--image-dir", os.path.join(img_dir, "test"), "--base-side", "32",
             "--crop-side", "16", *flags, "--out", str(out)]
        )
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "channels, crop_side, bad",
        [(3, 16, "object"), (1, 8, "object"), (1, 8, "scene"), (3, 16, "scene")],
        ids=["rgb_object", "small_crop_object", "small_crop_scene", "rgb_scene"],
    )
    def test_checkpoint_not_fitting_crops_named_before_any_output(
        self, tmp_path, capsys, channels, crop_side, bad
    ):
        # a 256-input checkpoint fits 16x16 one-channel crops only
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        io.write_image(str(img_dir / "a.npy"), np.random.default_rng(20).random((64, 64, channels)))
        good = tmp_path / "good.json"
        cfg = NetworkConfig(
            input_dim=crop_side**2 * channels, trunk=(), heads=(4,), dropout_rate=0.0
        )
        io.write_checkpoint_json(str(good), Checkpoint(cfg, init_params(cfg, seed=5)))
        wrong = tmp_path / "wrong.json"
        self.make_checkpoint(str(wrong))
        ckpt = {"object": good, "scene": good}
        ckpt[bad] = wrong
        out = tmp_path / "infer"
        code = run(
            ["infer", "--checkpoint-o", str(ckpt["object"]),
             "--checkpoint-s", str(ckpt["scene"]), "--image-dir", str(img_dir),
             "--base-side", "32", "--crop-side", str(crop_side), "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(wrong) in err and "input_dim 256" in err
        assert f"crop_side {crop_side}" in err and f"{channels} channel" in err
        assert not out.exists()

    @pytest.mark.parametrize("scales", ["abc", "1,x", ""])
    def test_unparsable_scales_fail_in_argparse_naming_flag(self, tmp_path, capsys, scales):
        out = tmp_path / "infer"
        code = run(["infer", *_images_and_checkpoint(tmp_path), "--scales", scales,
                    "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "argument --scales" in err and repr(scales) in err
        assert not out.exists()

    def test_flags_override_crop_config_file(self, tmp_path):
        crop_cfg = tmp_path / "crop.json"
        crop_cfg.write_text(json.dumps(
            {"base_side": 40, "crop_side": 16, "scale_factors": [1, 2], "grid": 2}
        ))
        out = tmp_path / "infer"
        assert run(["infer", *_images_and_checkpoint(tmp_path),
                    "--crop-config", str(crop_cfg), "--base-side", "32",
                    "--scales", "1,1.5", "--ratio-modes", "square,aspect_preserving",
                    "--out", str(out)]) == 0
        resolved = read_json(out / "resolved_config.json")
        crop = {key: resolved.pop(key)
                for key in ("base_side", "crop_side", "scales", "ratio_modes", "grid")}
        assert crop == {"base_side": 32, "crop_side": 16, "scales": [1.0, 1.5],
                        "ratio_modes": ["square", "aspect_preserving"], "grid": 2}
        assert sorted(resolved) == ["checkpoint_o", "checkpoint_s", "image_dir",
                                    "mean_pixel", "subcommand"]
        (size,) = read_json(out / "region_specs.json")["sizes"]
        assert len(size["specs"]) == 2 * 2 * 2**2

    def test_dir_without_npy_images_names_dir_and_suffix(self, tmp_path, capsys):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        (img_dir / "img_0000.fimg").write_text("1 1 1\n0.5\n")
        ckpt = str(tmp_path / "o.json")
        self.make_checkpoint(ckpt)
        out = tmp_path / "infer"
        code = run(
            ["infer", "--checkpoint-o", ckpt, "--checkpoint-s", ckpt,
             "--image-dir", str(img_dir), "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(img_dir) in err and ".npy" in err
        assert not out.exists()

    def test_gen_then_infer_matches_in_memory_pipeline(self, tmp_path):
        gen_dir = tmp_path / "imgs"
        assert run(["gen", "--preset", "images", "--seed", "5", "--n-train", "2",
                    "--n-test", "4", "--out", str(gen_dir)]) == 0
        config = dataclasses.replace(preset_image_benchmark(5), n_train=2, n_test=4)
        train, test = gen_image_dataset(config, make_truth(config))
        ids, loaded = io.read_image(str(gen_dir / "train" / "img.npy"))
        assert ids == ["img_0000", "img_0001"]
        assert loaded.tobytes() == train.features.tobytes()

        ckpts = {}
        for stream, seed in (("o", 1), ("s", 2)):
            cfg = NetworkConfig(input_dim=16 * 16, trunk=(), heads=(4,), dropout_rate=0.0)
            ckpts[stream] = Checkpoint(cfg, init_params(cfg, seed=seed))
            io.write_checkpoint_json(str(tmp_path / f"{stream}.json"), ckpts[stream])
        out = tmp_path / "infer"
        assert run(["infer", "--checkpoint-o", str(tmp_path / "o.json"),
                    "--checkpoint-s", str(tmp_path / "s.json"),
                    "--image-dir", str(gen_dir / "test"), "--base-side", "32",
                    "--crop-side", "16", "--out", str(out)]) == 0

        def scorer(ckpt):
            return lambda crops: forward(
                ckpt.config, ckpt.params, crops.reshape(len(crops), -1), mode="eval"
            ).head_prob[0]

        scorers = {"object": scorer(ckpts["o"]), "scene": scorer(ckpts["s"])}
        crop = CropConfig(base_side=32, crop_side=16)
        lines = (out / "scores.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == [f"img_{i:04d}" for i in range(4)]
        # infer scores the 4 images as one batch, and eval forwards agree
        # across batch sizes within 1e-12 (network.forward), not bitwise
        for line, pixels in zip(lines, test.features):
            expected, _ = classify_image(ImageBuffer(pixels), crop, scorers)
            got = np.array([float(x) for x in line.split(",")[1:]])
            assert np.max(np.abs(got - expected)) <= 1e-12

    def test_duplicate_image_id_names_both_files_before_any_output(self, tmp_path, capsys):
        # a stack img.npy holds img_0000..img_0003, so img_0003.npy repeats an id
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        rng = np.random.default_rng(22)
        io.write_image(str(img_dir / "img.npy"), rng.random((4, 64, 64, 1)))
        io.write_image(str(img_dir / "img_0003.npy"), rng.random((64, 64, 1)))
        ckpt = str(tmp_path / "o.json")
        self.make_checkpoint(ckpt)
        out = tmp_path / "infer"
        code = run(
            ["infer", "--checkpoint-o", ckpt, "--checkpoint-s", ckpt,
             "--image-dir", str(img_dir), "--base-side", "32", "--crop-side", "16",
             "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{img_dir / 'img.npy'} and {img_dir / 'img_0003.npy'}" in err
        assert "'img_0003'" in err
        assert not out.exists()

    def test_images_and_stacks_scored_in_file_and_stack_order(self, tmp_path):
        # single images and stacks of two sizes, the sizes interleaved in
        # name order: each image's scores equal its own classify_image
        # within 1e-12
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        rng = np.random.default_rng(23)
        images = {
            "a": rng.random((3, 40, 56, 1)),
            "b": rng.random((48, 32, 1)),
            "c": rng.random((40, 56, 1)),
            "d": rng.random((2, 48, 32, 1)),
        }
        for name, pixels in images.items():
            io.write_image(str(img_dir / f"{name}.npy"), pixels)
        ckpt = str(tmp_path / "o.json")
        self.make_checkpoint(ckpt)
        out = tmp_path / "infer"
        assert run(
            ["infer", "--checkpoint-o", ckpt, "--checkpoint-s", ckpt,
             "--image-dir", str(img_dir), "--base-side", "32", "--crop-side", "16",
             "--out", str(out)]
        ) == 0
        lines = (out / "scores.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == [
            "a_0000", "a_0001", "a_0002", "b", "c", "d_0000", "d_0001"
        ]
        sizes = read_json(out / "region_specs.json")["sizes"]
        assert [(s["height"], s["width"]) for s in sizes] == [(40, 56), (48, 32)]
        model = io.read_checkpoint_json(ckpt)

        def scorer(crops):
            flat = crops.reshape(len(crops), -1)
            return forward(model.config, model.params, flat, mode="eval").head_prob[0]

        crop = CropConfig(base_side=32, crop_side=16)
        expected = [
            classify_image(ImageBuffer(px), crop, {"object": scorer, "scene": scorer})[0]
            for pixels in images.values()
            for px in (pixels if pixels.ndim == 4 else [pixels])
        ]
        got = np.array([[float(x) for x in line.split(",")[1:]] for line in lines])
        assert np.max(np.abs(got - np.array(expected))) <= 1e-12


    def test_each_file_scored_as_its_own_stack(self, tmp_path, monkeypatch):
        # files of one size are not gathered into one stack: infer holds
        # one file's images at a time
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        rng = np.random.default_rng(24)
        shapes = [(40, 56, 1), (2, 40, 56, 1), (40, 56, 1), (48, 32, 1)]
        for i, shape in enumerate(shapes):
            io.write_image(str(img_dir / f"p{i}.npy"), rng.random(shape))
        seen = []
        classify_images = pipeline.classify_images

        def recording(pixels, *args, **kwargs):
            seen.append(pixels.shape)
            return classify_images(pixels, *args, **kwargs)

        monkeypatch.setattr(pipeline, "classify_images", recording)
        ckpt = str(tmp_path / "o.json")
        self.make_checkpoint(ckpt)
        assert run(
            ["infer", "--checkpoint-o", ckpt, "--checkpoint-s", ckpt,
             "--image-dir", str(img_dir), "--base-side", "32", "--crop-side", "16",
             "--out", str(tmp_path / "infer")]
        ) == 0
        assert seen == [(1, 40, 56, 1), (2, 40, 56, 1), (1, 40, 56, 1), (1, 48, 32, 1)]

    def test_bad_file_after_scored_files_leaves_no_output(self, tmp_path, capsys):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        rng = np.random.default_rng(25)
        io.write_image(str(img_dir / "a.npy"), rng.random((2, 40, 56, 1)))
        bad = rng.random((40, 56, 1))
        bad[3, 4, 0] = np.nan
        io.write_image(str(img_dir / "b.npy"), bad)
        ckpt = str(tmp_path / "o.json")
        self.make_checkpoint(ckpt)
        out = tmp_path / "infer"
        code = run(
            ["infer", "--checkpoint-o", ckpt, "--checkpoint-s", ckpt,
             "--image-dir", str(img_dir), "--base-side", "32", "--crop-side", "16",
             "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{img_dir / 'b.npy'}: " in err and "finite" in err
        assert not out.exists()


class TestReportCommand:
    def test_summarizes_stats_and_runs(self, tmp_path):
        gen_dir = str(tmp_path / "gen")
        run(["gen", "--preset", "responses", "--seed", "8", "--out", gen_dir])
        stats_dir = str(tmp_path / "runs" / "stats")
        run(["stats", "--responses", os.path.join(gen_dir, "object_responses.csv"),
             "--labels", os.path.join(gen_dir, "labels.csv"), "--out", stats_dir])
        vec_dir = str(tmp_path / "vec")
        run(["gen", "--preset", "vectors", "--seed", "8", "--n-train", "16",
             "--n-test", "16", "--out", vec_dir])
        train_dir = str(tmp_path / "runs" / "init")
        run(["train", "--train", os.path.join(vec_dir, "train.csv"),
             "--test", os.path.join(vec_dir, "test.csv"), "--mode", "init",
             "--schedule", "4", "--batch-size", "8", "--dropout", "0.0",
             "--trunk", "8", "--out", train_dir])
        out = str(tmp_path / "report")
        code = run(["report", "--run-dir", str(tmp_path / "runs"), "--out", out])
        assert code == 0
        with open(os.path.join(out, "top_concepts.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "event,rank,class_id,p_concept_given_event"
        # per-event ranks sorted by descending conditional probability
        rows = [line.split(",") for line in lines[1:]]
        event0 = [float(r[3]) for r in rows if r[0] == "0"]
        assert event0 == sorted(event0, reverse=True)
        with open(os.path.join(out, "mode_comparison.csv")) as fh:
            comparison = fh.read().splitlines()
        assert comparison[0].startswith("mode,")
        assert len(comparison) == 2

    def test_loss_curve_equals_train_report_csv(self, tmp_path):
        vec_dir = str(tmp_path / "vec")
        run(["gen", "--preset", "vectors", "--seed", "9", "--n-train", "16",
             "--n-test", "16", "--out", vec_dir])
        train_dir = tmp_path / "runs" / "data"
        run(["train", "--train", os.path.join(vec_dir, "train.csv"),
             "--test", os.path.join(vec_dir, "test.csv"), "--mode", "data",
             "--aux", os.path.join(vec_dir, "aux.csv"), "--schedule", "4",
             "--batch-size", "8", "--trunk", "8", "--out", str(train_dir)])
        out = tmp_path / "report"
        assert run(["report", "--run-dir", str(tmp_path / "runs"), "--out", str(out)]) == 0
        curve = (out / "loss_curve_data_0.csv").read_bytes()
        assert curve == (train_dir / "report.csv").read_bytes()

    def test_malformed_train_report_names_file(self, tmp_path, capsys):
        run_dir = tmp_path / "runs" / "init"
        run_dir.mkdir(parents=True)
        (run_dir / "report.json").write_text(json.dumps({"records": [{"iteration": 0}]}))
        code = run(["report", "--run-dir", str(tmp_path / "runs"),
                    "--out", str(tmp_path / "rep")])
        assert code == 1
        assert str(run_dir / "report.json") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "resolved, message",
        [
            ([1, 2], "expected a JSON object, got list"),
            ({"mode": 5}, "'mode' must be a str, got 5"),
        ],
        ids=["list", "int_mode"],
    )
    def test_malformed_resolved_config_names_file(
        self, tmp_path, capsys, resolved, message
    ):
        # the second run's string mode used to be sorted against the int
        record = {"iteration": 0, "train_loss": 1.0, "test_loss": 1.0,
                  "test_accuracy": 0.5, "test_map": 0.5}
        for name, config in (("a", resolved), ("b", {"mode": "init"})):
            run_dir = tmp_path / "runs" / name
            run_dir.mkdir(parents=True)
            (run_dir / "report.json").write_text(json.dumps({"records": [record]}))
            (run_dir / "resolved_config.json").write_text(json.dumps(config))
        out = tmp_path / "rep"
        capsys.readouterr()
        assert run(["report", "--run-dir", str(tmp_path / "runs"), "--out", str(out)]) == 1
        bad = tmp_path / "runs" / "a" / "resolved_config.json"
        assert f"{bad}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_top_k_below_one_named_before_any_output(self, tmp_path, capsys, top_k):
        out = tmp_path / "rep"
        code = run(["report", "--run-dir", str(tmp_path), "--top-k", top_k, "--out", str(out)])
        assert code == 1
        assert f"--top-k must be >= 1, got {top_k}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_dir_warns_exit_zero(self, tmp_path, capsys):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        out = str(tmp_path / "rep")
        assert run(["report", "--run-dir", empty, "--out", out]) == 0
        assert "warning" in capsys.readouterr().err
        summary = read_json(os.path.join(out, "report_summary.json"))
        assert summary["produced"] == []


def _vectors(tmp_path):
    gen_dir = tmp_path / "vec"
    assert run(["gen", "--preset", "vectors", "--seed", "4", "--n-train", "16",
                "--n-test", "16", "--out", str(gen_dir)]) == 0
    return ["--train", str(gen_dir / "train.csv"), "--test", str(gen_dir / "test.csv"),
            "--schedule", "4", "--batch-size", "8", "--trunk", "8"]


def _images_and_checkpoint(tmp_path):
    img_dir = tmp_path / "imgs"
    assert run(["gen", "--preset", "images", "--seed", "6", "--n-train", "1",
                "--n-test", "1", "--out", str(img_dir)]) == 0
    ckpt = str(tmp_path / "o.json")
    cfg = NetworkConfig(input_dim=16 * 16, trunk=(), heads=(4,), dropout_rate=0.0)
    io.write_checkpoint_json(ckpt, Checkpoint(cfg, init_params(cfg, seed=5)))
    return ["--checkpoint-o", ckpt, "--checkpoint-s", ckpt,
            "--image-dir", str(img_dir / "test")]


class TestChoiceSettings:
    # setting -> (subcommand, its config-file flag, a bad value, the other arguments)
    CASES = {
        "preset": ("gen", "--config", "bogus", lambda tmp_path: []),
        "mode": ("train", "--config", "bogus", _vectors),
        "soft_direction": ("train", "--config", "bogus", _vectors),
        "ratio_modes": ("infer", "--crop-config", ["square", "x"], _images_and_checkpoint),
    }

    @pytest.mark.parametrize("key", CASES)
    def test_bad_choice_fails_before_any_output(self, tmp_path, capsys, key):
        subcommand, flag, value, other_args = self.CASES[key]
        args = other_args(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([subcommand, *args, flag, str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}: setting {key!r} must be one of" in err
        assert not out.exists()


def _stats_missing_labels(tmp_path):
    resp = tmp_path / "resp.csv"
    resp.write_text("image_id,class_0,class_1\nimg_0,0.5,0.5\n")
    return ["stats", "--responses", str(resp), "--labels", str(tmp_path / "missing.csv")]


def _select_malformed_table(tmp_path):
    table = tmp_path / "conditional.json"
    payload = read_json(fixture_path("three_class_conditional.json"))
    del payload["cond"]
    table.write_text(json.dumps(payload))
    return ["select", "--table", str(table), "--k", "2"]


def _train_missing_test(tmp_path):
    args = _vectors(tmp_path)
    args[3] = str(tmp_path / "missing.csv")
    return ["train", "--mode", "init", *args]


def _infer_missing_checkpoint(tmp_path):
    args = _images_and_checkpoint(tmp_path)
    args[1] = str(tmp_path / "missing.json")
    return ["infer", *args]


def _report_malformed_run(tmp_path):
    run_dir = tmp_path / "runs" / "init"
    run_dir.mkdir(parents=True)
    (run_dir / "report.json").write_text(json.dumps({"records": [{"iteration": 0}]}))
    return ["report", "--run-dir", str(tmp_path / "runs")]


def _gen_bad_sample_count(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_train": 0}))
    return ["gen", "--config", str(cfg)]


@pytest.mark.parametrize(
    "bad_input",
    [_gen_bad_sample_count, _stats_missing_labels, _select_malformed_table,
     _train_missing_test, _infer_missing_checkpoint, _report_malformed_run],
    ids=["gen", "stats", "select", "train", "infer", "report"],
)
def test_bad_input_leaves_no_out_dir(tmp_path, capsys, bad_input):
    args = bad_input(tmp_path)
    out = tmp_path / "out"
    assert run([*args, "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_report_reads_first_conditional_table_in_name_order(tmp_path):
    # two stats dirs whose tables differ: the one named first is read,
    # whatever order the file system lists them in
    with open(fixture_path("three_class_conditional.json")) as fh:
        three = json.load(fh)
    two = dict(three, num_classes=2, cond=[1.0, 0.0, 0.0, 1.0], class_ids=["c0", "c1"])
    for name, table in (("beta", two), ("alpha", three)):
        stats_dir = tmp_path / "runs" / name
        stats_dir.mkdir(parents=True)
        (stats_dir / "conditional.json").write_text(json.dumps(table))
    out = tmp_path / "report"
    assert run(["report", "--run-dir", str(tmp_path / "runs"), "--out", str(out)]) == 0
    rows = (out / "marginals.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == three["class_ids"]
