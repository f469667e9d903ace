"""End-to-end CLI: subcommands, error paths, reproducibility, artifacts."""

import builtins
import dataclasses
import json
import os
import shlex
import sys

import numpy as np
import pytest
from conftest import fixture_path, probe_train

from os2e.cli import main, run
from os2e import io, pipeline
from os2e.datagen import (
    gen_image_dataset,
    make_truth,
    preset_image_benchmark,
    preset_responses,
    preset_vector_benchmark,
)
from os2e.network import (
    Checkpoint,
    NetworkConfig,
    forward,
    init_params,
)
from os2e.pipeline import CropConfig, ImageBuffer, classify_image, generate_regions
from os2e.training import Dataset, TransferConfig, probe_features


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
        assert f"{resp}: line 3: response row 1 off simplex" in err

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
        assert set(read_json(os.path.join(out, "conditional.json"))) == {
            "type", "cond", "counts", "class_ids"}
        posterior = read_json(os.path.join(out, "posterior.json"))
        assert set(posterior) == {"type", "post", "marginal", "class_ids"}
        assert len(posterior["class_ids"]) == 20


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
        logits = train.features @ np.array(truth["teacher_weights"])
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs, soft.values, rtol=1e-12, atol=0)
        assert soft.concept_ids == sorted({c for sig in truth["object_signatures"] for c in sig})
        assert set(truth) == {"object_signatures", "scene_signatures", "teacher_weights"}

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
        assert truth["teacher_weights"] is None
        assert set(truth) == {"object_signatures", "scene_signatures", "teacher_weights"}

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

    @pytest.mark.parametrize(
        "preset, make",
        [("responses", preset_responses), ("vectors", preset_vector_benchmark),
         ("images", preset_image_benchmark)],
    )
    def test_record_gives_the_preset_values_taken(self, tmp_path, preset, make):
        out = tmp_path / "g"
        assert run(["gen", "--preset", preset, "--seed", "3", "--out", str(out)]) == 0
        # only the responses preset reads the concentration
        config = make(3)
        concentration = config.concentration if preset == "responses" else None
        assert read_json(out / "resolved_config.json") == {
            "subcommand": "gen", "preset": preset, "seed": 3,
            "concentration": concentration, "noise_sigma": config.noise_sigma,
            "n_train": config.n_train, "n_test": config.n_test,
        }

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

    def common_args(self, gen_dir, out, extra=(), trunk=("--trunk", "8")):
        return [
            "train", "--train", os.path.join(gen_dir, "train.csv"),
            "--test", os.path.join(gen_dir, "test.csv"),
            "--schedule", "6", "--batch-size", "8", "--dropout", "0.0",
            *trunk, "--seed", "7", "--out", out, *extra,
        ]

    @pytest.mark.parametrize("trunk", ["a", "8,x"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_trunk_named_before_any_output(self, tmp_path, capsys, trunk, source):
        # a flag fails in argparse, as --scales does; a config file's trunk
        # is a list of ints, as its scale_factors is a list of numbers
        gen_dir = self.gen_data(tmp_path)
        out = tmp_path / "t"
        args = self.common_args(gen_dir, str(out), ["--mode", "init"])
        if source == "flag":
            args[args.index("--trunk") + 1] = trunk
            assert run(args) == 2
            err = capsys.readouterr().err
            assert "argument --trunk" in err and repr(trunk) in err
        else:
            del args[args.index("--trunk") : args.index("--trunk") + 2]
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"trunk": trunk}))
            assert run([*args, "--config", str(cfg)]) == 1
            assert f"{cfg}: setting 'trunk' must have the type of" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_trunk_is_a_list_of_widths(self, tmp_path):
        gen_dir = self.gen_data(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trunk": [16, 8]}))
        out = tmp_path / "t"
        assert run(self.common_args(gen_dir, str(out), ["--config", str(cfg)], trunk=())) == 0
        assert read_json(out / "checkpoint.json")["config"]["trunk"] == [16, 8]
        assert read_json(out / "resolved_config.json")["trunk"] == [16, 8]

    @pytest.mark.parametrize(
        "mode, extra, message",
        [
            ("init", ["--aux", "aux.csv"],
             "--aux: init mode trains on the train set alone, so it takes no --aux"),
            ("knowledge", ["--soft-targets", "soft_targets.json", "--aux", "aux.csv"],
             "--aux: knowledge mode adds soft targets, so it takes no --aux"),
            ("probe", ["--aux", "aux.csv"],
             "--aux: the probe trains from no trunk on the train set alone"),
            ("init", ["--soft-targets", "soft_targets.json"],
             "--soft-targets: init mode trains on the train set alone"),
            ("data", ["--aux", "aux.csv", "--soft-targets", "soft_targets.json"],
             "--soft-targets: data mode adds an auxiliary set, so it takes no --soft-targets"),
            ("probe", ["--soft-targets", "soft_targets.json"],
             "--soft-targets: the probe trains from no trunk"),
            ("probe", ["--trunk", "8"],
             "--trunk: the probe trains from no trunk on the train set alone, so it "
             "takes no --trunk"),
            ("probe", ["--config", "trunk.json"],
             "trunk.json: setting 'trunk': the probe trains from no trunk"),
            ("init", ["--source", "source.json", "--trunk", "8"],
             "--trunk: a --source checkpoint brings its own trunk"),
            ("data", ["--aux", "aux.csv", "--source", "source.json", "--config", "trunk.json"],
             "trunk.json: setting 'trunk': a --source checkpoint brings its own trunk"),
            ("init", ["--alpha", "2"],
             "--alpha: init mode trains on the train set alone, so it takes no --alpha"),
            ("init", ["--beta", "2"], "--beta: init mode trains on the train set alone"),
            ("init", ["--soft-direction", "target_in_log"],
             "--soft-direction: init mode trains on the train set alone, so it takes no "
             "--soft-direction"),
            ("knowledge", ["--soft-targets", "soft_targets.json", "--beta", "2"],
             "--beta: knowledge mode adds soft targets, so it takes no --beta"),
            ("data", ["--aux", "aux.csv", "--alpha", "2"],
             "--alpha: data mode adds an auxiliary set, so it takes no --alpha"),
            ("data", ["--aux", "aux.csv", "--config", "weights.json"],
             "weights.json: setting 'alpha': data mode adds an auxiliary set, so it "
             "takes no --alpha"),
            ("data", ["--aux", "aux.csv", "--soft-direction", "target_in_log"],
             "--soft-direction: data mode adds an auxiliary set"),
            ("probe", ["--config", "weights.json"],
             "weights.json: setting 'alpha': the probe trains from no trunk"),
        ],
        ids=["aux_init", "aux_knowledge", "aux_probe", "soft_targets_init",
             "soft_targets_data", "soft_targets_probe", "trunk_probe", "trunk_probe_config",
             "trunk_with_source", "trunk_config_with_source", "alpha_init", "beta_init",
             "soft_direction_init", "beta_knowledge", "alpha_data", "alpha_config_data",
             "soft_direction_data", "alpha_config_probe"],
    )
    def test_input_the_mode_does_not_read_named_before_any_output(
        self, tmp_path, capsys, mode, extra, message
    ):
        # the run would ignore the input, yet its resolved_config.json would
        # record it as used
        gen_dir = self.gen_data(tmp_path)
        with open(os.path.join(gen_dir, "trunk.json"), "w", encoding="utf-8") as fh:
            json.dump({"trunk": [8]}, fh)
        with open(os.path.join(gen_dir, "weights.json"), "w", encoding="utf-8") as fh:
            json.dump({"alpha": 0.25}, fh)
        cfg = NetworkConfig(input_dim=32, trunk=(8,), heads=(4,), dropout_rate=0.0)
        source = Checkpoint(cfg, init_params(cfg, seed=3))
        io.write_checkpoint_json(os.path.join(gen_dir, "source.json"), source)
        extra = [os.path.join(gen_dir, arg) if "." in arg else arg for arg in extra]
        out = tmp_path / "t"
        args = self.common_args(gen_dir, str(out), ["--mode", mode, *extra], trunk=())
        assert run(args) == 1
        assert message in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "mode, extra",
        [("init", []), ("knowledge", ["--soft-targets", "soft_targets.json"]),
         ("data", ["--aux", "aux.csv"]), ("probe", [])],
        ids=["init", "knowledge", "data", "probe"],
    )
    def test_out_holds_checkpoint_report_and_record_only(self, tmp_path, mode, extra):
        # the eval records are report.json's alone: report writes each
        # run's loss curve from them
        gen_dir = self.gen_data(tmp_path)
        extra = [os.path.join(gen_dir, arg) if "." in arg else arg for arg in extra]
        trunk = () if mode == "probe" else ("--trunk", "8")
        out = tmp_path / "t"
        assert run(self.common_args(gen_dir, str(out), ["--mode", mode, *extra], trunk)) == 0
        assert sorted(os.listdir(out)) == [
            "checkpoint.json", "report.json", "resolved_config.json"
        ]

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
        # the probe is init transfer from a source with no trunk, on the
        # l2-normalized rows, and its record gives that trunk
        gen_dir = self.gen_data(tmp_path)
        out = str(tmp_path / "p")
        assert run(self.common_args(gen_dir, out, ["--mode", "probe"], trunk=())) == 0
        assert read_json(os.path.join(out, "resolved_config.json"))["trunk"] == []
        assert not os.path.exists(os.path.join(out, "report.csv"))
        train, test = (
            Dataset(probe_features(ds.features), ds.labels, ds.num_classes)
            for ds in (io.read_dataset_csv(os.path.join(gen_dir, "train.csv")),
                       io.read_dataset_csv(os.path.join(gen_dir, "test.csv")))
        )
        config = TransferConfig(k_iters=6, batch_size=8, dropout_rate=0.0, seed=7)
        report = probe_train(train, test, config)
        assert report.checkpoint.config.trunk == ()
        expected = tmp_path / "expected.json"
        io.write_checkpoint_json(str(expected), report.checkpoint)
        assert (tmp_path / "p" / "checkpoint.json").read_bytes() == expected.read_bytes()

    def test_probe_with_source_named_before_any_output(self, tmp_path, capsys):
        gen_dir = self.gen_data(tmp_path)
        ckpt = tmp_path / "source.json"
        cfg = NetworkConfig(input_dim=32, trunk=(8,), heads=(4,), dropout_rate=0.0)
        io.write_checkpoint_json(str(ckpt), Checkpoint(cfg, init_params(cfg, seed=3)))
        out = tmp_path / "p"
        args = ["--mode", "probe", "--source", str(ckpt)]
        assert run(self.common_args(gen_dir, str(out), args, trunk=())) == 1
        assert "--source: the probe trains from no trunk" in capsys.readouterr().err
        assert not out.exists()

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
        specs = read_json(os.path.join(out, "region_specs.json"))
        assert specs["crop_side"] == 16
        (size,) = specs["sizes"]
        assert [len(view["offsets"]) for view in size["views"]] == [9] * 6
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
        (size,) = read_json(os.path.join(out, "region_specs.json"))["sizes"]
        assert [len(view["offsets"]) for view in size["views"]] == [4]

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
            got = size["views"]
            assert [
                (v["ratio_mode"], v["scale_factor"], v["resized_height"], v["resized_width"])
                for v in got
            ] == views
            assert [cell for v in got for cell in v["offsets"]] == offsets.tolist()

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
        ],
        ids=["scales_inf", "scales_nan", "crop_config_infinity"],
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
                for key in ("base_side", "crop_side", "scale_factors", "ratio_modes", "grid")}
        assert crop == {"base_side": 32, "crop_side": 16, "scale_factors": [1.0, 1.5],
                        "ratio_modes": ["square", "aspect_preserving"], "grid": 2}
        assert sorted(resolved) == ["checkpoint_o", "checkpoint_s", "image_dir", "subcommand"]
        (size,) = read_json(out / "region_specs.json")["sizes"]
        assert [len(view["offsets"]) for view in size["views"]] == [2**2] * (2 * 2)

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
        header, *lines = (out / "loss_curve_data_0.csv").read_text().splitlines()
        assert header == "iter,train_loss,test_loss,test_acc,test_map"
        records = read_json(train_dir / "report.json")["records"]
        assert len(records) > 1
        assert [[float(x) for x in line.split(",")] for line in lines] == [
            list(record.values()) for record in records
        ]

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
            ({"mode": 5}, "'mode' must have the type of 'init', got 5"),
            # the mode names a loss curve file, so an unknown one would name
            # loss_curve_bogus_0.csv, or a file outside --out
            ({"mode": "bogus"}, "'mode' must be one of ('init', 'knowledge', 'data', 'probe'), "
             "got 'bogus'"),
            ({"mode": "../../escaped"}, "'mode' must be one of"),
        ],
        ids=["list", "int_mode", "unknown_mode", "path_mode"],
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

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_run_dir_not_a_directory_named_before_any_output(self, tmp_path, capsys, kind):
        run_dir = tmp_path / "no_such_dir"
        if kind == "file":
            run_dir.write_text("")
        out = tmp_path / "rep"
        assert run(["report", "--run-dir", str(run_dir), "--out", str(out)]) == 1
        assert f"{run_dir}: not a directory" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_dir_warns_exit_zero(self, tmp_path, capsys):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        out = str(tmp_path / "rep")
        assert run(["report", "--run-dir", empty, "--out", out]) == 0
        assert "warning" in capsys.readouterr().err
        summary = read_json(os.path.join(out, "report_summary.json"))
        assert summary["produced"] == []


def _vectors(tmp_path, trunk=("--trunk", "8")):
    gen_dir = tmp_path / "vec"
    assert run(["gen", "--preset", "vectors", "--seed", "4", "--n-train", "16",
                "--n-test", "16", "--out", str(gen_dir)]) == 0
    return ["--train", str(gen_dir / "train.csv"), "--test", str(gen_dir / "test.csv"),
            "--schedule", "4", "--batch-size", "8", *trunk]


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


def _settings_list(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    return ["gen", "--config", str(cfg)]


def _concentration_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"concentration": 50.0}))
    return ["gen", "--preset", "images", "--config", str(cfg)]


# name -> (the arguments but --out, the error message)
REJECTIONS = {
    "config_list": (_settings_list, "cfg.json: expected a JSON object of settings"),
    # only the responses preset reads it: the others would write the same
    # files as without it, and record it
    "concentration_vectors": (
        lambda t: ["gen", "--preset", "vectors", "--concentration", "50"],
        "--concentration: the vectors preset draws no response rows, so it takes no "
        "--concentration",
    ),
    "concentration_config_images": (
        _concentration_file,
        "cfg.json: setting 'concentration': the images preset draws no response rows",
    ),
    "data_without_aux": (
        lambda t: ["train", "--mode", "data", *_vectors(t)], "data mode needs --aux"
    ),
    "schedule_negative": (
        lambda t: ["train", *_vectors(t), "--schedule", "-1"], "k_iters must be >= 0"
    ),
    "dropout_one": (
        lambda t: ["train", *_vectors(t), "--dropout", "1.0"], "dropout_rate must be in [0, 1)"
    ),
    "trunk_zero": (
        lambda t: ["train", *_vectors(t), "--trunk", "0"], "trunk widths must be >= 1"
    ),
    "crop_side_zero": (
        lambda t: ["infer", *_images_and_checkpoint(t), "--crop-side", "0"],
        "crop_side must be >= 1",
    ),
    "ratio_mode_unknown": (
        lambda t: ["infer", *_images_and_checkpoint(t), "--ratio-modes", "foo"],
        "unknown ratio mode 'foo'",
    ),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_bad_setting_rejected_before_any_output(tmp_path, capsys, case):
    args, message = REJECTIONS[case]
    args = args(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*args, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def _readme_commands(prefix):
    """The README walkthrough's commands that start with ``prefix``, each as
    the argument list after ``os2e``."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## CLI walkthrough", 1)[1].split("```\n")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith(prefix)]


def test_readme_train_runs_record_only_what_they_read(tmp_path, monkeypatch):
    # every file a train run's resolved_config.json names was opened, its
    # trunk is the trunk of the checkpoint the run wrote, and a weight or
    # direction its mode does not read is null
    monkeypatch.chdir(tmp_path)
    (gen,) = _readme_commands("os2e gen --preset vectors")
    assert run(gen) == 0
    opened = set()
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.add(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    trains = _readme_commands("os2e train")
    assert [argv[argv.index("--mode") + 1] for argv in trains] == ["init", "knowledge", "data"]
    for argv in trains:
        opened.clear()
        assert run(argv) == 0
        out = argv[argv.index("--out") + 1]
        record = read_json(os.path.join(out, "resolved_config.json"))
        files = [record[key] for key in ("train", "test", "source", "soft_targets", "aux")]
        assert {path for path in files if path is not None} <= opened
        assert record["trunk"] == read_json(os.path.join(out, "checkpoint.json"))["config"]["trunk"]
        weights = {key: record[key] for key in ("alpha", "beta", "soft_direction")}
        assert weights == {
            "init": {"alpha": None, "beta": None, "soft_direction": None},
            "knowledge": {"alpha": 0.125, "beta": None, "soft_direction": "target_as_distribution"},
            "data": {"alpha": None, "beta": 0.5, "soft_direction": None},
        }[argv[argv.index("--mode") + 1]]


def test_main_exits_with_the_run_status(tmp_path, monkeypatch):
    out = tmp_path / "resp"
    monkeypatch.setattr(sys, "argv", ["os2e", "gen", "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert (out / "labels.csv").exists()


def _set_last_cell(path, line_no, value):
    lines = path.read_text().splitlines()
    lines[line_no - 1] = lines[line_no - 1].rsplit(",", 1)[0] + "," + value
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path, edit):
    payload = read_json(path)
    edit(payload)
    path.write_text(json.dumps(payload))


def _nonfinite_responses(tmp_path, value):
    resp = tmp_path / "resp.csv"
    resp.write_text("image_id,class_0,class_1\nimg_0,0.5,0.5\nimg_1,0.5,0.5\n")
    _set_last_cell(resp, 3, value)
    labels = tmp_path / "labels.csv"
    labels.write_text("image_id,event_index\nimg_0,0\nimg_1,1\n")
    return ["stats", "--responses", str(resp), "--labels", str(labels)], resp, 3


def _nonfinite_train_csv(tmp_path, value):
    args = _vectors(tmp_path)
    _set_last_cell(tmp_path / "vec" / "train.csv", 3, value)
    return ["train", "--mode", "init", *args], tmp_path / "vec" / "train.csv", 3


def _nonfinite_aux_csv(tmp_path, value):
    aux = tmp_path / "vec" / "aux.csv"
    args = _vectors(tmp_path)
    _set_last_cell(aux, 3, value)
    return ["train", "--mode", "data", *args, "--aux", str(aux)], aux, 3


def _nonfinite_conditional(tmp_path, value):
    table = tmp_path / "conditional.json"
    table.write_text(open(fixture_path("three_class_conditional.json")).read())
    _edit_json(table, lambda d: d["cond"].__setitem__(0, float(value)))
    return ["select", "--table", str(table), "--k", "2"], table, None


def _nonfinite_soft_targets(tmp_path, value):
    soft = tmp_path / "vec" / "soft_targets.json"
    args = _vectors(tmp_path)
    _edit_json(soft, lambda d: d["values"].__setitem__(0, float(value)))
    return ["train", "--mode", "knowledge", *args, "--soft-targets", str(soft)], soft, None


def _nonfinite_source(tmp_path, value):
    args = _vectors(tmp_path, trunk=())  # the source sets the trunk
    ckpt = tmp_path / "source.json"
    cfg = NetworkConfig(input_dim=32, trunk=(8,), heads=(4,), dropout_rate=0.0)
    io.write_checkpoint_json(str(ckpt), Checkpoint(cfg, init_params(cfg, seed=3)))
    _edit_json(ckpt, lambda d: d["values"].__setitem__(5, float(value)))
    return ["train", "--mode", "init", *args, "--source", str(ckpt)], ckpt, None


def _nonfinite_infer_checkpoint(tmp_path, value):
    args = _images_and_checkpoint(tmp_path)
    ckpt = tmp_path / "o.json"
    _edit_json(ckpt, lambda d: d["values"].__setitem__(5, float(value)))
    return ["infer", *args], ckpt, None


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "bad_input",
    [_nonfinite_responses, _nonfinite_train_csv, _nonfinite_aux_csv,
     _nonfinite_conditional, _nonfinite_soft_targets, _nonfinite_source,
     _nonfinite_infer_checkpoint],
    ids=["responses", "train_csv", "aux_csv", "conditional", "soft_targets",
         "train_source", "infer_checkpoint"],
)
def test_non_finite_input_names_file_and_leaves_no_out_dir(
    tmp_path, capsys, bad_input, value
):
    args, path, line_no = bad_input(tmp_path, value)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    where = f"{path}: " if line_no is None else f"{path}: line {line_no}: "
    assert where in err
    assert value in err.split(where, 1)[1]
    assert not out.exists()


def _drop_last_column(path):
    lines = path.read_text().splitlines()
    path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))


def _labels_with_empty_event(tmp_path):
    gen_dir = tmp_path / "resp"
    assert run(["gen", "--preset", "responses", "--seed", "0", "--out", str(gen_dir)]) == 0
    labels = gen_dir / "labels.csv"
    _set_last_cell(labels, 2, "9")  # events 0-3 and 9: events 4-8 are empty
    args = ["stats", "--responses", str(gen_dir / "object_responses.csv"),
            "--labels", str(labels)]
    return args, [labels], "empty event class 4"


def _soft_targets_for_fewer_samples(tmp_path):
    args = _vectors(tmp_path)
    train, soft = tmp_path / "vec" / "train.csv", tmp_path / "vec" / "soft_targets.json"
    train.write_text("".join(train.read_text().splitlines(keepends=True)[:-1]))
    args = ["train", "--mode", "knowledge", *args, "--soft-targets", str(soft)]
    return args, [soft, train], "16 soft target rows for the 15 samples"


def _narrow_test(tmp_path, mode="init", trunk=("--trunk", "8")):
    args = _vectors(tmp_path, trunk)
    _drop_last_column(tmp_path / "vec" / "test.csv")
    paths = [tmp_path / "vec" / "test.csv", tmp_path / "vec" / "train.csv"]
    return ["train", "--mode", mode, *args], paths, ", 31), but the network takes 32 per"


def _narrow_probe_test(tmp_path):
    return _narrow_test(tmp_path, mode="probe", trunk=())


def _narrow_aux(tmp_path):
    args = _vectors(tmp_path)
    aux = tmp_path / "vec" / "aux.csv"
    _drop_last_column(aux)
    args = ["train", "--mode", "data", *args, "--aux", str(aux)]
    return args, [aux, tmp_path / "vec" / "train.csv"], ", 31), but the network takes 32 per"


def _source_of_other_width(tmp_path):
    args = _vectors(tmp_path, trunk=())  # the source sets the trunk
    ckpt = tmp_path / "source.json"
    cfg = NetworkConfig(input_dim=16, trunk=(8,), heads=(4,), dropout_rate=0.0)
    io.write_checkpoint_json(str(ckpt), Checkpoint(cfg, init_params(cfg, seed=3)))
    args = ["train", "--mode", "init", *args, "--source", str(ckpt)]
    return args, [tmp_path / "vec" / "train.csv", ckpt], "takes 16"


@pytest.mark.parametrize(
    "bad_input",
    [_labels_with_empty_event, _soft_targets_for_fewer_samples, _narrow_test,
     _narrow_probe_test, _narrow_aux, _source_of_other_width],
    ids=["stats_empty_event", "train_soft_rows", "train_narrow_test",
         "train_narrow_probe_test", "train_narrow_aux", "train_source_width"],
)
def test_inputs_that_do_not_fit_each_other_name_files_before_any_output(
    tmp_path, capsys, bad_input
):
    args, paths, fragment = bad_input(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"os2e {args[0]}: error: {paths[0]}: ")
    assert all(str(path) in err for path in paths) and fragment in err
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
