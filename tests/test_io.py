"""File formats: round-trips at stated tolerances and line-numbered errors."""

import dataclasses
import json
import re
from io import BytesIO

import numpy as np
import pytest
from conftest import fixture_path

from os2e import io
from os2e.datagen import (
    gen_response_data,
    gen_vector_dataset,
    make_truth,
    preset_responses,
    preset_vector_benchmark,
)
from os2e.network import NetworkConfig, Checkpoint, init_params
from os2e.pipeline import CropConfig
from os2e.selection import SelectionProblem, greedy_select
from os2e.stats import EventLabels, bayes_posterior, estimate_conditional
from os2e.training import (
    Dataset,
    EvalRecord,
    TrainReport,
    TransferConfig,
    init_transfer_train,
)
from os2e.datagen import make_source_checkpoint


@pytest.fixture
def response_data():
    return gen_response_data(preset_responses(0))


class TestResponseCsv:
    def test_round_trip_within_1e12(self, tmp_path, response_data):
        objects, _, _, _ = response_data
        path = str(tmp_path / "resp.csv")
        io.write_response_csv(path, objects)
        loaded, ids = io.read_response_csv(path)
        np.testing.assert_allclose(loaded.values, objects.values, atol=1e-12)
        assert loaded.class_ids == objects.class_ids
        assert ids[0] == "img_0"

    def test_truncated_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("image_id,class_0,class_1\nimg_0,0.5\n")
        with pytest.raises(io.ParseError, match="line 2"):
            io.read_response_csv(str(path))

    def test_off_simplex_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "image_id,class_0,class_1\nimg_0,0.5,0.5\nimg_1,0.9,0.3\n"
        )
        with pytest.raises(io.ParseError, match="line 3.*unnormalized scores"):
            io.read_response_csv(str(path))

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("image_id,class_0,class_1\nimg_0,0.5,oops\n")
        with pytest.raises(io.ParseError, match="line 2.*not a number"):
            io.read_response_csv(str(path))


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        labels = EventLabels(np.array([0, 2, 1, 1]), 3)
        path = str(tmp_path / "labels.csv")
        io.write_labels_csv(path, labels)
        loaded, ids = io.read_labels_csv(path, num_events=3)
        np.testing.assert_array_equal(loaded.labels, labels.labels)
        assert loaded.num_events == 3

    def test_out_of_range_label_names_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("image_id,event_index\nimg_0,0\nimg_1,5\n")
        with pytest.raises(io.ParseError, match="line 3.*out of range"):
            io.read_labels_csv(str(path), num_events=2)


class TestTableJson:
    def test_conditional_round_trip_bitwise(self, tmp_path, response_data):
        objects, _, labels, _ = response_data
        table = estimate_conditional(objects, labels)
        path = str(tmp_path / "cond.json")
        io.write_conditional_json(path, table)
        loaded = io.read_conditional_json(path)
        np.testing.assert_array_equal(loaded.cond, table.cond)
        np.testing.assert_array_equal(loaded.prior, table.prior)
        assert loaded.total == table.total

    def test_posterior_round_trip_bitwise(self, tmp_path, response_data):
        # posterior.json is for inspection only: os2e writes it and reads nothing
        objects, _, labels, _ = response_data
        posterior = bayes_posterior(estimate_conditional(objects, labels))
        path = str(tmp_path / "post.json")
        io.write_posterior_json(path, posterior)
        d = io.read_json(path)
        post = np.array(d["post"]).reshape(d["num_classes"], d["num_events"])
        assert post.tobytes() == posterior.post.tobytes()
        assert np.array(d["marginal"]).tobytes() == posterior.marginal.tobytes()
        np.testing.assert_array_equal(d["undefined_mask"], posterior.undefined_mask)

    @pytest.mark.parametrize(
        "counts, total", [([-1, 5], 4), ([-2, -2], -4), ([0, 0], 0)],
        ids=["one_negative", "all_negative", "zero_total"],
    )
    def test_negative_counts_or_zero_total_name_file(self, tmp_path, counts, total):
        # the first two priors are counts / total exactly and sum to 1
        path = tmp_path / "cond.json"
        payload = io.read_json(fixture_path("three_class_conditional.json"))
        payload.update(counts=counts, total=total)
        payload["prior"] = [c / total for c in counts] if total else [0.5, 0.5]
        path.write_text(json.dumps(payload))
        with pytest.raises(io.ParseError, match=re.escape(f"{path}: counts must be >= 0")):
            io.read_conditional_json(str(path))

    @pytest.mark.parametrize(
        "key, value",
        [("prior", [0.25, 0.75]), ("prior", [0.5, 0.5, 0.0]), ("total", 5)],
        ids=["prior_off", "prior_length", "total_off"],
    )
    def test_prior_or_total_disagreeing_with_counts_names_file_and_key(
        self, tmp_path, key, value
    ):
        path = tmp_path / "cond.json"
        payload = io.read_json(fixture_path("three_class_conditional.json"))
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(io.ParseError, match=re.escape(f"{path}: '{key}'")):
            io.read_conditional_json(str(path))

    def test_malformed_json_names_file(self, tmp_path):
        path = tmp_path / "cond.json"
        path.write_text('{"type": "conditional_table",\n')
        with pytest.raises(io.ParseError, match=re.escape(f"{path}: ")):
            io.read_conditional_json(str(path))


class TestSelectionFiles:
    def test_json_round_trip_and_report(self, tmp_path, response_data):
        objects, _, labels, _ = response_data
        posterior = bayes_posterior(estimate_conditional(objects, labels))
        problem = SelectionProblem.from_posterior(posterior, k=4)
        result = greedy_select(problem)
        jpath = str(tmp_path / "sel.json")
        io.write_selection_json(jpath, result)
        loaded = io.read_selection_json(jpath)
        assert loaded.selected == result.selected
        assert loaded.energy == result.energy
        cpath = tmp_path / "report.csv"
        io.write_selection_report_csv(str(cpath), result, problem)
        lines = cpath.read_text().splitlines()
        assert lines[0] == "rank,class_id,entropy_bits,step_cost"
        assert len(lines) == 5


class TestCheckpointJson:
    def test_bitwise_round_trip(self, tmp_path):
        cfg = NetworkConfig(input_dim=6, trunk=(5,), heads=(3, 2), dropout_rate=0.25)
        params = init_params(cfg, seed=11)
        path = str(tmp_path / "ckpt.json")
        io.write_checkpoint_json(path, Checkpoint(cfg, params))
        loaded = io.read_checkpoint_json(path)
        assert loaded.config == cfg
        assert loaded.params.values.tobytes() == params.values.tobytes()
        assert loaded.params.layout == params.layout

    def test_trained_checkpoint_round_trip(self, tmp_path):
        config = preset_vector_benchmark(3)
        truth = make_truth(config)
        train, test, _ = gen_vector_dataset(config, truth)
        source = make_source_checkpoint(config, truth, (16,), "vocabulary", 3)
        tc = TransferConfig(k_iters=10, batch_size=8, dropout_rate=0.0, seed=3)
        report = init_transfer_train(source, train, test, tc)
        path = str(tmp_path / "trained.json")
        io.write_checkpoint_json(path, report.checkpoint)
        loaded = io.read_checkpoint_json(path)
        assert loaded.params.values.tobytes() == report.checkpoint.params.values.tobytes()

    @staticmethod
    def _edited_checkpoint(tmp_path, edit):
        # trunk0.W 4x3 @0, trunk0.b @12, head0.W 3x2 @15, head0.b @21: 23 values
        cfg = NetworkConfig(input_dim=4, trunk=(3,), heads=(2,), dropout_rate=0.0)
        path = tmp_path / "ckpt.json"
        io.write_checkpoint_json(str(path), Checkpoint(cfg, init_params(cfg, seed=12)))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return str(path)

    def test_truncated_values_name_file_and_entry(self, tmp_path):
        def truncate(payload):
            payload["values"] = payload["values"][:-3]

        path = self._edited_checkpoint(tmp_path, truncate)
        with pytest.raises(
            io.ParseError, match=re.escape(path) + r": layout entry 'head0.W' .* past the end of 20"
        ):
            io.read_checkpoint_json(path)

    def test_layout_config_mismatch_names_file_and_entry(self, tmp_path):
        def widen_head(payload):
            payload["config"]["heads"] = [3]

        path = self._edited_checkpoint(tmp_path, widen_head)
        with pytest.raises(
            io.ParseError,
            match=re.escape(path) + r": layout entry 2 is \('head0.W', 15, \(3, 2\)\), "
            r"config wants \('head0.W', 15, \(3, 3\)\)",
        ):
            io.read_checkpoint_json(path)

    def test_missing_layout_entry_names_file_and_entry(self, tmp_path):
        def drop_last(payload):
            payload["layout"].pop()
            payload["values"] = payload["values"][:-2]

        path = self._edited_checkpoint(tmp_path, drop_last)
        with pytest.raises(
            io.ParseError,
            match=re.escape(path) + r": layout entry 3 is None, config wants \('head0.b'",
        ):
            io.read_checkpoint_json(path)

    # where each dropped key lives in the payload
    MISSING_KEY_PARENTS = {
        "seed": (),
        "values": (),
        "layout": (),
        "config": (),
        "config.heads": ("config",),
        "layout[1].shape": ("layout", 1),
    }

    @pytest.mark.parametrize("key", MISSING_KEY_PARENTS)
    def test_missing_key_names_file_and_key(self, tmp_path, key):
        def drop(payload):
            for parent in self.MISSING_KEY_PARENTS[key]:
                payload = payload[parent]
            del payload[key.split(".")[-1]]

        path = self._edited_checkpoint(tmp_path, drop)
        with pytest.raises(
            io.ParseError, match=re.escape(f"{path}: missing key '{key}'")
        ):
            io.read_checkpoint_json(path)

    # a wrongly typed value, by the payload path that holds it
    WRONG_TYPES = {
        "trunk": (("config", "trunk"), 5),
        "layout": (("layout",), 5),
        "config": (("config",), None),
        "input_dim": (("config", "input_dim"), 0),
    }

    @pytest.mark.parametrize("case", WRONG_TYPES)
    def test_wrongly_typed_value_names_file(self, tmp_path, case):
        keys, value = self.WRONG_TYPES[case]

        def set_value(payload):
            for key in keys[:-1]:
                payload = payload[key]
            payload[keys[-1]] = value

        path = self._edited_checkpoint(tmp_path, set_value)
        with pytest.raises(io.ParseError, match=re.escape(f"{path}: ")):
            io.read_checkpoint_json(path)

    def test_null_unknown_keys_load(self, tmp_path):
        # files from the normalization-layer era hold null "config.norm" and
        # null top-level statistics
        def add_null_keys(payload):
            payload["config"]["norm"] = None
            payload["statistics"] = None

        path = self._edited_checkpoint(tmp_path, add_null_keys)
        loaded = io.read_checkpoint_json(path)
        cfg = NetworkConfig(input_dim=4, trunk=(3,), heads=(2,), dropout_rate=0.0)
        assert loaded.config == cfg
        assert loaded.params.values.tobytes() == init_params(cfg, seed=12).values.tobytes()

    @pytest.mark.parametrize("key", ["config.norm", "statistics"])
    def test_set_unknown_key_rejected(self, tmp_path, key):
        def set_key(payload):
            if key == "config.norm":
                payload["config"]["norm"] = {"freeze": True, "eps": 1e-5}
            else:
                payload[key] = [0.0, 0.0, 0.0, 0.0]

        path = self._edited_checkpoint(tmp_path, set_key)
        with pytest.raises(
            io.ParseError, match=re.escape(f"{path}: unknown key '{key}' is set")
        ):
            io.read_checkpoint_json(path)


class TestReportFiles:
    def test_csv_round_trip(self, tmp_path):
        config = preset_vector_benchmark(4)
        truth = make_truth(config)
        train, test, _ = gen_vector_dataset(config, truth)
        source = make_source_checkpoint(config, truth, (16,), "vocabulary", 4)
        tc = TransferConfig(k_iters=8, batch_size=8, dropout_rate=0.0, seed=4)
        report = init_transfer_train(source, train, test, tc)
        json_path = str(tmp_path / "report.json")
        io.write_report_json(json_path, report, "checkpoint.json")
        assert io.read_report_json(json_path) == report.records
        path = tmp_path / "report.csv"
        io.write_report_csv(str(path), report.records)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,train_loss,test_loss,test_acc,test_map"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert rows == [list(dataclasses.astuple(r)) for r in report.records]


def _records_report():
    records = [EvalRecord(0, 1.5, 1.25, 0.5, 0.5), EvalRecord(8, 0.75, 1.0, 0.75, 0.625)]
    return TrainReport(records=records, checkpoint=None, wall_clock_s=0.1)


def _selection_result():
    posterior = bayes_posterior(_conditional_table())
    return greedy_select(SelectionProblem.from_posterior(posterior, k=4))


def _response_tables():
    objects, _, labels, _ = gen_response_data(preset_responses(0))
    return objects, labels


def _conditional_table():
    return estimate_conditional(*_response_tables())


def _soft_targets():
    config = preset_vector_benchmark(6)
    return gen_vector_dataset(config, make_truth(config))[2]


def _checkpoint():
    cfg = NetworkConfig(input_dim=4, trunk=(3,), heads=(2,), dropout_rate=0.0)
    return Checkpoint(cfg, init_params(cfg, seed=12))


# reader, its writer and a valid artifact, then a missing key, a wrong
# dimension and a wrongly typed value: (edit, the missing key or None)
JSON_READERS = {
    "conditional": (
        io.read_conditional_json,
        lambda path: io.write_conditional_json(path, _conditional_table()),
        [
            (lambda d: d.pop("cond"), "cond"),
            (lambda d: d.update(num_events=5), None),
            (lambda d: d.update(class_ids=5), None),
        ],
    ),
    "soft_targets": (
        io.read_soft_targets_json,
        lambda path: io.write_soft_targets_json(path, _soft_targets()),
        [
            (lambda d: d.pop("num_rows"), "num_rows"),
            (lambda d: d.update(num_concepts=d["num_concepts"] + 1), None),
            (lambda d: d.update(concept_ids=[[1]]), None),
        ],
    ),
    "selection": (
        io.read_selection_json,
        lambda path: io.write_selection_json(path, _selection_result()),
        [
            (lambda d: d.pop("indicator"), "indicator"),
            (lambda d: d.update(indicator=[d["indicator"]]), None),
            (lambda d: d.update(energy="low"), None),
        ],
    ),
    "checkpoint": (
        io.read_checkpoint_json,
        lambda path: io.write_checkpoint_json(path, _checkpoint()),
        [
            (lambda d: d.pop("seed"), "seed"),
            (lambda d: d.update(values=d["values"][:-1]), None),
            (lambda d: d["config"].update(heads="2"), None),
        ],
    ),
    "report": (
        io.read_report_json,
        lambda path: io.write_report_json(path, _records_report(), "checkpoint.json"),
        [
            (lambda d: d["records"][1].pop("test_map"), "records[1].test_map"),
            (lambda d: d.update(records=d["records"][0]), None),
            (lambda d: d["records"][0].update(train_loss="low"), None),
        ],
    ),
}


class TestJsonArtifacts:
    def test_round_trips(self, tmp_path):
        for name, (reader, writer, _) in JSON_READERS.items():
            writer(str(tmp_path / f"{name}.json"))
            reader(str(tmp_path / f"{name}.json"))
        records = io.read_report_json(str(tmp_path / "report.json"))
        assert records == _records_report().records

    def test_artifacts_bypass_public_json_functions(self, tmp_path, monkeypatch):
        # a traced run counts the file bytes of every public read_*/write_*
        # call, so an artifact passing through read_json/write_json counted twice
        def refuse(*args, **kwargs):
            raise AssertionError("an artifact went through a public JSON function")

        monkeypatch.setattr(io, "read_json", refuse)
        monkeypatch.setattr(io, "write_json", refuse)
        for name, (reader, writer, _) in JSON_READERS.items():
            writer(str(tmp_path / f"{name}.json"))
            reader(str(tmp_path / f"{name}.json"))
        posterior = bayes_posterior(_conditional_table())
        io.write_posterior_json(str(tmp_path / "posterior.json"), posterior)
        config = CropConfig(base_side=8, crop_side=4)
        io.write_region_specs_json(str(tmp_path / "specs.json"), [(8, 8)], config)
        (tmp_path / "resolved.json").write_text('{"mode": "data"}')
        assert io.read_run_mode(str(tmp_path / "resolved.json")) == "data"

    def test_run_mode_defaults_to_unknown(self, tmp_path):
        path = tmp_path / "resolved_config.json"
        path.write_text('{"subcommand": "train"}')
        assert io.read_run_mode(str(path)) == "unknown"

    @pytest.mark.parametrize("reader", JSON_READERS)
    @pytest.mark.parametrize(
        "case", (0, 1, 2), ids=["missing_key", "wrong_dim", "wrong_type"]
    )
    def test_malformed_names_file(self, tmp_path, reader, case):
        read, write, edits = JSON_READERS[reader]
        edit, missing = edits[case]
        path = tmp_path / f"{reader}.json"
        write(str(path))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(io.ParseError) as info:
            read(str(path))
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        if missing is not None:
            assert message == f"{path}: missing key '{missing}'"


# reader, file content, the line the error names, and a fragment of it
_RESP, _LABELS, _DATA = io.read_response_csv, io.read_labels_csv, io.read_dataset_csv
MALFORMED_CSV = {
    "resp_empty": (_RESP, "", 1, "expected header"),
    "resp_no_classes": (_RESP, "image_id\nimg_0\n", 1, "expected header"),
    "resp_wrong_header": (_RESP, "id,class_0\nimg_0,1.0\n", 1, "expected header"),
    "resp_no_rows": (_RESP, "image_id,class_0\n", 2, "no data rows"),
    "resp_negative": (_RESP, "image_id,a,b\nimg_0,-0.5,1.5\n", 2, "unnormalized"),
    "labels_header": (_LABELS, "image_id,event\nimg_0,0\n", 1, "expected header"),
    "labels_extra_field": (_LABELS, "image_id,event_index\nimg_0,0,1\n", 2, "fields"),
    "labels_float": (_LABELS, "image_id,event_index\nimg_0,1.5\n", 2, "not an integer"),
    "labels_negative": (_LABELS, "image_id,event_index\nimg_0,-1\n", 2, "out of range"),
    "labels_blank_line": (_LABELS, "image_id,event_index\n\nimg_0,x\n", 3, "not an integer"),
    "dataset_header": (_DATA, "id,label,x_0\ns_0,0,0.5\n", 1, "expected header"),
    "dataset_label": (_DATA, "sample_id,label,x_0\ns_0,a,0.5\n", 2, "not an integer"),
    "dataset_feature": (_DATA, "sample_id,label,x_0\ns_0,0,nope\n", 2, "not a number"),
}


@pytest.mark.parametrize("case", MALFORMED_CSV)
def test_malformed_csv_names_file_and_line(tmp_path, case):
    read, content, line, fragment = MALFORMED_CSV[case]
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(io.ParseError, match=fragment) as info:
        read(str(path))
    assert str(info.value).startswith(f"{path}: line {line}: ")


class TestReportTables:
    def test_top_concepts_and_marginals(self, tmp_path, response_data):
        objects, _, labels, _ = response_data
        table = estimate_conditional(objects, labels)
        path = tmp_path / "top.csv"
        io.write_top_concepts_csv(str(path), table, top_k=3)
        lines = path.read_text().splitlines()
        assert lines[0] == "event,rank,class_id,p_concept_given_event"
        assert len(lines) == 1 + 3 * table.num_events
        event, rank, class_id, p = lines[1].split(",")
        best = int(np.argmax(table.cond[:, 0]))
        assert (event, rank, class_id) == ("0", "1", table.class_ids[best])
        assert float(p) == table.cond[best, 0]
        path = tmp_path / "marginals.csv"
        marginal = table.cond @ table.prior
        io.write_marginals_csv(str(path), table.class_ids, marginal)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == table.class_ids
        assert np.array([float(r[1]) for r in rows]).tobytes() == marginal.tobytes()

    def test_mode_comparison_is_last_record_per_run(self, tmp_path):
        records = _records_report().records
        path = tmp_path / "modes.csv"
        io.write_mode_comparison_csv(str(path), [("data", records), ("init", records[:1])])
        assert path.read_text().splitlines() == [
            "mode,final_iter,train_loss,test_loss,test_acc,test_map",
            "data,8,0.75,1.0,0.75,0.625",
            "init,0,1.5,1.25,0.5,0.5",
        ]


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(7, 4)), rng.integers(0, 3, size=7), 3)
        path = str(tmp_path / "ds.csv")
        io.write_dataset_csv(path, ds)
        loaded = io.read_dataset_csv(path, num_classes=3)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)

    def test_image_dataset_rejected_before_writing(self, tmp_path):
        # a row per image would hold nested lists the reader cannot parse
        ds = Dataset(np.zeros((2, 4, 4, 1)), [0, 1], 2)
        path = tmp_path / "ds.csv"
        with pytest.raises(ValueError, match=r"\(2, 4, 4, 1\)"):
            io.write_dataset_csv(str(path), ds)
        assert not path.exists()

    def test_wrong_width_names_line(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("sample_id,label,x_0,x_1\ns_0,0,0.1,0.2\ns_1,1,0.3\n")
        with pytest.raises(io.ParseError, match="line 3"):
            io.read_dataset_csv(str(path))


class TestSoftTargetsJson:
    def test_round_trip_bitwise(self, tmp_path):
        config = preset_vector_benchmark(6)
        truth = make_truth(config)
        _, _, soft = gen_vector_dataset(config, truth)
        path = str(tmp_path / "soft.json")
        io.write_soft_targets_json(path, soft)
        loaded = io.read_soft_targets_json(path)
        assert loaded.values.tobytes() == soft.values.tobytes()
        assert loaded.concept_ids == soft.concept_ids

    def test_off_simplex_row_names_file(self, tmp_path):
        path = tmp_path / "soft.json"
        io.write_soft_targets_json(str(path), _soft_targets())
        payload = json.loads(path.read_text())
        payload["values"][1] += 0.5  # row 0 now sums to 1.5
        path.write_text(json.dumps(payload))
        with pytest.raises(io.ParseError, match="on the simplex") as info:
            io.read_soft_targets_json(str(path))
        assert str(info.value).startswith(f"{path}: ")

    def test_nan_row_names_file(self, tmp_path):
        path = tmp_path / "soft.json"
        io.write_soft_targets_json(str(path), _soft_targets())
        payload = json.loads(path.read_text())
        width = payload["num_concepts"]
        payload["values"][:width] = [float("nan")] * width  # row 0 all NaN
        path.write_text(json.dumps(payload))
        assert "NaN" in path.read_text()
        with pytest.raises(io.ParseError, match="finite and on the simplex") as info:
            io.read_soft_targets_json(str(path))
        assert str(info.value).startswith(f"{path}: ")


def _npy_bytes(array, allow_pickle=False):
    buf = BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def _zip_bytes(array):
    buf = BytesIO()
    np.savez(buf, pixels=array)
    return buf.getvalue()


_PIXELS = np.random.default_rng(3).random((4, 5, 3))
_HEADER_LEN = len(_npy_bytes(_PIXELS)) - _PIXELS.nbytes


def _with_pixel(value):
    px = _PIXELS.copy()
    px[1, 2, 0] = value
    return px


_STACK = np.stack([_PIXELS, _PIXELS[::-1]])


def _in_last_image(value):
    px = _STACK.copy()
    px[-1, 3, 4, 2] = value
    return px


class TestImageContainer:
    def test_round_trip_bitwise(self, tmp_path):
        # one HxWxC image reads as a stack of one, under its file stem
        px = np.random.default_rng(7).random((5, 4, 3))
        path = str(tmp_path / "img.npy")
        assert io.write_image(path, px) == ["img"]
        ids, loaded = io.read_image(path)
        assert ids == ["img"]
        assert loaded.shape == (1, 5, 4, 3)
        assert loaded.tobytes() == px.tobytes()

    def test_stack_round_trip_bitwise(self, tmp_path):
        px = np.random.default_rng(8).random((3, 5, 4, 1))
        path = str(tmp_path / "split.npy")
        assert io.write_image(path, px) == ["split_0000", "split_0001", "split_0002"]
        ids, loaded = io.read_image(path)
        assert ids == ["split_0000", "split_0001", "split_0002"]
        assert loaded.dtype == np.float64 and loaded.shape == px.shape
        assert loaded.tobytes() == px.tobytes()

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"", "EOF"),
            (_npy_bytes(_PIXELS)[:_HEADER_LEN], "could only read|cannot reshape"),
            (_npy_bytes(_PIXELS)[: _HEADER_LEN + 100], "could only read|cannot reshape"),
            (b"2 2 1\n0.0 0.0\n0.0 0.0\n", "magic string"),
            (_zip_bytes(_PIXELS), "magic string"),
            (_npy_bytes(np.array([None, {}]), allow_pickle=True), "allow_pickle"),
            (_npy_bytes(_PIXELS.astype(np.float32)), "float32"),
            (_npy_bytes(np.ones((4, 5, 3), dtype=np.int64)), "int64"),
            (_npy_bytes(_PIXELS[:, :, 0]), r"\(4, 5\)"),
            (_npy_bytes(_PIXELS[None, None]), r"HxWxC or NxHxWxC .*\(1, 1, 4, 5, 3\)"),
            (_npy_bytes(_PIXELS[:, :, :2]), "channels must be 1 or 3, got 2"),
            (_npy_bytes(_with_pixel(np.nan)), "finite"),
            (_npy_bytes(_with_pixel(1.5)), r"\[0, 1\]"),
            (_npy_bytes(_STACK.astype(np.float32)), r"float32 \(2, 4, 5, 3\)"),
            (_npy_bytes(_STACK[:0]), r"at least one image .*\(0, 4, 5, 3\)"),
            (_npy_bytes(_STACK[:, :, :0]), r"at least 1x1 pixels.*\(2, 4, 0, 3\)"),
            (_npy_bytes(_PIXELS[:0]), r"at least 1x1 pixels.*float64 \(0, 5, 3\)$"),
            (_npy_bytes(_PIXELS.astype(np.float32)), r"float32 \(4, 5, 3\)$"),
            (_npy_bytes(_STACK[..., :2]), "channels must be 1 or 3, got 2"),
            (_npy_bytes(_in_last_image(np.nan)), "finite"),
            (_npy_bytes(_in_last_image(np.inf)), "finite"),
            (_npy_bytes(_in_last_image(-np.inf)), "finite"),
            (_npy_bytes(_in_last_image(-0.5)), r"\[0, 1\]"),
            (_npy_bytes(_in_last_image(1.5)), r"\[0, 1\]"),
        ],
        ids=[
            "empty", "header_only", "truncated", "text_fimg", "npz_zip", "pickle",
            "float32", "int64", "ndim2", "ndim5", "two_channels", "nan", "above_one",
            "stack_float32", "stack_no_images", "stack_zero_width", "zero_height",
            "float32_file_shape",
            "stack_two_channels", "stack_nan", "stack_inf", "stack_minus_inf",
            "stack_below_zero", "stack_above_one",
        ],
    )
    def test_malformed_file_names_path(self, tmp_path, content, message):
        path = tmp_path / "img.npy"
        path.write_bytes(content)
        with pytest.raises(io.ParseError, match=message) as info:
            io.read_image(str(path))
        assert str(info.value).startswith(f"{path}: ")


class TestRegionSpecsJson:
    def test_dump_covers_all_specs(self, tmp_path):
        import json

        path = tmp_path / "specs.json"
        config = CropConfig(base_side=32, crop_side=16)
        io.write_region_specs_json(str(path), [(64, 64)], config)
        payload = json.loads(path.read_text())
        (size,) = payload["sizes"]
        assert (size["height"], size["width"], len(size["specs"])) == (64, 64, 54)
        assert list(size["specs"][0]) == [
            "ratio_mode", "scale_factor", "grid_row", "grid_col", "top", "left",
            "height", "width", "resized_height", "resized_width",
        ]
        assert size["specs"][0]["height"] == 16
