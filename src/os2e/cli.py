"""Command-line entry point: gen, stats, select, train, infer, report.

Config precedence is defaults < ``--config`` JSON file < command-line flags;
a config file key that names no setting, or whose value has the wrong type or
is not one of the flag's choices, is an error naming the file and the key.
Every subcommand reads and checks all of its inputs (``gen`` generates all of
its data) before it creates its output directory, so a failed run leaves none
behind, and writes a ``resolved_config.json`` there with the fully-explicit
settings of the run, so any output can be reproduced bit for bit.  File
formats live in ``io``.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys

import numpy as np

from . import datagen, io, pipeline, selection, stats, training
from .network import (
    Checkpoint,
    NetworkConfig,
    forward,
    init_params,
    SOFT_TARGET_AS_DISTRIBUTION,
    SOFT_TARGET_IN_LOG,
)


def _write_resolved_config(out_dir: str, payload: dict) -> None:
    io.write_json(os.path.join(out_dir, "resolved_config.json"), payload, sort_keys=True)


def _typed_like(value, example) -> bool:
    """Whether a JSON value has the type of ``example``: a list for a tuple,
    an int or float for a float, and never a bool (no setting is one)."""
    if isinstance(example, tuple):
        return isinstance(value, list) and all(_typed_like(v, example[0]) for v in value)
    kinds = (int, float) if isinstance(example, float) else type(example)
    return isinstance(value, kinds) and not isinstance(value, bool)


_PRESETS = {
    "responses": datagen.preset_responses,
    "vectors": datagen.preset_vector_benchmark,
    "images": datagen.preset_image_benchmark,
}

# the values a choice-valued setting may take, as a flag or in a config file
_CHOICES = {
    "preset": tuple(_PRESETS),
    "mode": training.TRANSFER_MODES,
    "soft_direction": (SOFT_TARGET_AS_DISTRIBUTION, SOFT_TARGET_IN_LOG),
    "ratio_modes": pipeline.RATIO_MODES,
}


def _read_settings(path: str, defaults: dict, fallback=None) -> dict:
    """A JSON object of settings, each named in ``defaults`` and typed like it.

    A setting whose default is None may be null, and is otherwise typed like
    the same-named attribute of ``fallback``.  A choice-valued setting (or
    each item of a list one) must be one of its ``_CHOICES``.
    """
    settings = io.read_json(path)
    if not isinstance(settings, dict):
        raise ValueError(f"{path}: expected a JSON object of settings")
    for key, value in settings.items():
        if key not in defaults:
            raise ValueError(f"{path}: unknown setting {key!r}")
        example = defaults[key]
        if example is None:
            if value is None:
                continue
            example = getattr(fallback, key)
        if not _typed_like(value, example):
            raise ValueError(
                f"{path}: setting {key!r} must have the type of {example!r}, got {value!r}"
            )
        choices = _CHOICES.get(key)
        items = value if isinstance(value, list) else [value]
        if choices and not set(items) <= set(choices):
            raise ValueError(
                f"{path}: setting {key!r} must be one of {choices}, got {value!r}"
            )
    return settings


def _layer_config(args: argparse.Namespace, defaults: dict, fallback=None) -> dict:
    """defaults < config file < explicit flags."""
    resolved = dict(defaults)
    if getattr(args, "config", None):
        resolved.update(_read_settings(args.config, defaults, fallback))
    for key in defaults:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            resolved[key] = value
    return resolved


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

_GEN_DEFAULTS = {
    "preset": "responses",
    "seed": 0,
    "concentration": None,
    "noise_sigma": None,
    "n_train": None,
    "n_test": None,
}


def _generator_config(resolved: dict) -> datagen.GeneratorConfig:
    preset = _PRESETS[resolved["preset"]](int(resolved["seed"]))
    overrides = {k: v for k, v in resolved.items() if v is not None and _GEN_DEFAULTS[k] is None}
    return dataclasses.replace(preset, **overrides)


def _truth_payload(truth: datagen.PlantedTruth, teacher: np.ndarray | None) -> dict:
    """The planted signatures and, for the vectors preset, the frozen teacher
    behind its soft targets, whose bias is all zero."""
    return {
        "object_signatures": truth.object_signatures,
        "scene_signatures": truth.scene_signatures,
        "teacher_concepts": [] if teacher is None else truth.planted_objects(),
        "teacher_weights": None if teacher is None else teacher.tolist(),
        "teacher_bias": None if teacher is None else [0.0] * teacher.shape[1],
    }


def _write_image_split(split_dir: str, ds: training.Dataset) -> None:
    """The split's images as one NxHxWxC stack, ``img.npy``, and their
    ``labels.csv``, which lists the stack's image ids ``img_0000``, ... in
    stack order."""
    io.ensure_dir(split_dir)
    ids = io.write_image(os.path.join(split_dir, "img.npy"), ds.features)
    labels = stats.EventLabels(ds.labels, ds.num_classes)
    io.write_labels_csv(os.path.join(split_dir, "labels.csv"), labels, image_ids=ids)


def _cmd_gen(args: argparse.Namespace) -> int:
    resolved = _layer_config(args, _GEN_DEFAULTS, datagen.GeneratorConfig())
    config = _generator_config(resolved)
    truth, teacher = datagen.make_truth(config), None

    # every output is generated before the output directory is created
    if resolved["preset"] == "responses":
        objects, scenes, labels, _ = datagen.gen_response_data(config)
        files = [
            ("object_responses.csv", io.write_response_csv, objects),
            ("scene_responses.csv", io.write_response_csv, scenes),
            ("labels.csv", io.write_labels_csv, labels),
        ]
    elif resolved["preset"] == "vectors":
        train, test, soft = datagen.gen_vector_dataset(config, truth)
        teacher = datagen.teacher_weights(config, truth)
        files = [
            ("train.csv", io.write_dataset_csv, train),
            ("test.csv", io.write_dataset_csv, test),
            ("aux.csv", io.write_dataset_csv, datagen.gen_aux_dataset(config, truth)),
            ("soft_targets.json", io.write_soft_targets_json, soft),
        ]
    else:
        train, test = datagen.gen_image_dataset(config, truth)
        files = [("train/", _write_image_split, train), ("test/", _write_image_split, test)]
    files.append(("truth.json", io.write_json, _truth_payload(truth, teacher)))

    out = io.ensure_dir(args.out)
    for name, write, value in files:
        write(os.path.join(out, name), value)
    manifest = {"preset": resolved["preset"], "files": [name for name, _, _ in files]}
    io.write_json(os.path.join(out, "manifest.json"), manifest)
    _write_resolved_config(out, {"subcommand": "gen", **resolved})
    return 0


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def _cmd_stats(args: argparse.Namespace) -> int:
    responses, response_ids = io.read_response_csv(args.responses, kind=args.kind)
    labels, label_ids = io.read_labels_csv(args.labels)
    if response_ids != label_ids:
        pairs = itertools.zip_longest(response_ids, label_ids, fillvalue="(none)")
        row, (a, b) = next(
            (i, pair) for i, pair in enumerate(pairs) if pair[0] != pair[1]
        )
        raise ValueError(
            f"{args.responses} and {args.labels} must list the same image ids in "
            f"the same order; they first differ on data row {row + 1}: {a} vs {b}"
        )
    table = stats.estimate_conditional(responses, labels)
    posterior = stats.bayes_posterior(table)
    out = io.ensure_dir(args.out)
    io.write_conditional_json(os.path.join(out, "conditional.json"), table)
    io.write_posterior_json(os.path.join(out, "posterior.json"), posterior)
    _write_resolved_config(
        out,
        {
            "subcommand": "stats",
            "responses": args.responses,
            "labels": args.labels,
            "kind": args.kind,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def _cmd_select(args: argparse.Namespace) -> int:
    table = io.read_conditional_json(args.table)
    posterior = stats.bayes_posterior(table)
    problem = selection.SelectionProblem.from_posterior(posterior, k=args.k, lam=args.lam)
    result = selection.greedy_select(problem)
    out = io.ensure_dir(args.out)
    io.write_selection_json(os.path.join(out, "selection.json"), result)
    io.write_selection_report_csv(
        os.path.join(out, "selection_report.csv"), result, problem
    )
    _write_resolved_config(
        out,
        {"subcommand": "select", "table": args.table, "k": args.k, "lam": args.lam},
    )
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

# train setting -> the TransferConfig field it sets: the same name, but for
# `schedule` (k_iters) and `dropout` (dropout_rate)
_TRANSFER_FIELDS = {
    {"k_iters": "schedule", "dropout_rate": "dropout"}.get(f.name, f.name): f.name
    for f in dataclasses.fields(training.TransferConfig)
}
_TRANSFER_DEFAULTS = training.TransferConfig()

_TRAIN_DEFAULTS = {
    "mode": "init",
    **{key: getattr(_TRANSFER_DEFAULTS, name) for key, name in _TRANSFER_FIELDS.items()},
    "trunk": "64",
}


def _cmd_train(args: argparse.Namespace) -> int:
    resolved = _layer_config(args, _TRAIN_DEFAULTS)
    train = io.read_dataset_csv(args.train)
    test = io.read_dataset_csv(args.test, num_classes=train.num_classes)
    # each value takes the type of its field's default: a config file's
    # int 0 sets dropout_rate to 0.0
    config = training.TransferConfig(**{
        name: type(getattr(_TRANSFER_DEFAULTS, name))(resolved[key])
        for key, name in _TRANSFER_FIELDS.items()
    })
    try:
        trunk = tuple(int(w) for w in str(resolved["trunk"]).split(",") if w)
    except ValueError:
        raise ValueError(
            "setting 'trunk' must be comma-separated integer widths, "
            f"got {resolved['trunk']!r}"
        ) from None

    if resolved["mode"] == "probe":
        features = training.probe_features(train.features)
        test_features = training.probe_features(test.features)
        probe_train = training.Dataset(features, train.labels, train.num_classes)
        probe_test = training.Dataset(test_features, test.labels, test.num_classes)
        report = training.linear_probe_train(probe_train, probe_test, config)
    else:
        if args.source:
            source = io.read_checkpoint_json(args.source)
        else:
            net = NetworkConfig(
                input_dim=train.features.shape[1],
                trunk=trunk,
                heads=(train.num_classes,),
                dropout_rate=0.0,
            )
            source = Checkpoint(config=net, params=init_params(net, config.seed))
        if resolved["mode"] == "init":
            report = training.init_transfer_train(source, train, test, config)
        elif resolved["mode"] == "knowledge":
            if not args.soft_targets:
                raise ValueError("knowledge mode needs --soft-targets")
            soft = io.read_soft_targets_json(args.soft_targets)
            report = training.knowledge_transfer_train(source, train, test, soft, config)
        else:
            if not args.aux:
                raise ValueError("data mode needs --aux")
            aux = io.read_dataset_csv(args.aux)
            report = training.data_transfer_train(source, train, test, aux, config)

    out = io.ensure_dir(args.out)
    io.write_checkpoint_json(os.path.join(out, "checkpoint.json"), report.checkpoint)
    io.write_report_json(os.path.join(out, "report.json"), report, "checkpoint.json")
    io.write_report_csv(os.path.join(out, "report.csv"), report.records)
    _write_resolved_config(
        out,
        {
            "subcommand": "train",
            **resolved,
            "train": args.train,
            "test": args.test,
            "source": args.source,
            "soft_targets": args.soft_targets,
            "aux": args.aux,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------


def _check_fits_crops(path: str, ckpt: Checkpoint, crop_side: int, channels: int) -> None:
    """A checkpoint must take one flattened crop of ``crop_side`` squared
    pixels with ``channels`` channels."""
    want = crop_side * crop_side * channels
    if ckpt.config.input_dim != want:
        raise ValueError(
            f"{path}: checkpoint input_dim {ckpt.config.input_dim} does not fit "
            f"crops of crop_side {crop_side} with {channels} channel(s), which "
            f"have {crop_side}*{crop_side}*{channels} = {want} values"
        )


def _checkpoint_scorer(ckpt: Checkpoint):
    def scorer(crops: np.ndarray) -> np.ndarray:
        flat = np.asarray(crops, dtype=np.float64).reshape(len(crops), -1)
        return forward(ckpt.config, ckpt.params, flat, mode="eval", heads=(0,)).head_prob[0]

    return scorer


_CROP_DEFAULTS = dataclasses.asdict(pipeline.CropConfig())


def _cmd_infer(args: argparse.Namespace) -> int:
    config = pipeline.CropConfig(**_layer_config(args, _CROP_DEFAULTS))
    names = sorted(f for f in os.listdir(args.image_dir) if f.endswith(".npy"))
    if not names:
        raise ValueError(f"{args.image_dir}: no .npy images found")
    checkpoints = {
        "object": (args.checkpoint_o, io.read_checkpoint_json(args.checkpoint_o)),
        "scene": (args.checkpoint_s, io.read_checkpoint_json(args.checkpoint_s)),
    }
    scorers = {stream: _checkpoint_scorer(ckpt) for stream, (_, ckpt) in checkpoints.items()}
    holder = {}  # image id -> its file, in file name and stack order
    rows = []  # one (N, M) score array per file
    sizes = []  # the distinct (height, width), in first-seen order
    for name in names:
        path = os.path.join(args.image_dir, name)
        file_ids, pixels = io.read_image(path)
        for image_id in file_ids:
            if image_id in holder:
                raise ValueError(
                    f"{holder[image_id]} and {path} both hold image id {image_id!r}"
                )
            holder[image_id] = path
        _, height, width, channels = pixels.shape
        for ckpt_path, ckpt in checkpoints.values():
            _check_fits_crops(ckpt_path, ckpt, config.crop_side, channels)
        if (height, width) not in sizes:
            sizes.append((height, width))
        scores, _ = pipeline.classify_images(
            pixels, config, scorers, mean_pixel=args.mean_pixel
        )
        rows.append(scores)
    out = io.ensure_dir(args.out)
    io.write_region_specs_json(os.path.join(out, "region_specs.json"), sizes, config)
    io.write_scores_csv(os.path.join(out, "scores.csv"), list(holder), np.concatenate(rows))
    _write_resolved_config(
        out,
        {
            "subcommand": "infer",
            "checkpoint_o": args.checkpoint_o,
            "checkpoint_s": args.checkpoint_s,
            "image_dir": args.image_dir,
            "base_side": config.base_side,
            "crop_side": config.crop_side,
            "scales": list(config.scale_factors),
            "ratio_modes": list(config.ratio_modes),
            "grid": config.grid,
            "mean_pixel": args.mean_pixel,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cmd_report(args: argparse.Namespace) -> int:
    if args.top_k < 1:
        raise ValueError(f"--top-k must be >= 1, got {args.top_k}")
    conditional_path = None
    runs = []  # (mode, report.json path, eval records)
    for root, dirs, files in os.walk(args.run_dir):
        dirs.sort()  # the first conditional.json in name order, on any file system
        if "conditional.json" in files and conditional_path is None:
            conditional_path = os.path.join(root, "conditional.json")
        if "report.json" in files:
            resolved_path = os.path.join(root, "resolved_config.json")
            exists = os.path.exists(resolved_path)
            mode = io.read_run_mode(resolved_path) if exists else "unknown"
            report_path = os.path.join(root, "report.json")
            runs.append((mode, report_path, io.read_report_json(report_path)))
    runs = [(mode, records) for mode, _, records in sorted(runs, key=lambda r: r[:2])]
    table = io.read_conditional_json(conditional_path) if conditional_path else None
    out = io.ensure_dir(args.out)
    warnings, produced = [], []

    if table is not None:
        io.write_top_concepts_csv(os.path.join(out, "top_concepts.csv"), table, args.top_k)
        io.write_marginals_csv(
            os.path.join(out, "marginals.csv"), table.class_ids, stats.marginalize(table)
        )
        produced += ["top_concepts.csv", "marginals.csv"]
    else:
        warnings.append("no conditional.json found; skipping concept tables")

    if runs:
        io.write_mode_comparison_csv(os.path.join(out, "mode_comparison.csv"), runs)
        for i, (mode, records) in enumerate(runs):
            curve_name = f"loss_curve_{mode}_{i}.csv"
            io.write_report_csv(os.path.join(out, curve_name), records)
            produced.append(curve_name)
        produced.append("mode_comparison.csv")
    else:
        warnings.append("no report.json found; skipping mode comparison")

    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    summary = {"produced": produced, "warnings": warnings}
    io.write_json(os.path.join(out, "report_summary.json"), summary)
    _write_resolved_config(
        out, {"subcommand": "report", "run_dir": args.run_dir, "top_k": args.top_k}
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _comma_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="os2e",
        description="Concept-response statistics, class selection, transfer "
        "training, and multi-crop inference.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a synthetic benchmark dataset")
    p.add_argument("--preset", choices=_CHOICES["preset"])
    p.add_argument("--seed", type=int)
    p.add_argument("--concentration", type=float)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--n-train", type=int)
    p.add_argument("--n-test", type=int)
    p.add_argument("--config")
    p.add_argument("--out", "--out-dir", dest="out", required=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("stats", help="estimate conditional/posterior tables")
    p.add_argument("--responses", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--kind", choices=("object", "scene"), default="object")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("select", help="greedy discriminative-diverse selection")
    p.add_argument("--table", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lam", type=float, default=selection.DEFAULT_LAMBDA)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_select)

    p = sub.add_parser("train", help="run one transfer-training mode")
    p.add_argument("--mode", choices=_CHOICES["mode"])
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--source")
    p.add_argument("--soft-targets")
    p.add_argument("--aux")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--schedule", type=int, help="K iterations per lr step")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--soft-direction", choices=_CHOICES["soft_direction"])
    p.add_argument("--trunk", help="comma-separated widths for a fresh source")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("infer", help="multi-crop fused scoring of an image dir")
    p.add_argument("--checkpoint-o", required=True)
    p.add_argument("--checkpoint-s", required=True)
    p.add_argument("--image-dir", required=True)
    p.add_argument("--crop-config", dest="config", help="JSON file of CropConfig fields")
    p.add_argument("--base-side", type=int)
    p.add_argument("--crop-side", type=int)
    p.add_argument("--scales", dest="scale_factors", type=_comma_floats)
    p.add_argument("--ratio-modes", type=lambda text: text.split(","))
    p.add_argument("--grid", type=int)
    p.add_argument("--mean-pixel", type=float, default=pipeline.DEFAULT_MEAN_PIXEL)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_infer)

    p = sub.add_parser("report", help="summarize run artifacts into plot CSVs")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--top-k", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_report)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"os2e {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
