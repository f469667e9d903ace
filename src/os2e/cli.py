"""Command-line entry point: gen, stats, select, train, infer, report.

Config precedence is defaults < ``--config`` JSON file < command-line flags;
a config file key that names no setting, or whose value has the wrong type or
is not one of the flag's choices, is an error naming the file and the key.
Every subcommand reads and checks all of its inputs (``gen`` generates all of
its data) before it creates its output directory, so a failed run leaves none
behind.  Each handler returns the settings it resolved, and ``run`` alone
writes the run's ``resolved_config.json`` once the handler succeeds: every
argument but ``--out`` and ``--config``, overlaid by those settings, each
of which given back as its flag repeats the run (``scale_factors`` is
``--scales``; ``trunk``, the trained one, is given back only for a fresh
non-probe source).  File formats live in ``io``.  An input or setting the
run does not read (``_MODE_INPUTS``; ``concentration`` outside the responses
preset) is an error naming its flag or file and key, and is recorded as null.
``train`` leaves the rules that pair its inputs to ``training``, and names
the files of the inputs its ``PairingError`` names.
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
        if not io.typed_like(value, example):
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


def _layer_config(args: argparse.Namespace, defaults: dict, fallback=None):
    """defaults < config file < explicit flags, and where each argument or
    setting given came from: its flag, or ``<file>: setting '<key>'`` for a
    non-null value in the config file."""
    resolved, where = dict(defaults), {}
    if getattr(args, "config", None):
        settings = _read_settings(args.config, defaults, fallback)
        resolved.update(settings)
        where = {k: f"{args.config}: setting {k!r}" for k, v in settings.items() if v is not None}
    flags = {key: value for key, value in vars(args).items() if value is not None}
    resolved.update((key, value) for key, value in flags.items() if key in defaults)
    return resolved, {**where, **{key: "--" + key.replace("_", "-") for key in flags}}


def _unread(where: dict, names, why: str) -> dict:
    """``names`` as null settings; one that the run was given is an error
    naming where it came from: ``why`` the run does not read it."""
    for key in names:
        if key in where:
            raise ValueError(f"{where[key]}: {why}, so it takes no --{key.replace('_', '-')}")
    return dict.fromkeys(names)


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


def _truth_payload(truth: datagen.PlantedTruth, teacher: np.ndarray | None) -> dict:
    """The planted signatures and, for the vectors preset, the weights of the
    bias-free frozen teacher behind its soft targets."""
    return {
        "object_signatures": truth.object_signatures,
        "scene_signatures": truth.scene_signatures,
        "teacher_weights": None if teacher is None else teacher.tolist(),
    }


def _write_image_split(split_dir: str, ds: training.Dataset) -> None:
    """The split's images as one NxHxWxC stack, ``img.npy``, and their
    ``labels.csv``, which lists the stack's image ids ``img_0000``, ... in
    stack order."""
    io.ensure_dir(split_dir)
    ids = io.write_image(os.path.join(split_dir, "img.npy"), ds.features)
    labels = stats.EventLabels(ds.labels, ds.num_classes)
    io.write_labels_csv(os.path.join(split_dir, "labels.csv"), labels, image_ids=ids)


def _cmd_gen(args: argparse.Namespace) -> dict:
    resolved, where = _layer_config(args, _GEN_DEFAULTS, datagen.GeneratorConfig())
    preset = _PRESETS[resolved["preset"]](resolved["seed"])
    overrides = {k: v for k, v in resolved.items() if v is not None and _GEN_DEFAULTS[k] is None}
    config = dataclasses.replace(preset, **overrides)
    unread = () if resolved["preset"] == "responses" else ("concentration",)
    nulls = _unread(where, unread, f"the {resolved['preset']} preset draws no response rows")
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
    # the preset-derived settings as the generator took them
    return {**{key: getattr(config, key, value) for key, value in resolved.items()}, **nulls}


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def _cmd_stats(args: argparse.Namespace) -> dict:
    responses, response_ids = io.read_response_csv(args.responses)
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
    try:
        table = stats.estimate_conditional(responses, labels)
    except ValueError as exc:  # with the ids equal, only an empty event class
        raise ValueError(f"{args.labels}: {exc}") from None
    posterior = stats.bayes_posterior(table)
    out = io.ensure_dir(args.out)
    io.write_conditional_json(os.path.join(out, "conditional.json"), table)
    io.write_posterior_json(os.path.join(out, "posterior.json"), posterior)
    return {}


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def _cmd_select(args: argparse.Namespace) -> dict:
    table = io.read_conditional_json(args.table)
    posterior = stats.bayes_posterior(table)
    problem = selection.SelectionProblem.from_posterior(posterior, k=args.k, lam=args.lam)
    result = selection.greedy_select(problem)
    out = io.ensure_dir(args.out)
    io.write_selection_json(os.path.join(out, "selection.json"), result)
    io.write_selection_report_csv(
        os.path.join(out, "selection_report.csv"), result, problem
    )
    return {}


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
    "trunk": None,
}
_FRESH_TRUNK = (64,)  # the widths of a fresh source when no trunk is given

# train mode -> (what it trains from, the input it needs, the other inputs
# and settings it reads); of _MODE_READS, any other one given is an error,
# and it is recorded as null
_MODE_INPUTS = {
    "init": ("init mode trains on the train set alone", None, ("source", "trunk")),
    "knowledge": ("knowledge mode adds soft targets", "soft_targets",
                  ("source", "trunk", "alpha", "soft_direction")),
    "data": ("data mode adds an auxiliary set", "aux", ("source", "trunk", "beta")),
    "probe": ("the probe trains from no trunk on the train set alone", None, ()),
}
_MODE_READS = ("source", "trunk", "soft_targets", "aux", "alpha", "beta", "soft_direction")


def _cmd_train(args: argparse.Namespace) -> dict:
    resolved, where = _layer_config(args, _TRAIN_DEFAULTS, argparse.Namespace(trunk=_FRESH_TRUNK))
    mode = resolved["mode"]
    # each value takes the type of its field's default: a config file's
    # int 0 sets dropout_rate to 0.0
    config = training.TransferConfig(**{
        name: type(getattr(_TRANSFER_DEFAULTS, name))(resolved[key])
        for key, name in _TRANSFER_FIELDS.items()
    })
    why, needs, reads = _MODE_INPUTS[mode]
    nulls = _unread(where, [name for name in _MODE_READS if name not in (needs, *reads)], why)
    if args.source:
        _unread(where, ["trunk"], "a --source checkpoint brings its own trunk")
    if needs and needs not in where:
        raise ValueError(f"{mode} mode needs --{needs.replace('_', '-')}")
    train = io.read_dataset_csv(args.train)
    test = io.read_dataset_csv(args.test, num_classes=train.num_classes)
    if mode == "probe":  # init transfer from no trunk on l2-normalized rows
        train, test = (
            training.Dataset(training.probe_features(ds.features), ds.labels, ds.num_classes)
            for ds in (train, test)
        )

    if args.source:
        source = io.read_checkpoint_json(args.source)
    else:
        trunk = () if mode == "probe" else resolved["trunk"]
        net = NetworkConfig(
            input_dim=train.features.shape[1],
            trunk=_FRESH_TRUNK if trunk is None else trunk,
            heads=(train.num_classes,),
            dropout_rate=0.0,
        )
        source = Checkpoint(config=net, params=init_params(net, config.seed))
    trainer, extra = training.init_transfer_train, ()
    if mode == "knowledge":
        trainer = training.knowledge_transfer_train
        extra = (io.read_soft_targets_json(args.soft_targets),)
    elif mode == "data":
        trainer, extra = training.data_transfer_train, (io.read_dataset_csv(args.aux),)
    try:
        report = trainer(source, train, test, *extra, config)
    except training.PairingError as exc:
        # the roles are the file arguments' names; a fresh source takes the
        # train set's width
        fresh = f"a fresh network sized to {args.train}"
        files = {**vars(args), "source": args.source or fresh}
        first, *others = exc.inputs
        named = ", ".join(f"{name}: {files[name]}" for name in others)
        raise ValueError(f"{files[first]}: {exc} ({named})") from None

    out = io.ensure_dir(args.out)
    io.write_checkpoint_json(os.path.join(out, "checkpoint.json"), report.checkpoint)
    io.write_report_json(os.path.join(out, "report.json"), report)
    io.write_report_csv(os.path.join(out, "report.csv"), report.records)
    return {**resolved, **nulls, "trunk": report.checkpoint.config.trunk}


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


def _cmd_infer(args: argparse.Namespace) -> dict:
    config = pipeline.CropConfig(**_layer_config(args, _CROP_DEFAULTS)[0])
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
    return dataclasses.asdict(config)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cmd_report(args: argparse.Namespace) -> dict:
    if args.top_k < 1:
        raise ValueError(f"--top-k must be >= 1, got {args.top_k}")
    if not os.path.isdir(args.run_dir):
        raise ValueError(f"{args.run_dir}: not a directory")
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
    return {}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _comma_list(kind):
    """An argparse type: a comma-separated list, each item parsed by ``kind``."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}"
            ) from None

    return parse


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
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("stats", help="estimate conditional/posterior tables")
    p.add_argument("--responses", required=True)
    p.add_argument("--labels", required=True)
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
    p.add_argument("--trunk", type=_comma_list(int), help="widths of a fresh source")
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
    p.add_argument("--scales", dest="scale_factors", type=_comma_list(float))
    p.add_argument("--ratio-modes", type=_comma_list(str))
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
        settings = args.handler(args)
        record = {k: v for k, v in vars(args).items() if k not in ("handler", "out", "config")}
        record.update(settings)
        io.write_json(os.path.join(args.out, "resolved_config.json"), record, sort_keys=True)
    except (ValueError, OSError, KeyError) as exc:
        print(f"os2e {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
