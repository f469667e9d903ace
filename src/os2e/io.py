"""File formats: CSVs for responses/labels/datasets/reports, JSON for tables,
selections, checkpoints and soft targets, and ``.npy`` files for images.

Floats in text are written with ``repr`` (shortest round-trip form), so
write-then-read returns bitwise-equal values; parse errors name the 1-based
line number.  Images are float64 ``.npy`` arrays of shape HxWxC and round-trip
bitwise; a malformed image file raises ``ParseError`` naming the file.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from itertools import zip_longest

import numpy as np

from .network import Checkpoint, NetworkConfig, ParamStore, build_layout
from .pipeline import ImageBuffer, RegionSpec
from .selection import SelectionProblem, SelectionResult
from .stats import (
    ConditionalTable,
    EventLabels,
    PosteriorTable,
    ResponseMatrix,
    INGEST_TOL,
)
from .training import Dataset, EvalRecord, SoftTargets, TrainReport


class ParseError(ValueError):
    """Malformed input file; the message names the file and, in text, the line."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_float(text: str, line_no: int, path: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{path}: line {line_no}: not a number: {text!r}") from None


def _split_csv_line(line: str) -> list[str]:
    return [cell.strip() for cell in line.rstrip("\n").split(",")]


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# response matrices and labels
# ---------------------------------------------------------------------------


def write_response_csv(
    path: str, matrix: ResponseMatrix, image_ids: list[str] | None = None
) -> None:
    if image_ids is None:
        image_ids = [f"img_{i}" for i in range(matrix.num_images)]
    if len(image_ids) != matrix.num_images:
        raise ValueError("one image id per row required")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("image_id," + ",".join(matrix.class_ids) + "\n")
        for image_id, row in zip(image_ids, matrix.values):
            fh.write(image_id + "," + ",".join(_fmt(x) for x in row) + "\n")


def read_response_csv(path: str, kind: str = "object") -> tuple[ResponseMatrix, list[str]]:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(f"{path}: line 1: empty file")
    header = _split_csv_line(lines[0])
    if len(header) < 2 or header[0] != "image_id":
        raise ParseError(f"{path}: line 1: expected header 'image_id,<class ids>'")
    class_ids = header[1:]
    rows, image_ids = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        cells = _split_csv_line(line)
        if len(cells) != len(header):
            raise ParseError(
                f"{path}: line {line_no}: expected {len(header)} fields, "
                f"got {len(cells)}"
            )
        image_ids.append(cells[0])
        row = [_parse_float(c, line_no, path) for c in cells[1:]]
        total = sum(row)
        if any(x < 0 for x in row) or abs(total - 1.0) > INGEST_TOL:
            raise ParseError(
                f"{path}: line {line_no}: unnormalized scores (row sums to {total!r})"
            )
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: line 2: no data rows")
    return ResponseMatrix(values=np.array(rows), class_ids=class_ids, kind=kind), image_ids


def write_labels_csv(
    path: str, labels: EventLabels, image_ids: list[str] | None = None
) -> None:
    if image_ids is None:
        image_ids = [f"img_{i}" for i in range(labels.labels.size)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("image_id,event_index\n")
        for image_id, y in zip(image_ids, labels.labels):
            fh.write(f"{image_id},{int(y)}\n")


def read_labels_csv(
    path: str, num_events: int | None = None
) -> tuple[EventLabels, list[str]]:
    lines = _read_lines(path)
    if not lines or _split_csv_line(lines[0]) != ["image_id", "event_index"]:
        raise ParseError(f"{path}: line 1: expected header 'image_id,event_index'")
    ids, values = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        cells = _split_csv_line(line)
        if len(cells) != 2:
            raise ParseError(f"{path}: line {line_no}: expected 2 fields")
        ids.append(cells[0])
        try:
            values.append(int(cells[1]))
        except ValueError:
            raise ParseError(
                f"{path}: line {line_no}: not an integer: {cells[1]!r}"
            ) from None
    if num_events is None:
        num_events = max(values) + 1 if values else 1
    for line_no, y in enumerate(values, start=2):
        if not 0 <= y < num_events:
            raise ParseError(
                f"{path}: line {line_no}: label {y} out of range [0, {num_events})"
            )
    return EventLabels(np.array(values), num_events), ids


# ---------------------------------------------------------------------------
# probability tables (JSON, row-major arrays with explicit dims)
# ---------------------------------------------------------------------------


def write_json(path: str, payload: dict, sort_keys: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=sort_keys)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None


def write_conditional_json(path: str, table: ConditionalTable) -> None:
    write_json(
        path,
        {
            "type": "conditional_table",
            "num_classes": table.num_classes,
            "num_events": table.num_events,
            "cond": table.cond.ravel().tolist(),
            "prior": table.prior.tolist(),
            "counts": table.counts.tolist(),
            "total": int(table.total),
            "class_ids": table.class_ids,
        },
    )


def read_conditional_json(path: str) -> ConditionalTable:
    d = read_json(path)
    c, m = int(d["num_classes"]), int(d["num_events"])
    return ConditionalTable(
        cond=np.array(d["cond"], dtype=np.float64).reshape(c, m),
        prior=np.array(d["prior"], dtype=np.float64),
        counts=np.array(d["counts"], dtype=np.int64),
        total=int(d["total"]),
        class_ids=list(d["class_ids"]),
    )


def write_posterior_json(path: str, table: PosteriorTable) -> None:
    write_json(
        path,
        {
            "type": "posterior_table",
            "num_classes": table.num_classes,
            "num_events": table.num_events,
            "post": table.post.ravel().tolist(),
            "marginal": table.marginal.tolist(),
            "undefined_mask": [bool(b) for b in table.undefined_mask],
            "class_ids": table.class_ids,
        },
    )


def read_posterior_json(path: str) -> PosteriorTable:
    d = read_json(path)
    c, m = int(d["num_classes"]), int(d["num_events"])
    return PosteriorTable(
        post=np.array(d["post"], dtype=np.float64).reshape(c, m),
        marginal=np.array(d["marginal"], dtype=np.float64),
        undefined_mask=np.array(d["undefined_mask"], dtype=bool),
        class_ids=list(d["class_ids"]),
    )


# ---------------------------------------------------------------------------
# selection results
# ---------------------------------------------------------------------------


def write_selection_json(path: str, result: SelectionResult) -> None:
    write_json(
        path,
        {
            "type": "selection_result",
            "selected": [int(i) for i in result.selected],
            "step_costs": result.step_costs,
            "energy": result.energy,
            "indicator": [int(h) for h in result.indicator],
        },
    )


def read_selection_json(path: str) -> SelectionResult:
    d = read_json(path)
    return SelectionResult(
        selected=[int(i) for i in d["selected"]],
        step_costs=[float(x) for x in d["step_costs"]],
        energy=float(d["energy"]),
        indicator=np.array(d["indicator"], dtype=np.int8),
    )


def write_selection_report_csv(
    path: str, result: SelectionResult, problem: SelectionProblem
) -> None:
    """Rank/class/entropy/step-cost table for the selected classes, in pick order."""
    class_ids = problem.posterior.class_ids
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rank,class_id,entropy_bits,step_cost\n")
        for rank, (idx, cost) in enumerate(zip(result.selected, result.step_costs), 1):
            fh.write(
                f"{rank},{class_ids[idx]},{_fmt(problem.phi[idx])},{_fmt(cost)}\n"
            )


# ---------------------------------------------------------------------------
# network checkpoints (bitwise round-trip)
# ---------------------------------------------------------------------------


def _key(d: dict, key: str, path: str, prefix: str = ""):
    try:
        return d[key]
    except KeyError:
        raise ParseError(f"{path}: missing key '{prefix}{key}'") from None


_CHECKPOINT_KEYS = ("type", "config", "seed", "layout", "values")
_CONFIG_KEYS = ("input_dim", "trunk", "heads", "dropout_rate")


def write_checkpoint_json(path: str, checkpoint: Checkpoint) -> None:
    params = checkpoint.params
    write_json(
        path,
        {
            "type": "checkpoint",
            "config": {
                "input_dim": checkpoint.config.input_dim,
                "trunk": list(checkpoint.config.trunk),
                "heads": list(checkpoint.config.heads),
                "dropout_rate": checkpoint.config.dropout_rate,
            },
            "seed": params.rng_seed,
            "layout": [
                {"name": name, "offset": offset, "shape": list(shape)}
                for name, offset, shape in params.layout
            ],
            "values": params.values.tolist(),
        },
    )


def read_checkpoint_json(path: str) -> Checkpoint:
    """Load a checkpoint whose layout must match its config and tile its values.

    Keys the reader does not know must be null: files written while os2e had
    an input-normalization layer carry its unused settings and statistics as
    null keys, and a set one would silently be dropped.
    """
    try:
        return _checkpoint_from(read_json(path), path)
    except ParseError:
        raise
    except (TypeError, AttributeError, ValueError) as exc:
        # wrongly typed values: "trunk": 5, "config": null, "input_dim": 0
        raise ParseError(f"{path}: {exc}") from None


def _checkpoint_from(d: dict, path: str) -> Checkpoint:
    c = _key(d, "config", path)
    for prefix, holder, known in (("", d, _CHECKPOINT_KEYS), ("config.", c, _CONFIG_KEYS)):
        for key, value in holder.items():
            if key not in known and value is not None:
                raise ParseError(f"{path}: unknown key '{prefix}{key}' is set")
    config = NetworkConfig(
        input_dim=int(_key(c, "input_dim", path, "config.")),
        trunk=tuple(_key(c, "trunk", path, "config.")),
        heads=tuple(_key(c, "heads", path, "config.")),
        dropout_rate=float(_key(c, "dropout_rate", path, "config.")),
    )
    layout = [
        (
            _key(entry, "name", path, f"layout[{i}]."),
            int(_key(entry, "offset", path, f"layout[{i}].")),
            tuple(_key(entry, "shape", path, f"layout[{i}].")),
        )
        for i, entry in enumerate(_key(d, "layout", path))
    ]
    for i, (got, want) in enumerate(zip_longest(layout, build_layout(config))):
        if got != want:
            raise ParseError(f"{path}: layout entry {i} is {got}, config wants {want}")
    params = ParamStore(
        values=np.array(_key(d, "values", path), dtype=np.float64),
        layout=layout,
        rng_seed=int(_key(d, "seed", path)),
    )
    return Checkpoint(config=config, params=params)


# ---------------------------------------------------------------------------
# train reports
# ---------------------------------------------------------------------------


def write_report_json(path: str, report: TrainReport, checkpoint_path: str) -> None:
    write_json(
        path,
        {
            "type": "train_report",
            "records": [asdict(r) for r in report.records],
            "checkpoint": checkpoint_path,
            "wall_clock_s": report.wall_clock_s,
        },
    )


def write_report_csv(path: str, records: list[EvalRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iter,train_loss,test_loss,test_acc,test_map\n")
        for r in records:
            fh.write(
                f"{r.iteration},{_fmt(r.train_loss)},{_fmt(r.test_loss)},"
                f"{_fmt(r.test_accuracy)},{_fmt(r.test_map)}\n"
            )


def read_report_csv(path: str) -> list[EvalRecord]:
    lines = _read_lines(path)
    expected = ["iter", "train_loss", "test_loss", "test_acc", "test_map"]
    if not lines or _split_csv_line(lines[0]) != expected:
        raise ParseError(f"{path}: line 1: expected header {','.join(expected)}")
    records = []
    for line_no, line in enumerate(lines[1:], start=2):
        cells = _split_csv_line(line)
        if len(cells) != 5:
            raise ParseError(f"{path}: line {line_no}: expected 5 fields")
        records.append(
            EvalRecord(
                iteration=int(cells[0]),
                train_loss=_parse_float(cells[1], line_no, path),
                test_loss=_parse_float(cells[2], line_no, path),
                test_accuracy=_parse_float(cells[3], line_no, path),
                test_map=_parse_float(cells[4], line_no, path),
            )
        )
    return records


# ---------------------------------------------------------------------------
# feature datasets and soft targets
# ---------------------------------------------------------------------------


def write_dataset_csv(path: str, dataset: Dataset) -> None:
    if not isinstance(dataset.features, np.ndarray):
        raise ValueError("only feature-matrix datasets serialize to CSV")
    d = dataset.features.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sample_id,label," + ",".join(f"x_{j}" for j in range(d)) + "\n")
        for i, (y, row) in enumerate(zip(dataset.labels, dataset.features)):
            fh.write(f"s_{i},{int(y)}," + ",".join(_fmt(x) for x in row) + "\n")


def read_dataset_csv(
    path: str, num_classes: int | None = None, split: str = "train", name: str = ""
) -> Dataset:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(f"{path}: line 1: empty file")
    header = _split_csv_line(lines[0])
    if header[:2] != ["sample_id", "label"]:
        raise ParseError(f"{path}: line 1: expected header 'sample_id,label,x_0,...'")
    width = len(header) - 2
    labels, rows = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        cells = _split_csv_line(line)
        if len(cells) != len(header):
            raise ParseError(
                f"{path}: line {line_no}: expected {len(header)} fields, "
                f"got {len(cells)}"
            )
        try:
            labels.append(int(cells[1]))
        except ValueError:
            raise ParseError(
                f"{path}: line {line_no}: not an integer label: {cells[1]!r}"
            ) from None
        rows.append([_parse_float(c, line_no, path) for c in cells[2:]])
    if num_classes is None:
        num_classes = max(labels) + 1 if labels else 1
    for line_no, y in enumerate(labels, start=2):
        if not 0 <= y < num_classes:
            raise ParseError(
                f"{path}: line {line_no}: label {y} out of range [0, {num_classes})"
            )
    return Dataset(
        features=np.array(rows).reshape(len(rows), width),
        labels=np.array(labels),
        num_classes=num_classes,
        split=split,
        name=name,
    )


def write_soft_targets_json(path: str, soft: SoftTargets) -> None:
    write_json(
        path,
        {
            "type": "soft_targets",
            "num_rows": int(soft.values.shape[0]),
            "num_concepts": int(soft.values.shape[1]),
            "values": soft.values.ravel().tolist(),
            "concept_ids": [int(c) for c in soft.concept_ids],
        },
    )


def read_soft_targets_json(path: str) -> SoftTargets:
    d = read_json(path)
    values = np.array(d["values"], dtype=np.float64).reshape(
        int(d["num_rows"]), int(d["num_concepts"])
    )
    return SoftTargets(values=values, concept_ids=[int(c) for c in d["concept_ids"]])


# ---------------------------------------------------------------------------
# images: float64 HxWxC .npy arrays
# ---------------------------------------------------------------------------


def write_image(path: str, image: ImageBuffer) -> None:
    with open(path, "wb") as fh:
        np.save(fh, image.pixels, allow_pickle=False)


def read_image(path: str) -> ImageBuffer:
    """An ``ImageBuffer`` from a float64 HxWxC ``.npy`` file; ``read_array``, not
    ``np.load``, which would open a zip archive renamed ``.npy`` as an NpzFile."""
    try:
        with open(path, "rb") as fh:
            px = np.lib.format.read_array(fh, allow_pickle=False)
        if px.dtype != np.float64 or px.ndim != 3:
            raise ValueError(f"expected float64 HxWxC pixels, got {px.dtype} {px.shape}")
        return ImageBuffer(px)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# region specs and per-image scores
# ---------------------------------------------------------------------------


def write_region_specs_json(
    path: str, specs: dict[tuple[int, int], list[RegionSpec]]
) -> None:
    """One entry per image size, in the mapping's order: height, width, specs."""
    sizes = [
        {"height": h, "width": w, "specs": [asdict(s) for s in size_specs]}
        for (h, w), size_specs in specs.items()
    ]
    write_json(path, {"type": "region_specs", "sizes": sizes})


def write_scores_csv(path: str, image_ids: list[str], scores: np.ndarray) -> None:
    scores = np.asarray(scores, dtype=np.float64)
    m = scores.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("image_id," + ",".join(f"score_{k}" for k in range(m)) + "\n")
        for image_id, row in zip(image_ids, scores):
            fh.write(image_id + "," + ",".join(_fmt(x) for x in row) + "\n")


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
