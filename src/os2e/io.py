"""File formats: the only module that knows how os2e artifacts are stored.

Every CSV goes through ``_write_csv`` and ``_read_csv``: a header line, then
one line per row, floats in ``repr`` form (shortest round-trip), so
write-then-read is bitwise; a malformed line raises ``ParseError`` naming the
file and the 1-based line.  Every JSON artifact is written by
``_write_json`` and read through ``_read_object``: a file that is not a JSON
object, or a wrongly typed or shaped value, raises ``ParseError`` starting
with ``<file>: ``, and a missing key one reading ``<file>: missing key
'<key>'``.  The public ``read_json``/``write_json`` are for the CLI's
free-form files only, so each artifact is opened by exactly one public
function.  ``posterior.json`` is written for inspection and read by nothing.
An image file is a float64 ``.npy`` array: one HxWxC image, whose id is the
file stem, or an NxHxWxC stack, whose images have the ids ``<stem>_0000``,
``<stem>_0001``, ...; it is checked on read and round-trips bitwise.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, astuple, fields
from itertools import zip_longest

import numpy as np

from .network import Checkpoint, NetworkConfig, ParamStore, build_layout
from .pipeline import CropConfig, check_images, generate_regions
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


# ---------------------------------------------------------------------------
# the two formats: CSV tables and JSON objects
# ---------------------------------------------------------------------------


def _cell(x) -> str:
    """A Python or numpy float in ``repr`` form, any other cell as ``str``."""
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _read_csv(path: str, header: list[str], parse_row, exact: bool = False):
    """The header cells and ``parse_row(cells)`` of each non-blank data line.

    The header must equal ``header`` when ``exact`` and otherwise extend it by
    at least one column; every line must have as many fields as the header.
    A ``ValueError`` from ``parse_row`` becomes a ``ParseError`` naming the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = (
            (line_no, [cell.strip() for cell in line.split(",")])
            for line_no, line in enumerate(fh, start=1)
            if line.strip()
        )
        head_no, head = next(lines, (1, []))
        n = len(header)
        if (head != header) if exact else (head[:n] != header or len(head) == n):
            expected = ",".join(header) + ("" if exact else ",...")
            raise ParseError(f"{path}: line {head_no}: expected header '{expected}'")
        rows = []
        for line_no, cells in lines:
            if len(cells) != len(head):
                got = f"expected {len(head)} fields, got {len(cells)}"
                raise ParseError(f"{path}: line {line_no}: {got}")
            try:
                rows.append(parse_row(cells))
            except ValueError as exc:
                raise ParseError(f"{path}: line {line_no}: {exc}") from None
    return head, rows


def _numbers(cells: list[str], kind=float) -> list:
    """``cells`` converted by ``kind`` (float or int); the error names a bad cell."""
    values = []
    for cell in cells:
        try:
            values.append(kind(cell))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"not {what}: {cell!r}") from None
    return values


def _label(cell: str, num_classes: int | None) -> int:
    """An integer label in [0, num_classes), or >= 0 when ``num_classes`` is None."""
    (y,) = _numbers([cell], int)
    if y < 0 or (num_classes is not None and y >= num_classes):
        bound = "inf" if num_classes is None else num_classes
        raise ValueError(f"label {y} out of range [0, {bound})")
    return y


def _write_json(path: str, payload: dict, sort_keys: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=sort_keys)
        fh.write("\n")


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None


def write_json(path: str, payload: dict, sort_keys: bool = False) -> None:
    """A free-form JSON file (manifest, truth, resolved config); the artifact
    writers below go through ``_write_json`` directly."""
    _write_json(path, payload, sort_keys)


def read_json(path: str):
    """Any JSON value; a malformed file raises ``ParseError`` naming it."""
    return _read_json(path)


def _key(d: dict, key: str, path: str, prefix: str = "", kind=object):
    try:
        value = d[key]
    except KeyError:
        raise ParseError(f"{path}: missing key '{prefix}{key}'") from None
    if not isinstance(value, kind):
        raise ParseError(
            f"{path}: '{prefix}{key}' must be a {kind.__name__}, got {value!r}"
        )
    return value


def _read_object(path: str, build):
    """``build(d, key)`` of the JSON object ``d`` in ``path``, ``key`` being
    ``_key`` for this file; any other error of a malformed value (``"trunk": 5``,
    a ``cond`` that does not fill its dims) becomes a ``ParseError`` naming it."""
    d = _read_json(path)
    if not isinstance(d, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(d).__name__}")

    def key(name, holder=d, prefix="", kind=object):
        return _key(holder, name, path, prefix, kind)

    try:
        return build(d, key)
    except ParseError:
        raise
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ParseError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# concept statistics: responses, labels, tables, selections, report tables
# ---------------------------------------------------------------------------


def write_response_csv(
    path: str, matrix: ResponseMatrix, image_ids: list[str] | None = None
) -> None:
    if image_ids is None:
        image_ids = [f"img_{i}" for i in range(matrix.num_images)]
    if len(image_ids) != matrix.num_images:
        raise ValueError("one image id per row required")
    rows = ([image_id, *row] for image_id, row in zip(image_ids, matrix.values.tolist()))
    _write_csv(path, ["image_id", *matrix.class_ids], rows)


def _response_row(cells: list[str]) -> tuple[str, list[float]]:
    row = _numbers(cells[1:])
    total = sum(row)
    if any(x < 0 for x in row) or abs(total - 1.0) > INGEST_TOL:
        raise ValueError(f"unnormalized scores (row sums to {total!r})")
    return cells[0], row


def read_response_csv(path: str, kind: str = "object") -> tuple[ResponseMatrix, list[str]]:
    header, rows = _read_csv(path, ["image_id"], _response_row)
    if not rows:
        raise ParseError(f"{path}: line 2: no data rows")
    image_ids, values = zip(*rows)
    matrix = ResponseMatrix(values=np.array(values), class_ids=header[1:], kind=kind)
    return matrix, list(image_ids)


def write_labels_csv(
    path: str, labels: EventLabels, image_ids: list[str] | None = None
) -> None:
    if image_ids is None:
        image_ids = [f"img_{i}" for i in range(labels.labels.size)]
    rows = zip(image_ids, labels.labels.tolist())
    _write_csv(path, ["image_id", "event_index"], rows)


def read_labels_csv(
    path: str, num_events: int | None = None
) -> tuple[EventLabels, list[str]]:
    def parse_row(cells):
        return cells[0], _label(cells[1], num_events)

    _, rows = _read_csv(path, ["image_id", "event_index"], parse_row, exact=True)
    values = [y for _, y in rows]
    if num_events is None:
        num_events = max(values) + 1 if values else 1
    return EventLabels(np.array(values), num_events), [image_id for image_id, _ in rows]


def write_conditional_json(path: str, table: ConditionalTable) -> None:
    _write_json(
        path,
        {
            "type": "conditional_table",
            "num_classes": table.num_classes,
            "num_events": table.num_events,
            "cond": table.cond.ravel().tolist(),
            "prior": table.prior.tolist(),
            "counts": table.counts.tolist(),
            "total": table.total,
            "class_ids": table.class_ids,
        },
    )


def read_conditional_json(path: str) -> ConditionalTable:
    """The table in ``path``; its ``total`` and ``prior`` must equal, exactly,
    those that its ``counts`` give."""

    def build(d, key):
        c, m = int(key("num_classes")), int(key("num_events"))
        table = ConditionalTable(
            cond=np.array(key("cond"), dtype=np.float64).reshape(c, m),
            counts=np.array(key("counts"), dtype=np.int64),
            class_ids=key("class_ids", kind=list),
        )
        for name, want in (("total", table.total), ("prior", table.prior.tolist())):
            if not np.array_equal(key(name), want):
                raise ParseError(f"{path}: '{name}' disagrees with counts ({want!r})")
        return table

    return _read_object(path, build)


def write_posterior_json(path: str, table: PosteriorTable) -> None:
    _write_json(
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


def write_selection_json(path: str, result: SelectionResult) -> None:
    _write_json(
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
    def build(d, key):
        return SelectionResult(
            selected=[int(i) for i in key("selected")],
            step_costs=[float(x) for x in key("step_costs")],
            energy=float(key("energy")),
            indicator=np.array(key("indicator"), dtype=np.int8),
        )

    return _read_object(path, build)


def write_selection_report_csv(
    path: str, result: SelectionResult, problem: SelectionProblem
) -> None:
    """Rank/class/entropy/step-cost table for the selected classes, in pick order."""
    class_ids = problem.posterior.class_ids
    picks = enumerate(zip(result.selected, result.step_costs), 1)
    rows = ((rank, class_ids[i], problem.phi[i], cost) for rank, (i, cost) in picks)
    _write_csv(path, ["rank", "class_id", "entropy_bits", "step_cost"], rows)


def write_top_concepts_csv(path: str, table: ConditionalTable, top_k: int) -> None:
    """The ``top_k`` concepts of each event by descending p(concept|event)."""
    ids, rows = table.class_ids, []
    for e in range(table.num_events):
        order = np.argsort(-table.cond[:, e], kind="stable")[:top_k]
        rows += [(e, rank, ids[c], table.cond[c, e]) for rank, c in enumerate(order, 1)]
    _write_csv(path, ["event", "rank", "class_id", "p_concept_given_event"], rows)


def write_marginals_csv(path: str, class_ids: list[str], marginal: np.ndarray) -> None:
    _write_csv(path, ["class_id", "p_concept"], zip(class_ids, marginal))


# ---------------------------------------------------------------------------
# training: checkpoints (bitwise round-trip), reports, datasets, soft targets
# ---------------------------------------------------------------------------


_CHECKPOINT_KEYS = ("type", "config", "seed", "layout", "values")
_CONFIG_KEYS = ("input_dim", "trunk", "heads", "dropout_rate")
_RECORD_KEYS = tuple(f.name for f in fields(EvalRecord))


def write_checkpoint_json(path: str, checkpoint: Checkpoint) -> None:
    params = checkpoint.params
    _write_json(
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
    return _read_object(path, _checkpoint_from)


def _checkpoint_from(d: dict, key) -> Checkpoint:
    c = key("config", kind=dict)
    for prefix, holder, known in (("", d, _CHECKPOINT_KEYS), ("config.", c, _CONFIG_KEYS)):
        for name, value in holder.items():
            if name not in known and value is not None:
                raise ValueError(f"unknown key '{prefix}{name}' is set")
    config = NetworkConfig(
        input_dim=int(key("input_dim", c, "config.")),
        trunk=tuple(key("trunk", c, "config.", list)),
        heads=tuple(key("heads", c, "config.", list)),
        dropout_rate=float(key("dropout_rate", c, "config.")),
    )
    layout = [
        (
            key("name", entry, f"layout[{i}]."),
            int(key("offset", entry, f"layout[{i}].")),
            tuple(key("shape", entry, f"layout[{i}].", list)),
        )
        for i, entry in enumerate(key("layout", kind=list))
    ]
    for i, (got, want) in enumerate(zip_longest(layout, build_layout(config))):
        if got != want:
            raise ValueError(f"layout entry {i} is {got}, config wants {want}")
    params = ParamStore(
        values=np.array(key("values"), dtype=np.float64),
        layout=layout,
        rng_seed=int(key("seed")),
    )
    return Checkpoint(config=config, params=params)


def write_report_json(path: str, report: TrainReport, checkpoint_path: str) -> None:
    _write_json(
        path,
        {
            "type": "train_report",
            "records": [asdict(r) for r in report.records],
            "checkpoint": checkpoint_path,
            "wall_clock_s": report.wall_clock_s,
        },
    )


def read_report_json(path: str) -> list[EvalRecord]:
    """The eval records of a train report written by ``write_report_json``."""

    def build(d, key):
        records = []
        for i, r in enumerate(key("records", kind=list)):
            if not isinstance(r, dict) or not set(r) <= set(_RECORD_KEYS):
                raise ValueError(f"records[{i}] must be an object of {_RECORD_KEYS}")
            iteration, *values = (key(k, r, f"records[{i}].") for k in _RECORD_KEYS)
            records.append(EvalRecord(int(iteration), *map(float, values)))
        if not records:
            raise ValueError("a train report needs at least one record")
        return records

    return _read_object(path, build)


def read_run_mode(path: str) -> str:
    """The ``mode`` string of a run's ``resolved_config.json``; ``"unknown"``
    when the run has none (every setting but the mode is ignored)."""

    def build(d, key):
        return key("mode", kind=str) if "mode" in d else "unknown"

    return _read_object(path, build)


def write_report_csv(path: str, records: list[EvalRecord]) -> None:
    header = ["iter", "train_loss", "test_loss", "test_acc", "test_map"]
    _write_csv(path, header, map(astuple, records))


def write_mode_comparison_csv(path: str, runs: list[tuple[str, list]]) -> None:
    """One line per (mode, records) run: its final eval record."""
    header = ["mode", "final_iter", "train_loss", "test_loss", "test_acc", "test_map"]
    _write_csv(path, header, ((mode, *astuple(records[-1])) for mode, records in runs))


def write_dataset_csv(path: str, dataset: Dataset) -> None:
    if dataset.features.ndim != 2:
        raise ValueError(f"only (N, D) features go to CSV, got {dataset.features.shape}")
    d = dataset.features.shape[1]
    header = ["sample_id", "label", *(f"x_{j}" for j in range(d))]
    samples = enumerate(zip(dataset.labels.tolist(), dataset.features.tolist()))
    _write_csv(path, header, ([f"s_{i}", y, *row] for i, (y, row) in samples))


def read_dataset_csv(path: str, num_classes: int | None = None) -> Dataset:
    def parse_row(cells):
        return _label(cells[1], num_classes), _numbers(cells[2:])

    header, rows = _read_csv(path, ["sample_id", "label"], parse_row)
    labels = [y for y, _ in rows]
    if num_classes is None:
        num_classes = max(labels) + 1 if labels else 1
    return Dataset(
        features=np.array([x for _, x in rows]).reshape(len(rows), len(header) - 2),
        labels=np.array(labels),
        num_classes=num_classes,
    )


def write_soft_targets_json(path: str, soft: SoftTargets) -> None:
    _write_json(
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
    def build(d, key):
        shape = int(key("num_rows")), int(key("num_concepts"))
        values = np.array(key("values"), dtype=np.float64).reshape(shape)
        concept_ids = [int(c) for c in key("concept_ids")]
        return SoftTargets(values=values, concept_ids=concept_ids)

    return _read_object(path, build)


# ---------------------------------------------------------------------------
# inference: images (float64 HxWxC or NxHxWxC .npy arrays), region specs,
# image scores
# ---------------------------------------------------------------------------


def _image_ids(path: str, ndim: int, n: int) -> list[str]:
    """The ids of the images in an image file: its stem for one HxWxC image
    (``ndim`` 3), ``<stem>_<i:04d>`` for image ``i`` of an NxHxWxC stack."""
    stem = os.path.splitext(os.path.basename(path))[0]
    return [stem] if ndim == 3 else [f"{stem}_{i:04d}" for i in range(n)]


def write_image(path: str, pixels: np.ndarray) -> list[str]:
    """One HxWxC image or an NxHxWxC stack as a ``.npy`` file, written as
    given (``read_image`` checks it); returns the ids ``read_image`` gives
    its images."""
    with open(path, "wb") as fh:
        np.save(fh, pixels, allow_pickle=False)
    return _image_ids(path, pixels.ndim, len(pixels))


def read_image(path: str) -> tuple[list[str], np.ndarray]:
    """The image ids and the (N, H, W, C) float64 stack of a ``.npy`` image
    file, checked once for the whole file by ``pipeline.check_images``;
    ``read_array``, not ``np.load``, which would open a zip archive renamed
    ``.npy`` as an NpzFile.  The dtype and axes are checked first, so an
    error gives the shape the file holds, not the stack of one made from it."""
    try:
        with open(path, "rb") as fh:
            px = np.lib.format.read_array(fh, allow_pickle=False)
        if px.dtype != np.float64 or px.ndim not in (3, 4) or 0 in px.shape[:-1]:
            raise ValueError(
                "expected float64 HxWxC or NxHxWxC pixels, at least one image "
                f"of at least 1x1 pixels, got {px.dtype} {px.shape}"
            )
        pixels = check_images(px if px.ndim == 4 else px[None])
        return _image_ids(path, px.ndim, len(px)), pixels
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_region_specs_json(
    path: str, sizes: list[tuple[int, int]], config: CropConfig
) -> None:
    """One entry per image size, in the given order: height, width, and the
    spec of each of its crops in ``generate_regions`` order."""
    per_view, side = config.grid**2, config.crop_side
    entries = []
    for h, w in sizes:
        views, offsets = generate_regions(h, w, config)
        specs = []
        for r, (top, left) in enumerate(offsets.tolist()):
            mode, scale, rh, rw = views[r // per_view]
            row, col = divmod(r % per_view, config.grid)
            specs.append({
                "ratio_mode": mode, "scale_factor": scale, "grid_row": row,
                "grid_col": col, "top": top, "left": left, "height": side,
                "width": side, "resized_height": rh, "resized_width": rw,
            })
        entries.append({"height": h, "width": w, "specs": specs})
    _write_json(path, {"type": "region_specs", "sizes": entries})


def write_scores_csv(path: str, image_ids: list[str], scores: np.ndarray) -> None:
    scores = np.asarray(scores, dtype=np.float64)
    header = ["image_id", *(f"score_{k}" for k in range(scores.shape[1]))]
    _write_csv(path, header, ([i, *row] for i, row in zip(image_ids, scores.tolist())))


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
