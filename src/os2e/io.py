"""File formats: the only module that knows how os2e artifacts are stored.

Every CSV goes through ``_write_csv`` and ``_read_csv``: a header line, then
one line per row, floats in ``repr`` form (shortest round-trip), so
write-then-read is bitwise.  ``io`` checks format (UTF-8 text, the header,
field counts, finite number or integer cells, a data row) and the type a
reader builds checks rules (simplex rows, labels in range); either error is a
``ParseError`` naming the file and the 1-based line, for a rule the line of
the ``stats.RowError``'s row.  Every JSON artifact is written by
``_write_json``, which rejects a NaN or inf, and read through
``_read_object``: a file that is not a JSON object, or a wrongly typed or
shaped value (a float, bool or string in an integer field, a bool or string
in a float field), raises ``ParseError`` starting with ``<file>: ``, and a
missing key one reading ``<file>: missing key '<key>'``.  An artifact
writes no key a reader could recompute (a matrix is a flat row-major list
shaped by its id lists, a checkpoint's layout is ``build_layout`` of its
config), and a reader ignores the keys it does not read.
The public ``read_json``/``write_json`` are for the CLI's free-form files
only, so each artifact is opened by exactly one public function.
``posterior.json`` is written for inspection and read by nothing.  An image
file is a float64 ``.npy`` array: one HxWxC image, whose id is the file
stem, or an NxHxWxC stack, whose images have the ids ``<stem>_0000``,
``<stem>_0001``, ...; it is checked on read and round-trips bitwise.  Each
write fills a temporary file beside its target, then ``os.replace``s it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import asdict, astuple, fields

import numpy as np

from .network import Checkpoint, NetworkConfig, ParamStore, build_layout, param_count
from .pipeline import CropConfig, check_images, generate_regions
from .selection import SelectionProblem, SelectionResult
from .stats import ConditionalTable, EventLabels, PosteriorTable, ResponseMatrix, RowError
from .training import TRANSFER_MODES, Dataset, EvalRecord, SoftTargets, TrainReport


class ParseError(ValueError):
    """Malformed input file; the message names the file and, in text, the line."""


# ---------------------------------------------------------------------------
# the two formats: CSV tables and JSON objects
# ---------------------------------------------------------------------------


def _cell(x) -> str:
    """A Python or numpy float in ``repr`` form, any other cell as ``str``."""
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


@contextlib.contextmanager
def _replacing(path: str, mode: str = "w"):
    """A temporary file beside ``path``, opened in ``mode``: it replaces
    ``path`` once written, and an error removes it, leaving ``path`` as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _write_csv(path: str, header: list[str], rows) -> None:
    with _replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _decoded(path: str, fh):
    """The lines of the text file ``fh``; a byte that is not UTF-8 names ``path``."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_csv(path: str, header: list[str], parse_row, build, exact: bool = False):
    """``build(head, rows)`` of the header cells and ``parse_row(cells)`` of
    each non-blank data line, of which there must be at least one.

    The header must equal ``header`` when ``exact`` and otherwise extend it by
    at least one column; every line must have as many fields as the header.
    A ``ValueError`` from ``parse_row`` becomes a ``ParseError`` naming the
    line, one from ``build`` naming the file and a ``RowError``'s line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = (
            (line_no, [cell.strip() for cell in line.split(",")])
            for line_no, line in enumerate(_decoded(path, fh), start=1)
            if line.strip()
        )
        head_no, head = next(lines, (1, []))
        n = len(header)
        if (head != header) if exact else (head[:n] != header or len(head) == n):
            expected = ",".join(header) + ("" if exact else ",...")
            raise ParseError(f"{path}: line {head_no}: expected header '{expected}'")
        rows, line_nos = [], []
        for line_no, cells in lines:
            if len(cells) != len(head):
                got = f"expected {len(head)} fields, got {len(cells)}"
                raise ParseError(f"{path}: line {line_no}: {got}")
            try:
                rows.append(parse_row(cells))
            except ValueError as exc:
                raise ParseError(f"{path}: line {line_no}: {exc}") from None
            line_nos.append(line_no)
    if not rows:
        raise ParseError(f"{path}: line {head_no + 1}: no data rows")
    try:
        return build(head, rows)
    except RowError as exc:
        raise ParseError(f"{path}: line {line_nos[exc.row]}: {exc}") from None
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _numbers(cells: list[str], kind=float) -> list:
    """``cells`` converted by ``kind`` (float or int, finite); the error names a cell."""
    values = []
    for cell in cells:
        try:
            values.append(kind(cell))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"not {what}: {cell!r}") from None
    if kind is float and not math.isfinite(sum(values)):
        for cell, x in zip(cells, values):
            if not math.isfinite(x):
                raise ValueError(f"not a finite number: {cell!r}")
    return values


def _write_json(path: str, payload: dict, sort_keys: bool = False) -> None:
    """``payload`` as strict JSON: a NaN or inf, which ``json`` would write as
    a ``NaN`` no JSON reader takes, is a ``ValueError`` naming ``path``."""
    with _replacing(path) as fh:
        try:
            json.dump(payload, fh, indent=1, sort_keys=sort_keys, allow_nan=False)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        fh.write("\n")


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: {exc}") from None


def write_json(path: str, payload: dict, sort_keys: bool = False) -> None:
    """A free-form JSON file (manifest, truth, resolved config); the artifact
    writers below go through ``_write_json`` directly."""
    _write_json(path, payload, sort_keys)


def read_json(path: str):
    """Any JSON value; a malformed file raises ``ParseError`` naming it."""
    return _read_json(path)


def typed_like(value, example) -> bool:
    """Whether a JSON value has the type of ``example``: a list of values
    typed like its first item for a list or tuple that has one, an int or
    float for a float, and never a bool."""
    if isinstance(example, (list, tuple)) and example:
        return isinstance(value, list) and all(typed_like(v, example[0]) for v in value)
    kinds = (int, float) if isinstance(example, float) else type(example)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _key(d: dict, key: str, path: str, prefix: str = "", like=None):
    try:
        value = d[key]
    except KeyError:
        raise ParseError(f"{path}: missing key '{prefix}{key}'") from None
    if like is not None and not typed_like(value, like):
        got = repr(value)
        if isinstance(like, list) and like and isinstance(value, list):
            # name the first bad entry: a checkpoint's values run to thousands
            i = next(i for i, v in enumerate(value) if not typed_like(v, like[0]))
            got = f"{value[i]!r} at index {i}"
        raise ParseError(f"{path}: '{prefix}{key}' must have the type of {like!r}, got {got}")
    return value


def _matrix(key, name: str, cols: str, rows: str = "") -> np.ndarray:
    """The flat float list at key ``name`` as rows of one value per entry of
    the list at key ``cols``, one row per entry of the list at key ``rows``
    if given; a list that does not fill them is a ``ValueError`` naming them."""
    values = np.array(key(name, like=[0.0]), dtype=np.float64)
    width = len(key(cols, like=[]))
    height = len(key(rows, like=[])) if rows else values.size // max(width, 1)
    if values.size != height * width:
        want = f"len({rows}) x len({cols}) = {height} x " if rows else f"rows of len({cols}) = "
        raise ValueError(f"'{name}' holds {values.size} values, not {want}{width}")
    return values.reshape(height, width)


def _read_object(path: str, build):
    """``build(d, key)`` of the JSON object ``d`` in ``path``, ``key`` being
    ``_key`` for this file; any other error of a malformed value (``"trunk": 5``,
    a ``cond`` that does not fill its id lists) becomes a ``ParseError`` naming it."""
    d = _read_json(path)
    if not isinstance(d, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(d).__name__}")

    def key(name, holder=d, prefix="", like=None):
        return _key(holder, name, path, prefix, like)

    try:
        return build(d, key)
    except ParseError:
        raise
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ParseError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# concept statistics: responses, labels, tables, selections, report tables
# ---------------------------------------------------------------------------


def write_response_csv(path: str, matrix: ResponseMatrix) -> None:
    """One row per image, its id ``img_<i>``."""
    rows = ([f"img_{i}", *row] for i, row in enumerate(matrix.values.tolist()))
    _write_csv(path, ["image_id", *matrix.class_ids], rows)


def read_response_csv(path: str) -> tuple[ResponseMatrix, list[str]]:
    def build(header, rows):
        image_ids, values = zip(*rows)
        return ResponseMatrix(np.array(values), header[1:]), list(image_ids)

    return _read_csv(path, ["image_id"], lambda cells: (cells[0], _numbers(cells[1:])), build)


def write_labels_csv(
    path: str, labels: EventLabels, image_ids: list[str] | None = None
) -> None:
    if image_ids is None:
        image_ids = [f"img_{i}" for i in range(labels.labels.size)]
    rows = zip(image_ids, labels.labels.tolist())
    _write_csv(path, ["image_id", "event_index"], rows)


def read_labels_csv(path: str) -> tuple[EventLabels, list[str]]:
    """The labels, over as many events as the largest label gives, and
    their image ids."""

    def parse_row(cells):
        return cells[0], _numbers(cells[1:], int)[0]

    def build(header, rows):
        image_ids, values = zip(*rows)
        return EventLabels(np.array(values), max(1, max(values) + 1)), list(image_ids)

    return _read_csv(path, ["image_id", "event_index"], parse_row, build, exact=True)


def write_conditional_json(path: str, table: ConditionalTable) -> None:
    _write_json(
        path,
        {
            "type": "conditional_table",
            "cond": table.cond.ravel().tolist(),
            "counts": table.counts.tolist(),
            "class_ids": table.class_ids,
        },
    )


def read_conditional_json(path: str) -> ConditionalTable:
    def build(d, key):
        return ConditionalTable(
            cond=_matrix(key, "cond", "counts", "class_ids"),
            counts=np.array(key("counts", like=[0]), dtype=np.int64),
            class_ids=key("class_ids", like=[]),
        )

    return _read_object(path, build)


def write_posterior_json(path: str, table: PosteriorTable) -> None:
    _write_json(
        path,
        {
            "type": "posterior_table",
            "post": table.post.ravel().tolist(),
            "marginal": table.marginal.tolist(),
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
        },
    )


def read_selection_json(path: str) -> SelectionResult:
    def build(d, key):
        return SelectionResult(
            selected=key("selected", like=[0]),
            step_costs=[float(x) for x in key("step_costs", like=[0.0])],
            energy=float(key("energy", like=0.0)),
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


# a file written before the layout was left to ``build_layout`` holds a
# ``layout`` list too, which nothing reads
_CHECKPOINT_KEYS = ("type", "config", "seed", "layout", "values")
_CONFIG_KEYS = tuple(f.name for f in fields(NetworkConfig))
_RECORD_KEYS = tuple(f.name for f in fields(EvalRecord))


def write_checkpoint_json(path: str, checkpoint: Checkpoint) -> None:
    _write_json(
        path,
        {
            "type": "checkpoint",
            "config": asdict(checkpoint.config),
            "seed": checkpoint.params.rng_seed,
            "values": checkpoint.params.values.tolist(),
        },
    )


def read_checkpoint_json(path: str) -> Checkpoint:
    """Load a checkpoint whose finite values fill the layout
    ``network.build_layout`` gives its config.

    Keys the reader does not know must be null: files written while os2e had
    an input-normalization layer carry its unused settings and statistics as
    null keys, and a set one would silently be dropped.
    """
    return _read_object(path, _checkpoint_from)


def _checkpoint_from(d: dict, key) -> Checkpoint:
    c = key("config", like={})
    for prefix, holder, known in (("", d, _CHECKPOINT_KEYS), ("config.", c, _CONFIG_KEYS)):
        for name, value in holder.items():
            if name not in known and value is not None:
                raise ValueError(f"unknown key '{prefix}{name}' is set")
    config = NetworkConfig(
        input_dim=key("input_dim", c, "config.", 0),
        trunk=tuple(key("trunk", c, "config.", [0])),
        heads=tuple(key("heads", c, "config.", [0])),
        dropout_rate=float(key("dropout_rate", c, "config.", 0.0)),
    )
    values = np.array(key("values", like=[0.0]), dtype=np.float64)
    if values.size != param_count(config):
        raise ValueError(
            f"'values' holds {values.size} values, not the {param_count(config)} 'config' takes"
        )
    layout = build_layout(config)
    params = ParamStore(values, layout, rng_seed=key("seed", like=0))
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:  # the entries tile values in order: the first ending past i holds i
        i, value = int(bad[0]), float(values[bad[0]])
        name = next(name for name, offset, shape in layout if i < offset + math.prod(shape))
        raise ValueError(f"'values' must be finite, got {value!r} in layout entry '{name}'")
    return Checkpoint(config=config, params=params)


def write_report_json(path: str, report: TrainReport) -> None:
    _write_json(
        path,
        {
            "type": "train_report",
            "records": [asdict(r) for r in report.records],
            "wall_clock_s": report.wall_clock_s,
        },
    )


def read_report_json(path: str) -> list[EvalRecord]:
    """The eval records of a train report written by ``write_report_json``."""

    def build(d, key):
        records = []
        for i, r in enumerate(key("records", like=[])):
            if not isinstance(r, dict) or not set(r) <= set(_RECORD_KEYS):
                raise ValueError(f"records[{i}] must be an object of {_RECORD_KEYS}")
            prefix = f"records[{i}]."
            values = (float(key(k, r, prefix, 0.0)) for k in _RECORD_KEYS[1:])
            records.append(EvalRecord(key("iteration", r, prefix, 0), *values))
        if not records:
            raise ValueError("a train report needs at least one record")
        return records

    return _read_object(path, build)


def read_run_mode(path: str) -> str:
    """The ``mode`` of a run's ``resolved_config.json``, one of
    ``TRANSFER_MODES``; ``"unknown"`` when the run has none (every setting
    but the mode is ignored)."""

    def build(d, key):
        if "mode" not in d:
            return "unknown"
        mode = key("mode", like="init")
        if mode not in TRANSFER_MODES:
            raise ValueError(f"'mode' must be one of {TRANSFER_MODES}, got {mode!r}")
        return mode

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
        return _numbers(cells[1:2], int)[0], _numbers(cells[2:])

    def build(header, rows):
        labels, features = zip(*rows)
        n = max(1, max(labels) + 1) if num_classes is None else num_classes
        return Dataset(np.array(features), np.array(labels), n)

    return _read_csv(path, ["sample_id", "label"], parse_row, build)


def write_soft_targets_json(path: str, soft: SoftTargets) -> None:
    _write_json(
        path,
        {
            "type": "soft_targets",
            "values": soft.values.ravel().tolist(),
            "concept_ids": [int(c) for c in soft.concept_ids],
        },
    )


def read_soft_targets_json(path: str) -> SoftTargets:
    def build(d, key):
        values = _matrix(key, "values", "concept_ids")
        return SoftTargets(values=values, concept_ids=key("concept_ids", like=[0]))

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
    with _replacing(path, "wb") as fh:
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
