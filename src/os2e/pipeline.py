"""Multi-ratio / multi-scale crop-and-fuse recognition pipeline.

An image is resized under two aspect-ratio modes (smaller-side-preserving and
square) at several scales, densely cropped on a grid, and the crops are scored
by per-stream scorer callables (object stream and scene stream).  Scores are
fused twice: the two streams with equal weights per region, then a plain mean
across regions.  With the default config this produces 2 x 3 x 9 = 54 regions
per image.

Scorer contract: a scorer receives one C-contiguous float64 stack of
mean-subtracted crops, shape (n, crop, crop, channels), and returns an (n, M)
array whose rows are probability vectors over the M event classes.
``score_regions`` calls each stream once per resized view with that view's
grid x grid crops, so 12 calls score the 54 default regions.

The region layout is plain data: ``generate_regions`` returns the list of
views and one (R, 2) int array of crop offsets.  Pixels are validated where
an image enters, as an ``ImageBuffer`` built by ``io.read_image`` or the
caller.  ``score_regions`` resizes each view once as a plain array (a view at
the image's own size is the image's pixels, only read) and writes its crops,
mean-subtracted, straight into the stack; a view mixes checked pixels, so it
is not checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RATIO_ASPECT = "aspect_preserving"
RATIO_SQUARE = "square"
RATIO_MODES = (RATIO_ASPECT, RATIO_SQUARE)

DEFAULT_MEAN_PIXEL = 0.5


@dataclass(eq=False)
class ImageBuffer:
    """Row-major float image with pixels in [0, 1], 1 or 3 channels."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim == 2:
            px = px[:, :, None]
        if px.ndim != 3:
            raise ValueError(f"expected HxWxC pixels, got shape {px.shape}")
        h, w, c = px.shape
        if h < 1 or w < 1:
            raise ValueError("image dims must be >= 1")
        if c not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {c}")
        if not np.all(np.isfinite(px)):
            raise ValueError("pixels must be finite")
        if px.min() < 0.0 or px.max() > 1.0:
            raise ValueError("pixels must lie in [0, 1]")
        self.pixels = px

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


@dataclass(frozen=True)
class CropConfig:
    base_side: int = 256
    crop_side: int = 224
    scale_factors: tuple[float, ...] = (1.0, 1.5, 2.0)
    ratio_modes: tuple[str, ...] = RATIO_MODES
    grid: int = 3

    def __post_init__(self):
        if self.crop_side > self.base_side:
            raise ValueError("crop_side must be <= base_side")
        if self.crop_side < 1:
            raise ValueError("crop_side must be >= 1")
        if not self.scale_factors or not self.ratio_modes:
            raise ValueError("need at least one scale factor and one ratio mode")
        if not all(1.0 <= s < math.inf for s in self.scale_factors):
            raise ValueError(
                f"scale_factors must be finite and >= 1, got {self.scale_factors!r}"
            )
        if self.grid < 1:
            raise ValueError("grid must be >= 1")
        for mode in self.ratio_modes:
            if mode not in RATIO_MODES:
                raise ValueError(f"unknown ratio mode {mode!r}")

    @property
    def region_count(self) -> int:
        return len(self.ratio_modes) * len(self.scale_factors) * self.grid**2


def _source_coords(src: int, target: int) -> np.ndarray:
    # half-pixel-center convention, clamped at the borders
    coords = (np.arange(target) + 0.5) * (src / target) - 0.5
    return np.clip(coords, 0.0, src - 1.0)


def _resize(px: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """Bilinear resample of HxWxC pixels, input unchanged: a new array, or
    ``px`` itself when the target size is its own.

    Separable: interpolate columns on every source row, then gather rows.
    Each pass computes ``a * (1 - w) + b * w`` in place on its gathers, and
    the column pass works on ``(h, w * c)`` rows with per-element indices, so
    every ufunc runs one long contiguous loop.
    """
    h, w, c = px.shape
    if (target_h, target_w) == (h, w):
        return px
    ys = _source_coords(h, target_h)
    xs = _source_coords(w, target_w)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    rows = px.reshape(h, w * c)
    channel = np.arange(c)
    wx = np.repeat(xs - x0, c)
    cols = np.take(rows, (x0[:, None] * c + channel).ravel(), axis=1)
    cols *= 1.0 - wx
    tmp = np.take(rows, (x1[:, None] * c + channel).ravel(), axis=1)
    tmp *= wx
    cols += tmp
    wy = (ys - y0)[:, None]
    out = np.take(cols, y0, axis=0)
    out *= 1.0 - wy
    tmp = np.take(cols, y1, axis=0)
    tmp *= wy
    out += tmp
    return out.reshape(target_h, target_w, c)


def resized_dims(
    height: int, width: int, ratio_mode: str, scale: float, base_side: int
) -> tuple[int, int]:
    """Target dims for one (ratio mode, scale): square, or smaller side pinned."""
    t = int(round(base_side * scale))
    if ratio_mode == RATIO_SQUARE:
        return t, t
    if ratio_mode == RATIO_ASPECT:
        if height <= width:
            return t, (width * t) // height
        return (height * t) // width, t
    raise ValueError(f"unknown ratio mode {ratio_mode!r}")


def grid_offsets(length: int, crop: int, grid: int) -> list[int]:
    """Evenly spread crop offsets along one axis, floor-rounded."""
    if grid == 1:
        return [0]
    return [(i * (length - crop)) // (grid - 1) for i in range(grid)]


def generate_regions(
    height: int, width: int, config: CropConfig
) -> tuple[list[tuple[str, float, int, int]], np.ndarray]:
    """An image's resized views and its crops: ratio modes x scales x grid cells.

    Returns ``views``, one ``(ratio_mode, scale, resized_h, resized_w)`` per
    view, ratio mode major, and the (R, 2) int64 array of crop ``(top,
    left)`` offsets.  Crop ``r`` lies in view ``r // grid**2``, at grid cell
    ``divmod(r % grid**2, grid)``, and is ``crop_side`` square.
    """
    if height < 1 or width < 1:
        raise ValueError("image dims must be >= 1")
    views, offsets = [], []
    for mode in config.ratio_modes:
        for scale in config.scale_factors:
            rh, rw = resized_dims(height, width, mode, scale, config.base_side)
            if min(rh, rw) < config.crop_side:
                raise ValueError(
                    f"image too small after resize: {rh}x{rw} for crop "
                    f"{config.crop_side}"
                )
            views.append((mode, scale, rh, rw))
            rows = grid_offsets(rh, config.crop_side, config.grid)
            cols = grid_offsets(rw, config.crop_side, config.grid)
            offsets += [(top, left) for top in rows for left in cols]
    return views, np.array(offsets, dtype=np.int64)


def _check_scorer_output(rows, n: int, num_classes: int | None) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] != n or (
        num_classes is not None and rows.shape[1] != num_classes
    ):
        raise ValueError(
            f"scorer output off simplex: wrong shape {rows.shape} for {n} crops"
        )
    if np.any(rows < 0) or not np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-6):
        raise ValueError("scorer output off simplex")
    return rows


def score_regions(
    image: ImageBuffer,
    config: CropConfig,
    scorers: dict[str, object],
    mean_pixel=DEFAULT_MEAN_PIXEL,
) -> tuple[np.ndarray, np.ndarray]:
    """Score every generated region with the object and scene stream scorers.

    Each (ratio mode, scale) view is resized once; its grid x grid crops are
    sliced into one mean-subtracted stack that each stream scores in one call.
    Returns the (R, M) object and scene score arrays, rows in
    ``generate_regions`` order.
    """
    if set(scorers) != {"object", "scene"}:
        raise ValueError("scorers must map exactly the 'object' and 'scene' streams")
    mean = np.asarray(mean_pixel, dtype=np.float64)
    if not np.all(np.isfinite(mean)):
        raise ValueError(f"mean_pixel must be finite, got {mean_pixel!r}")
    views, offsets = generate_regions(image.height, image.width, config)
    per_view = config.grid**2
    side = config.crop_side
    scores = {"object": [], "scene": []}
    m = None
    for v, (_, _, rh, rw) in enumerate(views):
        view = _resize(image.pixels, rh, rw)
        # a fresh stack per view: a scorer may keep the array it is handed
        crops = np.empty((per_view, side, side, image.channels))
        view_offsets = offsets[v * per_view : (v + 1) * per_view].tolist()
        for crop, (top, left) in zip(crops, view_offsets):
            np.subtract(view[top : top + side, left : left + side], mean, out=crop)
        for stream, rows in scores.items():
            rows.append(_check_scorer_output(scorers[stream](crops), per_view, m))
            m = rows[-1].shape[1]
    return np.concatenate(scores["object"]), np.concatenate(scores["scene"])


def classify_image(
    image: ImageBuffer,
    config: CropConfig,
    scorers: dict[str, object],
    mean_pixel=DEFAULT_MEAN_PIXEL,
) -> tuple[np.ndarray, np.ndarray]:
    """Full pipeline: crop, score, fuse; returns ``(image_scores, fused)``.

    ``fused`` holds the (R, M) fused region scores in ``generate_regions``
    order, the two streams weighted equally, and ``image_scores`` is their
    mean, which keeps scores normalized and ranks classes identically to
    the sum.
    """
    object_scores, scene_scores = score_regions(
        image, config, scorers, mean_pixel=mean_pixel
    )
    fused = 0.5 * object_scores + 0.5 * scene_scores
    return fused.mean(axis=0), fused
