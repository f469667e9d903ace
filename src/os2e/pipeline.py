"""Multi-ratio / multi-scale crop-and-fuse recognition pipeline.

An image is resized under two aspect-ratio modes (smaller-side-preserving and
square) at several scales, densely cropped on a grid, and the crops are scored
by per-stream scorer callables (object stream and scene stream).  Scores are
fused twice: the two streams with equal weights per region, then a plain mean
across regions.  With the default config this produces 2 x 3 x 9 = 54 regions
per image.

Images travel as one float64 (N, H, W, C) stack of same-size images.
``check_images`` validates a stack where it enters (``io.read_image``, or
``score_regions`` for a caller's array); an ``ImageBuffer`` holds one checked
HxWxC image, which ``classify_image`` scores as a stack of one.

Scorer contract: a scorer receives one C-contiguous float64 stack of
mean-subtracted crops, shape (n, crop, crop, channels), and returns an (n, M)
array whose rows are probability vectors over the M event classes.
``score_regions`` scores the images in chunks: as many images as keep one
view's crops within ``CROP_STACK_BYTES``, and always at least one.  For each
chunk it resizes each view once for the whole chunk (a view at the images'
own size is their pixels, only read), writes the chunk's grid x grid crops of
that view, mean-subtracted, into one stack, image-major, and calls each
stream once on it.  At paper scale a chunk is one image, so 12 calls score
its 54 default regions; at desk scale (base 32, crop 16, one channel) a chunk
is 14 images.  A view mixes checked pixels, so it is not checked again.

Scorers see batches of different sizes as the chunking changes, so a fused
score is reproducible bitwise for a given stack and config, and within the
eval-forward tolerance of ``network.forward`` (1e-12) of the same image
scored alone.

The region layout is plain data: ``generate_regions`` returns the list of
views and one (R, 2) int array of crop offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RATIO_ASPECT = "aspect_preserving"
RATIO_SQUARE = "square"
RATIO_MODES = (RATIO_ASPECT, RATIO_SQUARE)

DEFAULT_MEAN_PIXEL = 0.5

# the most bytes of crops one scorer call receives: the crops of one view for
# a chunk of images; one image's crops may take more, and are then the chunk
CROP_STACK_BYTES = 256 * 1024


def check_images(pixels) -> np.ndarray:
    """``pixels`` itself, once checked to be a float64 (N, H, W, C) stack of
    N >= 1 images of at least 1x1 pixels, with 1 or 3 channels and every
    value finite and in [0, 1]; otherwise a ``ValueError`` saying which.

    One min and one max pass: either is NaN or infinite exactly when some
    pixel is.
    """
    px = np.asarray(pixels)
    if px.dtype != np.float64 or px.ndim != 4:
        raise ValueError(f"expected float64 NxHxWxC pixels, got {px.dtype} {px.shape}")
    if 0 in px.shape[:3]:
        raise ValueError(
            f"need at least one image of at least 1x1 pixels, got NxHxWxC {px.shape}"
        )
    if px.shape[3] not in (1, 3):
        raise ValueError(f"channels must be 1 or 3, got {px.shape[3]}")
    lo, hi = px.min(), px.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("pixels must be finite")
    if lo < 0.0 or hi > 1.0:
        raise ValueError("pixels must lie in [0, 1]")
    return px


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
        self.pixels = check_images(px[None])[0]

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
        object.__setattr__(self, "scale_factors", tuple(self.scale_factors))
        object.__setattr__(self, "ratio_modes", tuple(self.ratio_modes))
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
    """Bilinear resample of the HxWxC image(s) in ``px``, shape (..., H, W,
    C), input unchanged: a new array, or ``px`` itself when the target size
    is its own.

    Separable, one gather per axis for all images at once: interpolate
    columns on every source row of every image, then gather rows.  Each pass
    computes ``a * (1 - w) + b * w`` in place on its gathers, and the column
    pass works on ``(rows, w * c)`` with per-element indices, so every ufunc
    runs one long contiguous loop.  Each output pixel is the same arithmetic
    on the same four source pixels whatever the number of images.
    """
    *lead, h, w, c = px.shape
    if (target_h, target_w) == (h, w):
        return px
    ys = _source_coords(h, target_h)
    xs = _source_coords(w, target_w)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    rows = px.reshape(-1, w * c)
    channel = np.arange(c)
    wx = np.repeat(xs - x0, c)
    cols = np.take(rows, (x0[:, None] * c + channel).ravel(), axis=1)
    cols *= 1.0 - wx
    tmp = np.take(rows, (x1[:, None] * c + channel).ravel(), axis=1)
    tmp *= wx
    cols += tmp
    cols = cols.reshape(-1, h, target_w * c)
    wy = (ys - y0)[:, None]
    out = np.take(cols, y0, axis=1)
    out *= 1.0 - wy
    tmp = np.take(cols, y1, axis=1)
    tmp *= wy
    out += tmp
    return out.reshape(*lead, target_h, target_w, c)


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
    images: np.ndarray,
    config: CropConfig,
    scorers: dict[str, object],
    mean_pixel=DEFAULT_MEAN_PIXEL,
) -> tuple[np.ndarray, np.ndarray]:
    """Score every generated region of each image with the object and scene
    stream scorers, one call per stream, view and chunk of images (see the
    module docstring).

    ``images`` is a float64 (N, H, W, C) stack of same-size images, checked
    here by ``check_images``.
    Returns the (N * R, M) object and scene score arrays, image-major, each
    image's R rows in ``generate_regions`` order.
    """
    if set(scorers) != {"object", "scene"}:
        raise ValueError("scorers must map exactly the 'object' and 'scene' streams")
    mean = np.asarray(mean_pixel, dtype=np.float64)
    if not np.all(np.isfinite(mean)):
        raise ValueError(f"mean_pixel must be finite, got {mean_pixel!r}")
    pixels = check_images(images)
    n, height, width, channels = pixels.shape
    views, offsets = generate_regions(height, width, config)
    per_view = config.grid**2
    side = config.crop_side
    image_crop_bytes = per_view * side * side * channels * pixels.itemsize
    chunk = max(1, CROP_STACK_BYTES // image_crop_bytes)
    scores = {}  # stream -> (N, R, M), allocated once M is known
    m = None
    for start in range(0, n, chunk):
        block = pixels[start : start + chunk]
        k = len(block)
        for v, (_, _, rh, rw) in enumerate(views):
            view = _resize(block, rh, rw)
            # a fresh stack per view: a scorer may keep the array it is handed
            crops = np.empty((k, per_view, side, side, channels))
            cells = slice(v * per_view, (v + 1) * per_view)
            for cell, (top, left) in enumerate(offsets[cells].tolist()):
                np.subtract(
                    view[:, top : top + side, left : left + side], mean, out=crops[:, cell]
                )
            crops = crops.reshape(k * per_view, side, side, channels)
            for stream in ("object", "scene"):
                rows = _check_scorer_output(scorers[stream](crops), k * per_view, m)
                m = rows.shape[1]
                if stream not in scores:
                    scores[stream] = np.empty((n, len(offsets), m))
                scores[stream][start : start + k, cells] = rows.reshape(k, per_view, m)
    return scores["object"].reshape(-1, m), scores["scene"].reshape(-1, m)


def classify_images(
    images: np.ndarray,
    config: CropConfig,
    scorers: dict[str, object],
    mean_pixel=DEFAULT_MEAN_PIXEL,
) -> tuple[np.ndarray, np.ndarray]:
    """Full pipeline on a stack of same-size images: crop, score, fuse.

    ``images`` is as for ``score_regions``.  Returns ``(image_scores,
    fused)``: ``fused`` holds each image's (R, M) fused region scores in
    ``generate_regions`` order, shape (N, R, M), the two streams weighted
    equally, and ``image_scores`` (N, M) is their mean over regions, which
    keeps scores normalized and ranks classes identically to the sum.
    """
    object_scores, scene_scores = score_regions(
        images, config, scorers, mean_pixel=mean_pixel
    )
    fused = 0.5 * object_scores + 0.5 * scene_scores
    fused = fused.reshape(-1, config.region_count, fused.shape[1])
    return fused.mean(axis=1), fused


def classify_image(
    image: ImageBuffer,
    config: CropConfig,
    scorers: dict[str, object],
    mean_pixel=DEFAULT_MEAN_PIXEL,
) -> tuple[np.ndarray, np.ndarray]:
    """``classify_images`` on one image: its (M,) scores and (R, M) fused
    region scores."""
    scores, fused = classify_images(
        image.pixels[None], config, scorers, mean_pixel=mean_pixel
    )
    return scores[0], fused[0]
