"""Multi-ratio / multi-scale crop-and-fuse recognition pipeline.

An image is resized under two aspect-ratio modes (smaller-side-preserving and
square) at several scales, densely cropped on a grid, and the crops are scored
by per-stream scorer callables (object stream and scene stream).  Scores are
fused twice: a weighted average across streams per region, then a plain mean
across regions.  With the default config this produces 2 x 3 x 9 = 54 regions
per image.

Scorer contract: a scorer receives one C-contiguous float64 stack of
mean-subtracted crops, shape (n, crop, crop, channels), and returns an (n, M)
array whose rows are probability vectors over the M event classes.
``score_regions`` calls each stream once per resized view with that view's
grid x grid crops, so 12 calls score the 54 default regions.

Pixels are validated where an image enters, as an ``ImageBuffer`` built by
``io.read_image``, ``datagen`` or the caller.  ``score_regions`` resizes each
view once as a plain array (a view at the image's own size is the image's
pixels, only read) and writes its crops, mean-subtracted, straight into the
stack; a view mixes checked pixels, so it is not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RATIO_ASPECT = "aspect_preserving"
RATIO_SQUARE = "square"
RATIO_MODES = (RATIO_ASPECT, RATIO_SQUARE)

DEFAULT_MEAN_PIXEL = 0.5


@dataclass
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
        if any(s < 1.0 for s in self.scale_factors):
            raise ValueError("scale factors must be >= 1")
        if self.grid < 1:
            raise ValueError("grid must be >= 1")
        for mode in self.ratio_modes:
            if mode not in RATIO_MODES:
                raise ValueError(f"unknown ratio mode {mode!r}")

    @property
    def region_count(self) -> int:
        return len(self.ratio_modes) * len(self.scale_factors) * self.grid**2


@dataclass(frozen=True)
class RegionSpec:
    """One crop: where it lives in which resized view of the image."""

    ratio_mode: str
    scale_factor: float
    grid_row: int
    grid_col: int
    top: int
    left: int
    height: int
    width: int
    resized_height: int
    resized_width: int

    def __post_init__(self):
        if self.top < 0 or self.left < 0:
            raise ValueError("rect must start inside the image")
        if (
            self.top + self.height > self.resized_height
            or self.left + self.width > self.resized_width
        ):
            raise ValueError("rect extends past the resized image")


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


def resize_bilinear(image: ImageBuffer, target_h: int, target_w: int) -> ImageBuffer:
    """Bilinear resample to the target size (half-pixel-center convention)."""
    if target_h < 1 or target_w < 1:
        raise ValueError("target dims must be >= 1")
    pixels = _resize(image.pixels, target_h, target_w)
    return ImageBuffer(pixels.copy() if pixels is image.pixels else pixels)


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
) -> list[RegionSpec]:
    """All crop rects for an image: ratio modes x scales x grid cells."""
    if height < 1 or width < 1:
        raise ValueError("image dims must be >= 1")
    specs = []
    for mode in config.ratio_modes:
        for scale in config.scale_factors:
            rh, rw = resized_dims(height, width, mode, scale, config.base_side)
            if min(rh, rw) < config.crop_side:
                raise ValueError(
                    f"image too small after resize: {rh}x{rw} for crop "
                    f"{config.crop_side}"
                )
            rows = grid_offsets(rh, config.crop_side, config.grid)
            cols = grid_offsets(rw, config.crop_side, config.grid)
            for gi, top in enumerate(rows):
                for gj, left in enumerate(cols):
                    specs.append(
                        RegionSpec(
                            ratio_mode=mode,
                            scale_factor=scale,
                            grid_row=gi,
                            grid_col=gj,
                            top=top,
                            left=left,
                            height=config.crop_side,
                            width=config.crop_side,
                            resized_height=rh,
                            resized_width=rw,
                        )
                    )
    return specs


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
    specs = generate_regions(image.height, image.width, config)
    per_view = config.grid**2
    side = config.crop_side
    scores = {"object": [], "scene": []}
    m = None
    # generate_regions lists each view's crops as one consecutive block
    for first in range(0, len(specs), per_view):
        view_specs = specs[first : first + per_view]
        view = _resize(
            image.pixels, view_specs[0].resized_height, view_specs[0].resized_width
        )
        # a fresh stack per view: a scorer may keep the array it is handed
        crops = np.empty((per_view, side, side, image.channels))
        for crop, s in zip(crops, view_specs):
            np.subtract(
                view[s.top : s.top + s.height, s.left : s.left + s.width], mean, out=crop
            )
        for stream, rows in scores.items():
            rows.append(_check_scorer_output(scorers[stream](crops), per_view, m))
            m = rows[-1].shape[1]
    return np.concatenate(scores["object"]), np.concatenate(scores["scene"])


def fuse_regions(
    object_scores, scene_scores, alpha_o: float = 0.5, alpha_s: float = 0.5
) -> np.ndarray:
    """Per-region fused scores: weighted sum of the (R, M) stream score arrays."""
    if alpha_o < 0 or alpha_s < 0:
        raise ValueError("fusion weights must be >= 0")
    object_scores = np.asarray(object_scores, dtype=np.float64)
    scene_scores = np.asarray(scene_scores, dtype=np.float64)
    if object_scores.shape != scene_scores.shape:
        raise ValueError("stream score shapes differ")
    if object_scores.ndim != 2 or object_scores.shape[0] < 1:
        raise ValueError(
            f"no regions to fuse in (R, M) scores of shape {object_scores.shape}"
        )
    return alpha_o * object_scores + alpha_s * scene_scores


def classify_image(
    image: ImageBuffer,
    config: CropConfig,
    scorers: dict[str, object],
    alpha_o: float = 0.5,
    alpha_s: float = 0.5,
    mean_pixel=DEFAULT_MEAN_PIXEL,
) -> tuple[np.ndarray, np.ndarray]:
    """Full pipeline: crop, score, fuse; returns ``(image_scores, fused)``.

    ``fused`` holds the (R, M) fused region scores in ``generate_regions``
    order and ``image_scores`` is their mean, which keeps scores normalized
    and ranks classes identically to the sum.
    """
    object_scores, scene_scores = score_regions(
        image, config, scorers, mean_pixel=mean_pixel
    )
    fused = fuse_regions(object_scores, scene_scores, alpha_o, alpha_s)
    return fused.mean(axis=0), fused
