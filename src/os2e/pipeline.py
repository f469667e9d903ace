"""Multi-ratio / multi-scale crop-and-fuse recognition pipeline.

An image is resized under two aspect-ratio modes (smaller-side-preserving and
square) at several scales, densely cropped on a grid, and the crops are scored
by per-stream scorer callables (object stream and scene stream).  Scores are
fused twice: the two streams with equal weights per region, as each view is
scored, then a plain mean across regions.  With the default config this
produces 2 x 3 x 9 = 54 regions per image.

Images travel as one float64 (N, H, W, C) stack of same-size images.
``check_images`` validates a stack where it enters (``io.read_image``, or
``score_regions`` for a caller's array); an ``ImageBuffer`` holds one checked
HxWxC image, which ``classify_image`` scores as a stack of one.

Scorer contract: a scorer receives one C-contiguous float64 stack of
mean-subtracted crops, shape (n, crop, crop, channels), and returns an (n, M)
array whose rows are probability vectors over the M event classes.  The stack
is read-only (a write raises ``ValueError``) and valid only during the call:
``score_regions`` fills the same memory for the next view, so a scorer that
keeps crops must copy them.

``score_regions`` scores the images in chunks: as many images as keep one
view's crops within ``CROP_STACK_BYTES``, and always at least one.  Views of
one resized size (a square image's two ratio modes give the same three) are
scored once, and the first one's fused rows fill the cells of each, so the
mean over regions still counts every cell.  For each chunk and distinct view
it streams the view in bands of output rows, as many as keep a band of the
chunk within ``CROP_STACK_BYTES`` (at least one row).  Once per call it builds
a plan for each distinct resized view (its column and row taps and weights,
which every band of every chunk slices) and one set of band buffers that all
views share.  ``_resize_band`` computes a band into those buffers, from only
the source rows it reads; the mean is subtracted once on the band (a
per-channel mean tiled along its rows), and each crop's rows in it are copied
into the call's one crop stack, image-major.  No whole resized view is ever
held; a view at the images' own size has no plan and is cut from their
pixels, only read, minus the mean.  Each stream is then called once on the
stack.  At paper scale a chunk is one image, so 12 calls score the 54 default
regions of a non-square image and 6 those of a square one; at desk scale
(base 32, crop 16, one channel) a chunk is 14 images, and each view of 64x64
images is one band.  A view mixes checked pixels, so it is not checked again.

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
from typing import NamedTuple

import numpy as np

from .stats import INGEST_TOL, check_simplex_rows

RATIO_ASPECT = "aspect_preserving"
RATIO_SQUARE = "square"
RATIO_MODES = (RATIO_ASPECT, RATIO_SQUARE)

DEFAULT_MEAN_PIXEL = 0.5

# the most bytes of crops one scorer call receives: the crops of one view for
# a chunk of images; one image's crops may take more, and are then the chunk.
# Also the most bytes of one band of a view resized for the chunk, or one row:
# the call's band buffers (output, column pass and temporaries) each hold
# about one band.
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


def _taps(src: int, target: int):
    """Bilinear taps of every output position along one axis of ``src``
    pixels resampled to ``target``: the two source indices and the weight of
    the second.  Half-pixel-center convention, clamped at the borders."""
    coords = (np.arange(target) + 0.5) * (src / target) - 0.5
    coords = np.clip(coords, 0.0, src - 1.0)
    i0 = np.floor(coords).astype(np.int64)
    return i0, np.minimum(i0 + 1, src - 1), coords - i0


class _ViewPlan(NamedTuple):
    """One resized view's bilinear taps, built once per ``score_regions``
    call; each band slices the row taps.

    - ``band``: output rows per band;
    - ``y0``, ``y1``: the two source rows of every output row, and ``wy``,
      ``wyc`` their (target_h, 1) weights ``w`` and ``1 - w``;
    - ``x0``, ``x1``: the two flat indices ``x * C + ch`` of every output
      value of a row into a source row flattened to ``W * C`` values, and
      ``wx``, ``wxc`` their weights ``w`` and ``1 - w``;
    - ``src_rows``: the most source rows that any ``band`` consecutive output
      rows read.
    """

    band: int
    y0: np.ndarray
    y1: np.ndarray
    wy: np.ndarray
    wyc: np.ndarray
    x0: np.ndarray
    x1: np.ndarray
    wx: np.ndarray
    wxc: np.ndarray
    src_rows: int


def _plan(
    h: int, w: int, c: int, target_h: int, target_w: int, band: int
) -> _ViewPlan:
    """The plan of an HxWxC image resized to ``target_h`` x ``target_w`` in
    bands of at most ``band`` rows."""
    y0, y1, wy = _taps(h, target_h)
    x0, x1, wx = _taps(w, target_w)
    ch = np.arange(c)
    wx = np.repeat(wx, c)
    band = min(band, target_h)
    src_rows = int((y1[band - 1 :] - y0[: target_h - band + 1]).max()) + 1
    return _ViewPlan(
        band, y0, y1, wy[:, None], 1.0 - wy[:, None],
        (x0[:, None] * c + ch).ravel(), (x1[:, None] * c + ch).ravel(), wx, 1.0 - wx,
        src_rows,
    )


def _band_buffers(k: int, plans) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat float64 buffers for the column pass, the output and the
    temporaries of a band of ``k`` images under any of ``plans``."""
    cols = max((p.src_rows * len(p.wx) for p in plans), default=0)
    out = max((p.band * len(p.wx) for p in plans), default=0)
    return np.empty(k * cols), np.empty(k * out), np.empty(k * max(cols, out))


def _resize_band(
    plan: _ViewPlan, src: np.ndarray, r0: int, r1: int, buffers
) -> np.ndarray:
    """Output rows ``r0:r1`` (at most ``plan.band``) of the view ``plan``
    resamples the (k, H, W * C) images ``src`` to, as a (k, r1 - r0,
    target_w * C) view of ``buffers``' output buffer.

    Separable, one gather per axis for all images at once: interpolate
    columns on only the source rows the band reads, from the upper tap of
    row ``r0`` to the lower tap of row ``r1 - 1``, then gather the band's
    rows from them.  Each pass gathers with ``np.take(..., out=...)`` and
    computes ``a * (1 - w) + b * w`` in place on the gathers, which are
    contiguous: the column pass indexes rows flattened to ``W * C`` values
    with its weights repeated per channel.
    Each output pixel is the same arithmetic on the same four source pixels
    whatever the band and the number of images, so bands put together are
    the whole view byte for byte.
    """
    cols_buf, out_buf, tmp_buf = buffers
    k, width = len(src), len(plan.wx)
    y0, y1 = plan.y0[r0:r1], plan.y1[r0:r1]
    top = int(y0[0])
    rows = src[:, top : int(y1[-1]) + 1]
    shape = (k, rows.shape[1], width)
    cols = cols_buf[: math.prod(shape)].reshape(shape)
    tmp = tmp_buf[: cols.size].reshape(shape)
    np.take(rows, plan.x0, axis=2, out=cols, mode="clip")
    cols *= plan.wxc
    np.take(rows, plan.x1, axis=2, out=tmp, mode="clip")
    tmp *= plan.wx
    cols += tmp
    shape = (k, r1 - r0, width)
    out = out_buf[: math.prod(shape)].reshape(shape)
    tmp = tmp_buf[: out.size].reshape(shape)
    np.take(cols, y0 - top, axis=1, out=out, mode="clip")
    out *= plan.wyc[r0:r1]
    np.take(cols, y1 - top, axis=1, out=tmp, mode="clip")
    tmp *= plan.wy[r0:r1]
    out += tmp
    return out


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
    return check_simplex_rows(rows, INGEST_TOL, "scorer output row")


def score_regions(
    images: np.ndarray,
    config: CropConfig,
    scorers: dict[str, object],
    mean_pixel=DEFAULT_MEAN_PIXEL,
) -> np.ndarray:
    """Score every generated region of each image with the object and scene
    stream scorers, one call per stream, distinct resized view and chunk of
    images, each handed the call's one read-only crop stack (see the module
    docstring), and fuse the two streams as each view is scored.

    ``images`` is a float64 (N, H, W, C) stack of same-size images, checked
    here by ``check_images``; ``mean_pixel``, a scalar or one value per
    channel, is subtracted from every crop.
    Returns the (N, R, M) fused region scores ``0.5 * object + 0.5 * scene``,
    each image's R rows in ``generate_regions`` order; views of one resized
    size share the rows of the first.
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
    side, span = config.crop_side, config.crop_side * channels
    image_crop_bytes = per_view * side * span * pixels.itemsize
    chunk = min(n, max(1, CROP_STACK_BYTES // image_crop_bytes))
    # the views of each resized size: the first is scored, and its fused rows
    # fill the cells of all of them (a square image's two ratio modes)
    sizes = {}
    for v, (_, _, rh, rw) in enumerate(views):
        sizes.setdefault((rh, rw), []).append(v)
    # one plan per distinct resized view and one set of band buffers, for the call
    plans = {
        (rh, rw): _plan(
            height, width, channels, rh, rw,
            max(1, CROP_STACK_BYTES // (chunk * rw * channels * pixels.itemsize)),
        )
        for rh, rw in sizes
        if (rh, rw) != (height, width)
    }
    buffers = _band_buffers(chunk, plans.values())
    # a per-channel mean tiled along a row of W * C values, so that it is
    # subtracted at a scalar's speed; each row takes its prefix
    if mean.ndim:
        mean = np.tile(np.broadcast_to(mean, channels), max(w for *_, w in views))
    # the call's one crop stack: written here, lent to the scorers read-only
    crops = np.empty((chunk * per_view, side, side, channels))
    lent = crops.view()
    lent.flags.writeable = False
    m = fused = None  # fused is (N, R, M), allocated once M is known
    for start in range(0, n, chunk):
        src = pixels[start : start + chunk].reshape(-1, height, width * channels)
        k = len(src)
        cells_of = crops[: k * per_view].reshape(k, per_view, side, span)
        stack = lent[: k * per_view]
        for (rh, rw), same in sizes.items():
            cells = slice(same[0] * per_view, (same[0] + 1) * per_view)
            corners = (offsets[cells] * (1, channels)).tolist()
            plan = plans.get((rh, rw))
            if plan is None:  # cut from the pixels: nothing to hold
                row_mean = mean[:span] if mean.ndim else mean
                for cell, (top, left) in enumerate(corners):
                    np.subtract(
                        src[:, top : top + side, left : left + span],
                        row_mean,
                        out=cells_of[:, cell],
                    )
            else:
                row_mean = mean[: rw * channels] if mean.ndim else mean
                for r0 in range(0, rh, plan.band):
                    r1 = min(r0 + plan.band, rh)
                    band = _resize_band(plan, src, r0, r1, buffers)
                    band -= row_mean
                    for cell, (top, left) in enumerate(corners):
                        lo, hi = max(top, r0), min(top + side, r1)
                        if lo < hi:
                            cells_of[:, cell, lo - top : hi - top] = band[
                                :, lo - r0 : hi - r0, left : left + span
                            ]
            obj = _check_scorer_output(scorers["object"](stack), k * per_view, m)
            if m is None:
                m = obj.shape[1]
                fused = np.empty((n, len(offsets), m))
            scene = _check_scorer_output(scorers["scene"](stack), k * per_view, m)
            rows = (0.5 * obj + 0.5 * scene).reshape(k, per_view, m)
            for v in same:
                fused[start : start + k, v * per_view : (v + 1) * per_view] = rows
    return fused


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
    fused = score_regions(images, config, scorers, mean_pixel=mean_pixel)
    return fused.mean(axis=1), fused


def classify_image(
    image: ImageBuffer,
    config: CropConfig,
    scorers: dict[str, object],
) -> tuple[np.ndarray, np.ndarray]:
    """``classify_images`` on one image, at the default mean pixel: its (M,)
    scores and (R, M) fused region scores."""
    scores, fused = classify_images(image.pixels[None], config, scorers)
    return scores[0], fused[0]
