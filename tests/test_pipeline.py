"""Crop geometry, bilinear resampling, scoring, and fusion."""

import json

import numpy as np
import pytest
from conftest import fixture_path

from os2e.network import NetworkConfig, forward, init_params
from os2e.pipeline import (
    CROP_STACK_BYTES,
    CropConfig,
    ImageBuffer,
    RATIO_ASPECT,
    RATIO_SQUARE,
    _resize,
    classify_image,
    classify_images,
    generate_regions,
    grid_offsets,
    resized_dims,
    score_regions,
)

DESK = CropConfig(base_side=32, crop_side=16)
# the three image shapes of the benchmark's paper-scale multicrop pool
PAPER_SHAPES = [(256, 341), (341, 256), (256, 256)]


def image_of(values):
    return ImageBuffer(np.asarray(values, dtype=np.float64))


def stack_of(values):
    """A stack of one checked image, the form ``score_regions`` takes."""
    return image_of(values).pixels[None]


def constant_scorer(vector):
    vector = np.asarray(vector, dtype=np.float64)
    return lambda crops: np.tile(vector, (len(crops), 1))


def recording_scorer(calls, num_classes=2):
    """Uniform scorer that keeps a copy of every stack it is handed."""

    def scorer(crops):
        calls.append(crops.copy())
        return np.full((len(crops), num_classes), 1.0 / num_classes)

    return scorer


def four_gather(px, target_h, target_w):
    """Bilinear oracle: each output pixel from its four source pixels."""
    h, w, _ = px.shape
    ys = np.clip((np.arange(target_h) + 0.5) * (h / target_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(target_w) + 0.5) * (w / target_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = px[y0][:, x0] * (1.0 - wx) + px[y0][:, x1] * wx
    bottom = px[y1][:, x0] * (1.0 - wx) + px[y1][:, x1] * wx
    return top * (1.0 - wy) + bottom * wy


def brightness_scorer(crops):
    """Two-class scores from each crop's mean (mean-subtracted) pixel."""
    p = np.clip(crops.reshape(len(crops), -1).mean(axis=1) + 0.5, 0.0, 1.0)
    return np.stack([p, 1.0 - p], axis=1)


class TestImageBuffer:
    def test_grayscale_gets_channel_axis(self):
        img = image_of(np.zeros((4, 5)))
        assert (img.height, img.width, img.channels) == (4, 5, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            image_of(np.full((2, 2), 1.5))

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ValueError, match="channels"):
            ImageBuffer(np.zeros((2, 2, 4)))


class TestResizeBilinear:
    def test_identity_when_same_dims(self):
        px = np.random.default_rng(0).random((5, 7, 1))
        np.testing.assert_array_equal(_resize(px, 5, 7), px)

    def test_constant_image_stays_constant(self):
        out = _resize(np.full((3, 4, 1), 0.37), 9, 5)
        np.testing.assert_allclose(out, 0.37, atol=1e-15)

    def test_hand_evaluated_upsample(self):
        # 2x2 [[0,1],[0,1]] widened to 2x4 under half-pixel centers
        px = np.array([[0.0, 1.0], [0.0, 1.0]])[:, :, None]
        out = _resize(px, 2, 4)
        np.testing.assert_allclose(out[0, :, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-15)
        np.testing.assert_allclose(out[1, :, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-15)

    def test_preserves_channels(self):
        px = np.random.default_rng(1).random((6, 6, 3))
        assert _resize(px, 4, 8).shape == (4, 8, 3)

    def test_range_preserved(self):
        px = np.random.default_rng(2).random((10, 13, 1))
        out = _resize(px, 27, 5)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_bitwise_equal_to_four_gather_formula(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            h, w, th, tw = (int(x) for x in rng.integers(1, 40, size=4))
            px = rng.random((h, w, int(rng.choice([1, 3]))))
            if (th, tw) == (h, w):
                continue
            assert _resize(px, th, tw).tobytes() == four_gather(px, th, tw).tobytes()

    @pytest.mark.parametrize("shape", PAPER_SHAPES)
    def test_bitwise_equal_to_four_gather_formula_on_paper_views(self, shape):
        config = CropConfig()
        img = ImageBuffer(np.random.default_rng(18).random((*shape, 3)))
        views = [
            resized_dims(*shape, mode, scale, config.base_side)
            for mode in config.ratio_modes
            for scale in config.scale_factors
        ]
        assert len(views) == 6
        for th, tw in views:
            out = _resize(img.pixels, th, tw)
            assert out.tobytes() == four_gather(img.pixels, th, tw).tobytes()

    @pytest.mark.parametrize("target", [(9, 5), (5, 7)])
    def test_array_resize_leaves_input_unchanged(self, target):
        px = np.random.default_rng(19).random((5, 7, 3))
        before = px.copy()
        out = _resize(px, *target)
        np.testing.assert_array_equal(px, before)
        assert out.shape == (*target, 3)
        # a view at the image's own size is the image; any other is new memory
        assert (out is px) == (target == px.shape[:2])
        assert np.shares_memory(out, px) == (out is px)


class TestGeometry:
    def test_default_config_54_regions(self):
        assert CropConfig().region_count == 54
        views, offsets = generate_regions(300, 400, CropConfig())
        assert len(views) == 6
        assert offsets.shape == (54, 2) and offsets.dtype == np.int64

    @pytest.mark.parametrize("shape", [(40, 56), (56, 40), (33, 33)])
    def test_views_and_offsets_layout(self, shape):
        # views ratio-mode major; crop r in view r // grid**2, at grid cell
        # divmod(r % grid**2, grid) of that view's offsets
        config = CropConfig(base_side=32, crop_side=16, scale_factors=(1, 1.25), grid=4)
        views, offsets = generate_regions(*shape, config)
        assert [(mode, scale) for mode, scale, _, _ in views] == [
            (mode, scale) for mode in config.ratio_modes for scale in config.scale_factors
        ]
        per_view = config.grid**2
        assert len(offsets) == len(views) * per_view == config.region_count
        for r, (top, left) in enumerate(offsets.tolist()):
            mode, scale, rh, rw = views[r // per_view]
            assert (rh, rw) == resized_dims(*shape, mode, scale, config.base_side)
            row, col = divmod(r % per_view, config.grid)
            assert top == grid_offsets(rh, config.crop_side, config.grid)[row]
            assert left == grid_offsets(rw, config.crop_side, config.grid)[col]

    def test_square_offsets_hand_case(self):
        assert grid_offsets(256, 224, 3) == [0, 16, 32]

    def test_aspect_offsets_hand_case(self):
        assert grid_offsets(320, 224, 3) == [0, 48, 96]

    def test_single_cell_grid(self):
        assert grid_offsets(256, 224, 1) == [0]

    def test_aspect_mode_pins_smaller_side(self):
        assert resized_dims(100, 200, RATIO_ASPECT, 1.0, 32) == (32, 64)
        assert resized_dims(200, 100, RATIO_ASPECT, 1.0, 32) == (64, 32)
        assert resized_dims(64, 64, RATIO_SQUARE, 1.5, 32) == (48, 48)

    def test_rects_inside_resized_image(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            h = int(rng.integers(16, 400))
            w = int(rng.integers(16, 400))
            views, offsets = generate_regions(h, w, DESK)
            sizes = np.repeat([(rh, rw) for _, _, rh, rw in views], DESK.grid**2, axis=0)
            assert np.all((0 <= offsets) & (offsets <= sizes - DESK.crop_side))

    def test_region_count_formula(self):
        config = CropConfig(
            base_side=32,
            crop_side=16,
            scale_factors=(1.0, 2.0),
            ratio_modes=(RATIO_SQUARE,),
            grid=2,
        )
        views, offsets = generate_regions(50, 70, config)
        assert (len(views), len(offsets)) == (1 * 2, 1 * 2 * 4)

    def test_crop_larger_than_base_rejected(self):
        with pytest.raises(ValueError, match="crop_side"):
            CropConfig(base_side=16, crop_side=32)

    @pytest.mark.parametrize("field", ["scale_factors", "ratio_modes"])
    def test_no_views_rejected(self, field):
        with pytest.raises(ValueError, match="at least one"):
            CropConfig(**{field: ()})

    @pytest.mark.parametrize("scale", [0.5, float("inf"), float("nan")])
    def test_small_or_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale_factors must be finite and >= 1"):
            CropConfig(scale_factors=(1.0, scale))


class TestCropStacks:
    def test_one_call_per_view_with_grid_squared_stack(self):
        img = image_of(np.random.default_rng(5).random((40, 56)))
        calls = {"object": [], "scene": []}
        score_regions(
            img.pixels[None],
            DESK,
            {stream: recording_scorer(seen) for stream, seen in calls.items()},
        )
        for seen in calls.values():
            assert len(seen) == 2 * 3
            assert all(crops.shape == (9, 16, 16, 1) for crops in seen)

    @pytest.mark.parametrize(
        "shape, config",
        [((40, 56), DESK), ((*PAPER_SHAPES[0], 3), CropConfig())],
        ids=["desk", "paper"],
    )
    def test_every_stack_is_contiguous_float64(self, shape, config):
        # so a scorer's reshape(n, -1) is a view, not a copy
        img = ImageBuffer(np.random.default_rng(21).random(shape))
        expected = (config.grid**2, config.crop_side, config.crop_side, img.channels)
        seen = []

        def checking_scorer(crops):
            flat = crops.reshape(len(crops), -1)
            seen.append(
                (crops.shape, crops.dtype, crops.flags.c_contiguous,
                 np.shares_memory(flat, crops))
            )
            return np.full((len(crops), 2), 0.5)

        score_regions(
            img.pixels[None], config, {"object": checking_scorer, "scene": checking_scorer}
        )
        assert len(seen) == 2 * len(config.ratio_modes) * len(config.scale_factors)
        assert set(seen) == {(expected, np.dtype(np.float64), True, True)}

    def test_slices_of_resized_view_minus_mean(self):
        rng = np.random.default_rng(16)
        img = ImageBuffer(rng.random((40, 56, 3)))
        mean = np.array([0.4, 0.5, 0.6])
        calls = []
        score_regions(
            img.pixels[None],
            DESK,
            {"object": recording_scorer(calls), "scene": constant_scorer([1.0, 0.0])},
            mean_pixel=mean,
        )
        crops = np.concatenate(calls)
        views, offsets = generate_regions(40, 56, DESK)
        side = DESK.crop_side
        assert len(crops) == len(offsets)
        for r, (crop, (top, left)) in enumerate(zip(crops, offsets)):
            _, _, rh, rw = views[r // DESK.grid**2]
            rect = _resize(img.pixels, rh, rw)[top : top + side, left : left + side]
            np.testing.assert_array_equal(crop, rect - mean)

    def test_whole_image_identity(self):
        img = image_of(np.random.default_rng(5).random((16, 16)))
        config = CropConfig(
            base_side=16, crop_side=16, scale_factors=(1.0,),
            ratio_modes=(RATIO_SQUARE,), grid=1,
        )
        calls = []
        score_regions(
            img.pixels[None], config,
            {"object": recording_scorer(calls), "scene": recording_scorer([])},
            mean_pixel=0.0,
        )
        np.testing.assert_array_equal(calls[0][0], img.pixels)

    def test_top_left_block(self):
        # a 1x1 grid puts the one 2x2 crop at the top-left corner
        img = image_of(np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]))
        config = CropConfig(
            base_side=3, crop_side=2, scale_factors=(1.0,),
            ratio_modes=(RATIO_SQUARE,), grid=1,
        )
        calls = []
        score_regions(
            img.pixels[None], config,
            {"object": recording_scorer(calls), "scene": recording_scorer([])},
            mean_pixel=0.0,
        )
        np.testing.assert_allclose(calls[0][0, :, :, 0], [[0.1, 0.2], [0.4, 0.5]])

    def test_checkerboard_exact_copy(self):
        # a 2x2 grid over an 8x8 view puts the crops at offsets 0 and 4
        board = (np.indices((8, 8)).sum(axis=0) % 2).astype(float)
        config = CropConfig(
            base_side=8, crop_side=4, scale_factors=(1.0,),
            ratio_modes=(RATIO_SQUARE,), grid=2,
        )
        calls = []
        score_regions(
            stack_of(board), config,
            {"object": recording_scorer(calls), "scene": recording_scorer([])},
            mean_pixel=0.0,
        )
        blocks = [board[t : t + 4, l : l + 4] for t in (0, 4) for l in (0, 4)]
        np.testing.assert_array_equal(calls[0][:, :, :, 0], blocks)


class TestScoreRegions:
    def test_constant_scorer_everywhere(self):
        rng = np.random.default_rng(6)
        img = image_of(rng.random((40, 56)))
        v = np.array([0.25, 0.75])
        object_scores, scene_scores = score_regions(
            img.pixels[None], DESK, {"object": constant_scorer(v), "scene": constant_scorer(v)}
        )
        assert object_scores.shape == scene_scores.shape == (54, 2)
        np.testing.assert_array_equal(object_scores, np.tile(v, (54, 1)))

    def test_order_matches_generate_regions(self):
        img = image_of(np.random.default_rng(7).random((40, 48)))
        object_scores, _ = score_regions(
            img.pixels[None], DESK, {"object": brightness_scorer, "scene": brightness_scorer}
        )
        views, offsets = generate_regions(40, 48, DESK)
        side = DESK.crop_side
        for r, (row, (top, left)) in enumerate(zip(object_scores, offsets)):
            _, _, rh, rw = views[r // DESK.grid**2]
            rect = _resize(img.pixels, rh, rw)[top : top + side, left : left + side]
            np.testing.assert_allclose(row, brightness_scorer(rect[None] - 0.5)[0])

    def test_off_simplex_scorer_rejected(self):
        img = image_of(np.zeros((32, 32)))
        bad = constant_scorer([0.7, 0.7])
        with pytest.raises(ValueError, match="off simplex"):
            score_regions(img.pixels[None], DESK, {"object": bad, "scene": bad})

    def test_one_row_off_simplex_rejected(self):
        def one_bad_row(crops):
            rows = np.full((len(crops), 2), 0.5)
            rows[-1] = [0.5, 0.5 + 2e-6]
            return rows

        with pytest.raises(ValueError, match="off simplex"):
            score_regions(
                stack_of(np.zeros((32, 32))), DESK,
                {"object": constant_scorer([1.0, 0.0]), "scene": one_bad_row},
            )

    def test_negative_entry_rejected(self):
        bad = constant_scorer([1.5, -0.5])
        with pytest.raises(ValueError, match="off simplex"):
            score_regions(stack_of(np.zeros((32, 32))), DESK, {"object": bad, "scene": bad})

    def test_wrong_row_count_rejected(self):
        def one_row(crops):
            return np.array([[1.0, 0.0]])

        with pytest.raises(ValueError, match="wrong shape"):
            score_regions(
                stack_of(np.zeros((32, 32))), DESK, {"object": one_row, "scene": one_row}
            )

    def test_streams_disagree_on_classes_rejected(self):
        with pytest.raises(ValueError, match="wrong shape"):
            score_regions(
                stack_of(np.zeros((32, 32))), DESK,
                {"object": constant_scorer([1.0, 0.0]),
                 "scene": constant_scorer([1.0, 0.0, 0.0])},
            )

    def test_views_disagree_on_classes_rejected(self):
        calls = []

        def growing(crops):
            calls.append(None)
            return np.tile(np.eye(len(calls) + 1)[0], (len(crops), 1))

        with pytest.raises(ValueError, match="wrong shape"):
            score_regions(
                stack_of(np.zeros((32, 32))), DESK, {"object": growing, "scene": growing}
            )

    @pytest.mark.parametrize("mean", [float("nan"), float("inf"), [0.5, np.nan, 0.5]])
    def test_non_finite_mean_pixel_rejected(self, mean):
        ok = constant_scorer([1.0, 0.0])
        with pytest.raises(ValueError, match="mean_pixel must be finite"):
            score_regions(
                stack_of(np.zeros((32, 32, 3))), DESK, {"object": ok, "scene": ok},
                mean_pixel=mean,
            )

    def test_mean_subtraction_applied(self):
        img = image_of(np.full((32, 32), 0.5))
        seen = []
        score_regions(
            img.pixels[None], DESK,
            {"object": recording_scorer(seen), "scene": constant_scorer([1.0, 0.0])},
        )
        for crops in seen:
            np.testing.assert_allclose(crops, 0.0, atol=1e-12)


def dirichlet_scorer(seed, num_classes=3):
    """Random probability rows, one per crop, from a seeded stream."""
    rng = np.random.default_rng(seed)
    return lambda crops: rng.dirichlet(np.ones(num_classes), size=len(crops))


class TestFusion:
    """``classify_image`` weights the two streams equally per region."""

    def test_equal_streams_identity(self):
        img = image_of(np.random.default_rng(5).random((32, 32)))
        v = [0.3, 0.7]
        _, fused = classify_image(
            img, DESK, {"object": constant_scorer(v), "scene": constant_scorer(v)}
        )
        np.testing.assert_allclose(fused, np.tile(v, (54, 1)), atol=1e-15)

    def test_symmetric_mix(self):
        img = image_of(np.random.default_rng(6).random((32, 32)))
        scorers = {"object": constant_scorer([1.0, 0.0]), "scene": constant_scorer([0.0, 1.0])}
        scores, fused = classify_image(img, DESK, scorers)
        np.testing.assert_array_equal(fused, np.full((54, 2), 0.5))
        np.testing.assert_array_equal(scores, [0.5, 0.5])

    def test_fuse_regions_identity(self):
        # one scorer on both streams leaves every region's scores as they are
        img = image_of(np.random.default_rng(7).random((40, 56)))
        scorers = {"object": brightness_scorer, "scene": brightness_scorer}
        object_scores, _ = score_regions(img.pixels[None], DESK, scorers)
        _, fused = classify_image(img, DESK, scorers)
        assert fused.tobytes() == object_scores.tobytes()

    def test_fuse_regions_symmetric(self):
        img = image_of(np.random.default_rng(8).random((40, 56)))
        _, a = classify_image(
            img, DESK, {"object": brightness_scorer, "scene": dirichlet_scorer(1, 2)}
        )
        _, b = classify_image(
            img, DESK, {"object": dirichlet_scorer(1, 2), "scene": brightness_scorer}
        )
        assert a.tobytes() == b.tobytes()

    def test_fuse_regions_order_invariant(self):
        img = image_of(np.random.default_rng(9).random((32, 48)))
        scores, fused = classify_image(
            img, DESK, {"object": dirichlet_scorer(2), "scene": dirichlet_scorer(3)}
        )
        np.testing.assert_allclose(scores, fused[::-1].mean(axis=0), atol=1e-15)

    def test_mean_vs_sum_same_argmax(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            scores = rng.dirichlet(np.ones(5), size=12)
            assert scores.mean(axis=0).argmax() == scores.sum(axis=0).argmax()

    def test_simplex_preserved_when_weights_sum_to_one(self):
        img = image_of(np.random.default_rng(10).random((32, 32, 3)))
        scores, fused = classify_image(
            img, DESK, {"object": dirichlet_scorer(4, 4), "scene": dirichlet_scorer(5, 4)}
        )
        assert np.all(np.abs(fused.sum(axis=1) - 1.0) <= 1e-9)
        assert abs(scores.sum() - 1.0) <= 1e-9

    def test_empty_rejected(self):
        # no config yields zero regions to fuse
        for bad in (dict(scale_factors=()), dict(ratio_modes=()), dict(grid=0)):
            with pytest.raises(ValueError, match="at least one|grid must be >= 1"):
                CropConfig(base_side=32, crop_side=16, **bad)

    def test_classify_image_fills_fused(self):
        img = image_of(np.random.default_rng(11).random((32, 48)))
        v = np.array([0.5, 0.5])
        scores, fused = classify_image(
            img, DESK, {"object": constant_scorer(v), "scene": constant_scorer(v)}
        )
        np.testing.assert_allclose(scores, v, atol=1e-15)
        assert fused.shape == (54, 2)

    @pytest.mark.parametrize("shape", [(32, 48), (32, 32, 3)])
    def test_classify_image_leaves_pixels_unchanged(self, shape):
        # views at the image's own size are the image's pixels; a scorer
        # that writes into its crops must still not reach them
        img = image_of(np.random.default_rng(21).random(shape))
        before = img.pixels.copy()

        def scribbling_scorer(crops):
            rows = brightness_scorer(crops)
            crops[...] = 1.0
            return rows

        classify_image(img, DESK, {"object": scribbling_scorer, "scene": brightness_scorer})
        assert img.pixels.tobytes() == before.tobytes()

    def test_classify_image_is_mean_of_fused_regions(self):
        img = image_of(np.random.default_rng(17).random((40, 56)))
        scorers = {"object": brightness_scorer, "scene": constant_scorer([0.1, 0.9])}
        scores, fused = classify_image(img, DESK, scorers)
        object_scores, scene_scores = score_regions(img.pixels[None], DESK, scorers)
        assert fused.tobytes() == (0.5 * object_scores + 0.5 * scene_scores).tobytes()
        assert scores.tobytes() == fused.mean(axis=0).tobytes()


def checkpoint_scorer(channels, crop_side, seed):
    """A linear 4-class network's eval forward on flattened crops."""
    cfg = NetworkConfig(
        input_dim=crop_side * crop_side * channels, trunk=(), heads=(4,), dropout_rate=0.0
    )
    params = init_params(cfg, seed)
    return lambda crops: forward(
        cfg, params, crops.reshape(len(crops), -1), mode="eval"
    ).head_prob[0]


class TestBatchedImages:
    """``classify_images`` scores a stack in chunks, one call per view and chunk."""

    def test_n1_classify_image_matches_golden_file(self):
        # written by the one-image-at-a-time pipeline before batching: the
        # image alone still goes through the same crops and the same batch-9
        # forwards, so every fused byte is unchanged
        with open(fixture_path("classify_image_n1.json"), encoding="utf-8") as fh:
            golden = json.load(fh)
        assert len(golden["cases"]) == 3
        for i, case in enumerate(golden["cases"]):
            config = CropConfig(**case["crop_config"])
            shape = (case["height"], case["width"], case["channels"])
            pixels = np.random.default_rng([23, i]).random(shape)
            scorers = {
                stream: checkpoint_scorer(case["channels"], config.crop_side, seed)
                for stream, seed in (("object", 1), ("scene", 2))
            }
            scores, fused = classify_image(ImageBuffer(pixels), config, scorers)
            assert scores.tobytes() == np.array(case["image_scores"]).tobytes()
            assert fused.tobytes() == np.array(case["fused"]).tobytes()

    def test_desk_scale_calls_stay_within_byte_budget(self):
        # 16x16x1 crops: 9 * 2048 bytes per image and view, so 14 images
        # a chunk; 40 images take 3 chunks of 6 views
        pixels = np.random.default_rng(30).random((40, 64, 64, 1))
        seen = []

        def sizing_scorer(crops):
            seen.append((len(crops), crops.nbytes))
            return np.full((len(crops), 2), 0.5)

        classify_images(pixels, DESK, {"object": sizing_scorer, "scene": sizing_scorer})
        assert all(nbytes <= CROP_STACK_BYTES for _, nbytes in seen)
        assert [n for n, _ in seen] == [9 * k for k in (14, 14, 12) for _ in range(6 * 2)]

    def test_paper_scale_calls_hold_one_image(self):
        # one image's 9 crops of 224x224x3 exceed the budget: a chunk of one
        pixels = np.random.default_rng(31).random((2, 256, 256, 3))
        seen = []

        def shape_scorer(crops):
            seen.append(crops.shape)
            return np.full((len(crops), 2), 0.5)

        classify_images(pixels, CropConfig(), {"object": shape_scorer, "scene": shape_scorer})
        assert seen == [(9, 224, 224, 3)] * (2 * 6 * 2)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_crops_byte_equal_to_each_image_scored_alone(self, channels):
        rng = np.random.default_rng(32)
        n = 20 if channels == 1 else 7  # two chunks either way
        pixels = rng.random((n, 40, 56, channels))
        mean = np.array([0.4, 0.5, 0.6][:channels])
        chunk = CROP_STACK_BYTES // (9 * 16 * 16 * channels * 8)
        assert chunk < n <= 2 * chunk
        batched = []
        score_regions(
            pixels, DESK,
            {"object": recording_scorer(batched), "scene": recording_scorer([])},
            mean_pixel=mean,
        )
        assert len(batched) == 2 * 6
        for i in range(n):
            alone = []
            score_regions(
                pixels[i : i + 1], DESK,
                {"object": recording_scorer(alone), "scene": recording_scorer([])},
                mean_pixel=mean,
            )
            c, j = divmod(i, chunk)
            for v in range(6):
                crops = batched[6 * c + v].reshape(-1, 9, 16, 16, channels)[j]
                assert crops.tobytes() == alone[v].tobytes()

    def test_row_wise_scorer_gives_each_image_its_own_scores_bitwise(self):
        # a scorer whose rows do not depend on their batch: batching moves
        # no byte of the fused scores
        pixels = np.random.default_rng(33).random((17, 40, 48, 1))
        scorers = {"object": brightness_scorer, "scene": constant_scorer([0.3, 0.7])}
        scores, fused = classify_images(pixels, DESK, scorers)
        assert scores.shape == (17, 2) and fused.shape == (17, 54, 2)
        for px, row, regions in zip(pixels, scores, fused):
            alone_scores, alone_fused = classify_image(ImageBuffer(px), DESK, scorers)
            assert row.tobytes() == alone_scores.tobytes()
            assert regions.tobytes() == alone_fused.tobytes()

    def test_eval_forward_scorers_within_1e12_of_each_image_alone(self):
        pixels = np.random.default_rng(34).random((30, 40, 56, 1))
        scorers = {"object": checkpoint_scorer(1, 16, 1), "scene": checkpoint_scorer(1, 16, 2)}
        scores, _ = classify_images(pixels, DESK, scorers)
        alone = [classify_image(ImageBuffer(px), DESK, scorers)[0] for px in pixels]
        assert np.max(np.abs(scores - np.array(alone))) <= 1e-12

    @pytest.mark.parametrize(
        "pixels, message",
        [
            (np.zeros((40, 56, 1)), r"NxHxWxC pixels, got float64 \(40, 56, 1\)"),
            (np.zeros((2, 40, 56, 1), dtype=np.float32), "float32"),
            (np.zeros((0, 40, 56, 1)), "at least one image"),
            (np.zeros((2, 40, 56, 2)), "channels must be 1 or 3, got 2"),
            (np.full((2, 40, 56, 1), np.nan), "finite"),
            (np.full((2, 40, 56, 1), 1.5), r"\[0, 1\]"),
        ],
        ids=["hwc", "float32", "no_images", "two_channels", "nan", "above_one"],
    )
    def test_unchecked_stack_rejected(self, pixels, message):
        ok = constant_scorer([1.0, 0.0])
        with pytest.raises(ValueError, match=message):
            classify_images(pixels, DESK, {"object": ok, "scene": ok})
