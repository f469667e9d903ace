"""Crop geometry, bilinear resampling, scoring, and fusion."""

import numpy as np
import pytest

from os2e.pipeline import (
    CropConfig,
    ImageBuffer,
    RATIO_ASPECT,
    RATIO_SQUARE,
    _resize,
    classify_image,
    fuse_regions,
    generate_regions,
    grid_offsets,
    resize_bilinear,
    resized_dims,
    score_regions,
)

DESK = CropConfig(base_side=32, crop_side=16)
# the three image shapes of the benchmark's paper-scale multicrop pool
PAPER_SHAPES = [(256, 341), (341, 256), (256, 256)]


def image_of(values):
    return ImageBuffer(np.asarray(values, dtype=np.float64))


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
        rng = np.random.default_rng(0)
        img = image_of(rng.random((5, 7)))
        out = resize_bilinear(img, 5, 7)
        np.testing.assert_array_equal(out.pixels, img.pixels)

    def test_constant_image_stays_constant(self):
        img = image_of(np.full((3, 4), 0.37))
        out = resize_bilinear(img, 9, 5)
        np.testing.assert_allclose(out.pixels, 0.37, atol=1e-15)

    def test_hand_evaluated_upsample(self):
        # 2x2 [[0,1],[0,1]] widened to 2x4 under half-pixel centers
        img = image_of([[0.0, 1.0], [0.0, 1.0]])
        out = resize_bilinear(img, 2, 4)
        np.testing.assert_allclose(out.pixels[0, :, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-15)
        np.testing.assert_allclose(out.pixels[1, :, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-15)

    def test_preserves_channels(self):
        rng = np.random.default_rng(1)
        img = ImageBuffer(rng.random((6, 6, 3)))
        assert resize_bilinear(img, 4, 8).channels == 3

    def test_range_preserved(self):
        rng = np.random.default_rng(2)
        img = image_of(rng.random((10, 13)))
        out = resize_bilinear(img, 27, 5)
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0

    def test_bitwise_equal_to_four_gather_formula(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            h, w, th, tw = (int(x) for x in rng.integers(1, 40, size=4))
            img = ImageBuffer(rng.random((h, w, int(rng.choice([1, 3])))))
            if (th, tw) == (h, w):
                continue
            out = resize_bilinear(img, th, tw)
            assert out.pixels.tobytes() == four_gather(img.pixels, th, tw).tobytes()

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
            out = resize_bilinear(img, th, tw)
            assert out.pixels.tobytes() == four_gather(img.pixels, th, tw).tobytes()

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

    def test_same_size_result_shares_no_memory(self):
        img = ImageBuffer(np.random.default_rng(20).random((5, 7, 3)))
        out = resize_bilinear(img, 5, 7)
        assert not np.shares_memory(out.pixels, img.pixels)


class TestGeometry:
    def test_default_config_54_regions(self):
        assert CropConfig().region_count == 54
        specs = generate_regions(300, 400, CropConfig())
        assert len(specs) == 54

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
            for spec in generate_regions(h, w, DESK):
                assert 0 <= spec.top <= spec.resized_height - spec.height
                assert 0 <= spec.left <= spec.resized_width - spec.width

    def test_region_count_formula(self):
        config = CropConfig(
            base_side=32,
            crop_side=16,
            scale_factors=(1.0, 2.0),
            ratio_modes=(RATIO_SQUARE,),
            grid=2,
        )
        assert len(generate_regions(50, 70, config)) == 1 * 2 * 4

    def test_crop_larger_than_base_rejected(self):
        with pytest.raises(ValueError, match="crop_side"):
            CropConfig(base_side=16, crop_side=32)

    @pytest.mark.parametrize("field", ["scale_factors", "ratio_modes"])
    def test_no_views_rejected(self, field):
        with pytest.raises(ValueError, match="at least one"):
            CropConfig(**{field: ()})


class TestCropStacks:
    def test_one_call_per_view_with_grid_squared_stack(self):
        img = image_of(np.random.default_rng(5).random((40, 56)))
        calls = {"object": [], "scene": []}
        score_regions(
            img,
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

        score_regions(img, config, {"object": checking_scorer, "scene": checking_scorer})
        assert len(seen) == 2 * len(config.ratio_modes) * len(config.scale_factors)
        assert set(seen) == {(expected, np.dtype(np.float64), True, True)}

    def test_slices_of_resized_view_minus_mean(self):
        rng = np.random.default_rng(16)
        img = ImageBuffer(rng.random((40, 56, 3)))
        mean = np.array([0.4, 0.5, 0.6])
        calls = []
        score_regions(
            img,
            DESK,
            {"object": recording_scorer(calls), "scene": constant_scorer([1.0, 0.0])},
            mean_pixel=mean,
        )
        crops = np.concatenate(calls)
        specs = generate_regions(40, 56, DESK)
        assert len(crops) == len(specs)
        for crop, spec in zip(crops, specs):
            view = resize_bilinear(img, spec.resized_height, spec.resized_width)
            rect = view.pixels[
                spec.top : spec.top + spec.height, spec.left : spec.left + spec.width
            ]
            np.testing.assert_array_equal(crop, rect - mean)

    def test_whole_image_identity(self):
        img = image_of(np.random.default_rng(5).random((16, 16)))
        config = CropConfig(
            base_side=16, crop_side=16, scale_factors=(1.0,),
            ratio_modes=(RATIO_SQUARE,), grid=1,
        )
        calls = []
        score_regions(
            img, config, {"object": recording_scorer(calls), "scene": recording_scorer([])},
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
            img, config, {"object": recording_scorer(calls), "scene": recording_scorer([])},
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
            image_of(board), config,
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
            img, DESK, {"object": constant_scorer(v), "scene": constant_scorer(v)}
        )
        assert object_scores.shape == scene_scores.shape == (54, 2)
        np.testing.assert_array_equal(object_scores, np.tile(v, (54, 1)))

    def test_order_matches_generate_regions(self):
        img = image_of(np.random.default_rng(7).random((40, 48)))
        object_scores, _ = score_regions(
            img, DESK, {"object": brightness_scorer, "scene": brightness_scorer}
        )
        for row, spec in zip(object_scores, generate_regions(40, 48, DESK)):
            view = resize_bilinear(img, spec.resized_height, spec.resized_width)
            rect = view.pixels[
                spec.top : spec.top + spec.height, spec.left : spec.left + spec.width
            ]
            np.testing.assert_allclose(row, brightness_scorer(rect[None] - 0.5)[0])

    def test_off_simplex_scorer_rejected(self):
        img = image_of(np.zeros((32, 32)))
        bad = constant_scorer([0.7, 0.7])
        with pytest.raises(ValueError, match="off simplex"):
            score_regions(img, DESK, {"object": bad, "scene": bad})

    def test_one_row_off_simplex_rejected(self):
        def one_bad_row(crops):
            rows = np.full((len(crops), 2), 0.5)
            rows[-1] = [0.5, 0.5 + 2e-6]
            return rows

        with pytest.raises(ValueError, match="off simplex"):
            score_regions(
                image_of(np.zeros((32, 32))), DESK,
                {"object": constant_scorer([1.0, 0.0]), "scene": one_bad_row},
            )

    def test_negative_entry_rejected(self):
        bad = constant_scorer([1.5, -0.5])
        with pytest.raises(ValueError, match="off simplex"):
            score_regions(image_of(np.zeros((32, 32))), DESK, {"object": bad, "scene": bad})

    def test_wrong_row_count_rejected(self):
        def one_row(crops):
            return np.array([[1.0, 0.0]])

        with pytest.raises(ValueError, match="wrong shape"):
            score_regions(
                image_of(np.zeros((32, 32))), DESK, {"object": one_row, "scene": one_row}
            )

    def test_streams_disagree_on_classes_rejected(self):
        with pytest.raises(ValueError, match="wrong shape"):
            score_regions(
                image_of(np.zeros((32, 32))), DESK,
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
                image_of(np.zeros((32, 32))), DESK, {"object": growing, "scene": growing}
            )

    def test_mean_subtraction_applied(self):
        img = image_of(np.full((32, 32), 0.5))
        seen = []
        score_regions(
            img, DESK, {"object": recording_scorer(seen), "scene": constant_scorer([1.0, 0.0])}
        )
        for crops in seen:
            np.testing.assert_allclose(crops, 0.0, atol=1e-12)


class TestFusion:
    @staticmethod
    def rows(*vectors):
        return np.array(vectors, dtype=np.float64)

    def test_equal_streams_identity(self):
        fused = fuse_regions(self.rows([0.3, 0.7]), self.rows([0.3, 0.7]))
        np.testing.assert_allclose(fused, [[0.3, 0.7]], atol=1e-15)

    def test_single_stream(self):
        fused = fuse_regions(
            self.rows([0.9, 0.1]), self.rows([0.2, 0.8]), alpha_o=0.6, alpha_s=0.0
        )
        np.testing.assert_allclose(fused, [[0.54, 0.06]])

    def test_symmetric_mix(self):
        fused = fuse_regions(self.rows([1.0, 0.0]), self.rows([0.0, 1.0]))
        np.testing.assert_array_equal(fused, [[0.5, 0.5]])

    def test_fuse_regions_identity(self):
        scores = np.tile([0.2, 0.8], (5, 1))
        fused = fuse_regions(scores, scores)
        np.testing.assert_allclose(fused.mean(axis=0), [0.2, 0.8], atol=1e-15)

    def test_fuse_regions_symmetric(self):
        scores = self.rows([1.0, 0.0], [0.0, 1.0])
        np.testing.assert_array_equal(fuse_regions(scores, scores).mean(axis=0), [0.5, 0.5])

    def test_fuse_regions_order_invariant(self):
        rng = np.random.default_rng(8)
        s_o = rng.dirichlet(np.ones(3), size=10)
        s_s = rng.dirichlet(np.ones(3), size=10)
        a = fuse_regions(s_o, s_s).mean(axis=0)
        b = fuse_regions(s_o[::-1], s_s[::-1]).mean(axis=0)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_mean_vs_sum_same_argmax(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            scores = rng.dirichlet(np.ones(5), size=12)
            assert scores.mean(axis=0).argmax() == scores.sum(axis=0).argmax()

    def test_simplex_preserved_when_weights_sum_to_one(self):
        rng = np.random.default_rng(10)
        s_o = rng.dirichlet(np.ones(4), size=8)
        s_s = rng.dirichlet(np.ones(4), size=8)
        fused = fuse_regions(s_o, s_s, alpha_o=0.3, alpha_s=0.7)
        assert np.all(np.abs(fused.sum(axis=1) - 1.0) <= 1e-9)
        assert abs(fused.mean(axis=0).sum() - 1.0) <= 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no regions"):
            fuse_regions(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            fuse_regions(self.rows([1.0, 0.0]), self.rows([1.0, 0.0]), alpha_o=-0.1)

    def test_stream_shapes_differ_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            fuse_regions(self.rows([1.0, 0.0]), self.rows([1.0, 0.0], [0.0, 1.0]))

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
        scores, fused = classify_image(img, DESK, scorers, alpha_o=0.3, alpha_s=0.7)
        np.testing.assert_array_equal(
            fused, fuse_regions(*score_regions(img, DESK, scorers), 0.3, 0.7)
        )
        np.testing.assert_array_equal(scores, fused.mean(axis=0))
