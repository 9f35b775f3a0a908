from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stimkit.augment import (
    AugmentSpec,
    augment_coords,
    draw_augmentation,
    make_training_augmenter,
    rotate_zoom,
)
from stimkit.errors import ValidationError
from stimkit.raster import RasterSpec, rasterize

from conftest import window_fixture

FRAME = (640, 480)


def _window(osc=12.0, drift=(0.0, 0.0)):
    base = [(300.0, 200.0), (300.0, 250.0), (290.0, 190.0), (310.0, 190.0), (280.0, 195.0), (320.0, 195.0)]
    frames = []
    for t in range(7):
        dx = drift[0] * t
        dy = osc * np.sin(np.pi * t / 3.0) + drift[1] * t
        frames.append([(x + dx, y + dy) for x, y in base])
    return window_fixture(frames)


def _pairwise(pts):
    flat = pts.reshape(-1, 2)
    return np.linalg.norm(flat[:, None] - flat[None, :], axis=-1)


class TestRotate:
    def test_zero_rotation_is_identity(self):
        coords = _window().coords
        assert np.allclose(rotate_zoom(coords, FRAME, 0.0, 1.0), coords, atol=1e-12)

    def test_quarter_turn_moves_right_of_center_to_below(self):
        # y-down image coords: the CCW y-up convention appears clockwise,
        # so one unit right of center lands one unit below center.
        out = rotate_zoom(np.array([[321.0, 240.0]]), FRAME, 90.0, 1.0)
        assert np.allclose(out[0], [320.0, 241.0], atol=1e-9)

    def test_rotation_inverse_composes_to_identity(self):
        coords = _window().coords
        back = rotate_zoom(rotate_zoom(coords, FRAME, 33.0, 1.0), FRAME, -33.0, 1.0)
        assert np.allclose(back, coords, atol=1e-9)

    @given(st.floats(-180.0, 180.0, allow_nan=False))
    def test_rotation_is_isometry(self, theta):
        coords = _window().coords
        out = rotate_zoom(coords, FRAME, theta, 1.0)
        assert np.allclose(_pairwise(out), _pairwise(coords), atol=1e-9)


class TestZoom:
    def test_factor_one_is_identity(self):
        coords = _window().coords
        assert np.allclose(rotate_zoom(coords, FRAME, 0.0, 1.0), coords, atol=1e-12)

    def test_frame_center_is_fixed_point(self):
        out = rotate_zoom(np.array([[320.0, 240.0]]), FRAME, 0.0, 1.7)
        assert np.allclose(out[0], [320.0, 240.0], atol=1e-12)

    def test_affine_example(self):
        # factor 2 about (W/2, H/2) sends (3W/4, H/2) to (W, H/2)
        out = rotate_zoom(np.array([[480.0, 240.0]]), FRAME, 0.0, 2.0)
        assert np.allclose(out[0], [640.0, 240.0], atol=1e-12)

    def test_zoom_scales_pairwise_distances_exactly(self):
        coords = _window().coords
        factor = 1.73
        out = rotate_zoom(coords, FRAME, 0.0, factor)
        assert np.allclose(_pairwise(out), factor * _pairwise(coords), rtol=1e-12, atol=1e-9)

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValidationError, match="zoom factor"):
            rotate_zoom(_window().coords, FRAME, 0.0, 0.9)


class TestDraw:
    def test_draws_respect_ranges_and_center(self):
        spec = AugmentSpec()
        rng = np.random.default_rng(123)
        thetas, factors = [], []
        for _ in range(10_000):
            t, f = draw_augmentation(spec, rng)
            thetas.append(t)
            factors.append(f)
        assert -45.0 <= min(thetas) and max(thetas) <= 45.0
        assert 1.0 <= min(factors) and max(factors) <= 2.0
        assert abs(np.mean(thetas)) < 2.0

    def test_degenerate_ranges_give_identity(self):
        spec = AugmentSpec(rotation_range=(0.0, 0.0), zoom_range=(1.0, 1.0))
        theta, factor = draw_augmentation(spec, np.random.default_rng(0))
        assert theta == 0.0 and factor == 1.0

    def test_same_seed_same_stream(self):
        spec = AugmentSpec()
        a = [draw_augmentation(spec, np.random.default_rng(9)) for _ in range(5)]
        b = [draw_augmentation(spec, np.random.default_rng(9)) for _ in range(5)]
        # fresh generator each call: compare the first draw of each
        assert a[0] == b[0]
        rng1, rng2 = np.random.default_rng(4), np.random.default_rng(4)
        seq1 = [draw_augmentation(spec, rng1) for _ in range(10)]
        seq2 = [draw_augmentation(spec, rng2) for _ in range(10)]
        assert seq1 == seq2

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            AugmentSpec(zoom_range=(0.5, 2.0))
        with pytest.raises(ValidationError):
            AugmentSpec(rotation_range=(-30.0, 45.0))
        with pytest.raises(ValidationError):
            AugmentSpec(mode="per_pixel")


class TestSequenceAugmentation:
    def test_per_clip_scales_displacements_by_factor(self):
        seq = _window(osc=15.0)
        spec = AugmentSpec(rotation_range=(0.0, 0.0), zoom_range=(1.5, 1.5))
        aug = augment_coords(seq, spec, np.random.default_rng(0))
        d_raw = np.diff(seq.coords, axis=0)
        d_aug = np.diff(aug, axis=0)
        assert np.allclose(np.linalg.norm(d_aug, axis=-1), 1.5 * np.linalg.norm(d_raw, axis=-1), atol=1e-9)

    def test_labels_ids_and_presence_untouched(self):
        seq = _window()
        seq.present[3, 4] = False
        before = seq.copy()
        clip = rasterize(seq, RasterSpec())
        out = make_training_augmenter(AugmentSpec())(clip, np.random.default_rng(1))
        assert out.label == clip.label
        assert out.source is seq
        assert (out.source.subject_id, out.source.clip_id, out.source.origin_frame) == ("subj", "fixture", 0)
        for name in ("coords", "present"):
            assert np.array_equal(getattr(seq, name), getattr(before, name))

    def test_training_augmenter_matches_public_ops(self):
        seq = _window(drift=(2.0, 1.0))
        spec = AugmentSpec()
        raster_spec = RasterSpec()
        clip = rasterize(seq, raster_spec)
        theta, factor = draw_augmentation(spec, np.random.default_rng(77))
        moved = replace(seq, coords=rotate_zoom(seq.coords, FRAME, theta, factor))
        expected = rasterize(moved, raster_spec)
        got = make_training_augmenter(spec)(clip, np.random.default_rng(77))
        assert np.array_equal(got.frames, expected.frames)

    def test_augmenter_requires_source(self):
        from stimkit.raster import RasterClip

        clip = RasterClip(frames=np.zeros((7, 64, 64), np.float32), label=0)
        with pytest.raises(ValidationError, match="keypoint source"):
            make_training_augmenter(AugmentSpec())(clip, np.random.default_rng(0))

    def test_augmenter_requires_raster_spec(self):
        # a clip without its spec was once re-rendered at the default RasterSpec
        clip = replace(rasterize(_window(), RasterSpec(32, 32)), spec=None)
        with pytest.raises(ValidationError, match="raster spec"):
            make_training_augmenter(AugmentSpec())(clip, np.random.default_rng(0))

    def test_per_frame_mode_draws_independently(self):
        seq = _window(osc=0.0)
        spec = AugmentSpec(mode="per_frame")
        coords = augment_coords(seq, spec, np.random.default_rng(5))
        # identical input frames should now differ between timesteps
        assert not np.allclose(coords[0], coords[1])

    def test_per_frame_zooms_about_frame_center(self):
        # every frame turns about the center of the window's source frame,
        # not about its own keypoints
        frames = [[(100.0 + 10 * t, 50.0), (100.0 + 10 * t, 60.0)] for t in range(7)]
        seq = window_fixture(frames, frame_size=(640, 480))
        spec = AugmentSpec(rotation_range=(0.0, 0.0), zoom_range=(2.0, 2.0), mode="per_frame")
        coords = augment_coords(seq, spec, np.random.default_rng(0))
        center = np.array([320.0, 240.0])
        assert np.allclose(coords[seq.present], 2.0 * (seq.coords[seq.present] - center) + center, atol=1e-12)

