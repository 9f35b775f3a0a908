import colorsys
import hashlib

import numpy as np
import pytest

from stimkit.errors import SizeError
from stimkit.flow import FlowField, farneback_dense, image_gradients, lucas_kanade_grid
from stimkit.flowviz import flow_hue_degrees, flow_to_hsv, render_arrows


def texture(h, w, shift=(0.0, 0.0)):
    """Smooth analytic mixture; shifting evaluates the same function moved."""
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    xs = xs - shift[0]
    ys = ys - shift[1]
    img = (
        np.sin(2 * np.pi * xs / 32) * np.cos(2 * np.pi * ys / 24)
        + 0.6 * np.sin(2 * np.pi * (xs + ys) / 40)
        + 0.4 * np.cos(2 * np.pi * (xs - 0.5 * ys) / 28)
    )
    return (img - img.min()) / (img.max() - img.min())


def gaussian_blob(h, w, cx, cy, sigma=8.0):
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    return np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma * sigma))


class TestImageGradients:
    def test_constant_image_zero_gradients(self):
        ix, iy = image_gradients(np.full((10, 12), 0.4))
        assert np.all(ix == 0) and np.all(iy == 0)

    def test_ramp_gradient_closed_form(self):
        w = 16
        img = np.tile(np.arange(w) / w, (8, 1))
        ix, iy = image_gradients(img)
        assert np.allclose(ix[:, 1:-1], 1.0 / w, atol=1e-12)
        assert np.allclose(ix[:, 0], 1.0 / w, atol=1e-12)  # one-sided border
        assert np.all(iy == 0)

    def test_transpose_swaps_gradients(self):
        img = texture(20, 30)
        ix, iy = image_gradients(img)
        tx, ty = image_gradients(img.T)
        assert np.allclose(tx, iy.T, atol=1e-12)
        assert np.allclose(ty, ix.T, atol=1e-12)

    def test_small_image_rejected(self):
        with pytest.raises(SizeError):
            image_gradients(np.zeros((2, 5)))


class TestLucasKanade:
    def test_identical_frames_all_zero_and_valid(self):
        img = texture(64, 64)
        flow = lucas_kanade_grid(img, img)
        assert flow.valid.all()
        assert np.all(flow.vectors == 0.0)

    def test_translated_blob_recovers_shift(self):
        prev = gaussian_blob(80, 80, 40.0, 40.0)
        nxt = gaussian_blob(80, 80, 41.0, 40.0)  # shift (1, 0)
        flow = lucas_kanade_grid(prev, nxt)
        near = (np.hypot(flow.points[:, 0] - 40, flow.points[:, 1] - 40) < 15) & flow.valid
        assert near.any()
        u = flow.vectors[near, 0]
        v = flow.vectors[near, 1]
        assert np.all((0.7 <= u) & (u <= 1.3))
        assert np.all((-0.3 <= v) & (v <= 0.3))

    def test_flat_frames_all_invalid(self):
        flat = np.zeros((50, 50))
        flow = lucas_kanade_grid(flat, flat)
        assert not flow.valid.any()
        assert np.all(flow.vectors == 0.0)

    @pytest.mark.parametrize("w,h,spacing", [(100, 100, 10), (64, 48, 10), (33, 17, 7)])
    def test_lattice_point_count_exact(self, w, h, spacing):
        flow = lucas_kanade_grid(np.zeros((h, w)), np.zeros((h, w)), spacing=spacing)
        expected = ((w - 1) // spacing + 1) * ((h - 1) // spacing + 1)
        assert len(flow.points) == expected

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(SizeError):
            lucas_kanade_grid(np.zeros((20, 20)), np.zeros((20, 24)))


class TestFarneback:
    def test_identical_textured_frames_zero_and_valid(self):
        img = texture(64, 64)
        flow = farneback_dense(img, img)
        assert flow.valid.all()
        assert np.all(flow.vectors == 0.0)

    def test_sinusoid_translation_median_within_half_pixel(self):
        prev = texture(128, 128)
        nxt = texture(128, 128, shift=(2.0, 1.0))
        flow = farneback_dense(prev, nxt)
        med = np.median(flow.vectors[flow.valid], axis=0)
        assert abs(med[0] - 2.0) <= 0.5 and abs(med[1] - 1.0) <= 0.5

    def test_constant_frames_all_invalid(self):
        flat = np.full((32, 32), 0.5)
        flow = farneback_dense(flat, flat)
        assert not flow.valid.any()

    def test_too_small_rejected(self):
        with pytest.raises(SizeError):
            farneback_dense(np.zeros((8, 8)), np.zeros((8, 8)))


SHIFTS = [(2, 1), (3, 0), (0, -3), (-2, 2), (1, 1), (-1, -2)]


class TestShiftRecoveryProperty:
    @pytest.mark.parametrize("shift", SHIFTS)
    def test_lucas_kanade_recovers(self, shift):
        prev = texture(256, 256)
        nxt = texture(256, 256, shift=shift)
        flow = lucas_kanade_grid(prev, nxt)
        err = np.hypot(flow.vectors[flow.valid, 0] - shift[0], flow.vectors[flow.valid, 1] - shift[1])
        assert (err <= 0.5).mean() >= 0.8

    @pytest.mark.parametrize("shift", SHIFTS)
    def test_farneback_recovers(self, shift):
        prev = texture(256, 256)
        nxt = texture(256, 256, shift=shift)
        flow = farneback_dense(prev, nxt)
        err = np.hypot(flow.vectors[flow.valid, 0] - shift[0], flow.vectors[flow.valid, 1] - shift[1])
        assert (err <= 0.5).mean() >= 0.8

    def test_doubling_shift_doubles_magnitude(self):
        meds = {}
        for d in (1, 2):
            prev = texture(256, 256)
            nxt = texture(256, 256, shift=(d, 0))
            for name, fn in (("lk", lucas_kanade_grid), ("fb", farneback_dense)):
                flow = fn(prev, nxt)
                meds[(name, d)] = np.median(np.hypot(*flow.vectors[flow.valid].T))
        assert meds[("lk", 2)] >= 2 * meds[("lk", 1)] - 0.3
        assert meds[("fb", 2)] >= 2 * meds[("fb", 1)] - 0.3


class TestFlowToHsv:
    def _dense(self, u, v, valid=None):
        u = np.asarray(u, dtype=np.float64)
        if valid is None:
            valid = np.ones(u.shape, dtype=bool)
        return FlowField.dense(u, np.asarray(v, dtype=np.float64), valid)

    def test_zero_vector_renders_black(self):
        rgb = flow_to_hsv(self._dense(np.zeros((4, 4)), np.zeros((4, 4))), max_magnitude=1.0)
        assert np.all(rgb == 0.0)

    def test_max_magnitude_rightward_is_full_red(self):
        u = np.full((4, 4), 3.0)
        rgb = flow_to_hsv(self._dense(u, np.zeros((4, 4))), max_magnitude=3.0)
        assert np.allclose(rgb[0, 0], [1.0, 0.0, 0.0])

    def test_invalid_pixels_black(self):
        u = np.full((4, 4), 2.0)
        valid = np.ones((4, 4), dtype=bool)
        valid[1, 1] = False
        rgb = flow_to_hsv(self._dense(u, u, valid), max_magnitude=4.0)
        assert np.all(rgb[1, 1] == 0.0)
        assert rgb[0, 0].max() > 0

    def test_rotating_field_rotates_hues(self):
        rng = np.random.default_rng(11)
        u = rng.normal(size=(16, 16))
        v = rng.normal(size=(16, 16))
        rgb_a = flow_to_hsv(self._dense(u, v), max_magnitude=5.0)
        rgb_b = flow_to_hsv(self._dense(-v, u), max_magnitude=5.0)  # 90 deg rotation

        def hue_of(rgb):
            flat = rgb.reshape(-1, 3)
            return np.array([colorsys.rgb_to_hsv(*px)[0] * 360.0 for px in flat])

        ha, hb = hue_of(rgb_a), hue_of(rgb_b)
        diff = (hb - ha) % 360.0
        assert np.allclose(diff, 90.0, atol=1e-6)

    def test_antipodal_hues_differ_by_exactly_180(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=200)
        v = rng.normal(size=200)
        h1 = flow_hue_degrees(u, v)
        h2 = flow_hue_degrees(-u, -v)
        assert np.all(np.abs(h1 - h2) == 180.0)

    def test_never_nan(self):
        u = np.array([[0.0, 1e-300], [1e300, -0.0]])
        rgb = flow_to_hsv(self._dense(u, u.T))
        assert np.all(np.isfinite(rgb))

    def test_sparse_field_rejected(self):
        sparse = FlowField("sparse_grid", np.zeros((3, 2)), np.zeros((3, 2)), np.ones(3, bool))
        with pytest.raises(SizeError):
            flow_to_hsv(sparse)


class TestRenderArrows:
    def _sparse(self, vectors, valid=None):
        pts = np.array([[10.0, 10.0], [20.0, 10.0], [10.0, 20.0], [20.0, 20.0]])
        vectors = np.asarray(vectors, dtype=np.float64)
        if valid is None:
            valid = np.ones(len(pts), dtype=bool)
        return FlowField("sparse_grid", pts, vectors, valid)

    def test_zero_flow_draws_dots_only(self):
        img = render_arrows(self._sparse(np.zeros((4, 2))), shape=(32, 32))
        red = (img[:, :, 0] > 0.5) & (img[:, :, 1] < 0.5)
        assert red.sum() >= 4
        ys, xs = np.nonzero(img.sum(axis=2))
        assert xs.min() >= 8 and xs.max() <= 22  # just dots, no long segments

    def test_uniform_flow_draws_equal_segments(self):
        img = render_arrows(self._sparse(np.tile([5.0, 0.0], (4, 1))), shape=(32, 32))
        green = (img[:, :, 1] > 0.5) & (img[:, :, 0] < 0.5)
        rows = sorted(set(np.nonzero(green)[0]))
        assert rows == [10, 20]
        for row in rows:
            cols = np.nonzero(green[row])[0]
            assert cols.max() - cols.min() >= 4  # horizontal strokes

    def test_isolation_mode_empty_flow_black(self):
        field = FlowField("sparse_grid", np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0, bool))
        img = render_arrows(field, shape=(16, 16))
        assert np.all(img == 0.0)

    def test_dense_field_rejected(self):
        dense = FlowField.dense(np.zeros((4, 4)), np.zeros((4, 4)), np.ones((4, 4), bool))
        with pytest.raises(SizeError):
            render_arrows(dense)

    def test_canvas_size_is_never_guessed_from_the_points(self):
        with pytest.raises(SizeError, match="background image or a canvas shape"):
            render_arrows(self._sparse(np.zeros((4, 2))))


def bench_texture(side, shift=(0.0, 0.0)):
    """The frame texture of benchmarks/bench_backends.py (two terms, not three)."""
    ys, xs = np.mgrid[0:side, 0:side].astype(np.float64)
    xs -= shift[0]
    ys -= shift[1]
    img = np.sin(2 * np.pi * xs / 32) * np.cos(2 * np.pi * ys / 24) + 0.5 * np.sin(2 * np.pi * (xs + ys) / 40)
    return (img - img.min()) / (img.max() - img.min())


class TestPinnedArrows:
    def test_overlay_and_isolation_bytes_are_pinned(self):
        # Arrow images as produced with numpy 2.4.6; pins the segment and
        # dot stamping that render_arrows shares with the rasterizer.
        prev = bench_texture(96)
        field = lucas_kanade_grid(prev, bench_texture(96, shift=(1.0, -2.0)))
        blob = render_arrows(field, background=prev).tobytes() + render_arrows(field, shape=prev.shape).tobytes()
        assert hashlib.sha256(blob).hexdigest() == "6a377ac50a4d89c558e95b04befbb0fa96e02fb1d6665e66448a766451e21e92"


class TestAutoNormalization:
    def test_p95_autoscale_resists_outliers(self):
        # one huge vector must not wash out the rest of the rendering
        u = np.full((10, 10), 2.0)
        u[0, 0] = 1e6
        v = np.zeros((10, 10))
        field = FlowField.dense(u, v, np.ones((10, 10), bool))
        rgb = flow_to_hsv(field)  # auto max = 95th percentile ~= 2.0
        assert rgb[5, 5, 0] >= 0.99  # typical pixels at full intensity
        assert rgb[0, 0, 0] == 1.0  # outlier clipped, not overflowing


class TestPinnedDense:
    def test_dense_vectors_valid_and_hsv_bytes_are_pinned(self):
        # Dense flow as produced with numpy 2.4.6. The frames are cropped to
        # 72x96 so a height/width mix-up in the expansion, warp or box filter
        # changes the bytes, and a flat strip leaves some pixels invalid.
        prev = bench_texture(96)[:72]
        nxt = bench_texture(96, shift=(1.0, -2.0))[:72]
        prev[:, :24] = nxt[:, :24] = 0.5
        field = farneback_dense(prev, nxt)
        digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in (field.vectors, field.valid, flow_to_hsv(field))]
        assert digests == [
            "f4c5062a8c6e5f33dbed7de064cfc035418fa61a861b921ec9b4a4d1e41145e6",
            "5c7d24a936dabee99aa9ead972f311b14b2ce2bb3d9d02fd82faac2ce6d9f0cb",
            "ba8580e37788a45e0b3ed9435b98841e7f55863386c6cc46d16c997c6cf3408e",
        ]
