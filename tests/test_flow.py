import colorsys
import hashlib
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from stimkit import flow
from stimkit.errors import SizeError
from stimkit.flow import FlowField, farneback_dense, image_gradients, lucas_kanade_grid, polynomial_expansion
from stimkit.flowviz import _hsv_to_rgb, flow_hue_degrees, flow_to_hsv, render_arrows
from stimkit.synth import flow_texture

from numeric_contract import assert_float32_close


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

    @pytest.mark.parametrize("spacing", [0, -1])
    def test_spacing_below_one_rejected(self, spacing):
        with pytest.raises(SizeError, match="spacing"):
            lucas_kanade_grid(np.zeros((20, 20)), np.zeros((20, 20)), spacing=spacing)

    @pytest.mark.parametrize("spacing", [1, 2, 4, 7, 10])
    @pytest.mark.parametrize("shape", [(20, 24), (33, 47), (48, 64)])
    def test_matches_direct_window_solve(self, shape, spacing):
        # summed-area windows against each clipped window summed and solved directly
        h, w = shape
        prev = flow_texture(max(shape))[:h, :w]
        nxt = flow_texture(max(shape), shift=(1.5, -0.5))[:h, :w]
        prev[:, : w // 2] = nxt[:, : w // 2] = 0.5  # a flat half: untrusted windows
        got = lucas_kanade_grid(prev, nxt, spacing=spacing)
        ref_points, ref_vectors, ref_valid = reference_lucas_kanade(prev, nxt, spacing)
        assert got.points.tolist() == ref_points
        assert got.valid.tolist() == ref_valid
        assert ref_valid.count(False) and ref_valid.count(True)
        assert np.allclose(got.vectors, ref_vectors, rtol=1e-9, atol=1e-12)


def reference_lucas_kanade(prev, nxt, spacing):
    """(points, vectors, valid) of lucas_kanade_grid, one lattice point at a time."""
    h, w = prev.shape
    iy, ix = np.gradient(0.5 * (prev + nxt))
    it = nxt - prev
    half = flow.LK_WINDOW // 2
    points, vectors, valid = [], [], []
    for y in range(0, h, spacing):
        for x in range(0, w, spacing):
            win = (slice(max(y - half, 0), y + half + 1), slice(max(x - half, 0), x + half + 1))
            gx, gy, gt = ix[win].ravel(), iy[win].ravel(), it[win].ravel()
            g = np.array([[gx @ gx, gx @ gy], [gx @ gy, gy @ gy]])
            ok = bool(np.linalg.eigvalsh(g)[0] >= flow.LK_MIN_EIGEN)
            points.append([float(x), float(y)])
            vectors.append(np.linalg.solve(g, -np.array([gx @ gt, gy @ gt])) if ok else np.zeros(2))
            valid.append(ok)
    return points, np.array(vectors), valid


class TestPolynomialExpansion:
    @pytest.mark.parametrize(
        "c,bx,by,axx,ayy,axy",
        [
            (0.5, 0.0, 0.0, 0.0, 0.0, 0.0),
            (0.0, 0.25, -0.5, 0.0, 0.0, 0.0),
            (1.0, 0.0, 0.0, 0.01, 0.0, 0.0),
            (0.0, 0.0, 0.0, 0.0, -0.02, 0.0),
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.015),
            (0.3, -0.1, 0.2, 0.004, -0.003, 0.002),
        ],
    )
    def test_exact_quadratic_coefficients_away_from_the_border(self, c, bx, by, axx, ayy, axy):
        ys, xs = np.mgrid[0:24, 0:30].astype(np.float64)
        img = c + bx * xs + by * ys + axx * xs**2 + ayy * ys**2 + axy * xs * ys
        got = polynomial_expansion(img)
        # in offsets from (x, y) the linear terms pick up the quadratic ones
        want = (axx, ayy, axy, bx + 2 * axx * xs + axy * ys, by + 2 * ayy * ys + axy * xs)
        half = int(round(2.0 * flow.EXPANSION_SIGMA))  # reflect padding reaches no deeper
        inner = (slice(half, -half), slice(half, -half))
        for g, wnt in zip(got, want):
            assert np.allclose(g[inner], np.broadcast_to(wnt, img.shape)[inner], rtol=1e-9, atol=1e-12)


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

    def test_sector_table_gives_the_bytes_of_the_choose_reference(self):
        rng = np.random.default_rng(11)
        u, v = rng.normal(size=(2, 16, 16))
        prev = flow_texture(96)[:72]
        nxt = flow_texture(96, shift=(1.0, -2.0))[:72]
        prev[:, :24] = nxt[:, :24] = 0.5
        pinned = farneback_dense(prev, nxt)
        fields = [self._dense(u, v), self._dense(-v, u), pinned]  # the rotating field and the pinned dense field
        for field in fields:
            fu, fv, valid = field.grids()
            hue = flow_hue_degrees(fu, fv)
            intensity = np.where(valid, np.clip(np.hypot(fu, fv) / 5.0, 0.0, 1.0), 0.0)
            assert _hsv_to_rgb(hue, 1.0, intensity).tobytes() == reference_hsv_to_rgb(hue, 1.0, intensity).tobytes()
        # every sector boundary, a hue that wraps to 360.0, and saturations below 1
        hue = np.array([0.0, 60.0, 120.0, 180.0, 240.0, 300.0, 359.99999999999994, -1e-300, -0.0, 725.0])
        sat = np.linspace(0.0, 1.0, len(hue))
        assert _hsv_to_rgb(hue, sat, 0.75).tobytes() == reference_hsv_to_rgb(hue, sat, 0.75).tobytes()


def reference_hsv_to_rgb(h_deg, s, v):
    """HSV -> RGB through np.choose, the kernel the sector table replaced."""
    h6 = (h_deg % 360.0) / 60.0
    i = np.floor(h6).astype(int) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b], axis=-1)


class TestFlowField:
    def test_dense_points_are_the_pixel_grid_as_x_y(self):
        field = FlowField.dense(np.zeros((3, 5)), np.zeros((3, 5)), np.ones((3, 5), bool))
        ys, xs = np.mgrid[0:3, 0:5]
        assert field.points.tobytes() == np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64).tobytes()


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


class TestPinnedArrows:
    def test_overlay_and_isolation_bytes_are_pinned(self):
        # Arrow images as produced with numpy 2.4.6; pins the segment and
        # dot stamping that render_arrows shares with the rasterizer.
        prev = flow_texture(96)
        field = lucas_kanade_grid(prev, flow_texture(96, shift=(1.0, -2.0)))
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
        # Dense flow as produced with numpy 2.4.6 and OpenBLAS 0.3.31, whose
        # kernels the expansion's products take. The frames are cropped to
        # 72x96 so a height/width mix-up in the expansion, warp or box filter
        # changes the bytes, and a flat strip leaves some pixels invalid.
        prev = flow_texture(96)[:72]
        nxt = flow_texture(96, shift=(1.0, -2.0))[:72]
        prev[:, :24] = nxt[:, :24] = 0.5
        field = farneback_dense(prev, nxt)
        digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in (field.vectors, field.valid, flow_to_hsv(field))]
        assert digests == [
            "742ee37aa660b4587520267ea449f15691195fcb57ab74e31043bb58a708d318",
            "5c7d24a936dabee99aa9ead972f311b14b2ce2bb3d9d02fd82faac2ce6d9f0cb",
            "4b2643d5651a36b84f03c91f139263cb72255e4628c5e5f08b180f65eab18bba",
        ]


# The kernels that the expansion, the box filter and the dense iteration
# replaced, kept as references: eight whole-image correlations through
# sliding-window products, one sliding_window_view sum per axis, and every
# step of an iteration over the whole image at once.


def reference_correlate1d(img, kernel, axis):
    half = len(kernel) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (half, half)
    padded = np.pad(img, pad, mode="reflect")
    windows = sliding_window_view(padded, len(kernel), axis=axis)
    return windows @ kernel


def reference_polynomial_expansion(img):
    sigma = flow.EXPANSION_SIGMA
    half = max(1, int(round(2.0 * sigma)))
    xs = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(xs**2) / (2.0 * sigma * sigma))
    g /= g.sum()
    xg = xs * g
    x2g = xs * xs * g
    s2 = float(np.sum(x2g))
    s4 = float(np.sum(xs**4 * g))
    rows_g = reference_correlate1d(img, g, 0)
    rows_xg = reference_correlate1d(img, xg, 0)
    m00 = reference_correlate1d(rows_g, g, 1)
    mx = reference_correlate1d(rows_g, xg, 1)
    my = reference_correlate1d(rows_xg, g, 1)
    mxx = reference_correlate1d(rows_g, x2g, 1)
    myy = reference_correlate1d(reference_correlate1d(img, x2g, 0), g, 1)
    mxy = reference_correlate1d(rows_xg, xg, 1)
    minv = np.linalg.inv(np.array([[1.0, s2, s2], [s2, s4, s2 * s2], [s2, s2 * s2, s4]]))
    axx = minv[1, 0] * m00 + minv[1, 1] * mxx + minv[1, 2] * myy
    ayy = minv[2, 0] * m00 + minv[2, 1] * mxx + minv[2, 2] * myy
    return axx, ayy, mxy / (s2 * s2), mx / s2, my / s2


def reference_box_sum1d(img, size, axis):
    half = size // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (half, half)
    padded = np.pad(img, pad)  # zeros
    windows = sliding_window_view(padded, size, axis=axis)
    return windows.sum(axis=-1)


def reference_box_filter(img, size, counts):
    return reference_box_sum1d(reference_box_sum1d(img, size, 0), size, 1) / counts


def reference_box_counts(shape, size):
    return reference_box_sum1d(reference_box_sum1d(np.ones(shape), size, 0), size, 1)


def banded_box_filter(img, size, counts):
    """flow._box_bands on one image."""
    out = np.empty(counts.shape)
    for rows, means in flow._box_bands(img[None], size, counts):
        out[rows] = means[0]
    return out


def reference_bilinear_taps(sx, sy):
    h, w = sx.shape
    sx = np.clip(sx, 0.0, w - 1.0)
    sy = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0
    return (y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1), (fx, 1 - fx, fy, 1 - fy)


def reference_bilinear_grid(field, taps):
    (i00, i01, i10, i11), (fx, gx, fy, gy) = taps
    flat = field.ravel()
    return flat[i00] * gx * gy + flat[i01] * fx * gy + flat[i10] * gx * fy + flat[i11] * fx * fy


def reference_farneback(prev, nxt, avg_window, iterations, expansion=reference_polynomial_expansion,
                        box_filter=reference_box_filter):
    """(du, dv, valid) of farneback_dense, one whole-image step after another;
    every pass, the first too, warps by the displacement so far."""
    h, w = prev.shape
    axx1, ayy1, axy1, bx1, by1 = expansion(prev)
    axx2, ayy2, axy2, bx2, by2 = expansion(nxt)
    a11_1, a12_1, a22_1 = axx1, 0.5 * axy1, ayy1
    a11_2, a12_2, a22_2 = axx2, 0.5 * axy2, ayy2
    du = np.zeros((h, w))
    dv = np.zeros((h, w))
    counts = reference_box_counts((h, w), avg_window)
    xs = np.arange(w)
    ys = np.arange(h)[:, None]
    for _ in range(iterations):
        taps = reference_bilinear_taps(xs + du, ys + dv)
        n11 = 0.5 * (a11_1 + reference_bilinear_grid(a11_2, taps))
        n12 = 0.5 * (a12_1 + reference_bilinear_grid(a12_2, taps))
        n22 = 0.5 * (a22_1 + reference_bilinear_grid(a22_2, taps))
        g1 = -0.5 * (reference_bilinear_grid(bx2, taps) - bx1) + n11 * du + n12 * dv
        g2 = -0.5 * (reference_bilinear_grid(by2, taps) - by1) + n12 * du + n22 * dv
        m11 = box_filter(n11 * n11 + n12 * n12, avg_window, counts)
        m12 = box_filter(n12 * (n11 + n22), avg_window, counts)
        m22 = box_filter(n12 * n12 + n22 * n22, avg_window, counts)
        r1 = box_filter(n11 * g1 + n12 * g2, avg_window, counts)
        r2 = box_filter(n12 * g1 + n22 * g2, avg_window, counts)
        det = m11 * m22 - m12 * m12
        valid = np.abs(det) >= flow.DET_EPS * flow.DET_EPS
        safe = np.where(valid, det, 1.0)
        du = np.where(valid, (m22 * r1 - m12 * r2) / safe, 0.0)
        dv = np.where(valid, (m11 * r2 - m12 * r1) / safe, 0.0)
    return du, dv, valid


# 33, 257 and 72 rows leave a partial last band of 32 rows; 16 rows is under one band;
# 64 rows are two whole bands
BAND_SHAPES = [(16, 16), (33, 47), (257, 31), (72, 96), (64, 40)]
BOX_WIDTHS = list(range(1, 32))
# no motion, subpixel motions, a whole-pixel motion, and one that samples past the border
DENSE_SHIFTS = [(0.0, 0.0), (1.5, -0.5), (1.0, -2.0), (-4.0, 3.0), (7.5, 6.25)]
VECTOR_TOL_PX = 1e-9  # the dense vectors' bound against the whole-image reference


def signed_zero_image(shape, seed):
    """Mixed magnitudes, a run of -0.0 entries and scattered ones."""
    rng = np.random.default_rng(seed)
    img = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    img[rng.random(shape) < 0.2] = -0.0
    img[: shape[0] // 3, : shape[1] // 3] = -0.0
    return img


def dense_pair(shape, shift, flat_strip):
    """Two frames of flow_texture cropped to ``shape``, the second shifted; a flat strip
    (equal in both frames) leaves pixels invalid and zero products."""
    h, w = shape
    prev = flow_texture(max(shape))[:h, :w]
    nxt = flow_texture(max(shape), shift=shift)[:h, :w]
    if flat_strip:
        prev[:, : w // 4] = nxt[:, : w // 4] = 0.5
    return prev, nxt


class TestExpansionContract:
    @pytest.mark.parametrize("shape", BAND_SHAPES + [(3, 3), (4, 7), (7, 4)])
    def test_matches_the_correlation_reference(self, shape):
        h, w = shape
        images = [flow_texture(max(shape))[:h, :w], np.random.default_rng(4).random(shape)]
        if min(shape) > 7:
            # Under 7 pixels the reflected border repeats the image, and the
            # antisymmetric sums of a wide-range image cancel: at 3x3, bx is
            # 1e-2 of its terms, and the old kernel is 129 eps off its exact
            # value, this one 125, so neither is the other's reference.
            images.append(signed_zero_image(shape, 3))
        for img in images:
            got, want = polynomial_expansion(img), reference_polynomial_expansion(img)
            for name, a, b in zip(("axx", "ayy", "axy", "bx", "by"), got, want):
                assert_float32_close(a, b, f"{name} at {shape}")


class TestBoxFilterContract:
    """The tree-summed box filter against the sliding_window_view sums."""

    @pytest.mark.parametrize("size", BOX_WIDTHS)
    def test_tree_sums_match_the_axis_sums(self, size):
        half = size // 2
        for n, shape in enumerate(BAND_SHAPES):
            img = signed_zero_image(shape, n)
            down = np.pad(img, [(half, half), (0, 0)])
            got = np.empty((len(down) - size + 1, shape[1]))
            flow._tree_sums(down, size, got)
            assert_float32_close(got, reference_box_sum1d(img, size, 0), f"down the rows at {shape}")
            along = np.pad(img, [(0, 0), (half, half)])  # rows laid end to end, as _box_bands lays them
            sums = np.empty(along.size)
            flow._tree_sums(along.ravel(), size, sums[: along.size - size + 1])
            got = sums.reshape(along.shape)[:, : along.shape[1] - size + 1]
            assert_float32_close(got, reference_box_sum1d(img, size, 1), f"along the rows at {shape}")

    @pytest.mark.parametrize("size", BOX_WIDTHS)
    def test_banded_means_match_box_filter(self, size):
        for n, shape in enumerate(BAND_SHAPES):
            images = np.stack([signed_zero_image(shape, n), signed_zero_image(shape, n + 10)])
            counts = flow._box_counts(shape, size)
            assert counts.tobytes() == reference_box_counts(shape, size).tobytes()
            got = np.empty(images.shape[:1] + counts.shape)
            for rows, means in flow._box_bands(images, size, counts):
                got[:, rows] = means
            for img, mean in zip(images, got):
                assert_float32_close(mean, reference_box_filter(img, size, counts), f"{shape}")


class TestDenseContract:
    @pytest.mark.parametrize("flat_strip", [False, True], ids=["textured", "flat-strip"])
    @pytest.mark.parametrize("shift", DENSE_SHIFTS)
    @pytest.mark.parametrize("shape", BAND_SHAPES)
    def test_vectors_match_the_whole_image_steps(self, shape, shift, flat_strip):
        prev, nxt = dense_pair(shape, shift, flat_strip)
        u, v, valid = farneback_dense(prev, nxt).grids()
        ref_u, ref_v, ref_valid = reference_farneback(prev, nxt, avg_window=15, iterations=3)
        assert valid.tobytes() == ref_valid.tobytes()
        assert np.abs(u - ref_u).max() <= VECTOR_TOL_PX
        assert np.abs(v - ref_v).max() <= VECTOR_TOL_PX

    @pytest.mark.parametrize("flat_strip", [False, True], ids=["textured", "flat-strip"])
    @pytest.mark.parametrize("shift", DENSE_SHIFTS)
    @pytest.mark.parametrize("shape", BAND_SHAPES)
    def test_first_pass_is_the_warp_at_zero_displacement(self, shape, shift, flat_strip, monkeypatch):
        # the first pass reads the second frame's fields unwarped and drops the du, dv terms;
        # the reference warps by du = dv = 0 and adds them, with the same expansion and box filter
        prev, nxt = dense_pair(shape, shift, flat_strip)
        monkeypatch.setattr(flow, "ITERATIONS", 1)
        u, v, valid = farneback_dense(prev, nxt).grids()
        ref = reference_farneback(prev, nxt, 15, 1, expansion=polynomial_expansion, box_filter=banded_box_filter)
        assert [u.tobytes(), v.tobytes(), valid.tobytes()] == [a.tobytes() for a in ref]

    def test_tracemalloc_peak_at_640x480_is_bounded(self):
        # the whole-image iteration peaked at 96.4 MiB; one gather from a stacked
        # (5, H*W) copy of the second frame's fields would add ~40 MiB
        prev = flow_texture(640)[:480]
        nxt = flow_texture(640, shift=(0.7, -1.1))[:480]
        tracemalloc.start()
        try:
            farneback_dense(prev, nxt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 90 * 2**20
