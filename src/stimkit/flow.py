"""Optical flow baselines: sparse grid tracking and dense two-frame flow.

Grayscale images are 2D float arrays in [0, 1], indexed [y, x]. Flow
vectors (u, v) are displacements in pixels from the first frame to the
second.

``lucas_kanade_grid`` solves the classic 2x2 normal equations over a
square window at every lattice point of a uniform grid. Spatial
gradients come from the average of the two frames (symmetric in time,
which removes the leading-order bias of one-sided gradients); points
whose system matrix is near-singular are flagged invalid.

``farneback_dense`` fits a quadratic polynomial to every pixel
neighborhood of both frames via Gaussian-weighted least squares, reads
the displacement from the polynomial coefficients, and refines it with
warped re-estimation passes, box-averaging the per-pixel systems for
stability.

Each refinement pass runs in bands of 32 rows (``_BAND_ROWS``): a band's
warped samples and normal products, then its box-filter sums and its
solve, so a band's temporaries stay in cache. The output is byte for
byte that of doing each step over the whole image: every other step is
per-pixel arithmetic, and the box filter's sums keep numpy's order for
``sliding_window_view(padded, size, axis).sum(axis=-1)``: down the rows,
+0.0 and then one tap after another; along a row, numpy's pairwise
summation (``pairwise_sum`` in its add loops), which for the 15-tap
window adds the first 8 as a pairwise tree and then the rest one at a
time. tests/test_flow.py keeps the ``sliding_window_view`` filter as the
reference, so a numpy release that changes this order fails there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SizeError

DET_EPS = 1e-9
LK_WINDOW = 15  # odd side of the LK summation window
LK_MIN_EIGEN = 1e-4  # smallest eigenvalue of a trusted LK system
EXPANSION_SIGMA = 1.5  # Gaussian scale of the polynomial fit
AVG_WINDOW = 15  # side of the dense box average; _row_sums takes 8 to 15 taps
ITERATIONS = 3  # dense refinement passes
# rows per band of a dense refinement pass and of its box filter
_BAND_ROWS = 32


@dataclass
class FlowField:
    """Per-point displacement field, sparse lattice or dense grid."""

    kind: str  # "sparse_grid" | "dense"
    points: np.ndarray  # (P, 2) float64 sample locations (x, y)
    vectors: np.ndarray  # (P, 2) float64 displacements (u, v)
    valid: np.ndarray  # (P,) bool
    shape: Optional[tuple[int, int]] = None  # (H, W) for dense fields

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 2)
        self.vectors = np.asarray(self.vectors, dtype=np.float64).reshape(-1, 2)
        self.valid = np.asarray(self.valid, dtype=bool).reshape(-1)
        if not (len(self.points) == len(self.vectors) == len(self.valid)):
            raise SizeError("points, vectors, valid must have equal lengths")

    @staticmethod
    def dense(u: np.ndarray, v: np.ndarray, valid: np.ndarray) -> "FlowField":
        h, w = u.shape
        ys, xs = np.mgrid[0:h, 0:w]
        points = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
        vectors = np.stack([u.ravel(), v.ravel()], axis=1)
        return FlowField("dense", points, vectors, valid.ravel(), shape=(h, w))

    def grids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense field back as (u, v, valid) 2D arrays."""
        if self.kind != "dense" or self.shape is None:
            raise SizeError("grids() requires a dense field")
        h, w = self.shape
        return (
            self.vectors[:, 0].reshape(h, w),
            self.vectors[:, 1].reshape(h, w),
            self.valid.reshape(h, w),
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "points": self.points.tolist(),
            "vectors": self.vectors.tolist(),
            "valid": self.valid.astype(int).tolist(),
        }


def _check_image(img, name="image"):
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 3 or img.shape[1] < 3:
        raise SizeError(f"{name} must be 2D and at least 3x3, got shape {img.shape}")
    return img


def image_gradients(img):
    """Central-difference gradients, one-sided at the borders; returns (Ix, Iy)."""
    img = _check_image(img)
    iy, ix = np.gradient(img)
    return ix, iy


def _check_pair(prev, nxt):
    prev = _check_image(prev, "prev")
    nxt = _check_image(nxt, "next")
    if prev.shape != nxt.shape:
        raise SizeError(f"frame shapes differ: {prev.shape} vs {nxt.shape}")
    return prev, nxt


def _window_sums(field, ys, xs, half, h, w):
    sat = np.zeros((h + 1, w + 1))
    np.cumsum(np.cumsum(field, axis=0), axis=1, out=sat[1:, 1:])
    y0 = np.maximum(ys - half, 0)
    y1 = np.minimum(ys + half, h - 1)
    x0 = np.maximum(xs - half, 0)
    x1 = np.minimum(xs + half, w - 1)
    return sat[y1 + 1, x1 + 1] - sat[y0, x1 + 1] - sat[y1 + 1, x0] + sat[y0, x0]


def lucas_kanade_grid(prev, nxt, spacing: int = 10) -> FlowField:
    """Sparse flow on a uniform lattice spaced ``spacing`` pixels apart."""
    prev, nxt = _check_pair(prev, nxt)
    if spacing < 1:
        raise SizeError(f"need spacing >= 1, got {spacing}")
    h, w = prev.shape
    gx_ys = np.arange(0, h, spacing)
    gx_xs = np.arange(0, w, spacing)
    ys, xs = [a.ravel() for a in np.meshgrid(gx_ys, gx_xs, indexing="ij")]

    avg = 0.5 * (prev + nxt)
    ix, iy = image_gradients(avg)
    it = nxt - prev
    half = LK_WINDOW // 2

    sxx = _window_sums(ix * ix, ys, xs, half, h, w)
    sxy = _window_sums(ix * iy, ys, xs, half, h, w)
    syy = _window_sums(iy * iy, ys, xs, half, h, w)
    sxt = _window_sums(ix * it, ys, xs, half, h, w)
    syt = _window_sums(iy * it, ys, xs, half, h, w)
    tr = 0.5 * (sxx + syy)
    det = sxx * syy - sxy * sxy
    # rounding can push the symmetric discriminant negative
    lam_min = tr - np.sqrt(np.maximum(tr * tr - det, 0.0))
    valid = lam_min >= LK_MIN_EIGEN
    safe_det = np.where(valid, det, 1.0)
    u = np.where(valid, -(syy * sxt - sxy * syt) / safe_det, 0.0)
    v = np.where(valid, -(sxx * syt - sxy * sxt) / safe_det, 0.0)
    return FlowField("sparse_grid", np.stack([xs, ys], axis=1), np.stack([u, v], axis=1), valid)


def _correlate1d(img, kernel, axis):
    half = len(kernel) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (half, half)
    padded = np.pad(img, pad, mode="reflect")
    windows = sliding_window_view(padded, len(kernel), axis=axis)
    return windows @ kernel


def polynomial_expansion(img):
    """Quadratic fit coefficients per pixel: returns (axx, ayy, axy, bx, by).

    The local model is f(x, y) ~ c + bx*x + by*y + axx*x^2 + ayy*y^2 +
    axy*x*y in offsets from each pixel, fit under a separable Gaussian
    weight of scale EXPANSION_SIGMA.
    """
    img = _check_image(img)
    sigma = EXPANSION_SIGMA
    half = max(1, int(round(2.0 * sigma)))
    xs = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(xs**2) / (2.0 * sigma * sigma))
    g /= g.sum()
    xg = xs * g
    x2g = xs * xs * g

    s2 = float(np.sum(x2g))
    s4 = float(np.sum(xs**4 * g))

    rows_g = _correlate1d(img, g, 0)
    rows_xg = _correlate1d(img, xg, 0)
    m00 = _correlate1d(rows_g, g, 1)
    mx = _correlate1d(rows_g, xg, 1)
    my = _correlate1d(rows_xg, g, 1)
    mxx = _correlate1d(rows_g, x2g, 1)
    myy = _correlate1d(_correlate1d(img, x2g, 0), g, 1)
    mxy = _correlate1d(rows_xg, xg, 1)

    bx = mx / s2
    by = my / s2
    axy = mxy / (s2 * s2)

    # (c, axx, ayy) share a 3x3 system; invert it once.
    m = np.array([[1.0, s2, s2], [s2, s4, s2 * s2], [s2, s2 * s2, s4]])
    minv = np.linalg.inv(m)
    axx = minv[1, 0] * m00 + minv[1, 1] * mxx + minv[1, 2] * myy
    ayy = minv[2, 0] * m00 + minv[2, 1] * mxx + minv[2, 2] * myy
    return axx, ayy, axy, bx, by


def _bilinear_taps(sx, sy, shape):
    """Flat gather indices and weights of bilinear sampling at (sx, sy), clamped to a grid of ``shape``."""
    h, w = shape
    sx = np.clip(sx, 0.0, w - 1.0)
    sy = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0
    return (y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1), (fx, 1 - fx, fy, 1 - fy)


def _bilinear_grid(field, taps):
    (i00, i01, i10, i11), (fx, gx, fy, gy) = taps
    flat = field.ravel()
    return flat[i00] * gx * gy + flat[i01] * fx * gy + flat[i10] * gx * fy + flat[i11] * fx * fy


def _window_counts(n, size):
    """In-bounds taps of each zero-padded size-tap window along an axis of length n."""
    starts = np.arange(n + 2 * (size // 2) - size + 1) - size // 2
    return (np.minimum(starts + size, n) - np.maximum(starts, 0)).astype(np.float64)


def _box_counts(shape, size):
    """Pixels inside each clipped size x size window."""
    return np.outer(_window_counts(shape[0], size), _window_counts(shape[1], size))


def _column_sums(img, size, r0, out):
    """Zero-padded size-tap window sums down axis 0 of ``img`` for the output
    rows starting at r0, in numpy's order for a reduction over that axis:
    +0.0, then one tap after another. Padding taps are skipped: adding +0.0
    to a sum that starts at +0.0 changes no bit."""
    h = img.shape[0]
    out.fill(0.0)
    for k in range(size):
        top = r0 + k - size // 2  # input row of the first output row
        lo, hi = max(top, 0), min(top + len(out), h)
        if lo < hi:
            out[lo - top : hi - top] += img[lo:hi]


def _row_sums(p, size, out):
    """size-tap window sums at every start of the 1D ``p`` (``len(out) ==
    len(p) - size + 1``), for 8 to 15 taps, in numpy's order for a last-axis
    reduction: its pairwise summation, which adds the first 8 as ((t0 + t1)
    + (t2 + t3)) + ((t4 + t5) + (t6 + t7)) and then the rest one at a time.
    Shifted slices share each level of that tree across window starts.
    numpy adds each sum to +0.0, which changes only a -0.0, so ``p`` must
    hold none."""
    m = len(out)
    pair = p[:-1] + p[1:]
    quad = pair[:-2] + pair[2:]
    np.add(quad[:m], quad[4 : 4 + m], out=out)
    for k in range(8, size):
        out += p[k : k + m]


def _box_bands(images, size, counts):
    """Yield ``(rows, means)`` for each band of _BAND_ROWS output rows, where
    ``means`` holds the mean of each image of the (k, H, W) stack ``images``
    over the size x size window clipped to the image bounds; ``counts`` is
    _box_counts. ``means`` is overwritten by the next band.

    The window sums are bytewise those of numpy's ``sliding_window_view(...)
    .sum(axis=-1)`` down the rows and then along the columns of the
    zero-padded image. Each band's column sums are laid out as zero-padded
    rows in one flat buffer, so every row-pass slice is contiguous, and a
    band's buffers stay in cache.
    """
    (h_out, w_out), half = counts.shape, size // 2
    w = images.shape[2]
    width = w + 2 * half  # a zero-padded row
    band = min(_BAND_ROWS, h_out)
    cols = np.empty((band, w))
    padded = np.zeros(band * width)
    sums = np.empty(band * width)
    means = np.empty((len(images), band, w_out))
    for r0 in range(0, h_out, band):
        r = min(band, h_out - r0)
        flat = padded[: r * width]
        for img, mean in zip(images, means):
            _column_sums(img, size, r0, cols[:r])
            flat.reshape(r, width)[:, half : half + w] = cols[:r]
            _row_sums(flat, size, sums[: r * width - size + 1])
            np.divide(sums[: r * width].reshape(r, width)[:, :w_out], counts[r0 : r0 + r], out=mean[:r])
        yield slice(r0, r0 + r), means[:, :r]


def farneback_dense(prev, nxt) -> FlowField:
    """Dense two-frame flow from per-pixel quadratic expansions."""
    prev, nxt = _check_pair(prev, nxt)
    if prev.shape[0] < 16 or prev.shape[1] < 16:
        raise SizeError(f"farneback needs at least 16x16 images, got {prev.shape}")
    h, w = prev.shape

    axx1, ayy1, axy1, bx1, by1 = polynomial_expansion(prev)
    axx2, ayy2, axy2, bx2, by2 = polynomial_expansion(nxt)
    a11_1, a12_1, a22_1 = axx1, 0.5 * axy1, ayy1
    a11_2, a12_2, a22_2 = axx2, 0.5 * axy2, ayy2

    du = np.zeros((h, w))
    dv = np.zeros((h, w))
    valid = np.zeros((h, w), dtype=bool)

    counts = _box_counts((h, w), AVG_WINDOW)
    # the five box-filter inputs: normal products A'A (11, 12, 22) and A'db (1, 2)
    normal = np.empty((5, h, w))
    xs = np.arange(w)
    ys = np.arange(h)[:, None]
    bands = [slice(r0, min(r0 + _BAND_ROWS, h)) for r0 in range(0, h, _BAND_ROWS)]
    for _ in range(ITERATIONS):
        for b in bands:
            taps = _bilinear_taps(xs + du[b], ys[b] + dv[b], (h, w))
            n11 = 0.5 * (a11_1[b] + _bilinear_grid(a11_2, taps))
            n12 = 0.5 * (a12_1[b] + _bilinear_grid(a12_2, taps))
            n22 = 0.5 * (a22_1[b] + _bilinear_grid(a22_2, taps))
            g1 = -0.5 * (_bilinear_grid(bx2, taps) - bx1[b]) + n11 * du[b] + n12 * dv[b]
            g2 = -0.5 * (_bilinear_grid(by2, taps) - by1[b]) + n12 * du[b] + n22 * dv[b]
            # Least squares over the neighborhood: box-average the normal
            # products A'A and A'db rather than the raw systems, so weak or
            # sign-flipping pixels cannot cancel their neighbors into a
            # near-singular average.
            np.add(n11 * n11, n12 * n12, out=normal[0, b])
            np.multiply(n12, n11 + n22, out=normal[1, b])
            np.add(n12 * n12, n22 * n22, out=normal[2, b])
            np.add(n11 * g1, n12 * g2, out=normal[3, b])
            np.add(n12 * g1, n22 * g2, out=normal[4, b])

        # every band's inputs are written, so du and dv can be overwritten band by band
        for b, (m11, m12, m22, r1, r2) in _box_bands(normal, AVG_WINDOW, counts):
            # det(A'A) = det(A)^2, so the det-of-A validity threshold squares.
            det = m11 * m22 - m12 * m12
            valid[b] = np.abs(det) >= DET_EPS * DET_EPS
            safe = np.where(valid[b], det, 1.0)
            du[b] = np.where(valid[b], (m22 * r1 - m12 * r2) / safe, 0.0)
            dv[b] = np.where(valid[b], (m11 * r2 - m12 * r1) / safe, 0.0)

    return FlowField.dense(du, dv, valid)
