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
solve, so a band's temporaries stay in cache. The first pass has no
displacement yet, so it reads the second frame's fields unwarped. The
expansion and the box filter regroup the sums of the whole-image kernels
they replaced (Higham, "The Accuracy of Floating Point Summation", 1993):
tests/test_flow.py keeps those kernels as references and holds these to
the numeric contract of docs/formats.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SizeError

DET_EPS = 1e-9
LK_WINDOW = 15  # odd side of the LK summation window
LK_MIN_EIGEN = 1e-4  # smallest eigenvalue of a trusted LK system
EXPANSION_SIGMA = 1.5  # Gaussian scale of the polynomial fit
AVG_WINDOW = 15  # side of the dense box average
ITERATIONS = 3  # dense refinement passes
_BAND_ROWS = 32  # rows per band of the expansion, a dense refinement pass and its box filter


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
        points = np.empty((h, w, 2))
        points[..., 0] = np.arange(w)
        points[..., 1] = np.arange(h)[:, None]
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


def polynomial_expansion(img):
    """Quadratic fit coefficients per pixel: returns (axx, ayy, axy, bx, by).

    The local model is f(x, y) ~ c + bx*x + by*y + axx*x^2 + ayy*y^2 +
    axy*x*y in offsets from each pixel, fit under a separable Gaussian
    weight g of scale EXPANSION_SIGMA, with the image reflected at its
    border. It runs in bands of _BAND_ROWS rows. A band's taps down the
    rows are stacked once, and one product weighs them by g, x^2 g and
    x g; the taps of those three along the rows are stacked once, and one
    more product weighs them into the five coefficients.
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
    # (c, axx, ayy) share a 3x3 system; invert it once.
    m = np.array([[1.0, s2, s2], [s2, s4, s2 * s2], [s2, s2 * s2, s4]])
    minv = np.linalg.inv(m)
    down = np.stack([g, x2g, xg])
    zero = np.zeros_like(g)
    # per coefficient, the weights along the rows weighed down by g, x^2 g and x g
    along = np.array([
        [minv[1, 0] * g + minv[1, 1] * x2g, minv[1, 2] * g, zero],
        [minv[2, 0] * g + minv[2, 1] * x2g, minv[2, 2] * g, zero],
        [zero, zero, xg / (s2 * s2)],
        [xg / s2, zero, zero],
        [zero, zero, g / s2],
    ]).reshape(5, -1)

    (h, w), n = img.shape, len(xs)
    padded = np.pad(img, half, mode="reflect")
    coeffs = np.empty((5, h, w))
    band = min(_BAND_ROWS, h)
    taps_down = np.empty((n, band, w + 2 * half))
    rows = np.empty((3, band, w + 2 * half))  # every padded column, so the rows need no padding
    taps = np.empty((3, n, band, w))
    for r0 in range(0, h, band):
        r = min(band, h - r0)
        for k in range(n):
            taps_down[k, :r] = padded[r0 + k : r0 + k + r]
        np.matmul(down, taps_down[:, :r].reshape(n, -1), out=rows[:, :r].reshape(3, -1))
        for k in range(n):
            taps[:, k, :r] = rows[:, :r, k : k + w]
        np.matmul(along, taps[:, :, :r].reshape(3 * n, -1), out=coeffs[:, r0 : r0 + r].reshape(5, -1))
    return tuple(coeffs)


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


def _tree_sums(p, size, out):
    """Sums of ``size`` consecutive entries along axis 0 of ``p``, at each of
    the ``len(out) == len(p) - size + 1`` starts. The sums of 2, 4, 8, ...
    entries are formed once, as a tree shared by every start, and each
    window adds the levels of the binary digits of ``size``, the largest
    first: 15 taps are ((oct + quad) + pair) + tap."""
    m, top = len(out), size.bit_length() - 1
    levels = [p]  # levels[j] holds the sums of 2**j entries
    for j in range(top - 1):
        levels.append(levels[j][: -(1 << j)] + levels[j][1 << j :])
    if top:
        np.add(levels[-1][:m], levels[-1][1 << (top - 1) :][:m], out=out)
    else:
        out[...] = p[:m]
    start = 1 << top
    for j in reversed(range(top)):
        if size >> j & 1:
            out += levels[j][start : start + m]
            start += 1 << j


def _box_bands(images, size, counts):
    """Yield ``(rows, means)`` for each band of _BAND_ROWS output rows, where
    ``means`` holds the mean of each image of the (k, H, W) stack ``images``
    over the size x size window clipped to the image bounds; ``counts`` is
    _box_counts. ``means`` is overwritten by the next band.

    The windows are summed down the rows and then along them, each by
    _tree_sums, on a band of zero-padded rows: its column sums come out
    laid as zero-padded rows in one flat buffer, so the pass along the rows
    runs on contiguous slices, and a band's buffers stay in cache.
    """
    (h_out, w_out), half = counts.shape, size // 2
    h, w = images.shape[1:]
    width = w + 2 * half  # a zero-padded row
    band = min(_BAND_ROWS, h_out)
    rows = np.zeros((band + size - 1, width))
    cols, sums = np.empty((2, band * width))  # column sums as zero-padded rows; window sums
    means = np.empty((len(images), band, w_out))
    for r0 in range(0, h_out, band):
        r = min(band, h_out - r0)
        n = r + size - 1  # padded rows that the band's windows cover
        top = r0 - half  # image row of the first of them
        lo, hi = max(top, 0), min(top + n, h)
        for img, mean in zip(images, means):
            rows[: lo - top] = 0.0
            rows[lo - top : hi - top, half : half + w] = img[lo:hi]
            rows[hi - top : n] = 0.0
            _tree_sums(rows[:n], size, cols[: r * width].reshape(r, width))
            _tree_sums(cols[: r * width], size, sums[: r * width - size + 1])
            np.divide(sums[: r * width].reshape(r, width)[:, :w_out], counts[r0 : r0 + r], out=mean[:r])
        yield slice(r0, r0 + r), means[:, :r]


def farneback_dense(prev, nxt) -> FlowField:
    """Dense two-frame flow from per-pixel quadratic expansions."""
    prev, nxt = _check_pair(prev, nxt)
    if prev.shape[0] < 16 or prev.shape[1] < 16:
        raise SizeError(f"farneback needs at least 16x16 images, got {prev.shape}")
    h, w = prev.shape

    a11_1, a22_1, axy1, bx1, by1 = polynomial_expansion(prev)
    a11_2, a22_2, axy2, bx2, by2 = polynomial_expansion(nxt)
    a12_1 = 0.5 * axy1
    second = (a11_2, 0.5 * axy2, a22_2, bx2, by2)

    du, dv = np.zeros((2, h, w))
    valid = np.zeros((h, w), dtype=bool)

    counts = _box_counts((h, w), AVG_WINDOW)
    # the five box-filter inputs: normal products A'A (11, 12, 22) and A'db (1, 2)
    normal = np.empty((5, h, w))
    xs = np.arange(w)
    ys = np.arange(h)[:, None]
    bands = [slice(r0, min(r0 + _BAND_ROWS, h)) for r0 in range(0, h, _BAND_ROWS)]
    for n in range(ITERATIONS):
        for b in bands:
            # the first pass has du = dv = 0, where the warp samples every field at its own pixel
            taps = _bilinear_taps(xs + du[b], ys[b] + dv[b], (h, w)) if n else None
            w11, w12, w22, wbx, wby = (_bilinear_grid(f, taps) if n else f[b] for f in second)
            n11 = 0.5 * (a11_1[b] + w11)
            n12 = 0.5 * (a12_1[b] + w12)
            n22 = 0.5 * (a22_1[b] + w22)
            g1 = -0.5 * (wbx - bx1[b])
            g2 = -0.5 * (wby - by1[b])
            if n:
                g1 = g1 + n11 * du[b] + n12 * dv[b]
                g2 = g2 + n12 * du[b] + n22 * dv[b]
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
