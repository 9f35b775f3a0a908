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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SizeError

DET_EPS = 1e-9


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


def lucas_kanade_grid(prev, nxt, spacing: int = 10, window: int = 15, min_eigen: float = 1e-4) -> FlowField:
    """Sparse flow on a uniform lattice spaced ``spacing`` pixels apart."""
    prev, nxt = _check_pair(prev, nxt)
    if spacing < 1 or window < 3 or window % 2 == 0:
        raise SizeError(f"need spacing >= 1 and odd window >= 3, got {spacing}, {window}")
    h, w = prev.shape
    gx_ys = np.arange(0, h, spacing)
    gx_xs = np.arange(0, w, spacing)
    ys, xs = [a.ravel() for a in np.meshgrid(gx_ys, gx_xs, indexing="ij")]

    avg = 0.5 * (prev + nxt)
    ix, iy = image_gradients(avg)
    it = nxt - prev
    half = window // 2

    sxx = _window_sums(ix * ix, ys, xs, half, h, w)
    sxy = _window_sums(ix * iy, ys, xs, half, h, w)
    syy = _window_sums(iy * iy, ys, xs, half, h, w)
    sxt = _window_sums(ix * it, ys, xs, half, h, w)
    syt = _window_sums(iy * it, ys, xs, half, h, w)
    tr = 0.5 * (sxx + syy)
    det = sxx * syy - sxy * sxy
    # rounding can push the symmetric discriminant negative
    lam_min = tr - np.sqrt(np.maximum(tr * tr - det, 0.0))
    valid = lam_min >= min_eigen
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


def polynomial_expansion(img, sigma: float = 1.5):
    """Quadratic fit coefficients per pixel: returns (axx, ayy, axy, bx, by).

    The local model is f(x, y) ~ c + bx*x + by*y + axx*x^2 + ayy*y^2 +
    axy*x*y in offsets from each pixel, fit under a separable Gaussian
    weight of scale sigma.
    """
    img = _check_image(img)
    half = max(1, int(round(2.0 * sigma)))
    xs = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(xs**2) / (2.0 * sigma * sigma))
    g /= g.sum()
    xg = xs * g
    x2g = xs * xs * g

    s2 = float(np.sum(x2g))
    s4 = float(np.sum(xs**4 * g))

    m00 = _correlate1d(_correlate1d(img, g, 0), g, 1)
    mx = _correlate1d(_correlate1d(img, g, 0), xg, 1)
    my = _correlate1d(_correlate1d(img, xg, 0), g, 1)
    mxx = _correlate1d(_correlate1d(img, g, 0), x2g, 1)
    myy = _correlate1d(_correlate1d(img, x2g, 0), g, 1)
    mxy = _correlate1d(_correlate1d(img, xg, 0), xg, 1)

    bx = mx / s2
    by = my / s2
    axy = mxy / (s2 * s2)

    # (c, axx, ayy) share a 3x3 system; invert it once.
    m = np.array([[1.0, s2, s2], [s2, s4, s2 * s2], [s2, s2 * s2, s4]])
    minv = np.linalg.inv(m)
    axx = minv[1, 0] * m00 + minv[1, 1] * mxx + minv[1, 2] * myy
    ayy = minv[2, 0] * m00 + minv[2, 1] * mxx + minv[2, 2] * myy
    return axx, ayy, axy, bx, by


def _bilinear_grid(field, sx, sy):
    h, w = field.shape
    sx = np.clip(sx, 0.0, w - 1.0)
    sy = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0
    return (
        field[y0, x0] * (1 - fx) * (1 - fy)
        + field[y0, x1] * fx * (1 - fy)
        + field[y1, x0] * (1 - fx) * fy
        + field[y1, x1] * fx * fy
    )


def _box_sum1d(img, size, axis):
    half = size // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (half, half)
    padded = np.pad(img, pad)  # zeros
    windows = sliding_window_view(padded, size, axis=axis)
    return windows.sum(axis=-1)


def _box_filter(img, size):
    """Mean over the size x size window clipped to the image bounds."""
    total = _box_sum1d(_box_sum1d(img, size, 0), size, 1)
    counts = _box_sum1d(_box_sum1d(np.ones_like(img), size, 0), size, 1)
    return total / counts


def farneback_dense(
    prev,
    nxt,
    sigma_expansion: float = 1.5,
    avg_window: int = 15,
    iterations: int = 3,
) -> FlowField:
    """Dense two-frame flow from per-pixel quadratic expansions."""
    prev, nxt = _check_pair(prev, nxt)
    if prev.shape[0] < 16 or prev.shape[1] < 16:
        raise SizeError(f"farneback needs at least 16x16 images, got {prev.shape}")
    if avg_window < 1 or avg_window % 2 == 0:
        raise SizeError(f"avg_window must be odd and >= 1, got {avg_window}")
    h, w = prev.shape

    axx1, ayy1, axy1, bx1, by1 = polynomial_expansion(prev, sigma_expansion)
    axx2, ayy2, axy2, bx2, by2 = polynomial_expansion(nxt, sigma_expansion)
    a11_1, a12_1, a22_1 = axx1, 0.5 * axy1, ayy1
    a11_2, a12_2, a22_2 = axx2, 0.5 * axy2, ayy2

    du = np.zeros((h, w))
    dv = np.zeros((h, w))
    valid = np.zeros((h, w), dtype=bool)

    for _ in range(max(1, iterations)):
        ys, xs = np.mgrid[0:h, 0:w]
        sx = xs + du
        sy = ys + dv
        n11 = 0.5 * (a11_1 + _bilinear_grid(a11_2, sx, sy))
        n12 = 0.5 * (a12_1 + _bilinear_grid(a12_2, sx, sy))
        n22 = 0.5 * (a22_1 + _bilinear_grid(a22_2, sx, sy))
        g1 = -0.5 * (_bilinear_grid(bx2, sx, sy) - bx1) + n11 * du + n12 * dv
        g2 = -0.5 * (_bilinear_grid(by2, sx, sy) - by1) + n12 * du + n22 * dv

        # Least squares over the neighborhood: box-average the normal
        # products A'A and A'db rather than the raw systems, so weak or
        # sign-flipping pixels cannot cancel their neighbors into a
        # near-singular average.
        m11 = _box_filter(n11 * n11 + n12 * n12, avg_window)
        m12 = _box_filter(n12 * (n11 + n22), avg_window)
        m22 = _box_filter(n12 * n12 + n22 * n22, avg_window)
        r1 = _box_filter(n11 * g1 + n12 * g2, avg_window)
        r2 = _box_filter(n12 * g1 + n22 * g2, avg_window)

        # det(A'A) = det(A)^2, so the det-of-A validity threshold squares.
        det = m11 * m22 - m12 * m12
        valid = np.abs(det) >= DET_EPS * DET_EPS
        safe = np.where(valid, det, 1.0)
        du = np.where(valid, (m22 * r1 - m12 * r2) / safe, 0.0)
        dv = np.where(valid, (m11 * r2 - m12 * r1) / safe, 0.0)

    return FlowField.dense(du, dv, valid)
