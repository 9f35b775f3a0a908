"""Rendering of flow fields: hue/intensity panels and arrow overlays."""

from __future__ import annotations

import numpy as np

from .errors import SizeError
from .flow import FlowField
from .raster import stamp


_HUE_GRID = 2.0**43  # hue snapped to multiples of 2^-43 deg: 180 + hue is then
# exact in float64, so antipodal pairs differ by exactly 180.


def flow_hue_degrees(u, v):
    """Direction as hue in [0, 360); antipodal vectors differ by exactly 180.

    Vectors in the open lower half-plane (and the negative x axis) are
    mapped through their antipode plus 180 degrees, and hues are snapped
    to a 2^-43-degree grid, so the pair (u, v) / (-u, -v) always lands
    exactly 180 apart.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    upper = (v > 0) | ((v == 0) & (u >= 0))
    base = np.degrees(np.arctan2(np.where(upper, v, -v), np.where(upper, u, -u)))
    base = np.round(base * _HUE_GRID) / _HUE_GRID
    hue = np.where(upper, base, 180.0 + base)
    return np.where(hue >= 360.0, hue - 360.0, hue)


# per hue sector of 60 degrees, the component that r, g and b take: 0 = v, 1 = p, 2 = q,
# 3 = t. Sector 6 is sector 0 again: (h % 360) / 60 rounds up to 6.0 for h just below 0.
_SECTOR_RGB = np.array([[0, 3, 1], [2, 0, 1], [1, 0, 3], [1, 2, 0], [3, 1, 0], [0, 1, 2], [0, 3, 1]])


def _hsv_to_rgb(h_deg, s, v):
    """Vectorized HSV -> RGB, hue in degrees, s and v in [0, 1]."""
    h6 = (h_deg % 360.0) / 60.0
    sector = np.floor(h6)
    f = h6 - sector
    v = np.broadcast_to(v, f.shape)
    components = np.stack([v, v * (1.0 - s), v * (1.0 - s * f), v * (1.0 - s * (1.0 - f))], axis=-1)
    # a NaN hue takes sector 6 rather than an index out of the table
    pick = _SECTOR_RGB[np.fmin(sector, 6.0).astype(np.intp)]
    pick += np.arange(0, components.size, 4).reshape(f.shape + (1,))
    return components.reshape(-1)[pick]


def flow_to_hsv(flow: FlowField, max_magnitude: float | None = None) -> np.ndarray:
    """Dense flow as an RGB image: hue = direction, intensity = magnitude.

    Saturation is 1, invalid pixels are black, and when ``max_magnitude``
    is not given it autoscales to the 95th percentile of valid magnitudes.
    Returns float64 (H, W, 3) in [0, 1].
    """
    if flow.kind != "dense":
        raise SizeError("flow_to_hsv renders dense fields; use render_arrows for sparse grids")
    u, v, valid = flow.grids()
    mag = np.hypot(u, v)
    if max_magnitude is None:
        vm = mag[valid]
        max_magnitude = float(np.percentile(vm, 95)) if vm.size else 0.0
    if max_magnitude <= 0:
        return np.zeros(u.shape + (3,))
    intensity = np.clip(mag / max_magnitude, 0.0, 1.0)
    intensity = np.where(valid, intensity, 0.0)
    hue = flow_hue_degrees(u, v)
    return _hsv_to_rgb(hue, 1.0, intensity)


def render_arrows(
    flow: FlowField,
    background: np.ndarray | None = None,
    shape: tuple[int, int] | None = None,
    scale: float = 1.0,
) -> np.ndarray:
    """Sparse flow as dots plus motion segments, optionally over an image.

    Isolation mode (no background) draws on a black canvas of ``shape``
    (H, W); one of the two must be given. Returns float64 (H, W, 3) RGB
    in [0, 1].
    """
    if flow.kind != "sparse_grid":
        raise SizeError("render_arrows renders sparse grids; use flow_to_hsv for dense fields")
    if background is not None:
        bg = np.asarray(background, dtype=np.float64)
        canvas = np.stack([bg, bg, bg], axis=-1)
        h, w = bg.shape
    elif shape is not None:
        h, w = shape
        canvas = np.zeros((h, w, 3))
    else:
        raise SizeError("render_arrows needs a background image or a canvas shape")

    masks = np.zeros((2, h, w), dtype=bool)  # motion segments, dots
    pts = flow.points[flow.valid]
    if len(pts):
        segments = np.concatenate([pts, pts + scale * flow.vectors[flow.valid]], axis=1)
        stamp(masks[:1], 0, segments, 0.5)
        stamp(masks[1:], 0, np.concatenate([pts, pts], axis=1), 1.0)
    canvas[masks[0]] = (0.0, 1.0, 0.0)
    canvas[masks[1]] = (1.0, 0.2, 0.2)
    return canvas
