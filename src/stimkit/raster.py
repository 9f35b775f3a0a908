"""Rasterize head-keypoint windows into the network's input images.

Each window frame becomes a binary image, drawn straight from the
window's stacked ``coords``/``present`` arrays: present keypoints as filled
disks, skeleton edges as straight lines. One uniform scale per sequence
maps source-frame coordinates into the raster, preserving aspect ratio
and centering the letterboxed frame.

One batched kernel, :func:`stamp`, draws every primitive of a window
(and the arrows and dots of a flow overlay) over an (N, H, W) stack. A
disk is a zero-length segment, so one float64 test covers both: a pixel
is set when its integer coordinates lie within the primitive's radius
(the disk radius of a keypoint, half the line thickness of an edge) of
the segment, tested over the primitive's clipped bounding box.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .pose import HEAD_EDGES, HEAD_LABELS, KeypointSequence, center_coords

EDGE_INDEX = np.array(
    [(HEAD_LABELS.index(a), HEAD_LABELS.index(b)) for a, b in HEAD_EDGES], dtype=np.int64
)


@dataclass(frozen=True)
class RasterSpec:
    """Geometry of the rasterized window frames; the model decides which sizes it takes."""

    width: int = 64
    height: int = 64
    point_radius: float = 2.0
    line_thickness: float = 1.0
    center_mode: str = "sequence_mean"  # or "none"

    def __post_init__(self):
        for name in ("width", "height", "point_radius", "line_thickness"):
            if getattr(self, name) < 1:
                raise ConfigError(name, f"must be >= 1, got {getattr(self, name)}")
        if self.center_mode not in ("none", "sequence_mean"):
            raise ConfigError("center_mode", f"must be none|sequence_mean, got {self.center_mode!r}")

    def to_dict(self):
        return asdict(self)


@dataclass
class RasterClip:
    """T rasterized frames plus the label the trainer needs.

    ``source`` is the keypoint window it was drawn from: it carries the window's
    identity and the arrays that augmentation re-renders each epoch.
    """

    frames: np.ndarray  # (T, H, W) float32 in {0, 1}
    label: int  # 1 positive, 0 negative
    source: Optional[KeypointSequence] = None
    spec: Optional[RasterSpec] = field(default=None, repr=False)


_CHUNK_PIXELS = 1 << 17  # patch pixels per chunk: a float64 temporary stays near 1 MiB


def stamp(stack, frame, segments, radius) -> None:
    """Set every pixel of ``stack[frame[i]]`` within ``radius[i]`` of segment i.

    ``stack`` is (N, H, W) and written in place; ``segments`` is (P, 4) rows
    ``(ax, ay, bx, by)`` in pixels, ``frame`` and ``radius`` are (P,) or
    scalars. A disk is the zero-length segment ``(x, y, x, y)``. Each
    primitive is tested over its bounding box clipped to the image; boxes are
    sorted by area and padded to the largest in their chunk, and a chunk
    holds at most ``_CHUNK_PIXELS`` patch pixels (or one primitive).
    """
    _, h, w = stack.shape
    segments = np.asarray(segments, dtype=np.float64).reshape(-1, 4)
    ax, ay, bx, by = segments.T
    frame = np.broadcast_to(np.asarray(frame, dtype=np.intp), ax.shape)
    radius = np.broadcast_to(np.asarray(radius, dtype=np.float64), ax.shape)
    x0 = np.maximum(np.floor(np.minimum(ax, bx) - radius), 0)
    x1 = np.minimum(np.ceil(np.maximum(ax, bx) + radius), w - 1)
    y0 = np.maximum(np.floor(np.minimum(ay, by) - radius), 0)
    y1 = np.minimum(np.ceil(np.maximum(ay, by) + radius), h - 1)
    keep = (x1 >= x0) & (y1 >= y0) & np.isfinite(segments).all(axis=1)  # on-image, finite
    box_w = np.where(keep, x1 - x0 + 1, 0).astype(np.intp)
    box_h = np.where(keep, y1 - y0 + 1, 0).astype(np.intp)
    order = np.flatnonzero(keep)[np.argsort((box_w * box_h)[keep], kind="stable")]
    while len(order):
        patch_h = np.maximum.accumulate(box_h[order])
        patch_w = np.maximum.accumulate(box_w[order])
        pixels = np.arange(1, len(order) + 1) * patch_h * patch_w
        n = max(1, int(np.searchsorted(pixels, _CHUNK_PIXELS, side="right")))
        i, order = order[:n, None, None], order[n:]
        xs = x0[i] + np.arange(patch_w[n - 1])
        ys = y0[i] + np.arange(patch_h[n - 1])[:, None]
        ux = bx[i] - ax[i]
        uy = by[i] - ay[i]
        seg2 = ux * ux + uy * uy
        t = ((xs - ax[i]) * ux + (ys - ay[i]) * uy) / np.where(seg2 == 0.0, 1.0, seg2)
        t = np.minimum(np.maximum(t, 0.0), 1.0)
        dx = xs - (ax[i] + t * ux)
        dy = ys - (ay[i] + t * uy)
        inside = (dx * dx + dy * dy <= radius[i] * radius[i]) & (xs <= x1[i]) & (ys <= y1[i])
        k, r, c = np.nonzero(inside)
        j = i[k, 0, 0]
        stack[frame[j], y0[j].astype(np.intp) + r, x0[j].astype(np.intp) + c] = 1


def render_frames(coords, present, frame_size, spec: RasterSpec) -> np.ndarray:
    """Rasterize stacked window coordinates.

    ``coords`` is (T, 6, 2) in source-frame pixels, ``present`` (T, 6)
    bool. Applies the spec's centering, the uniform aspect-preserving
    scale, and draws disks plus present-endpoint edges.
    """
    coords = np.asarray(coords, dtype=np.float64)
    present = np.asarray(present, dtype=bool)
    n_frames = coords.shape[0]

    if spec.center_mode == "sequence_mean":
        coords = center_coords(coords, present, frame_size)

    src_w, src_h = float(frame_size[0]), float(frame_size[1])
    scale = min(spec.width / src_w, spec.height / src_h)
    offset = np.array([(spec.width - scale * src_w) / 2.0, (spec.height - scale * src_h) / 2.0])
    mapped = coords * scale + offset

    frames = np.zeros((n_frames, spec.height, spec.width), dtype=np.float32)
    half_thick = max(spec.line_thickness / 2.0, 0.5)
    t_pts, k_pts = np.nonzero(present)
    t_edges, k_edges = np.nonzero(present[:, EDGE_INDEX[:, 0]] & present[:, EDGE_INDEX[:, 1]])
    a, b = EDGE_INDEX[k_edges].T
    points = mapped[t_pts, k_pts]
    segments = np.concatenate([np.hstack([points, points]), np.hstack([mapped[t_edges, a], mapped[t_edges, b]])])
    radius = np.repeat([spec.point_radius, half_thick], [len(t_pts), len(t_edges)])
    stamp(frames, np.concatenate([t_pts, t_edges]), segments, radius)
    return frames


def rasterize(seq: KeypointSequence, spec: RasterSpec = RasterSpec()) -> RasterClip:
    """Render a keypoint window into T binary images."""
    frames = render_frames(seq.coords, seq.present, seq.frame_size, spec)
    return RasterClip(frames=frames, label=int(seq.label == "positive"), source=seq, spec=spec)
