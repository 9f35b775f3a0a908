"""Rasterize head-keypoint windows into the network's input images.

Each window frame becomes a binary image: present keypoints as filled
disks, skeleton edges as straight lines. One uniform scale per sequence
maps source-frame coordinates into the raster, preserving aspect ratio
and centering the letterboxed frame.

Each primitive is stamped with numpy over its bounding box: a pixel is
set when its integer coordinates lie within the disk radius of a
keypoint, or within half the line thickness of an edge segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidSequenceError, ValidationError
from .pose import HEAD_EDGES, HEAD_LABELS, KeypointSequence, effective_frame_size

EDGE_INDEX = np.array(
    [(HEAD_LABELS.index(a), HEAD_LABELS.index(b)) for a, b in HEAD_EDGES], dtype=np.int64
)


@dataclass(frozen=True)
class RasterSpec:
    """Geometry of the rasterized window frames."""

    width: int = 64
    height: int = 64
    point_radius: float = 2.0
    line_thickness: float = 1.0
    center_mode: str = "sequence_mean"  # or "none"

    def __post_init__(self):
        if self.width < 16 or self.height < 16:
            raise ValidationError(f"raster size must be >= 16x16, got {self.width}x{self.height}")
        if self.point_radius < 1:
            raise ValidationError(f"point_radius must be >= 1, got {self.point_radius}")
        if self.line_thickness < 1:
            raise ValidationError(f"line_thickness must be >= 1, got {self.line_thickness}")
        if self.center_mode not in ("none", "sequence_mean"):
            raise ValidationError(f"center_mode must be none|sequence_mean, got {self.center_mode!r}")

    def to_dict(self):
        return {
            "width": self.width,
            "height": self.height,
            "point_radius": self.point_radius,
            "line_thickness": self.line_thickness,
            "center_mode": self.center_mode,
        }


@dataclass
class RasterClip:
    """T rasterized frames plus the labels the trainer needs.

    ``source`` keeps the keypoint window this clip was drawn from so that
    augmentation can re-rasterize with fresh geometry each epoch.
    """

    frames: np.ndarray  # (T, H, W) float32 in {0, 1}
    label: int  # 1 positive, 0 negative
    subject_id: str
    clip_id: str = ""
    origin_frame: int = 0
    source: Optional[KeypointSequence] = None
    spec: Optional[RasterSpec] = field(default=None, repr=False)


def _stamp_disk(img, cx, cy, radius):
    h, w = img.shape
    r2 = radius * radius
    x0 = max(int(np.floor(cx - radius)), 0)
    x1 = min(int(np.ceil(cx + radius)), w - 1)
    y0 = max(int(np.floor(cy - radius)), 0)
    y1 = min(int(np.ceil(cy + radius)), h - 1)
    if x1 < x0 or y1 < y0:
        return
    ys, xs = np.mgrid[y0 : y1 + 1, x0 : x1 + 1]
    dx = xs - cx
    dy = ys - cy
    img[y0 : y1 + 1, x0 : x1 + 1][dx * dx + dy * dy <= r2] = 1.0


def _stamp_segment(img, ax, ay, bx, by, half_thick):
    h, w = img.shape
    t2 = half_thick * half_thick
    x0 = max(int(np.floor(min(ax, bx) - half_thick)), 0)
    x1 = min(int(np.ceil(max(ax, bx) + half_thick)), w - 1)
    y0 = max(int(np.floor(min(ay, by) - half_thick)), 0)
    y1 = min(int(np.ceil(max(ay, by) + half_thick)), h - 1)
    if x1 < x0 or y1 < y0:
        return
    ys, xs = np.mgrid[y0 : y1 + 1, x0 : x1 + 1]
    ux = bx - ax
    uy = by - ay
    seg2 = ux * ux + uy * uy
    if seg2 == 0.0:
        dx = xs - ax
        dy = ys - ay
    else:
        t = ((xs - ax) * ux + (ys - ay) * uy) / seg2
        t = np.minimum(np.maximum(t, 0.0), 1.0)
        dx = xs - (ax + t * ux)
        dy = ys - (ay + t * uy)
    img[y0 : y1 + 1, x0 : x1 + 1][dx * dx + dy * dy <= t2] = 1.0


def draw_primitives(img, centers, radius, segments, half_thick):
    """Stamp disks and thick segments into one float32 image in place."""
    for cx, cy in np.asarray(centers, dtype=np.float64).reshape(-1, 2):
        _stamp_disk(img, cx, cy, radius)
    for ax, ay, bx, by in np.asarray(segments, dtype=np.float64).reshape(-1, 4):
        _stamp_segment(img, ax, ay, bx, by, half_thick)


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
        if not present.any():
            raise InvalidSequenceError("no present keypoints in sequence")
        centroid = coords[present].mean(axis=0)
        shift = np.array([frame_size[0] / 2.0, frame_size[1] / 2.0]) - centroid
        if np.abs(shift).max() >= 1e-9:
            coords = np.where(present[:, :, None], coords + shift, coords)

    src_w, src_h = float(frame_size[0]), float(frame_size[1])
    scale = min(spec.width / src_w, spec.height / src_h)
    offset = np.array([(spec.width - scale * src_w) / 2.0, (spec.height - scale * src_h) / 2.0])
    mapped = coords * scale + offset

    frames = np.zeros((n_frames, spec.height, spec.width), dtype=np.float32)
    half_thick = max(spec.line_thickness / 2.0, 0.5)
    for t in range(n_frames):
        img, pts = frames[t], mapped[t]
        for cx, cy in pts[present[t]]:
            _stamp_disk(img, cx, cy, spec.point_radius)
        both = present[t, EDGE_INDEX[:, 0]] & present[t, EDGE_INDEX[:, 1]]
        for a, b in EDGE_INDEX[both]:
            _stamp_segment(img, pts[a, 0], pts[a, 1], pts[b, 0], pts[b, 1], half_thick)
    return frames


def sequence_arrays(seq: KeypointSequence) -> tuple[np.ndarray, np.ndarray]:
    """Stack a window's coordinates and presence flags: (T,6,2), (T,6)."""
    coords = np.stack([f.coords for f in seq.frames])
    present = np.stack([f.present for f in seq.frames])
    return coords, present


def rasterize(seq: KeypointSequence, spec: RasterSpec = RasterSpec()) -> RasterClip:
    """Render a keypoint window into T binary images."""
    coords, present = sequence_arrays(seq)
    frames = render_frames(coords, present, effective_frame_size(seq), spec)
    return RasterClip(
        frames=frames,
        label=1 if seq.label == "positive" else 0,
        subject_id=seq.subject_id,
        clip_id=seq.clip_id,
        origin_frame=seq.origin_frame,
        source=seq,
        spec=spec,
    )
