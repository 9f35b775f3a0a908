"""Training-time geometric augmentation on keypoint coordinates.

Rotation and zoom are applied to the keypoints themselves, before
rasterization, so the transforms are exact (no pixel interpolation).
:func:`rotate_zoom` is the one implementation: it maps a window's stacked
``(T, 6, 2)`` coords (or one frame's ``(6, 2)``) about the frame center.
Rotation follows the standard counterclockwise convention in a y-up
frame; with image coordinates (y down) the drawn result turns clockwise.

``per_clip`` mode (the default) draws one rotation/zoom pair per window
per epoch, keeping frame-to-frame motion coherent. ``per_frame`` redraws
for every frame, which scrambles the temporal signal and exists for
fidelity experiments only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .pose import KeypointSequence
from .raster import RasterClip, render_frames


@dataclass(frozen=True)
class AugmentSpec:
    rotation_range: tuple[float, float] = (-45.0, 45.0)  # degrees
    zoom_range: tuple[float, float] = (1.0, 2.0)  # zoom-in factor
    mode: str = "per_clip"  # or "per_frame"

    def __post_init__(self):
        lo, hi = self.rotation_range
        if not (-180.0 <= lo <= hi <= 180.0):
            raise ConfigError("rotation_range", f"must be ordered within [-180, 180], got {self.rotation_range}")
        if abs(lo + hi) > 1e-9:
            raise ConfigError("rotation_range", f"must be symmetric about 0, got {self.rotation_range}")
        zlo, zhi = self.zoom_range
        if zlo < 1.0 or zhi < zlo:
            raise ConfigError("zoom_range", f"must satisfy 1.0 <= lo <= hi, got {self.zoom_range}")
        if self.mode not in ("per_clip", "per_frame"):
            raise ConfigError("mode", f"must be per_clip|per_frame, got {self.mode!r}")

    def to_dict(self):
        return asdict(self)


def rotation_matrix(theta_degrees: float) -> np.ndarray:
    """CCW rotation in a y-up frame (clockwise as drawn with image y-down)."""
    rad = math.radians(theta_degrees)
    c, s = math.cos(rad), math.sin(rad)
    return np.array([[c, -s], [s, c]])


def rotate_zoom(coords: np.ndarray, frame_size, theta_degrees: float, factor: float) -> np.ndarray:
    """Rotate by theta, then zoom by factor >= 1, about the frame center.

    ``coords`` is any (..., 2) array of source-frame pixels; a new array is
    returned. Zoom commutes with rotation (isotropic), so one combined
    matrix applies both in a single pass.
    """
    if factor < 1.0:
        raise ValidationError(f"zoom factor must be >= 1.0, got {factor}")
    center = np.array([frame_size[0] / 2.0, frame_size[1] / 2.0])
    matrix = factor * rotation_matrix(theta_degrees)
    return (coords - center) @ matrix.T + center


def draw_augmentation(spec: AugmentSpec, rng: np.random.Generator) -> tuple[float, float]:
    """Draw one (rotation degrees, zoom factor) pair from the spec's ranges."""
    theta = rng.uniform(spec.rotation_range[0], spec.rotation_range[1])
    factor = rng.uniform(spec.zoom_range[0], spec.zoom_range[1])
    return theta, factor


def augment_coords(seq: KeypointSequence, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    """One epoch's randomly rotated and zoomed copy of a window's coords.

    Draws one (theta, factor) pair per window, or one per frame in
    ``per_frame`` mode, rotation first, about the center of the window's frame.
    """
    if spec.mode == "per_clip":
        return rotate_zoom(seq.coords, seq.frame_size, *draw_augmentation(spec, rng))
    return np.stack([rotate_zoom(frame, seq.frame_size, *draw_augmentation(spec, rng)) for frame in seq.coords])


def make_training_augmenter(spec: AugmentSpec):
    """Augmenter for the trainer: RasterClip -> freshly augmented RasterClip.

    Requires clips rasterized from keypoint windows (``clip.source`` and
    ``clip.spec`` set); the window's coords go through
    :func:`augment_coords` and are re-rendered with the clip's own raster
    geometry, so augmentation happens in exact coordinate space.
    """

    def augment(clip: RasterClip, rng: np.random.Generator) -> RasterClip:
        seq = clip.source
        if seq is None or clip.spec is None:
            raise ValidationError("cannot augment a raster clip without its keypoint source and raster spec")
        coords = augment_coords(seq, spec, rng)
        frames = render_frames(coords, seq.present, seq.frame_size, clip.spec)
        return RasterClip(frames=frames, label=clip.label, source=seq, spec=clip.spec)

    return augment
