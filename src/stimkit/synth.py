"""Deterministic synthetic keypoint clips for end-to-end testing.

Two classes of clip share identical camera behavior and differ only in
head motion: the positive class oscillates the whole head cluster along
one axis at a fixed frequency, the negative class keeps it still. Both
get per-keypoint Gaussian jitter, an optional shared random-walk camera
drift (applied identically to every keypoint, like a handheld camera),
and independent detection dropout. Any classifier signal therefore has
to come from the oscillation, never from camera motion.

All randomness flows through per-clip generators derived from
``(seed, crc32(clip_id))``, so generation is reproducible and
order-independent.

``flow_texture`` draws the grayscale frames that the optical-flow
baselines are measured and tested on.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SizeError, ValidationError
from .pose import HEAD_INDICES, N_BODY_PARTS, ClipRecord, write_keypoint_file, write_manifest

FRAME_WIDTH = 640
FRAME_HEIGHT = 480
FPS = 30.0

# Head template: offsets from the head anchor in units of inter-ear
# distance, (x right, y down). Rows follow HEAD_INDICES order:
# nose, neck, right_eye, left_eye, right_ear, left_ear.
HEAD_TEMPLATE = np.array(
    [
        [0.00, 0.00],
        [0.00, 0.90],
        [-0.16, -0.12],
        [0.16, -0.12],
        [-0.50, -0.05],
        [0.50, -0.05],
    ]
)

# Documented draw ranges for generated subjects.
BASE_X_RANGE = (200.0, 440.0)
BASE_Y_RANGE = (140.0, 300.0)
HEAD_SCALE_RANGE = (40.0, 80.0)
JITTER_SIGMA_RANGE = (0.5, 1.5)
DROPOUT_RANGE = (0.0, 0.08)

# Oscillation parameter draw ranges for generated positive clips. The
# frequency envelope allowed by MotionParams is [1, 3] Hz, but dataset
# draws stop at 2.5 Hz: with zero phase and 5-frame sampling at 30 fps,
# frequencies approaching 3 Hz land near the sampled Nyquist and their
# sampled displacement collapses toward zero.
FREQUENCY_DRAW_RANGE = (1.0, 2.5)
AMPLITUDE_DRAW_RANGE = (0.05, 0.15)
CLIP_LENGTH_CHOICES = (45, 60, 75)


@dataclass(frozen=True)
class SubjectProfile:
    subject_id: str
    base_position: tuple[float, float]
    head_scale: float  # inter-ear distance, pixels
    keypoint_jitter_sigma: float
    detection_dropout_prob: float

    def __post_init__(self):
        if self.head_scale <= 0:
            raise ValidationError(f"head_scale must be > 0, got {self.head_scale}")
        if not 0.0 <= self.detection_dropout_prob < 0.5:
            raise ValidationError(f"dropout must be in [0, 0.5), got {self.detection_dropout_prob}")


@dataclass(frozen=True)
class MotionParams:
    class_name: str  # "headbanging" | "stable"
    frequency: float = 2.0  # Hz, oscillation rate
    amplitude: float = 0.1  # fraction of frame height
    axis: tuple[float, float] = (0.0, 1.0)
    camera_drift_sigma: float = 0.0  # px per frame random-walk step

    def __post_init__(self):
        if self.class_name not in ("headbanging", "stable"):
            raise ValidationError(f"class_name must be headbanging|stable, got {self.class_name!r}")
        if self.class_name == "stable":
            object.__setattr__(self, "amplitude", 0.0)
        elif not 1.0 <= self.frequency <= 3.0:
            raise ValidationError(f"frequency must be in [1, 3] Hz, got {self.frequency}")
        if self.class_name == "headbanging" and not 0.05 <= self.amplitude <= 0.15:
            raise ValidationError(f"amplitude must be in [0.05, 0.15], got {self.amplitude}")
        norm = math.hypot(*self.axis)
        if abs(norm - 1.0) > 1e-6:
            raise ValidationError(f"axis must be a unit vector, got {self.axis}")
        _check_drift(self.camera_drift_sigma)

    @property
    def label(self) -> str:
        return "positive" if self.class_name == "headbanging" else "negative"


def _check_drift(sigma: float) -> None:
    # NaN would pass as no drift (it fails `> 0`); a sigma near the float range overflows the random walk
    if not 0 <= sigma <= MAX_DRIFT:
        raise ValidationError(f"camera_drift_sigma must be in [0, {MAX_DRIFT:g}], got {sigma}")


def clip_rng(seed: int, clip_id: str) -> np.random.Generator:
    """Per-clip generator derived from (seed, crc32(clip_id))."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, zlib.crc32(clip_id.encode())))))


# Ids pad a subject to 3 digits (synth_{i:03d}) and a clip to 2 ({subject}_c{k:02d}), so they sort in order up to
# these counts.
MAX_SUBJECTS = 1000
MAX_CLIPS_PER_SUBJECT = 100
# Camera random-walk step sigma, px/frame. One step of this size carries the head over a thousand frame
# widths; far below the float range, it keeps every coordinate of a clip, and its square in the raster's
# segment lengths, finite.
MAX_DRIFT = 1e6


def gen_profiles(n_subjects: int, rng: np.random.Generator) -> list[SubjectProfile]:
    """Draw n subject profiles from the documented ranges."""
    if not 1 <= n_subjects <= MAX_SUBJECTS:
        raise ValidationError(f"n_subjects must be in 1..{MAX_SUBJECTS}, got {n_subjects}")
    profiles = []
    for i in range(n_subjects):
        profiles.append(
            SubjectProfile(
                subject_id=f"synth_{i:03d}",
                base_position=(
                    float(rng.uniform(*BASE_X_RANGE)),
                    float(rng.uniform(*BASE_Y_RANGE)),
                ),
                head_scale=float(rng.uniform(*HEAD_SCALE_RANGE)),
                keypoint_jitter_sigma=float(rng.uniform(*JITTER_SIGMA_RANGE)),
                detection_dropout_prob=float(rng.uniform(*DROPOUT_RANGE)),
            )
        )
    return profiles


def gen_clip(
    profile: SubjectProfile,
    params: MotionParams,
    n_frames: int,
    rng: np.random.Generator,
    clip_id: str | None = None,
) -> tuple[np.ndarray, ClipRecord]:
    """Generate one clip's (n_frames, 25, 3) keypoints plus its manifest record.

    The head template sits at the subject's base position; positive clips
    add ``A * sin(2*pi*f*t/FPS)`` along the motion axis to the whole
    cluster. The camera random walk translates every keypoint of a frame
    by the same offset. The record's keypoint_source is left empty until
    the clip is written to disk.
    """
    if n_frames < 35:
        raise SizeError(f"n_frames must be >= 35 (one full window), got {n_frames}")
    if clip_id is None:
        clip_id = f"{profile.subject_id}_clip"

    template = HEAD_TEMPLATE * profile.head_scale + np.asarray(profile.base_position)
    axis = np.asarray(params.axis)
    amplitude_px = params.amplitude * FRAME_HEIGHT
    drift, sigma = params.camera_drift_sigma, profile.keypoint_jitter_sigma

    # The draws stay per frame and in this order (camera step, jitter,
    # dropout, confidence): the generator's stream, and so every written
    # byte, depends on it. Everything else is computed for all frames at once.
    steps = np.zeros((n_frames, 2))
    jitter = np.empty((n_frames, 6, 2)) if sigma > 0 else None
    dropout_draws = np.empty((n_frames, 6))
    conf = np.empty((n_frames, 6))
    for t in range(n_frames):
        if t > 0 and drift > 0:
            steps[t] = rng.normal(0.0, drift, size=2)
        if jitter is not None:
            jitter[t] = rng.normal(0.0, sigma, size=(6, 2))
        dropout_draws[t] = rng.random(6)
        conf[t] = rng.uniform(0.6, 1.0, size=6)

    # cumsum adds the steps one frame after another, as a running sum would
    camera = np.cumsum(steps, axis=0)
    # math.sin as the per-frame loop had it: np.sin's last bit may differ on other builds
    osc = np.array([amplitude_px * math.sin(2.0 * math.pi * params.frequency * t / FPS) for t in range(n_frames)])
    pts = template + (osc[:, None] * axis)[:, None, :] + camera[:, None, :]
    if jitter is not None:
        pts = pts + jitter

    head = np.empty((n_frames, 6, 3))
    head[:, :, :2] = pts
    head[:, :, 2] = conf
    head[dropout_draws < profile.detection_dropout_prob] = 0.0
    kps = np.zeros((n_frames, N_BODY_PARTS, 3))
    kps[:, HEAD_INDICES] = head

    record = ClipRecord(
        clip_id=clip_id,
        subject_id=profile.subject_id,
        label=params.label,
        fps=FPS,
        keypoint_source="",
        frame_range=(0, n_frames - 1),
    )
    return kps, record


def _rounded(frames: np.ndarray) -> np.ndarray:
    """``frames`` with every value rounded to 3 decimals, as the keypoint files hold them."""
    # most values are absent parts' zeros, which round() would return
    # unchanged; Python's round on the float, not np.round, fixes the bytes
    return np.array([round(v, 3) if v else v for v in frames.ravel().tolist()]).reshape(frames.shape)


def gen_dataset(
    out_dir,
    n_subjects: int = 12,
    clips_per_subject: int = 6,
    seed: int = 0,
    camera_drift_sigma: float = 1.5,
) -> Path:
    """Generate a labeled dataset on disk; returns the manifest path.

    Per subject, the first half of the clips is positive (oscillating),
    the rest negative (stable). Frequency, amplitude, and clip length are
    drawn per clip; camera drift applies equally to both classes.
    """
    if not 1 <= clips_per_subject <= MAX_CLIPS_PER_SUBJECT:
        raise ValidationError(f"clips_per_subject must be in 1..{MAX_CLIPS_PER_SUBJECT}, got {clips_per_subject}")
    _check_drift(camera_drift_sigma)
    profiles = gen_profiles(n_subjects, clip_rng(seed, "profiles"))
    out_dir = Path(out_dir)
    (out_dir / "keypoints").mkdir(parents=True, exist_ok=True)
    n_positive = clips_per_subject // 2 + clips_per_subject % 2

    manifest_clips = []
    for profile in profiles:
        for k in range(clips_per_subject):
            clip_id = f"{profile.subject_id}_c{k:02d}"
            rng = clip_rng(seed, clip_id)
            positive = k < n_positive
            params = MotionParams(
                class_name="headbanging" if positive else "stable",
                frequency=float(rng.uniform(*FREQUENCY_DRAW_RANGE)),
                amplitude=float(rng.uniform(*AMPLITUDE_DRAW_RANGE)) if positive else 0.0,
                camera_drift_sigma=camera_drift_sigma,
            )
            n_frames = int(rng.choice(CLIP_LENGTH_CHOICES))
            frames, record = gen_clip(profile, params, n_frames, rng, clip_id)
            rel_path = f"keypoints/{clip_id}.json"
            write_keypoint_file(out_dir / rel_path, _rounded(frames))
            manifest_clips.append((clip_id, record.subject_id, record.label, record.fps, rel_path, *record.frame_range))

    manifest_path = out_dir / "manifest.json"
    write_manifest(manifest_path, (FRAME_WIDTH, FRAME_HEIGHT), manifest_clips)
    return manifest_path


def flow_texture(side: int, shift=(0.0, 0.0)) -> np.ndarray:
    """A smooth side x side grayscale frame in [0, 1] of two sinusoid terms.

    ``shift`` = (dx, dy) evaluates the same function moved by that many
    pixels, so two frames differ by a known camera shift.
    """
    ys, xs = np.mgrid[0:side, 0:side].astype(np.float64)
    xs -= shift[0]
    ys -= shift[1]
    img = np.sin(2 * np.pi * xs / 32) * np.cos(2 * np.pi * ys / 24) + 0.5 * np.sin(2 * np.pi * (xs + ys) / 40)
    return (img - img.min()) / (img.max() - img.min())
