"""Keypoint files and manifests, read and written here; head-region feature extraction.

The pipeline consumes 25-landmark body keypoints (the common "BODY_25"
layout emitted by pose estimators): a clip loads as one ``(n, 25, 3)``
array of x, y, confidence rows, where frame i is row i. It keeps only the
six head-region parts (a :class:`HeadPose` of ``(6, 2)`` coordinates and
``(6,)`` presence per frame), slices clips into fixed-length temporal
windows sampled every few frames (a :class:`KeypointSequence` of stacked
``(T, 6, 2)``/``(T, 6)`` arrays), and optionally re-centers each window on
its mean head position (:func:`center_coords`) so that frame-global camera
translation does not move the head around the raster.

Coordinate convention throughout: x right, y down, pixels of the source
video frame.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    ConfigError,
    ConflictError,
    InvalidSequenceError,
    KeypointFormatError,
    KeypointParseError,
    SchemaError,
    ValidationError,
)
from .spec import decode_json, json_value, write_atomic

log = logging.getLogger("stimkit.pose")

N_BODY_PARTS = 25

# Head-region subset of the 25-part layout: HEAD_LABELS[i] is part HEAD_INDICES[i].
HEAD_LABELS = ("nose", "neck", "right_eye", "left_eye", "right_ear", "left_ear")
HEAD_INDICES = (0, 1, 15, 16, 17, 18)

# Skeleton edges drawn between head parts, as label pairs.
HEAD_EDGES = (
    ("nose", "neck"),
    ("nose", "right_eye"),
    ("nose", "left_eye"),
    ("right_eye", "right_ear"),
    ("left_eye", "left_ear"),
)

DEFAULT_CONFIDENCE_THRESHOLD = 0.1

# A window is kept only if at least this fraction of its frames is valid
# (a frame is valid with >= 2 present points).
MIN_VALID_FRACTION = 0.7
MIN_POINTS_PER_FRAME = 2


class HeadPose(NamedTuple):
    """The six head keypoints of one frame, with presence flags.

    ``coords`` rows follow :data:`HEAD_LABELS` order. A part is present when
    its detection confidence met the threshold; absent rows are zeros.
    """

    coords: np.ndarray  # (6, 2) float64
    present: np.ndarray  # (6,) bool


@dataclass(frozen=True)
class ClipRecord:
    """One manifest entry: where a clip's keypoints live and who is in it."""

    clip_id: str
    subject_id: str
    label: str  # "positive" | "negative"
    fps: float
    keypoint_source: str
    frame_range: tuple[int, int]  # inclusive

    def __post_init__(self):
        if self.label not in ("positive", "negative"):
            raise ValidationError(f"clip {self.clip_id!r}: label must be positive|negative, got {self.label!r}")
        if self.fps <= 0:
            raise ValidationError(f"clip {self.clip_id!r}: fps must be > 0, got {self.fps}")
        start, end = self.frame_range
        if start < 0:
            raise ValidationError(f"clip {self.clip_id!r}: start_frame must be >= 0, got {start}")
        if start > end:
            raise ValidationError(f"clip {self.clip_id!r}: start_frame {start} > end_frame {end}")


@dataclass(frozen=True)
class Manifest:
    """A validated dataset manifest: frame geometry plus clip records."""

    frame_width: int
    frame_height: int
    clips: tuple[ClipRecord, ...]
    base_dir: Path

    @property
    def frame_size(self) -> tuple[int, int]:
        return (self.frame_width, self.frame_height)

    def resolve_source(self, record: ClipRecord) -> Path:
        p = Path(record.keypoint_source)
        return p if p.is_absolute() else self.base_dir / p


@dataclass
class KeypointSequence:
    """T sampled head poses of one clip, stacked: the unit of classification.

    Rows follow :data:`HEAD_LABELS` order; absent points are zeros with
    ``present`` False. Frame t was sampled at ``origin_frame + t*stride``.
    """

    clip_id: str
    subject_id: str
    label: str
    coords: np.ndarray  # (T, 6, 2) float64
    present: np.ndarray  # (T, 6) bool
    stride: int
    origin_frame: int
    frame_size: tuple[float, float]  # (width, height) of the source frame, in pixels

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.present = np.asarray(self.present, dtype=bool)
        T = self.coords.shape[:1]
        if (self.coords.shape, self.present.shape) != (T + (6, 2), T + (6,)):
            raise ValidationError(
                f"clip {self.clip_id!r}: window arrays must be (T, 6, 2), (T, 6); got "
                f"{self.coords.shape}, {self.present.shape}"
            )

    @property
    def T(self) -> int:
        return self.coords.shape[0]

    @property
    def frame_indices(self) -> np.ndarray:
        """Source frame index of each window frame."""
        return self.origin_frame + self.stride * np.arange(self.T)

    def copy(self) -> "KeypointSequence":
        return replace(self, coords=self.coords.copy(), present=self.present.copy())

    def frame_centroids(self) -> np.ndarray:
        """(T, 2) per-frame centroid over present points; NaN rows if empty."""
        sums = np.where(self.present[:, :, None], self.coords, 0.0).sum(axis=1)
        with np.errstate(invalid="ignore"):  # 0/0 gives the NaN rows
            return sums / self.present.sum(axis=1)[:, None]


def _head_confidence_sum(flat: np.ndarray) -> float:
    return float(sum(flat[3 * i + 2] for i in HEAD_INDICES))


def parse_pose_document(doc: dict, frame_index: int, source: str = "<memory>") -> np.ndarray:
    """The (25, 3) keypoints of one decoded per-frame JSON document; ``frame_index`` names it in errors."""
    if not isinstance(doc, dict) or "people" not in doc:
        raise KeypointFormatError(f"{source}: frame {frame_index}: missing 'people' array")
    people = doc["people"]
    if not isinstance(people, list):
        raise KeypointFormatError(f"{source}: frame {frame_index}: 'people' is not an array")
    if len(people) == 0:
        return np.zeros((N_BODY_PARTS, 3))

    best = None
    best_score = -1.0
    for person in people:
        if not isinstance(person, dict) or person.get("pose_keypoints_2d") is None:
            raise KeypointFormatError(f"{source}: frame {frame_index}: person missing 'pose_keypoints_2d'")
        try:
            flat = np.asarray(person["pose_keypoints_2d"], dtype=np.float64)
            numeric = flat.ndim == 1 and bool(np.isfinite(flat).all())
        except (TypeError, ValueError, OverflowError):
            numeric = False
        if not numeric:
            raise KeypointFormatError(
                f"{source}: frame {frame_index}: 'pose_keypoints_2d' must be a flat array of finite numbers"
            )
        if flat.size % 3 != 0:
            raise KeypointFormatError(
                f"{source}: frame {frame_index}: keypoint array length {flat.size} not divisible by 3"
            )
        if flat.size != 3 * N_BODY_PARTS:
            raise KeypointFormatError(
                f"{source}: frame {frame_index}: expected {3 * N_BODY_PARTS} values "
                f"(25 keypoints), got {flat.size}"
            )
        score = _head_confidence_sum(flat)
        if score > best_score:
            best_score = score
            best = flat

    kps = best.reshape(N_BODY_PARTS, 3).copy()
    np.clip(kps[:, 2], 0.0, 1.0, out=kps[:, 2])
    return kps


def import_openpose_frame(raw_json: bytes, frame_index: int = 0, source: str = "<memory>") -> np.ndarray:
    """Parse one per-frame keypoint JSON blob into its (25, 3) keypoints.

    When several people are present, the one with the largest summed head
    confidence wins; an empty ``people`` array yields an all-absent frame.
    """
    return parse_pose_document(decode_json(raw_json, source), frame_index, source)


def load_clip_frames(path, frame_range: Optional[tuple[int, int]] = None) -> np.ndarray:
    """Load a clip's keypoints, one (25, 3) row per frame, from a directory or a consolidated file.

    A directory is read as per-frame JSON files in lexicographic order;
    a single file must hold a JSON array of per-frame documents in frame
    order. Frame i is the i-th file or document; ``frame_range``
    (inclusive, start >= 0) selects the rows ``start..end``.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix == ".json")
        frames = [import_openpose_frame(p.read_bytes(), i, str(p)) for i, p in enumerate(files)]
    else:
        docs = decode_json(path.read_bytes(), str(path))
        if not isinstance(docs, list):
            raise KeypointFormatError(f"{path}: consolidated keypoint file must be a JSON array")
        frames = [parse_pose_document(doc, i, str(path)) for i, doc in enumerate(docs)]
    kps = np.array(frames, dtype=np.float64).reshape(-1, N_BODY_PARTS, 3)
    if frame_range is not None:
        start, end = frame_range
        kps = kps[start : end + 1]
    return kps


def write_keypoint_file(path, frames: np.ndarray) -> None:
    """Write (n, 25, 3) keypoints as a consolidated keypoint file: compact, sorted JSON, one document per frame.

    A frame with no nonzero value is written as ``{"people": []}``.
    """
    flats = np.asarray(frames).reshape(len(frames), -1).tolist()
    docs = [{"people": [{"pose_keypoints_2d": flat}] if any(flat) else []} for flat in flats]
    write_atomic(path, json.dumps(docs, sort_keys=True, separators=(",", ":")) + "\n")


_MANIFEST_CLIP_FIELDS = ("id", "subject", "label", "fps", "keypoints", "start_frame", "end_frame")
_MANIFEST_NUMBERS = (("fps", 0.0), ("start_frame", 0), ("end_frame", 0))  # field, default of its JSON kind
_MANIFEST_HEADER = ("version", "frame_width", "frame_height")  # integers


def write_manifest(path, frame_size: tuple[int, int], clips) -> None:
    """Write a version-1 manifest; each clip is a tuple of its ``_MANIFEST_CLIP_FIELDS`` values, in that order."""
    doc = {
        "version": 1,
        "frame_width": frame_size[0],
        "frame_height": frame_size[1],
        "clips": [dict(zip(_MANIFEST_CLIP_FIELDS, clip, strict=True)) for clip in clips],
    }
    write_atomic(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_manifest(path) -> Manifest:
    """Load and validate a dataset manifest (schema version 1)."""
    path = Path(path)
    try:
        doc = decode_json(path.read_bytes(), str(path))
    except KeypointParseError as e:
        raise SchemaError(f"{path}: malformed JSON at byte {e.offset}: {e.reason}") from e
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: manifest must be a JSON object")
    try:
        version, width, height = (json_value(doc.get(f), 0, f) for f in _MANIFEST_HEADER)
    except ConfigError as e:
        raise SchemaError(f"{path}: field '{e.field_path}': {e.reason}") from e
    if version != 1:
        raise SchemaError(f"{path}: field 'version': expected 1, got {doc['version']!r}")
    for dim, value in (("frame_width", width), ("frame_height", height)):
        if value <= 0:
            raise SchemaError(f"{path}: field '{dim}': positive integer required")
    if "clips" not in doc or not isinstance(doc["clips"], list):
        raise SchemaError(f"{path}: field 'clips': array required")

    records = []
    seen = set()
    for n, entry in enumerate(doc["clips"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}: clip record {n}: object required, got {entry!r}")
        for f in _MANIFEST_CLIP_FIELDS:
            if f not in entry:
                raise SchemaError(f"{path}: clip record {n}: missing field '{f}'")
        try:
            fps, start, end = (json_value(entry[f], default, f) for f, default in _MANIFEST_NUMBERS)
        except ConfigError as e:
            raise SchemaError(f"{path}: clip record {n}: field '{e.field_path}': {e.reason}") from e
        clip_id = str(entry["id"])
        if clip_id in seen:
            raise ConflictError(f"{path}: duplicate clip id {clip_id!r}")
        seen.add(clip_id)
        try:
            records.append(
                ClipRecord(
                    clip_id=clip_id,
                    subject_id=str(entry["subject"]),
                    label=str(entry["label"]),
                    fps=fps,
                    keypoint_source=str(entry["keypoints"]),
                    frame_range=(start, end),
                )
            )
        except ValidationError as e:
            raise ValidationError(f"{path}: clip record {n}: {e}") from e
    return Manifest(frame_width=width, frame_height=height, clips=tuple(records), base_dir=path.parent)


def filter_head(frame: np.ndarray, confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD) -> HeadPose:
    """Reduce one frame's (25, 3) keypoints to its head-region keypoints."""
    head = frame[HEAD_INDICES, :]
    confidence = head[:, 2]
    present = (confidence >= confidence_threshold) & (confidence > 0)
    return HeadPose(np.where(present[:, None], head[:, :2], 0.0), present)


def sample_windows(
    frames: list[HeadPose],
    T: int = 7,
    stride: int = 5,
    hop: int = 15,
    clip_id: str = "",
    subject_id: str = "",
    label: str = "negative",
    *,
    frame_size: tuple[float, float],
    first_frame: int = 0,
) -> list[KeypointSequence]:
    """Slice a clip's head poses into overlapping T-frame windows of a ``frame_size`` source frame.

    Window k takes list positions ``k*hop + j*stride`` for j in [0, T);
    ``frames[0]`` is source frame ``first_frame``. Windows that would run
    past the clip are not emitted; windows with fewer than 70% valid
    frames are dropped (and logged).
    """
    span = (T - 1) * stride + 1
    n = len(frames)
    if n < span:
        log.warning("clip %s: %d frames < window span %d; no windows", clip_id or "?", n, span)
        return []
    coords = np.stack([f.coords for f in frames])
    present = np.stack([f.present for f in frames])
    valid = present.sum(axis=1) >= MIN_POINTS_PER_FRAME
    min_valid = math.ceil(MIN_VALID_FRACTION * T)
    offsets = stride * np.arange(T)
    out = []
    dropped = 0
    for start in range(0, n - span + 1, hop):
        picks = start + offsets
        if valid[picks].sum() >= min_valid:
            out.append(
                KeypointSequence(
                    clip_id=clip_id,
                    subject_id=subject_id,
                    label=label,
                    coords=coords[picks],
                    present=present[picks],
                    stride=stride,
                    origin_frame=first_frame + start,
                    frame_size=frame_size,
                )
            )
        else:
            dropped += 1
    if dropped:
        log.info("clip %s: dropped %d window(s) below %d valid frames", clip_id or "?", dropped, min_valid)
    return out


def center_coords(coords: np.ndarray, present: np.ndarray, frame_size) -> np.ndarray:
    """Shift a window's present points so their mean sits at the frame center.

    One constant translation for the whole (T, 6, 2) window: frame-to-frame
    motion is preserved exactly, but the accumulated camera offset is
    removed, so the head lands mid-raster regardless of drift. Returns
    ``coords`` itself when the shift is below 1e-9 px (an exact no-op).
    """
    if not present.any():
        raise InvalidSequenceError("no present keypoints in sequence")
    shift = np.array([frame_size[0] / 2.0, frame_size[1] / 2.0]) - coords[present].mean(axis=0)
    if np.abs(shift).max() < 1e-9:
        return coords
    return np.where(present[:, :, None], coords + shift, coords)


def center_sequence(seq: KeypointSequence) -> KeypointSequence:
    """A copy of the window re-centered by :func:`center_coords`."""
    out = seq.copy()
    out.coords = center_coords(out.coords, out.present, seq.frame_size)
    return out
