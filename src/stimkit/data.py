"""Assemble training windows from a manifest plus keypoint files."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .errors import ConfigError
from .pose import (
    DEFAULT_CONFIDENCE_THRESHOLD,
    KeypointSequence,
    Manifest,
    filter_head,
    load_clip_frames,
    sample_windows,
)


@dataclass(frozen=True)
class WindowParams:
    T: int = 7
    stride: int = 5
    hop: int = 15
    confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD

    def __post_init__(self):
        for name, minimum in (("T", 2), ("stride", 1), ("hop", 1), ("confidence_threshold", 0.0)):
            value = getattr(self, name)
            if value < minimum:
                raise ConfigError(name, f"window {name} must be >= {minimum}, got {value}")

    @property
    def span(self) -> int:
        return (self.T - 1) * self.stride + 1

    def to_dict(self):
        return asdict(self)


@dataclass
class WindowDataset:
    """All windows of a dataset, ready for fold splitting and rasterizing."""

    manifest: Manifest
    window_params: WindowParams
    windows: list[KeypointSequence] = field(default_factory=list)

    def subject_window_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for w in self.windows:
            counts[w.subject_id] = counts.get(w.subject_id, 0) + 1
        return counts


def clip_windows(source, params: WindowParams, frame_range=None, **ids) -> list[KeypointSequence]:
    """Load one keypoint source, keep its head points and slice it into windows carrying ``ids``."""
    frames = load_clip_frames(source, frame_range)
    heads = [filter_head(f, params.confidence_threshold) for f in frames]
    first = frame_range[0] if frame_range else 0
    return sample_windows(heads, T=params.T, stride=params.stride, hop=params.hop, first_frame=first, **ids)


def build_dataset(manifest: Manifest, params: WindowParams = WindowParams()) -> WindowDataset:
    """Window every clip in the manifest, in manifest order."""
    ds = WindowDataset(manifest=manifest, window_params=params)
    for r in manifest.clips:
        ids = dict(clip_id=r.clip_id, subject_id=r.subject_id, label=r.label, frame_size=manifest.frame_size)
        ds.windows.extend(clip_windows(manifest.resolve_source(r), params, r.frame_range, **ids))
    return ds
