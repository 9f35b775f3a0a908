"""Declarative run configuration for the train/cv commands.

One JSON file drives a whole run. ``seed`` is mandatory: nothing in the
pipeline ever seeds itself from the clock. The model's input geometry is
derived from the window and raster sections, so those cannot disagree.
Unknown keys are rejected, naming the offending path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .augment import AugmentSpec
from .data import WindowParams
from .errors import ConfigError, ValidationError
from .nn.model import ConvBlock, ModelConfig
from .nn.optim import TrainConfig
from .raster import RasterSpec


@dataclass(frozen=True)
class RunConfig:
    manifest_path: Path
    output_dir: Path
    seed: int
    k: int
    window: WindowParams
    raster: RasterSpec
    model: ModelConfig
    train: TrainConfig
    augment: AugmentSpec | None
    holdout_subjects: tuple[str, ...] = ()  # train command: exclude and evaluate


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}" if path else key, "required field missing")
    return d[key]


def _check_keys(d: dict, allowed, path: str):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")


def _number(d: dict, key: str, path: str, default, minimum=None, integer=False):
    v = d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}", f"number required, got {v!r}")
    if integer and int(v) != v:
        raise ConfigError(f"{path}.{key}", f"integer required, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}, got {v}")
    return int(v) if integer else float(v)


def _pair(d: dict, key: str, path: str, default):
    v = d.get(key, default)
    if not isinstance(v, (list, tuple)) or len(v) != 2 or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v):
        raise ConfigError(f"{path}.{key}", f"pair of numbers required, got {v!r}")
    return (float(v[0]), float(v[1]))


def _build_window(d: dict) -> WindowParams:
    _check_keys(d, {"T", "stride", "hop", "confidence_threshold"}, "window")
    try:
        return WindowParams(
            T=_number(d, "T", "window", 7, integer=True),
            stride=_number(d, "stride", "window", 5, integer=True),
            hop=_number(d, "hop", "window", 15, integer=True),
            confidence_threshold=_number(d, "confidence_threshold", "window", 0.1),
        )
    except ValidationError as e:
        raise ConfigError(f"window.{e.field}", str(e)) from e


def _build_raster(d: dict) -> RasterSpec:
    _check_keys(d, {"width", "height", "point_radius", "line_thickness", "center_mode"}, "raster")
    mode = d.get("center_mode", "sequence_mean")
    if mode not in ("none", "sequence_mean"):
        raise ConfigError("raster.center_mode", f"must be none|sequence_mean, got {mode!r}")
    try:
        return RasterSpec(
            width=_number(d, "width", "raster", 64, minimum=16, integer=True),
            height=_number(d, "height", "raster", 64, minimum=16, integer=True),
            point_radius=_number(d, "point_radius", "raster", 2.0, minimum=1.0),
            line_thickness=_number(d, "line_thickness", "raster", 1.0, minimum=1.0),
            center_mode=mode,
        )
    except ValidationError as e:
        raise ConfigError("raster", str(e)) from e


def _build_augment(d: dict | None) -> AugmentSpec | None:
    if d is None:
        return None
    _check_keys(d, {"rotation_range", "zoom_range", "mode"}, "augment")
    rotation = _pair(d, "rotation_range", "augment", (-45.0, 45.0))
    if not (-180.0 <= rotation[0] <= rotation[1] <= 180.0) or abs(rotation[0] + rotation[1]) > 1e-9:
        raise ConfigError("augment.rotation_range", f"must be symmetric within [-180, 180], got {list(rotation)}")
    zoom = _pair(d, "zoom_range", "augment", (1.0, 2.0))
    if zoom[0] < 1.0 or zoom[1] < zoom[0]:
        raise ConfigError("augment.zoom_range", f"must satisfy 1.0 <= lo <= hi, got {list(zoom)}")
    mode = d.get("mode", "per_clip")
    if mode not in ("per_clip", "per_frame"):
        raise ConfigError("augment.mode", f"must be per_clip|per_frame, got {mode!r}")
    return AugmentSpec(rotation_range=rotation, zoom_range=zoom, mode=mode)


def _build_model(d: dict, window: WindowParams, raster: RasterSpec, seed: int) -> ModelConfig:
    _check_keys(d, {"conv_blocks", "frame_embedding", "lstm_hidden"}, "model")
    blocks = d.get("conv_blocks", [{"filters": 16}, {"filters": 32}])
    if not isinstance(blocks, list) or not blocks:
        raise ConfigError("model.conv_blocks", f"nonempty array required, got {blocks!r}")
    conv = []
    for n, blk in enumerate(blocks):
        if not isinstance(blk, dict):
            raise ConfigError(f"model.conv_blocks[{n}]", f"object required, got {blk!r}")
        _check_keys(blk, {"filters", "kernel", "pool"}, f"model.conv_blocks[{n}]")
        conv.append(
            ConvBlock(
                filters=_number(blk, "filters", f"model.conv_blocks[{n}]", 16, minimum=1, integer=True),
                kernel=_number(blk, "kernel", f"model.conv_blocks[{n}]", 3, minimum=1, integer=True),
                pool=_number(blk, "pool", f"model.conv_blocks[{n}]", 2, minimum=2, integer=True),
            )
        )
    try:
        return ModelConfig(
            T=window.T,
            height=raster.height,
            width=raster.width,
            channels=1,
            conv_blocks=tuple(conv),
            frame_embedding=_number(d, "frame_embedding", "model", 64, minimum=1, integer=True),
            lstm_hidden=_number(d, "lstm_hidden", "model", 32, minimum=1, integer=True),
            seed=seed,
        )
    except ConfigError:
        raise
    except ValidationError as e:
        raise ConfigError("model", str(e)) from e


def _build_train(d: dict, seed: int) -> TrainConfig:
    _check_keys(d, {"learning_rate", "beta1", "beta2", "epsilon", "batch_size", "epochs"}, "train")
    return TrainConfig(
        learning_rate=_number(d, "learning_rate", "train", 1e-4),
        beta1=_number(d, "beta1", "train", 0.9),
        beta2=_number(d, "beta2", "train", 0.999),
        epsilon=_number(d, "epsilon", "train", 1e-8),
        batch_size=_number(d, "batch_size", "train", 8, minimum=1, integer=True),
        epochs=_number(d, "epochs", "train", 50, minimum=0, integer=True),
        seed=seed,
    )


_TOP_KEYS = {
    "manifest", "output_dir", "seed", "k", "window", "raster", "model", "train", "augment",
    "holdout_subjects",
}


def parse_run_config(doc: dict, base_dir: Path) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config", "top-level JSON object required")
    _check_keys(doc, _TOP_KEYS, "")
    manifest = _require(doc, "manifest", "")
    output_dir = _require(doc, "output_dir", "")
    seed = _number(doc, "seed", "", None, integer=True) if "seed" in doc else None
    if seed is None:
        raise ConfigError("seed", "required field missing (runs never self-seed)")
    k = _number(doc, "k", "", 3, minimum=2, integer=True)

    for section in ("window", "raster", "model", "train"):
        if section in doc and not isinstance(doc[section], dict):
            raise ConfigError(section, f"object required, got {doc[section]!r}")
    if "augment" in doc and doc["augment"] is not None and not isinstance(doc["augment"], dict):
        raise ConfigError("augment", f"object or null required, got {doc['augment']!r}")

    holdout = doc.get("holdout_subjects", [])
    if not isinstance(holdout, list) or any(not isinstance(s, str) for s in holdout):
        raise ConfigError("holdout_subjects", f"array of subject ids required, got {holdout!r}")

    window = _build_window(doc.get("window", {}))
    raster = _build_raster(doc.get("raster", {}))
    try:
        return RunConfig(
            manifest_path=(base_dir / manifest) if not Path(manifest).is_absolute() else Path(manifest),
            output_dir=(base_dir / output_dir) if not Path(output_dir).is_absolute() else Path(output_dir),
            seed=seed,
            k=k,
            window=window,
            raster=raster,
            model=_build_model(doc.get("model", {}), window, raster, seed),
            train=_build_train(doc.get("train", {}), seed),
            augment=_build_augment(doc.get("augment", {})),
            holdout_subjects=tuple(holdout),
        )
    except ValidationError as e:
        raise ConfigError("config", str(e)) from e


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"{path}: malformed JSON at byte {e.pos}: {e.msg}") from e
    return parse_run_config(doc, path.parent)
