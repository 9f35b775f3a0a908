"""Declarative run configuration for the train/cv commands.

One JSON file drives a whole run. ``seed`` is mandatory: nothing in the
pipeline ever seeds itself from the clock. The model's input geometry is
derived from the window and raster sections, so those cannot disagree.
Each section is built by :func:`stimkit.spec.build_spec`: unknown keys,
wrong JSON types and the spec's own range rules are rejected, naming the
offending path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .augment import AugmentSpec
from .data import WindowParams
from .errors import ConfigError, KeypointParseError
from .nn.model import ModelConfig
from .nn.optim import TrainConfig
from .raster import RasterSpec
from .spec import build_spec, decode_json, json_value


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


_TOP_KEYS = {
    "manifest", "output_dir", "seed", "k", "window", "raster", "model", "train", "augment",
    "holdout_subjects",
}


def parse_run_config(doc: dict, base_dir: Path) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config", "top-level JSON object required")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigError(key, "unknown field")
    for key in ("manifest", "output_dir", "seed"):
        if key not in doc:
            reason = "required field missing (runs never self-seed)" if key == "seed" else "required field missing"
            raise ConfigError(key, reason)
    manifest = json_value(doc["manifest"], "", "manifest")
    output_dir = json_value(doc["output_dir"], "", "output_dir")
    for key, path in (("manifest", manifest), ("output_dir", output_dir)):
        if "\0" in path:
            raise ConfigError(key, "a path cannot hold a NUL character")
    seed = json_value(doc["seed"], 0, "seed")
    if seed < 0:
        raise ConfigError("seed", f"must be >= 0, got {seed}")
    k = json_value(doc.get("k", 3), 0, "k")  # range checked by evaluate.check_fold_count, for cv only

    holdout = doc.get("holdout_subjects", [])
    if not isinstance(holdout, list) or any(not isinstance(s, str) for s in holdout):
        raise ConfigError("holdout_subjects", f"array of subject ids required, got {holdout!r}")

    window = build_spec(WindowParams, doc.get("window", {}), "window")
    raster = build_spec(RasterSpec, doc.get("raster", {}), "raster")
    augment = doc.get("augment", {})
    return RunConfig(
        manifest_path=(base_dir / manifest) if not Path(manifest).is_absolute() else Path(manifest),
        output_dir=(base_dir / output_dir) if not Path(output_dir).is_absolute() else Path(output_dir),
        seed=seed,
        k=k,
        window=window,
        raster=raster,
        model=build_spec(
            ModelConfig, doc.get("model", {}), "model",
            T=window.T, height=raster.height, width=raster.width, channels=1, seed=seed,
        ),
        train=build_spec(TrainConfig, doc.get("train", {}), "train", seed=seed),
        augment=None if augment is None else build_spec(AugmentSpec, augment, "augment"),
        holdout_subjects=tuple(holdout),
    )


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        doc = decode_json(path.read_bytes(), path)
    except KeypointParseError as e:
        raise ConfigError("config", f"{path}: malformed JSON at byte {e.offset}: {e.reason}") from e
    return parse_run_config(doc, path.parent)
