"""Checkpoint serialization.

Byte layout (all integers little-endian):

    bytes 0..7    magic ASCII ``STIMKIT1``
    bytes 8..11   uint32 length L of the JSON header
    bytes 12..12+L-1   UTF-8 JSON header, canonical form
                  (sorted keys, separators ``,``/``:``)
    remainder     parameter payload: float32 little-endian values

The header's ``parameters`` table lists name, shape, byte offset into the
payload, and byte count, in sorted-name order (which is also the payload
order). Saving a loaded checkpoint reproduces the original file exactly.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, KeypointParseError, SchemaError
from ..spec import build_spec, decode_json, write_atomic
from .model import ModelConfig, param_shapes

MAGIC = b"STIMKIT1"
FORMAT_VERSION = 1


@dataclass
class ModelCheckpoint:
    config: ModelConfig
    parameters: dict[str, np.ndarray]
    training_metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.parameters = {k: np.asarray(v, dtype=np.float32) for k, v in self.parameters.items()}


def save_checkpoint(checkpoint: ModelCheckpoint, path) -> None:
    names = sorted(checkpoint.parameters)
    table = []
    offset = 0
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(checkpoint.parameters[name], dtype="<f4")
        blob = arr.tobytes()
        table.append(
            {"name": name, "shape": list(arr.shape), "offset": offset, "nbytes": len(blob)}
        )
        offset += len(blob)
        blobs.append(blob)
    header = {
        "format_version": FORMAT_VERSION,
        "config": checkpoint.config.to_dict(),
        "training_metadata": checkpoint.training_metadata,
        "parameters": table,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_atomic(path, b"".join([MAGIC, struct.pack("<I", len(header_bytes)), header_bytes, *blobs]))


def _parameter_table(path, entries) -> dict:
    """The header's parameter table as name -> (shape, offset, nbytes)."""
    try:
        table = {e["name"]: (list(e["shape"]), int(e["offset"]), int(e["nbytes"])) for e in entries}
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"{path}: corrupt checkpoint parameter table: {e!r}") from e
    if len(table) != len(entries) or any(offset < 0 for _, offset, _ in table.values()):
        raise SchemaError(f"{path}: corrupt checkpoint parameter table (repeated name or negative offset)")
    return table


def load_checkpoint(path) -> ModelCheckpoint:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != MAGIC:
        raise SchemaError(f"{path}: not a checkpoint file (bad magic)")
    if len(blob) < 12:
        raise SchemaError(f"{path}: truncated checkpoint ({len(blob)} bytes, no header length)")
    (hlen,) = struct.unpack("<I", blob[8:12])
    if 12 + hlen > len(blob):
        raise SchemaError(f"{path}: truncated checkpoint (header of {hlen} bytes runs past end of file)")
    try:
        header = decode_json(blob[12 : 12 + hlen], path)
    except KeypointParseError as e:
        raise SchemaError(f"{path}: corrupt checkpoint header: byte {12 + e.offset}: {e.reason}") from e
    if not isinstance(header, dict):
        raise SchemaError(f"{path}: corrupt checkpoint header: not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise SchemaError(f"{path}: unsupported format version {header.get('format_version')!r}")
    missing = [key for key in ("parameters", "config", "training_metadata") if key not in header]
    if missing:
        raise SchemaError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    try:
        config = build_spec(ModelConfig, header["config"], "config")
    except ConfigError as e:
        raise SchemaError(f"{path}: corrupt checkpoint config: {e}") from e
    if not isinstance(header["training_metadata"], dict):
        raise SchemaError(f"{path}: corrupt checkpoint (training_metadata is not an object)")
    expected = param_shapes(config)
    table = _parameter_table(path, header["parameters"])
    if set(table) != set(expected):
        raise SchemaError(
            f"{path}: corrupt checkpoint (parameters {sorted(map(str, table))} do not match "
            f"the config's {sorted(expected)})"
        )
    payload = memoryview(blob)[12 + hlen :]  # no copy; each parameter is copied once below
    params = {}
    for name, (shape, start, nbytes) in table.items():
        want = expected[name]
        if shape != list(want):
            raise SchemaError(
                f"{path}: corrupt checkpoint (parameter {name!r} has shape {shape}, "
                f"the config needs {list(want)})"
            )
        if start + nbytes > len(payload):
            raise SchemaError(
                f"{path}: truncated checkpoint (parameter {name!r} needs payload bytes "
                f"{start}..{start + nbytes}, file has {len(payload)})"
            )
        if nbytes != 4 * math.prod(want):
            raise SchemaError(
                f"{path}: corrupt checkpoint (parameter {name!r} has shape {shape} but {nbytes} bytes)"
            )
        arr = np.frombuffer(payload, dtype="<f4", count=nbytes // 4, offset=start)
        if not np.isfinite(arr).all():
            raise SchemaError(f"{path}: corrupt checkpoint (parameter {name!r} has non-finite values)")
        params[name] = arr.reshape(want).copy()
    return ModelCheckpoint(
        config=config,
        parameters=params,
        training_metadata=header["training_metadata"],
    )
