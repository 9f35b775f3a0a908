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
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import SchemaError
from .model import ModelConfig

MAGIC = b"STIMKIT1"
FORMAT_VERSION = 1


@dataclass
class ModelCheckpoint:
    config: ModelConfig
    parameters: dict[str, np.ndarray]
    format_version: int = FORMAT_VERSION
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
        "format_version": checkpoint.format_version,
        "config": checkpoint.config.to_dict(),
        "training_metadata": checkpoint.training_metadata,
        "parameters": table,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header_bytes)))
        f.write(header_bytes)
        for blob in blobs:
            f.write(blob)
    tmp.replace(path)


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
        header = json.loads(blob[12 : 12 + hlen])
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: corrupt checkpoint header: {e.msg}") from e
    if not isinstance(header, dict):
        raise SchemaError(f"{path}: corrupt checkpoint header: not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise SchemaError(f"{path}: unsupported format version {header.get('format_version')!r}")
    missing = [key for key in ("parameters", "config", "training_metadata") if key not in header]
    if missing:
        raise SchemaError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    payload = blob[12 + hlen :]
    params = {}
    for entry in header["parameters"]:
        start, nbytes = entry["offset"], entry["nbytes"]
        if start + nbytes > len(payload):
            raise SchemaError(
                f"{path}: truncated checkpoint (parameter {entry['name']!r} needs payload bytes "
                f"{start}..{start + nbytes}, file has {len(payload)})"
            )
        arr = np.frombuffer(payload, dtype="<f4", count=nbytes // 4, offset=start)
        params[entry["name"]] = arr.reshape(entry["shape"]).copy()
    return ModelCheckpoint(
        config=ModelConfig.from_dict(header["config"]),
        parameters=params,
        format_version=header["format_version"],
        training_metadata=header["training_metadata"],
    )
