"""One JSON-object-to-spec builder for every spec dataclass.

The run config, the checkpoint header's ``config`` and the
``training_metadata`` that ``predict`` reads are all built here. A spec's
keys and defaults are its dataclass fields; this module checks only the
JSON type of each value, by the kind of the field's default (integer,
number, string, number pair, array of nested specs). Ranges and enums are
the spec's own ``__post_init__`` rules, which name the bare field; any
failure surfaces as a ``ConfigError`` whose path starts with ``section``.

It also holds the one JSON decoder every reader uses (:func:`decode_json`)
and the one writer every output file goes through (:func:`write_atomic`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields, is_dataclass

from .errors import ConfigError, KeypointParseError


def _number(value) -> bool:
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an integer too large for a float
        return False


def json_value(value, default, path: str):
    """``value`` checked and converted to the JSON kind of ``default``."""
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(path, f"string required, got {value!r}")
        return value
    if isinstance(default, tuple) and default and is_dataclass(default[0]):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, f"array required, got {value!r}")
        return tuple(build_spec(type(default[0]), item, f"{path}[{n}]") for n, item in enumerate(value))
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_number, value)):
            raise ConfigError(path, f"pair of numbers required, got {value!r}")
        return (float(value[0]), float(value[1]))
    if not _number(value):
        raise ConfigError(path, f"number required, got {value!r}")
    if isinstance(default, int):
        if not float(value).is_integer():
            raise ConfigError(path, f"integer required, got {value!r}")
        return int(value)
    return float(value)


def build_spec(cls, doc, section: str, **fixed):
    """Construct the dataclass ``cls`` from the JSON object ``doc``.

    Every field of ``cls`` has a default, which also gives its JSON kind.
    ``fixed`` holds the fields the caller derives; they are not accepted
    as keys. Absent keys take the dataclass default.
    """
    if not isinstance(doc, dict):
        raise ConfigError(section, f"object required, got {doc!r}")
    known = {f.name: f.default for f in fields(cls) if f.name not in fixed}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{section}.{key}", "unknown field")
    values = dict(fixed)
    for name, default in known.items():
        if name in doc:
            values[name] = json_value(doc[name], default, f"{section}.{name}")
    try:
        return cls(**values)
    except ConfigError as e:
        raise ConfigError(f"{section}.{e.field_path}", e.reason) from e


def decode_json(raw: bytes, source):
    """The JSON value of ``raw``, or a KeypointParseError naming ``source``, the byte offset and the reason.

    Keypoint readers let the error through (exit 4); the manifest, run
    config and checkpoint readers re-raise it as their own class (exit 2).
    """
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise KeypointParseError(source, e.pos, e.msg) from e
    except UnicodeDecodeError as e:
        raise KeypointParseError(source, e.start, f"not UTF-8 text ({e.reason})") from e
    except RecursionError as e:  # the decoder gives no offset for it
        raise KeypointParseError(source, 0, "JSON nested too deeply to decode") from e


def write_atomic(path, data) -> None:
    """Write ``data`` (bytes, or text as UTF-8) to ``path`` through a ``.tmp`` file beside it, renamed into place.

    A reader never sees a half-written file; a write that fails leaves the
    ``.tmp`` file and whatever ``path`` held before.
    """
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "wb") as f:
        f.write(data.encode() if isinstance(data, str) else data)
    os.replace(tmp, path)
