"""Exception taxonomy shared across the package.

CLI exit codes map onto these classes: configuration / schema / usage
problems exit 2, numeric failures exit 3, I/O failures exit 4.
"""


class StimkitError(Exception):
    """Base class for all package errors."""


class KeypointParseError(StimkitError):
    """Undecodable JSON, from :func:`stimkit.spec.decode_json`; carries the source name, byte offset and reason.

    A keypoint file reports it as is (exit 4); the other JSON readers re-raise it as their own class.
    """

    def __init__(self, source, offset, reason):
        self.source = source
        self.offset = offset
        self.reason = reason
        super().__init__(f"{source}: byte {offset}: {reason}")


class KeypointFormatError(StimkitError):
    """Structurally valid JSON whose keypoint payload violates the layout."""


class SchemaError(StimkitError):
    """Manifest or config field missing or malformed; names the field."""


class ConflictError(StimkitError):
    """Duplicate identifiers within one manifest."""


class ValidationError(StimkitError):
    """Record or parameter value outside its documented range."""


class ConfigError(ValidationError):
    """A spec or run-configuration field violates a contract; carries the field path.

    Spec dataclasses name the bare field (``width``); the JSON builder in
    :mod:`stimkit.spec` prefixes the section (``raster.width``).
    """

    def __init__(self, field_path, reason):
        self.field_path = field_path
        self.reason = reason
        super().__init__(f"{field_path}: {reason}")


class SizeError(StimkitError):
    """Input dimensions below an operation's minimum or mismatched."""


class InvalidSequenceError(StimkitError):
    """A keypoint sequence with no usable points."""


class NumericError(StimkitError):
    """Training or evaluation produced a non-finite value."""
