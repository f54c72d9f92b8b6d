"""Exception types shared across the toolkit, and the integer and sequence checks that raise one."""

import numbers


class DeepSelfError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeError(DeepSelfError, ValueError):
    """Operands or arguments have incompatible shapes."""


class ConfigError(DeepSelfError, ValueError):
    """A configuration value lies outside its documented domain."""


class NumericError(DeepSelfError, ArithmeticError):
    """A computation produced or received non-finite values."""


class DataError(DeepSelfError, ValueError):
    """A data file failed to parse or a manifest is inconsistent."""


class FormatError(DeepSelfError, ValueError):
    """A binary file does not match its declared layout."""


class UnsupportedFormatError(FormatError):
    """The file was recognised but uses an encoding this build cannot read."""


class TruncatedFileError(FormatError):
    """The file ends before its declared payload does."""


class VersionError(FormatError):
    """The file declares a format version this build does not support."""


class IntegrityError(FormatError):
    """Stored content contradicts the file's own metadata."""


class MetricError(DeepSelfError, ValueError):
    """A metric is undefined for the given inputs."""


def check_integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int; ConfigError naming ``name`` unless it is an int or a NumPy
    integer (not a bool) of at least ``minimum``, when given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def check_sequence(name: str, value) -> tuple:
    """``value`` as a tuple; ConfigError naming ``name`` unless it is iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ConfigError(f"{name} must be a sequence, got {value!r}") from None
