"""Exception types shared across the toolkit, and the integer, label and sequence checks that raise one."""

import numbers

import numpy as np


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


def check_labels(name: str, labels, n_classes: int, ids=None) -> np.ndarray:
    """``labels`` as int64 class indices; DataError naming ``name``, the first bad value and
    its row (its id, given ``ids``) unless every label is a whole number in [0, n_classes)."""
    return check_whole(f"{name} label", labels, n_classes, ids)


def check_whole(what: str, values, stop: int | None = None, ids=None) -> np.ndarray:
    """``values`` as int64; DataError naming ``what``, the first bad value and its row (its
    id, given ``ids``) unless every value is a whole number, in [0, stop) given ``stop``.

    Floats that are whole numbers load; a fraction, an infinity or a NaN does not.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise DataError(f"{what}s must be numbers, got dtype {values.dtype}")
    bad = np.zeros(values.shape, bool) if stop is None else (values < 0) | (values >= stop)
    if values.dtype.kind == "f":
        bad |= ~np.isfinite(values) | (values != np.floor(values))
    if bad.any():
        row = int(np.argmax(bad.reshape(-1)))
        value = values.reshape(-1)[row]
        where = f"for id {ids[row]!r}" if ids is not None else f"at row {row}"
        problem = f"is outside [0, {stop})" if stop and value == np.floor(value) else "is not a whole number"
        raise DataError(f"{what} {value} {where} {problem}")
    return values.astype(np.int64, copy=False)


def check_sequence(name: str, value) -> tuple:
    """``value`` as a tuple; ConfigError naming ``name`` unless it is iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ConfigError(f"{name} must be a sequence, got {value!r}") from None
