"""Exception hierarchy shared across the package, the bounded-count check
that every integer count of the package goes through, and the float check
of the config records' numeric fields."""

import math


class GiftexError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(GiftexError, ValueError):
    """A parameter value is outside its valid range."""


class IllegalMoveError(GiftexError):
    """An action violates the game rules in the current state."""


class PhaseError(GiftexError):
    """An operation was invoked in the wrong game phase."""


def require_int(name: str, value, minimum: int) -> None:
    """Refuse anything but an int of at least `minimum`; floats and bools
    are not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")


def require_float(name: str, value) -> float:
    """`value` as a float if it is a finite int or float; bools, strings and
    anything else are refused rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return value
