"""Exception hierarchy shared across the package, and the integer check that
the config records and the counting functions share."""


class GiftexError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(GiftexError, ValueError):
    """A parameter value is outside its valid range."""


class IllegalMoveError(GiftexError):
    """An action violates the game rules in the current state."""


class PhaseError(GiftexError):
    """An operation was invoked in the wrong game phase."""


def require_int(name: str, value) -> None:
    """Refuse anything but an int; floats and bools are not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
