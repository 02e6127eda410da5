"""Exception types shared across the package, one per nonzero exit status."""


class VnLabError(Exception):
    """Base class for all package errors."""


class ConfigInvalid(VnLabError):
    """A configured value the program refuses (exit 2); the message names the fields."""


class InvariantViolation(VnLabError):
    """An input or state that breaks a condition of the call (exit 1)."""
