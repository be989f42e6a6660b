"""Shared exception types."""


class InvalidArgumentError(ValueError):
    """A precondition on an operation's arguments was violated."""


class ResourceLimitError(RuntimeError):
    """A configured size or search-space cap would be exceeded."""

    def __init__(self, message: str, *, bound: int | None = None):
        super().__init__(message)
        self.bound = bound


class InvariantError(RuntimeError):
    """A property that the theory guarantees failed to hold."""


def require_int(value, what: str) -> int:
    """``value`` itself when it is an ``int``; a bool, a float or anything
    else raises :class:`InvalidArgumentError` rather than being truncated."""
    if type(value) is not int:
        raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")
    return value
