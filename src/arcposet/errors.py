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
