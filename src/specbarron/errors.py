"""Shared exception types."""


class DimensionMismatchError(ValueError):
    """An operator or array does not match the group dimension."""


class GroupMismatchError(ValueError):
    """Values built over different groups were combined."""


class NonFiniteInputError(ValueError):
    """An input array holds NaN or infinite entries."""


class NotAContractionError(ValueError):
    """The potential lies outside the open B0 unit ball."""


class SingularSystemError(RuntimeError):
    """The assembled linear system could not be solved reliably."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition
