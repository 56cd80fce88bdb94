"""Exception types shared across the package."""


class ArgumentError(ValueError):
    """Raised when an argument violates a documented precondition."""


class DomainError(ArgumentError):
    """Raised when a parameter lies outside the validity domain of a formula."""

