"""Exception types shared across the package."""


class ArgumentError(ValueError):
    """Raised when an argument violates a documented precondition."""


class DomainError(ArgumentError):
    """Raised when a parameter lies outside the validity domain of a formula."""


class LinearDependenceError(RuntimeError):
    """Raised when a vector set turns out to be numerically dependent.

    The ``index`` attribute names the first offending vector.
    """

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index
