"""Exception types shared across the package, and check_taus, the one rule
that the CLI and every entry point taking tau = -ln(1-2p)/2 apply."""

import numpy as np

# Largest tau: the IR sums form tau 4m^2 / L <= tau L, at most 1e305 at
# L = 10^5, so no kernel overflows.
TAU_MAX = 1e300


class ArgumentError(ValueError):
    """Raised when an argument violates a documented precondition."""


class DomainError(ArgumentError):
    """Raised when a parameter lies outside the validity domain of a formula."""


def check_taus(taus):
    """``taus``, a float or an array of them, as a float array, once every
    value is finite and in [0, TAU_MAX].  A negative, NaN or infinite tau,
    which no p in [0, 1/2) gives, raises DomainError, and a larger one
    ArgumentError; the message names the first bad value."""
    values = np.asarray(taus, dtype=float)
    for error, bad, rule in (
        (DomainError, ~((values >= 0) & (values < np.inf)), "finite and >= 0"),  # nan fails both
        (ArgumentError, values > TAU_MAX, f"<= {TAU_MAX:g}"),
    ):
        if bad.any():
            raise error(f"tau: values must be {rule}, got {float(values.flat[bad.argmax()])!r}")
    return values
