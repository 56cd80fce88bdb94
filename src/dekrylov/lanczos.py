"""Lanczos recursion over a symmetric operator given by its matvec.

Given the map v -> H v of a symmetric H and a unit seed vector v0, the
three-term recurrence

    b_{n+1} |K_{n+1}> = (H - a_n) |K_n> - b_n |K_{n-1}>,
    a_n = <K_n| H |K_n>,  b_n = || (H - a_n)|K_n> - b_n |K_{n-1}> ||

builds an orthonormal Krylov basis in which H is tridiagonal.  Full
reorthogonalization (projecting each new vector against every stored
basis vector, twice) is always on: the models used here have clustered
spectra for which plain Lanczos loses orthogonality within a few steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

# Relative floor under which an off-diagonal coefficient is treated as an
# exact zero, i.e. the Krylov space has closed.
TERMINATION_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class LanczosResult:
    """Lanczos coefficients, Krylov basis, and termination flag.

    ``b`` excludes b_0 (identically zero); when the recursion terminates,
    len(a) = len(b) + 1.
    """

    a: np.ndarray
    b: np.ndarray
    basis: list
    terminated: bool


def run_lanczos(apply, v0):
    """Run the Lanczos recursion from a unit seed vector.

    Every new vector is projected against the whole stored basis twice
    (full reorthogonalization), and the recursion runs until the Krylov
    space closes or reaches len(v0) vectors.

    Args:
        apply: the matvec v -> H v of a symmetric operator H.
        v0: unit seed vector (within 1e-12); its length is the dimension.

    Returns:
        LanczosResult with the Krylov basis; ``terminated`` is True when
        some b_n fell below TERMINATION_RTOL relative to the running
        spectral scale, i.e. the Krylov space closed.

    Raises:
        ArgumentError: on a seed that is not a unit vector, or a matvec
            whose output does not have the seed's shape.
    """
    v0 = np.asarray(v0, dtype=float)
    if v0.ndim != 1:
        raise ArgumentError("seed must be a vector")
    if abs(np.linalg.norm(v0) - 1.0) > 1e-12:
        raise ArgumentError("seed vector must have unit norm (1e-12)")

    a = []
    b = []
    basis = [v0.copy()]
    current = v0.copy()
    previous = np.zeros_like(v0)
    beta = 0.0
    scale = 1.0
    terminated = False

    for step in range(v0.size):
        w = np.asarray(apply(current), dtype=float)
        if w.shape != v0.shape:
            raise ArgumentError(
                f"matvec maps a length-{v0.size} vector to shape {w.shape}"
            )
        alpha = float(current @ w)
        a.append(alpha)
        w = w - alpha * current - beta * previous
        stack = np.array(basis)
        for _ in range(2):
            w -= stack.T @ (stack @ w)
        beta = float(np.linalg.norm(w))
        scale = max(scale, abs(alpha), beta)
        if beta < TERMINATION_RTOL * scale:
            terminated = True
            break
        if step == v0.size - 1:
            break
        b.append(beta)
        previous = current
        current = w / beta
        basis.append(current)

    return LanczosResult(
        a=np.array(a), b=np.array(b), basis=basis, terminated=terminated
    )
