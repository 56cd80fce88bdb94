"""Lanczos recursion over an abstract symmetric operator.

Given a linear symmetric map H and a unit seed vector v0, the three-term
recurrence

    b_{n+1} |K_{n+1}> = (H - a_n) |K_n> - b_n |K_{n-1}>,
    a_n = <K_n| H |K_n>,  b_n = || (H - a_n)|K_n> - b_n |K_{n-1}> ||

builds an orthonormal Krylov basis in which H is tridiagonal.  Full
reorthogonalization (projecting each new vector against every stored
basis vector, twice) is always on: the models used here have clustered
spectra for which plain Lanczos loses orthogonality within a few steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ArgumentError

# Relative floor under which an off-diagonal coefficient is treated as an
# exact zero, i.e. the Krylov space has closed.
TERMINATION_RTOL = 1e-8


@dataclass(frozen=True)
class OperatorHandle:
    """A symmetric linear operator given by its dimension and apply map."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.dim < 1:
            raise ArgumentError("operator dimension must be positive")


@dataclass(frozen=True)
class LanczosResult:
    """Lanczos coefficients, Krylov basis, and termination flag.

    ``b`` excludes b_0 (identically zero); when the recursion terminates,
    len(a) = len(b) + 1.
    """

    a: np.ndarray
    b: np.ndarray
    basis: list
    terminated: bool


def operator_from_dense(matrix):
    """Wrap a dense symmetric matrix as an OperatorHandle."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ArgumentError("matrix must be square")
    return OperatorHandle(dim=matrix.shape[0], apply=lambda v: matrix @ v)


def operator_from_diagonal(diagonal):
    """Wrap a diagonal (given as a vector) as an OperatorHandle."""
    diagonal = np.asarray(diagonal, dtype=float)
    if diagonal.ndim != 1:
        raise ArgumentError("diagonal must be a vector")
    return OperatorHandle(dim=diagonal.size, apply=lambda v: diagonal * v)


def run_lanczos(op, v0):
    """Run the Lanczos recursion from a unit seed vector.

    Every new vector is projected against the whole stored basis twice
    (full reorthogonalization), and the recursion runs until the Krylov
    space closes or reaches op.dim vectors.

    Args:
        op: OperatorHandle (symmetric).
        v0: unit seed vector (within 1e-12).

    Returns:
        LanczosResult with the Krylov basis; ``terminated`` is True when
        some b_n fell below TERMINATION_RTOL relative to the running
        spectral scale, i.e. the Krylov space closed.

    Raises:
        ArgumentError: on dimension mismatch or a non-unit seed.
    """
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (op.dim,):
        raise ArgumentError(
            f"seed length {v0.size} does not match operator dim {op.dim}"
        )
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

    for step in range(op.dim):
        w = np.asarray(op.apply(current), dtype=float)
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
        if step == op.dim - 1:
            break
        b.append(beta)
        previous = current
        current = w / beta
        basis.append(current)

    return LanczosResult(
        a=np.array(a), b=np.array(b), basis=basis, terminated=terminated
    )
