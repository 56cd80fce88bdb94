"""Real symmetric tridiagonal linear algebra.

Everything downstream works with effective Hamiltonians in a Krylov basis,
where they are real symmetric tridiagonal:

    T = tridiag(b, a, b),   a = (a_0, ..., a_{d-1}),   b = (b_1, ..., b_{d-1}).

This module provides the eigendecomposition (LAPACK ``?stev`` through
scipy; no hand-written QL loop), one propagation kernel that evaluates the
normalized imaginary-time action exp(-tau T) e_0 for a batch of taus with
a per-tau log shift, and a two-pass classical Gram-Schmidt used to build
dense Krylov bases.  All arithmetic is 64-bit float; operations are pure
functions over immutable inputs and are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ArgumentError, LinearDependenceError

# Taus per matrix product in expm_from_eig: one product per block keeps
# the (dim, block) work arrays small whatever the length of the tau grid.
TAU_BLOCK = 64


def _readonly(arr):
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix given by its diagonal and off-diagonal.

    The off-diagonal entries must be strictly positive: a vanishing b_n
    means the Krylov space closed at dimension n, which is represented by
    constructing a smaller operator instead.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = _readonly(self.diag)
        offdiag = _readonly(self.offdiag)
        if diag.ndim != 1 or diag.size < 1:
            raise ArgumentError("diag must be a nonempty 1-d sequence")
        if offdiag.ndim != 1 or offdiag.size != diag.size - 1:
            raise ArgumentError(
                f"offdiag must have length dim-1 = {diag.size - 1}, "
                f"got {offdiag.size}"
            )
        if not np.all(np.isfinite(diag)) or not np.all(np.isfinite(offdiag)):
            raise ArgumentError("tridiagonal entries must be finite")
        if offdiag.size and not np.all(offdiag > 0):
            raise ArgumentError(
                "offdiag entries must be strictly positive; represent a "
                "terminated Krylov space by a smaller dim"
            )
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)

    @property
    def dim(self):
        return self.diag.size

    def to_dense(self):
        """Dense (dim, dim) array with the same entries."""
        mat = np.diag(self.diag)
        idx = np.arange(self.dim - 1)
        mat[idx, idx + 1] = self.offdiag
        mat[idx + 1, idx] = self.offdiag
        return mat

    def matvec(self, vec):
        """Apply T to a vector without forming the dense matrix."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dim,):
            raise ArgumentError(f"vector length {vec.size} != dim {self.dim}")
        out = self.diag * vec
        if self.dim > 1:
            out[:-1] += self.offdiag * vec[1:]
            out[1:] += self.offdiag * vec[:-1]
        return out


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        object.__setattr__(self, "vectors", _readonly(self.vectors))

    @property
    def dim(self):
        return self.values.size


@dataclass(frozen=True)
class KrylovState:
    """Normalized wavepacket psi_n(tau) over the Krylov index n.

    ``log_norm`` is the log of the norm that normalization divided out,
    log ||exp(-tau T) e_0|| when the state comes from expm_from_eig.
    """

    tau: float
    psi: np.ndarray = field(repr=False)
    log_norm: float = 0.0

    def __post_init__(self):
        psi = _readonly(self.psi)
        if self.tau < 0:
            raise ArgumentError("tau must be nonnegative")
        if psi.ndim != 1 or psi.size < 1 or not np.all(np.isfinite(psi)):
            raise ArgumentError("psi must be a finite 1-d vector")
        if abs(psi @ psi - 1.0) > 1e-12:
            raise ArgumentError("psi must be unit-normalized (1e-12)")
        object.__setattr__(self, "psi", psi)

    @property
    def dim(self):
        return self.psi.size


def eig_tridiag(op):
    """Eigendecompose a symmetric tridiagonal operator.

    Calls LAPACK ``?stev`` (implicit QL/QR with accumulated rotations)
    through scipy.  The driver is pinned: at IR L = 500 the seed e_0 has
    an overlap of ~1e-76 with the ground state, and ``stemr`` and
    ``stebz`` lose components that small while ``stev`` keeps them
    (criterion 4 checks this against the exact Wigner amplitudes).

    Returns:
        EigenDecomposition, eigenvalues ascending, orthonormal vectors.

    Raises:
        numpy.linalg.LinAlgError: if LAPACK reports a failure.
    """
    values, vectors = scipy.linalg.eigh_tridiagonal(
        op.diag, op.offdiag, lapack_driver="stev"
    )
    return EigenDecomposition(values=values, vectors=vectors)


def expm_from_eig(dec, taus):
    """Normalized exp(-tau T) e_0 for every tau, from one eigendecomposition.

    With c_k = V[0, k], exp(-tau T) e_0 = Sum_k V[:, k] c_k e^{-tau lambda_k}.
    Each tau is shifted by its largest log-coefficient
    max_k (log|c_k| - tau lambda_k), so the largest weight is exactly 1
    and the vector norm is at least 1: nothing underflows even when the
    ground-state overlap is ~1e-180 (IR L = 1200).  The taus are evaluated
    TAU_BLOCK at a time, one matrix product per block.

    Returns:
        One KrylovState per tau, in input order; ``log_norm`` holds
        log ||exp(-tau T) e_0||.
    """
    taus = np.asarray(taus, dtype=float).reshape(-1)
    if np.any(taus < 0):
        raise ArgumentError("tau must be nonnegative")
    seed = dec.vectors[0]
    with np.errstate(divide="ignore"):
        log_seed = np.log(np.abs(seed))
    # Measuring from lambda_0 keeps tau * lambda small before the shift.
    gaps = dec.values - dec.values[0]
    states = []
    for start in range(0, taus.size, TAU_BLOCK):
        block = taus[start : start + TAU_BLOCK]
        logs = log_seed[:, None] - gaps[:, None] * block[None, :]
        shift = logs.max(axis=0)
        amps = dec.vectors @ (np.sign(seed)[:, None] * np.exp(logs - shift))
        norms = np.linalg.norm(amps, axis=0)
        log_norms = shift + np.log(norms) - block * dec.values[0]
        for j, tau in enumerate(block):
            states.append(
                KrylovState(
                    tau=float(tau),
                    psi=amps[:, j] / norms[j],
                    log_norm=float(log_norms[j]),
                )
            )
    return states


def expm_action(op, tau):
    """Normalized action of exp(-tau T) on e_0 = (1, 0, ..., 0).

    Args:
        op: TridiagonalOperator.
        tau: nonnegative imaginary time.

    Returns:
        KrylovState with Sum psi_n^2 = 1 within 1e-12.
    """
    return expm_from_eig(eig_tridiag(op), [tau])[0]


def expm_e0_scaled(op, tau):
    """Unnormalized propagation, split into a vector and a log scale.

    Returns (vec, log_scale) such that exp(-tau T) e_0 = e^{log_scale} vec
    with vec the unit-norm state.  The split form avoids overflow and is
    what the finite-difference consistency test uses.
    """
    state = expm_action(op, tau)
    return state.psi, state.log_norm


def orthonormalize(vectors, dependence_tol=1e-12):
    """Two-pass classical Gram-Schmidt orthonormalization.

    Each vector is projected against the already-accepted basis twice
    (re-orthogonalization), which keeps pairwise inner products at the
    1e-12 level even for badly scaled inputs.

    Args:
        vectors: sequence of equal-length real vectors.
        dependence_tol: a vector whose post-projection norm falls below
            dependence_tol times its original norm is declared dependent.

    Returns:
        List of orthonormal vectors spanning the same space.

    Raises:
        LinearDependenceError: carrying the index of the offending vector.
    """
    basis = []
    length = None
    for idx, vec in enumerate(vectors):
        w = np.array(vec, dtype=float)
        if w.ndim != 1:
            raise ArgumentError(f"vector {idx} is not 1-d")
        if length is None:
            length = w.size
        elif w.size != length:
            raise ArgumentError(
                f"vector {idx} has length {w.size}, expected {length}"
            )
        original_norm = np.linalg.norm(w)
        for _ in range(2):
            for q in basis:
                w -= (q @ w) * q
        norm = np.linalg.norm(w)
        if norm <= dependence_tol * original_norm or norm == 0.0:
            raise LinearDependenceError(
                f"vector {idx} is linearly dependent on its predecessors "
                f"(residual {norm:.3e} vs original {original_norm:.3e})",
                index=idx,
            )
        basis.append(w / norm)
    return basis
