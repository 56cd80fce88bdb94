"""Real symmetric tridiagonal linear algebra.

Everything downstream works with effective Hamiltonians in a Krylov basis,
where they are real symmetric tridiagonal:

    T = tridiag(b, a, b),   a = (a_0, ..., a_{d-1}),   b = (b_1, ..., b_{d-1}).

This module provides the eigendecomposition in O(d^2) (LAPACK ``?stev``
eigenvalues through scipy, then one twisted three-term recursion per
eigenvector), one propagation kernel that evaluates the normalized
imaginary-time action exp(-tau T) e_0 for a batch of taus with a per-tau
log shift, and a two-pass classical Gram-Schmidt used to build dense
Krylov bases.  All arithmetic is 64-bit float; operations are pure
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
# Relative residual norm under which orthonormalize declares a vector
# dependent on its predecessors.
DEPENDENCE_RTOL = 1e-12
# Largest |v_k . v_{k+1}| accepted from the twisted-recursion eigenvectors,
# half the 1e-10 orthonormality that the tests and criterion 10 require.
# Production operators stay below it (IR L = 2000: 1.6e-11; NN L = 1000
# and S_y at 2s = 1200: 1e-14); clustered spectra exceed it (Wilkinson
# W21+: 8e-3).
ORTHOGONALITY_TOL = 5e-11


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


def _twisted_vectors(diag, offdiag, shifts):
    """Eigenvectors of tridiag(offdiag, diag, offdiag) at the given shifts.

    For each shift lambda (one column per shift), the forward pivots d+_n
    of T - lambda give the ratios v_n / v_{n+1} = -b_n / d+_n from row 0,
    and the backward pivots d-_n give v_{n+1} / v_n = -b_n / d-_{n+1}
    from row dim-1.  The twist r is the row with the smallest
    |gamma_r| = |d+_r - b_r^2 / d-_{r+1}|; v_r = 1, and each ratio is
    multiplied outward from r only, where the components shrink, so a
    component of 1e-300 keeps its relative accuracy.  The entries must be
    scaled to a norm below 1: pivots smaller than machine epsilon in
    magnitude are then set to -epsilon, a perturbation of T no larger
    than rounding, which keeps every ratio finite.  O(dim^2) work in two
    (dim, dim) buffers.

    Returns:
        (vectors, gamma, norm_sq): unnormalized columns with v_r = 1, the
        signed gamma_r, and the squared column norms.
    """
    dim = diag.size
    pivmin = np.finfo(float).eps
    off_sq = offdiag**2

    def floored(row):
        row[np.abs(row) < pivmin] = -pivmin
        return row

    top = np.empty((dim, dim))
    bottom = np.empty((dim, dim))
    floored(np.subtract(diag[0], shifts, out=top[0]))
    for n in range(1, dim):
        row = np.subtract(diag[n], shifts, out=top[n])
        floored(np.subtract(row, off_sq[n - 1] / top[n - 1], out=row))
    gamma = top[dim - 1].copy()
    twist = np.full(dim, dim - 1)
    floored(np.subtract(diag[dim - 1], shifts, out=bottom[dim - 1]))
    for n in range(dim - 2, -1, -1):
        coupling = off_sq[n] / bottom[n + 1]
        row = np.subtract(diag[n], shifts, out=bottom[n])
        floored(np.subtract(row, coupling, out=row))
        cand = np.subtract(top[n], coupling, out=coupling)
        better = np.abs(cand) < np.abs(gamma)
        gamma[better] = cand[better]
        twist[better] = n
    # top[n] becomes v_n / v_r above the twist and 1 elsewhere, bottom[n]
    # the same below the twist; their product is the vector.
    top[dim - 1] = 1.0
    for n in range(dim - 2, -1, -1):
        row = np.divide(-offdiag[n], top[n], out=top[n])
        row[twist <= n] = 1.0
        row *= top[n + 1]
    bottom[0] = 1.0
    for n in range(1, dim):
        row = np.divide(-offdiag[n - 1], bottom[n], out=bottom[n])
        row[twist >= n] = 1.0
        row *= bottom[n - 1]
    top *= bottom
    del bottom
    return top, gamma, np.einsum("ij,ij->j", top, top)


def _twisted_eigenpairs(op, values):
    """Eigenpairs from ``values`` in O(dim^2), or None if they are unusable.

    The operator is scaled by a power of two to a norm in [1/2, 1), which
    is exact.  One Rayleigh-quotient step, lambda + gamma_r / ||v||^2,
    moves each eigenvalue closer before the vectors are built: it makes
    the eigenvalues 3 to 1000 times more accurate than ``?stev``'s and
    cuts the vectors' loss of orthogonality about tenfold (IR L = 2000:
    1.4e-10 to 1.6e-11).  None means the pairs are not finite, not
    ascending, or two neighbouring vectors overlap by more than
    ORTHOGONALITY_TOL, which happens when eigenvalues cluster.
    """
    if not np.all(np.isfinite(values)):
        return None
    exponent = -np.frexp(np.max(np.abs(values)))[1]
    diag, offdiag, values = (np.ldexp(x, exponent) for x in (op.diag, op.offdiag, values))
    # [1:] drops the first pass's vectors before the second pass allocates.
    gamma, norm_sq = _twisted_vectors(diag, offdiag, values)[1:]
    shifts = values + gamma / norm_sq
    vectors, _, norm_sq = _twisted_vectors(diag, offdiag, shifts)
    if not (np.all(np.isfinite(norm_sq)) and np.all(np.diff(shifts) > 0)):
        return None
    vectors /= np.sqrt(norm_sq)
    overlaps = np.einsum("ij,ij->j", vectors[:, :-1], vectors[:, 1:])
    if np.any(np.abs(overlaps) > ORTHOGONALITY_TOL):
        return None
    return np.ldexp(shifts, -exponent), vectors


def eig_tridiag(op):
    """Eigendecompose a symmetric tridiagonal operator in O(dim^2).

    The eigenvalues come from LAPACK ``?stev`` without vectors (root-free
    QL/QR, O(dim^2)), refined by one Rayleigh-quotient step; each
    eigenvector comes from a twisted three-term recursion at its
    eigenvalue (Dhillon & Parlett, Linear Algebra Appl. 387 (2004) 1-28),
    O(dim) per vector.  The recursion runs outward
    from the twist, where the components shrink, so it keeps exponentially
    small components to full relative accuracy: at IR L = 500 the seed
    e_0 overlaps the ground state at ~1e-76, and at L = 2000 at ~1e-301
    (criterion 4 checks both against exact values).  LAPACK ``stemr`` and
    ``stebz`` lose components that small.

    When eigenvalues cluster, twisted vectors lose orthogonality; then,
    detected from the overlaps of neighbouring vectors, the pairs come
    from ``?stev`` with accumulated rotations, O(dim^3).

    Returns:
        EigenDecomposition, eigenvalues ascending, orthonormal vectors.

    Raises:
        numpy.linalg.LinAlgError: if LAPACK reports a failure or the
            decomposition is not finite.
    """
    values = scipy.linalg.eigh_tridiagonal(
        op.diag, op.offdiag, eigvals_only=True, lapack_driver="stev"
    )
    pairs = _twisted_eigenpairs(op, values)
    if pairs is None:
        pairs = scipy.linalg.eigh_tridiagonal(op.diag, op.offdiag, lapack_driver="stev")
        if not all(np.all(np.isfinite(part)) for part in pairs):
            raise np.linalg.LinAlgError("tridiagonal eigendecomposition is not finite")
    values, vectors = pairs
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


def orthonormalize(vectors):
    """Two-pass classical Gram-Schmidt orthonormalization.

    Each vector is projected against the already-accepted basis twice
    (re-orthogonalization), which keeps pairwise inner products at the
    1e-12 level even for badly scaled inputs.

    Args:
        vectors: sequence of equal-length real vectors.  A vector whose
            post-projection norm falls below DEPENDENCE_RTOL times its
            original norm is declared dependent.

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
        if norm <= DEPENDENCE_RTOL * original_norm or norm == 0.0:
            raise LinearDependenceError(
                f"vector {idx} is linearly dependent on its predecessors "
                f"(residual {norm:.3e} vs original {original_norm:.3e})",
                index=idx,
            )
        basis.append(w / norm)
    return basis
