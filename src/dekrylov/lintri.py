"""Real symmetric tridiagonal linear algebra.

Everything downstream works with effective Hamiltonians in a Krylov basis,
where they are real symmetric tridiagonal:

    T = tridiag(b, a, b),   a = (a_0, ..., a_{d-1}),   b = (b_1, ..., b_{d-1}).

This module provides the eigendecomposition in O(d^2) (the operator's
exact spectrum, which every operator carries, then one twisted three-term
recursion per eigenvector) and one propagation kernel that evaluates the
normalized imaginary-time action exp(-tau T) e_0 for an array of taus
with a per-tau log shift.  The propagated states are one KrylovState: a
read-only (taus x dim) wavepacket array with its taus, validated once, so
no Python object is built per tau.  No eigensolver and no LAPACK call
runs here: a clustered spectrum, whose twisted vectors are not
orthogonal, is refused with numpy.linalg.LinAlgError.  All arithmetic is
64-bit float; operations are pure functions over immutable inputs and are
safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError

# Largest |v_k . v_{k+1}| accepted from the twisted-recursion eigenvectors,
# half the 1e-10 orthonormality that the tests and criterion 10 require.
# Production operators, one pass at their exact eigenvalues, stay below it
# (IR L = 2000: 1.6e-11, L = 2044: 1.5e-11; NN L = 2044: 1.6e-14; S_y at
# 2s = 1200: 1e-14); clustered spectra exceed it (Wilkinson W21+: 8e-3).
ORTHOGONALITY_TOL = 5e-11
# Relative tolerance on the power sums Sum lambda and Sum lambda^2 of a
# given spectrum against tr T and tr T^2.  The closed-form spectra of NN
# and IR up to L = 10^4 and of S_y up to 2s = 10^4 miss by at most 4e-16.
SPECTRUM_RTOL = 1e-12
# Rows per block of the twisted recursion's pivot passes and twist choice:
# the pivot floor is tested once per block.
_ROW_BLOCK = 32
# Log of the smallest normal float: exp of anything below it is subnormal
# or zero.  On a 64 x 50001 block np.exp takes 5 ms over normal results,
# 52 ms where they underflow to zero and 371 ms where they are subnormal
# (2 vCPUs).
LOG_TINY = float(np.log(np.finfo(float).tiny))


def _readonly(arr, copy=True):
    """A read-only float copy of ``arr``; with copy=False a view where it can."""
    out = np.array(arr, dtype=float, copy=copy or None).view()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix given by its diagonal and off-diagonal.

    The off-diagonal entries must be strictly positive: a vanishing b_n
    means the Krylov space closed at dimension n, which is represented by
    constructing a smaller operator instead.

    ``spectrum`` is required: the exact eigenvalues in ascending order,
    which eig_tridiag uses in place of an eigensolver.  It is checked on
    construction: it must be finite and strictly ascending (a positive
    off-diagonal makes every eigenvalue simple), and its first two power
    sums must match tr T = Sum a_n and tr T^2 = Sum a_n^2 + 2 Sum b_n^2
    within SPECTRUM_RTOL, relative to Sum |lambda| and Sum lambda^2.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    spectrum: np.ndarray = field(repr=False)

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
        spectrum = _readonly(self.spectrum)
        if spectrum.shape != diag.shape:
            raise ArgumentError(
                f"spectrum must have length dim = {diag.size}, got shape {spectrum.shape}"
            )
        if not np.all(np.isfinite(spectrum)):
            raise ArgumentError("spectrum must be finite")
        if not np.all(np.diff(spectrum) > 0):
            raise ArgumentError("spectrum must be strictly ascending")
        trace = np.sum(diag)
        trace_sq = np.sum(diag**2) + 2.0 * np.sum(offdiag**2)
        for name, found, expected, scale in (
            ("Sum lambda", np.sum(spectrum), trace, np.sum(np.abs(spectrum))),
            ("Sum lambda^2", np.sum(spectrum**2), trace_sq, np.sum(spectrum**2)),
        ):
            if not abs(found - expected) <= SPECTRUM_RTOL * scale:
                raise ArgumentError(
                    f"spectrum does not match the operator: {name} = {found!r}, "
                    f"trace gives {expected!r}"
                )
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self):
        return self.diag.size

    def matvec(self, vec):
        """Apply T to a vector, or to each row of an (m, dim) array,
        without forming the dense matrix."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape[-1:] != (self.dim,):
            raise ArgumentError(f"vector shape {vec.shape} does not end in dim {self.dim}")
        out = self.diag * vec
        if self.dim > 1:
            out[..., :-1] += self.offdiag * vec[..., 1:]
            out[..., 1:] += self.offdiag * vec[..., :-1]
        return out


@dataclass(frozen=True, eq=False)
class KrylovState:
    """Normalized wavepackets psi_n(tau) over the Krylov index n, one row per tau.

    ``taus`` is (m,) and ``psi`` (m, dim): row j is the state at taus[j].
    A single state has a 0-d ``taus`` and a (dim,) ``psi``.

    The batch is validated once: every tau >= 0, every entry of psi
    finite, and every row unit-normalized within 1e-12.  ``psi`` becomes a
    read-only view of the given array, not a copy.
    """

    taus: np.ndarray
    psi: np.ndarray = field(repr=False)

    def __post_init__(self):
        taus = _readonly(self.taus)
        psi = _readonly(self.psi, copy=False)
        if taus.ndim > 1 or psi.shape[:-1] != taus.shape or psi.shape[-1:] in ((), (0,)):
            raise ArgumentError(
                f"psi shape {psi.shape} must be taus shape {taus.shape} + (dim,), "
                "with 0-d or 1-d taus"
            )
        if not np.all(taus >= 0):
            raise ArgumentError("tau must be nonnegative")
        # A non-finite entry makes its row's sum of squares non-finite, so
        # both checks run on the (m,) sums without an (m, dim) temporary.
        norm_sq = np.einsum("...n,...n->...", psi, psi)
        if not np.all(np.isfinite(norm_sq)):
            raise ArgumentError("psi must be finite")
        if not np.all(np.abs(norm_sq - 1.0) <= 1e-12):
            raise ArgumentError("psi must be unit-normalized (1e-12)")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "psi", psi)


def _floored_pivots(diag, shifts, off_sq, out):
    """One pass of pivots d_n = (diag[n] - shifts) - off_sq[n-1] / d_{n-1},
    floored, written over ``out``, whose row n holds diag[n] - shifts.

    The backward pass is this pass over row-reversed views.  The rows run
    unfloored, two numpy calls each, and the |d_n| < epsilon floor is
    tested once per _ROW_BLOCK rows.  In a block with a hit, the first
    row with one is floored and the rows after it are reset and run again
    from it, so every row equals the row-by-row floored recursion, and
    each floored row costs at most _ROW_BLOCK rows run again.  ``off_sq``
    is a list of Python floats.
    """
    dim = diag.size
    pivmin = np.finfo(float).eps
    rows = list(out)
    ratio = np.empty(shifts.size)
    start = 0
    # Rows after an unfloored zero pivot can be inf or nan; they are run
    # again before anything reads them.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while start < dim:
            stop = min(start + _ROW_BLOCK, dim)
            for n in range(max(start, 1), stop):
                np.divide(off_sq[n - 1], rows[n - 1], out=ratio)
                np.subtract(rows[n], ratio, out=rows[n])
            tiny = np.abs(out[start:stop]) < pivmin
            hits = np.flatnonzero(tiny.any(axis=1))
            if hits.size == 0:
                start = stop
                continue
            first = start + int(hits[0])
            rows[first][tiny[hits[0]]] = -pivmin
            np.subtract.outer(diag[first + 1 : stop], shifts, out=out[first + 1 : stop])
            start = first + 1


def _twisted_vectors(diag, offdiag, shifts):
    """Eigenvectors of tridiag(offdiag, diag, offdiag) at the given shifts.

    For each shift lambda (one column per shift), the forward pivots d+_n
    of T - lambda give the ratios v_n / v_{n+1} = -b_n / d+_n from row 0,
    and the backward pivots d-_n give v_{n+1} / v_n = -b_n / d-_{n+1}
    from row dim-1.  The twist r is the row with the smallest
    |gamma_r| = |d+_r - b_r^2 / d-_{r+1}| (gamma_{dim-1} = d+_{dim-1}),
    the largest such row on a tie; v_r = 1, and each ratio is multiplied
    outward from r only, where the components shrink, so a component of
    1e-300 keeps its relative accuracy.  The entries must be scaled to a
    norm below 1: pivots smaller than machine epsilon in magnitude are
    then set to -epsilon, a perturbation of T no larger than rounding,
    which keeps every ratio finite.

    O(dim^2) work in two (dim, dim) float buffers, both filled from one
    np.subtract.outer(diag, shifts): each pass runs over its buffer in
    place (see _floored_pivots, which tests the floor once per block of
    rows), the twist is chosen after both passes, _ROW_BLOCK rows of
    gamma at a time, and the back-substitution uses one (dim, dim)
    boolean mask at a time.

    Returns:
        (vectors, norm_sq): unnormalized columns with v_r = 1, and their
        squared norms.
    """
    dim = diag.size
    off_sq = offdiag**2
    top = np.subtract.outer(diag, shifts)
    bottom = top.copy()
    _floored_pivots(diag, shifts, off_sq.tolist(), top)
    _floored_pivots(diag[::-1], shifts, off_sq[::-1].tolist(), bottom[::-1])
    # The same twist as a strict-< scan from row dim-1 up: blocks run from
    # the bottom, a block's smallest |gamma| replaces the best so far only
    # if smaller, and within a block the largest row that attains it wins
    # (np.fmin skips a nan gamma, which the scan never takes).
    best = np.abs(top[dim - 1])
    twist = np.full(dim, dim - 1)
    rows = np.arange(dim)[:, None]
    for stop in range(dim - 1, 0, -_ROW_BLOCK):
        start = max(stop - _ROW_BLOCK, 0)
        gamma = np.divide(off_sq[start:stop, None], bottom[start + 1 : stop + 1])
        np.abs(np.subtract(top[start:stop], gamma, out=gamma), out=gamma)
        low = np.fmin.reduce(gamma, axis=0)
        better = low < best
        if better.any():
            np.copyto(best, low, where=better)
            np.copyto(twist, np.max((gamma == low) * rows[start:stop], axis=0), where=better)
    # top[n] becomes v_n / v_r above the twist and 1 elsewhere, bottom[n]
    # the same below the twist; their product is the vector.  Each is a
    # running product of the ratios v_n / v_{n+1} (top, from the last row
    # up) or v_{n+1} / v_n (bottom, from row 0 down), with ratio 1 on the
    # far side of the twist.  The products run one contiguous row at a
    # time: np.multiply.accumulate along axis 0 strides down the columns
    # and is slower past dim ~ 800.
    np.divide(-offdiag[:, None], top[:-1], out=top[:-1])
    np.copyto(top[:-1], 1.0, where=rows[:-1] >= twist)
    top[dim - 1] = 1.0
    for n in range(dim - 2, -1, -1):
        np.multiply(top[n + 1], top[n], out=top[n])
    np.divide(-offdiag[:, None], bottom[1:], out=bottom[1:])
    np.copyto(bottom[1:], 1.0, where=rows[1:] <= twist)
    bottom[0] = 1.0
    for n in range(1, dim):
        np.multiply(bottom[n - 1], bottom[n], out=bottom[n])
    top *= bottom
    del bottom
    return top, np.einsum("ij,ij->j", top, top)


def eig_tridiag(op):
    """Orthonormal eigenvectors of a symmetric tridiagonal operator in O(dim^2).

    The eigenvalues are the operator's exact ``spectrum``; no eigensolver
    runs.  The operator is scaled by a power of two to a norm in [1/2, 1),
    which is exact, and each eigenvector comes from one twisted three-term
    recursion at its eigenvalue (Dhillon & Parlett, Linear Algebra Appl.
    387 (2004) 1-28), O(dim) per vector.  The recursion runs outward from
    the twist, where the components shrink, so it keeps exponentially
    small components to full relative accuracy: at IR L = 500 the seed e_0
    overlaps the ground state at ~1e-76, and at L = 2000 at ~1e-301
    (criterion 4 checks both against exact values).  LAPACK ``stemr`` and
    ``stebz`` lose components that small.

    Twisted vectors of clustered eigenvalues lose orthogonality, and no
    other route is taken then: the decomposition is refused instead.

    Returns:
        A read-only (dim, dim) array whose column k is the eigenvector of
        op.spectrum[k].

    Raises:
        numpy.linalg.LinAlgError: if a vector norm is not finite, or two
            neighbouring vectors overlap by more than ORTHOGONALITY_TOL
            (clustered eigenvalues).
    """
    exponent = -np.frexp(np.max(np.abs(op.spectrum)))[1]
    diag, offdiag, shifts = (np.ldexp(x, exponent) for x in (op.diag, op.offdiag, op.spectrum))
    vectors, norm_sq = _twisted_vectors(diag, offdiag, shifts)
    if not np.all(np.isfinite(norm_sq)):
        raise np.linalg.LinAlgError("tridiagonal eigenvector norms are not finite")
    vectors /= np.sqrt(norm_sq)
    overlaps = np.abs(np.einsum("ij,ij->j", vectors[:, :-1], vectors[:, 1:]))
    if np.any(overlaps > ORTHOGONALITY_TOL):
        k = int(np.argmax(overlaps))
        raise np.linalg.LinAlgError(
            f"eigenvectors {k} and {k + 1} overlap by {overlaps[k]:.3g} > "
            f"{ORTHOGONALITY_TOL:g}: clustered eigenvalues at dimension {op.dim}"
        )
    return _readonly(vectors, copy=False)


def exp_from_max(logs):
    """Exponentiate logs shifted by their maximum along the last axis, in place.

    Each row ends up with its largest entry exactly 1.  An entry whose
    shifted log is below LOG_TINY becomes an exact 0.0 without going
    through np.exp: its value would be subnormal or zero, too small to
    move a sum that holds a 1.  -inf entries give 0.0 as under np.exp, and
    a NaN still propagates.

    Returns:
        The shifts, the row maxima (a 0-d array for a 1-d input).
    """
    shifts = logs.max(axis=-1)
    logs -= shifts[..., None]
    dead = logs < LOG_TINY
    np.exp(logs, out=logs, where=~dead)
    np.copyto(logs, 0.0, where=dead)
    return shifts


def expm_from_eig(op, taus):
    """Normalized exp(-tau T) e_0 for every tau, from one eigendecomposition.

    With V = eig_tridiag(op) and c_k = V[0, k],
    exp(-tau T) e_0 = Sum_k V[:, k] c_k e^{-tau lambda_k}.  Each tau is
    shifted by its largest log-coefficient max_k (log|c_k| - tau lambda_k),
    so the largest weight is exactly 1 and the vector norm is at least 1
    (exp_from_max, which zeroes the weights that would be subnormal):
    nothing underflows even when the ground-state overlap is ~1e-180 (IR
    L = 1200).  Each row is reduced on its own (einsum: a BLAS product's
    summation order depends on the other rows), so no tau's bits depend on
    the other taus of the call.

    A seed component below the smallest normal float (IR and NN past
    L ~ 2045, where the extreme overlap 2^{-(L-1)/2} leaves the normal
    range) has lost its value, and its eigenstate would silently drop
    out of the propagation, so it is an error instead.

    Returns:
        One KrylovState: row j of ``psi`` is the state at taus[j], in input
        order.  A scalar tau gives a single state.

    Raises:
        numpy.linalg.LinAlgError: if eig_tridiag refuses the operator, or
            a seed overlap |V[0, k]| is zero or subnormal.
    """
    taus = np.asarray(taus, dtype=float)
    vectors = eig_tridiag(op)
    seed = vectors[0]
    magnitudes = np.abs(seed)
    if magnitudes.min() < np.finfo(float).tiny:
        raise np.linalg.LinAlgError(
            f"seed overlap |V[0, k]| = {magnitudes.min():.3g} underflows "
            f"binary64 at Krylov dimension {seed.size}"
        )
    # Measuring from lambda_0 keeps tau * lambda small before the shift.
    logs = np.log(magnitudes) - taus.reshape(-1, 1) * (op.spectrum - op.spectrum[0])
    exp_from_max(logs)
    psi = np.einsum("jk,nk->jn", np.sign(seed) * logs, vectors)
    psi /= np.sqrt(np.einsum("jn,jn->j", psi, psi))[:, None]
    return KrylovState(taus=taus, psi=psi.reshape(taus.shape + (seed.size,)))
