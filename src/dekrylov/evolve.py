"""Imaginary-time observables in the Krylov representation.

The evolved state |rho(tau)> = e^{-tau H} |rho_init> is expanded over the
Krylov basis, |rho(tau)> = Sum_n psi_n(tau) |K_n>, and everything here is
a functional of the normalized wavepacket psi:

  * Krylov complexity K(tau) = Sum_n n psi_n^2, the mean number of noise
    events absorbed by the state;
  * the Renyi-2 correlator chi(tau) = (1/L^2) Sum_ij <rho| Z_i^u Z_i^l
    Z_j^u Z_j^l |rho> / <rho|rho>, the order diagnostic for
    strong-to-weak symmetry breaking, either from the tridiagonal matrix
    elements (IR) or from exact dense evolution (L <= 14), summed over
    the at most L energy levels of the diagonal reduced Hamiltonian;
  * survival moments mu_n = <rho_init| H^n |rho_init>, cross-checkable
    against the tridiagonal representation.

Scans run one length at a time: one eigendecomposition and one batched
propagation serve every tau of that length, and complexity and
renyi2_tridiag reduce the whole (taus x dim) batch to one array each.
Every function here is pure, and rows are plain (L, tau, K, K_norm, chi)
tuples built from those arrays.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb

import numpy as np

from . import lintri
from .errors import ArgumentError
from .models import REDUCED_MAX_LENGTH, ModelKind, reduced_diagonal

__all__ = [
    "complexity",
    "renyi2_tridiag",
    "renyi2_dense",
    "survival_moments_nn",
    "moments_from_tridiag",
    "scan_point",
]


def _weighted_row_sums(left, weights, right):
    """Sum_n left[..., n] weights[n] right[..., n], one value per row.

    The rows go TAU_BLOCK at a time, one BLAS product per block, so the
    elementwise product never takes more than a (TAU_BLOCK, dim) work
    array, however many taus the batch holds.
    """
    lefts = left.reshape(-1, left.shape[-1])
    rights = right.reshape(-1, right.shape[-1])
    sums = np.empty(lefts.shape[0])
    for start in range(0, sums.size, lintri.TAU_BLOCK):
        stop = start + lintri.TAU_BLOCK
        sums[start:stop] = (lefts[start:stop] * rights[start:stop]) @ weights
    return sums.reshape(left.shape[:-1])[()]


def complexity(state):
    """Krylov complexity K = Sum_n n psi_n^2 of each state of a batch.

    Returns an (m,) array for an (m, dim) batch and a scalar for a single
    state.
    """
    return _weighted_row_sums(state.psi, np.arange(state.dim, dtype=float), state.psi)


def renyi2_tridiag(spec, state):
    """Renyi-2 correlator from the tridiagonal representation (IR only).

    For the IR model, (1/L) Sum_ij Z_i^u Z_i^l Z_j^u Z_j^l = L - 2 H^IR as
    operators on the positive-parity sector, so

        chi = -[Sum_n (2 a_n - L) psi_n^2
                + 4 Sum_n b_{n+1} psi_{n+1} psi_n] / L
            = 1 - 2 <psi| T |psi> / L.

    The factor convention is pinned by renyi2_dense: the two agree to
    1e-9 over L <= 12 (verification suite).  Like complexity, it reduces
    an (m, dim) batch to an (m,) array and a single state to a scalar.
    """
    if spec.model.kind is not ModelKind.IR:
        raise ArgumentError("renyi2_tridiag applies to the IR model only")
    if state.dim != spec.krylov_dim:
        raise ArgumentError(
            f"state dim {state.dim} != krylov dim {spec.krylov_dim}"
        )
    psi = state.psi
    tri = spec.tridiag
    expectation = _weighted_row_sums(psi, tri.diag, psi)
    if tri.dim > 1:
        expectation = expectation + 2.0 * _weighted_row_sums(
            psi[..., 1:], tri.offdiag, psi[..., :-1]
        )
    return 1.0 - 2.0 * expectation / spec.model.length


def renyi2_dense(model, taus):
    """Renyi-2 correlator by exact dense evolution (L <= 14, both models).

    The reduced Hamiltonian is diagonal, so e^{-tau H} acts elementwise;
    with M(s) = Sum_i tau^z_i(s),

        chi = Sum_s v_s^2 M(s)^2 / (L^2 Sum_s v_s^2),

    where v = e^{-tau H} applied to the uniform initial vector.  The
    i = j identity terms are included, giving chi(0) = 1/L.

    The diagonal takes at most L distinct values, so the sums run over
    energy levels E, not over the 2^L states:

        chi = Sum_E e^{-2 tau E} S_E / (L^2 Sum_E e^{-2 tau E} N_E),

    with N_E the number of states at level E and S_E the sum of their
    M^2, both exact integers.  The levels are shifted so the ground level
    is 0, which keeps every exponential <= 1 at any tau.

    ``taus`` is a float or a sequence of floats; the result is a float or
    an array of the same shape.
    """
    tau_arr = np.asarray(taus, dtype=float)
    if np.any(tau_arr < 0):
        raise ArgumentError("tau must be nonnegative")
    length = model.length
    diag = reduced_diagonal(model)  # enforces the L <= 14 cap
    levels, level_of = np.unique(diag - diag.min(), return_inverse=True)
    magnetization = length - 2.0 * np.bitwise_count(np.arange(diag.size))
    counts = np.bincount(level_of)
    magnetization_sq = np.bincount(level_of, weights=magnetization**2)
    weights = np.exp(-2.0 * tau_arr[..., None] * levels)
    chi = (weights @ magnetization_sq) / (length**2 * (weights @ counts))
    return float(chi) if chi.ndim == 0 else chi


def survival_moments_nn(length, n_max):
    """Exact NN survival moments mu_n = E[(2k - L + 1)^n], k ~ Bin(L-1, 1/2).

    Evaluated in exact integer arithmetic and promoted to float at the
    end.  mu_0 = 1, mu_1 = 0, mu_2 = L - 1 hold exactly.
    """
    if length < 2 or length > 64:
        raise ArgumentError("length must lie in [2, 64]")
    if not 0 <= n_max <= 20:
        raise ArgumentError("n_max must lie in [0, 20]")
    scale = 2 ** (length - 1)
    moments = []
    for n in range(n_max + 1):
        total = sum(
            comb(length - 1, k) * (2 * k - length + 1) ** n
            for k in range(length)
        )
        moments.append(float(Fraction(total, scale)))
    return np.array(moments)


def moments_from_tridiag(tri, n_max):
    """Moments <e_0| T^n |e_0> by repeated tridiagonal application."""
    if not 0 <= n_max <= 2 * tri.dim:
        raise ArgumentError(f"n_max must lie in [0, {2 * tri.dim}]")
    vec = np.zeros(tri.dim)
    vec[0] = 1.0
    moments = [1.0]
    for _ in range(n_max):
        vec = tri.matvec(vec)
        moments.append(float(vec[0]))
    return np.array(moments[: n_max + 1])


def scan_point(spec, decomposition, taus):
    """Scan rows (L, tau, K, K_norm, chi) of one length over ``taus``.

    One batched propagation serves every tau, and each observable is one
    array over the batch.  Rows are plain tuples in the order of
    ``taus``.  ``K_norm`` is K/(L-1) for the NN model and K/L for the IR
    model.  chi uses the tridiagonal formula for IR and dense evolution
    for NN at L <= 14; otherwise it is None.

    Raises:
        ArgumentError: if a K is negative or a chi lies outside
            [-1e-10, 1 + 1e-10].
    """
    model = spec.model
    batch = lintri.expm_from_eig(decomposition, taus)
    k = complexity(batch)
    if model.kind is ModelKind.NN:
        norm = model.length - 1
        dense = model.length <= REDUCED_MAX_LENGTH
        chis = renyi2_dense(model, batch.taus) if dense else None
    else:
        norm = model.length
        chis = renyi2_tridiag(spec, batch)
    if np.any(k < 0):
        raise ArgumentError("K must be nonnegative")
    if chis is not None and not np.all((chis >= -1e-10) & (chis <= 1.0 + 1e-10)):
        raise ArgumentError(f"chi out of [0, 1]: {chis.min()!r} to {chis.max()!r}")
    return list(
        zip(
            repeat(model.length),
            batch.taus.tolist(),
            k.tolist(),
            (k / norm).tolist(),
            repeat(None) if chis is None else chis.tolist(),
        )
    )
