"""Imaginary-time observables in the Krylov representation.

The evolved state |rho(tau)> = e^{-tau H} |rho_init> is expanded over the
Krylov basis, |rho(tau)> = Sum_n psi_n(tau) |K_n>, and everything here is
a functional of the normalized wavepacket psi:

  * Krylov complexity K(tau) = Sum_n n psi_n^2, the mean number of noise
    events absorbed by the state;
  * the Renyi-2 correlator chi(tau) = (1/L^2) Sum_ij <rho| Z_i^u Z_i^l
    Z_j^u Z_j^l |rho> / <rho|rho>, the order diagnostic for
    strong-to-weak symmetry breaking, either from the tridiagonal matrix
    elements (IR) or from exact dense evolution (L <= 14);
  * survival moments mu_n = <rho_init| H^n |rho_init>, cross-checkable
    against the tridiagonal representation.

Scans run one length at a time: one eigendecomposition and one batched
propagation serve every tau of that length.  Every function here is pure,
and rows carry their own (L, tau) key.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

import numpy as np

from . import lintri
from .errors import ArgumentError
from .models import REDUCED_MAX_LENGTH, ModelKind, reduced_diagonal, site_spins

__all__ = [
    "ScanRow",
    "complexity",
    "renyi2_tridiag",
    "renyi2_dense",
    "survival_moments_nn",
    "moments_from_tridiag",
    "scan_point",
]


@dataclass(frozen=True)
class ScanRow:
    """One (L, tau) scan point of a model with its observables.

    ``k_norm`` is K/(L-1) for the NN model and K/L for the IR model;
    ``chi`` is None where no exact method applies (NN beyond L = 14).
    """

    length: int
    tau: float
    k: float
    k_norm: float
    chi: Optional[float]

    def __post_init__(self):
        if self.k < 0:
            raise ArgumentError("K must be nonnegative")
        if self.chi is not None and not -1e-10 <= self.chi <= 1.0 + 1e-10:
            raise ArgumentError(f"chi out of [0, 1]: {self.chi!r}")


def complexity(state):
    """Krylov complexity K = Sum_n n psi_n^2 of a normalized state."""
    return float(np.arange(state.dim) @ (state.psi * state.psi))


def renyi2_tridiag(spec, state):
    """Renyi-2 correlator from the tridiagonal representation (IR only).

    For the IR model, (1/L) Sum_ij Z_i^u Z_i^l Z_j^u Z_j^l = L - 2 H^IR as
    operators on the positive-parity sector, so

        chi = -[Sum_n (2 a_n - L) psi_n^2
                + 4 Sum_n b_{n+1} psi_{n+1} psi_n] / L
            = 1 - 2 <psi| T |psi> / L.

    The factor convention is pinned by renyi2_dense: the two agree to
    1e-9 over L <= 12 (verification suite).
    """
    if spec.model.kind is not ModelKind.IR:
        raise ArgumentError("renyi2_tridiag applies to the IR model only")
    if state.dim != spec.krylov_dim:
        raise ArgumentError(
            f"state dim {state.dim} != krylov dim {spec.krylov_dim}"
        )
    psi = state.psi
    tri = spec.tridiag
    expectation = float(tri.diag @ (psi * psi))
    if tri.dim > 1:
        expectation += 2.0 * float(tri.offdiag @ (psi[1:] * psi[:-1]))
    return 1.0 - 2.0 * expectation / spec.model.length


def renyi2_dense(model, taus):
    """Renyi-2 correlator by exact dense evolution (L <= 14, both models).

    The reduced Hamiltonian is diagonal, so e^{-tau H} acts elementwise;
    with M(s) = Sum_i tau^z_i(s),

        chi = Sum_s v_s^2 M(s)^2 / (L^2 Sum_s v_s^2),

    where v = e^{-tau H} applied to the uniform initial vector.  The
    i = j identity terms are included, giving chi(0) = 1/L.

    ``taus`` is a float or a sequence of floats; the result is a float or
    an array of the same shape.  The diagonal and the magnetization are
    built once per call, whatever the number of taus.
    """
    tau_arr = np.asarray(taus, dtype=float)
    if np.any(tau_arr < 0):
        raise ArgumentError("tau must be nonnegative")
    length = model.length
    diag = reduced_diagonal(model)  # enforces the L <= 14 cap
    magnetization_sq = site_spins(length).sum(axis=1) ** 2
    # Uniform initial amplitudes cancel in the ratio; shift the diagonal
    # so the elementwise exponential cannot overflow at large tau.
    shifted = diag - diag.min()
    chi = np.empty(tau_arr.shape)
    for index, tau in np.ndenumerate(tau_arr):
        weights = np.exp(-2.0 * tau * shifted)
        chi[index] = (weights @ magnetization_sq) / (length**2 * weights.sum())
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
    """Scan rows of one length over ``taus``, from one batched propagation.

    Pure function of (spec, decomposition, taus); rows come in the order
    of ``taus``.  chi uses the tridiagonal formula for IR and dense
    evolution for NN at L <= 14; otherwise it is None.
    """
    model = spec.model
    states = lintri.expm_from_eig(decomposition, taus)
    if model.kind is ModelKind.NN:
        norm = model.length - 1
        dense = model.length <= REDUCED_MAX_LENGTH
        chis = renyi2_dense(model, taus) if dense else [None] * len(states)
    else:
        norm = model.length
        chis = [renyi2_tridiag(spec, state) for state in states]
    rows = []
    for state, chi in zip(states, chis):
        k = complexity(state)
        rows.append(
            ScanRow(
                length=model.length,
                tau=state.tau,
                k=k,
                k_norm=k / norm,
                chi=None if chi is None else float(chi),
            )
        )
    return rows
