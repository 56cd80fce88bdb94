"""Decohered Ising models: specs and closed forms.

Two dephasing channels on an open chain of L qubits are covered:

  NN: nearest-neighbor two-site dephasing, bond channels
      E_i[rho] = (1-p) rho + p Z_i Z_{i+1} rho Z_i Z_{i+1}, i = 0..L-2,
      equal to e^{-(L-1) tau} e^{-tau H} with tau = -ln(1-2p)/2;

  IR: infinite-range dephasing over all pairs, exactly e^{-tau H}.

Both effective Hamiltonians commute with the layer-swap parities of the
doubled space, and on the positive-parity sector (tau^z product basis,
dimension 2^L) they are diagonal:

  NN:  H = -Sum_i tau^z_i tau^z_{i+1}
  IR:  H = -Sum_{i<j} (tau^z_i tau^z_j - 1)/L     (stored with its +L/2
       offset so the Lanczos diagonal matches the closed form literally).

The initial state is the uniform vector Prod_i (|up_i> + |down_i>)/sqrt(2).
Closed forms: the NN Krylov space has dimension exactly L with b_n =
sqrt(n(L-n)) (a free collective spin after the Kramers-Wannier map); the
IR Krylov space has dimension L/2+1 with the collective-spin coefficients
implemented in analytic_lanczos.  Both tridiagonals carry their exact
spectra (their eigendecomposition needs no eigensolver), and the seed's
overlaps with their eigenvectors are binomial (spectral_measure), built
from exact ratios in log_binomial_pmf, with no log-gamma.  Only what a
scan needs lives here.  The explicit Kraus channels and the seed as a
doubled-space state live in dekrylov.doubled; the per-site spins, the
dense reduced diagonal, the Kramers-Wannier dual and the area- and
volume-law limits, which only verification compares against, live in
dekrylov.oracle.  This module, which every scan imports, imports only
errors and lintri.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError
from .lintri import KrylovState, TridiagonalOperator

REDUCED_MAX_LENGTH = 14  # dense 2^L paths stop here (16384 amplitudes)


class ModelKind(enum.Enum):
    NN = "nn"
    IR = "ir"


@dataclass(frozen=True)
class ModelSpec:
    """A decohered system: model kind and chain length."""

    kind: ModelKind
    length: int

    def __post_init__(self):
        if self.length < 2:
            raise ArgumentError("length must be at least 2")
        if self.kind is ModelKind.IR and self.length % 2:
            raise DomainError("IR model requires even L")


@dataclass(frozen=True)
class KrylovSpec:
    """Krylov-space data of a model: dimension and tridiagonal operator."""

    model: ModelSpec
    tridiag: TridiagonalOperator

    @property
    def krylov_dim(self):
        """Dimension of the Krylov space, the size of the tridiagonal."""
        return self.tridiag.dim


def reduced_levels(model):
    """Energy levels of the reduced Hamiltonian, indexed by an integer.

    Returns (level, energies): level[x] is the level of basis state x and
    energies[k] the diagonal at level k measured from the ground level, in
    closed form.  NN levels are the domain-wall counts w, with energy 2w;
    IR levels are |M|, M = Sum_i z_i, with energy (L^2 - M^2)/(2L).  The
    IR levels of the wrong parity, which no state takes, are listed too.
    A domain wall of x is a bond with z_i != z_{i+1}, a set bit of
    x ^ (x >> 1) below bit L-1.
    """
    length = model.length
    if length > REDUCED_MAX_LENGTH:
        raise ArgumentError(
            f"dense reduced-sector path is capped at L <= {REDUCED_MAX_LENGTH}"
        )
    states = np.arange(2**length)
    if model.kind is ModelKind.NN:
        walls = np.bitwise_count((states ^ (states >> 1)) & ((1 << (length - 1)) - 1))
        return walls, 2.0 * np.arange(length)
    levels = np.arange(length + 1)
    magnetization = length - 2 * np.bitwise_count(states).astype(np.int64)
    return np.abs(magnetization), (length**2 - levels**2) / (2.0 * length)


def log_binomial_pmf(n):
    """log(C(n, k) / 2^n) for k = 0..n: one cumsum of the exact ratios
    log C(n, k+1) - log C(n, k) = log1p((n - 2k - 1)/(k + 1)) from the
    centre k = n//2 up, its mirror below, and one log-sum-exp."""
    k = np.arange(n // 2, n, dtype=float)
    upper = np.concatenate(([0.0], np.cumsum(np.log1p((n - 2.0 * k - 1.0) / (k + 1.0)))))
    logs = np.concatenate((upper[::-1][: n // 2], upper))
    return logs - math.log(np.exp(logs).sum())


def spectral_measure(model):
    """(nodes, log_weights): the ascending eigenvalues of the closed-form
    tridiagonal and the squared overlaps of e_0 with their eigenvectors.

    NN: nodes 2k - (L-1), weights C(L-1, k) / 2^(L-1), k = 0..L-1;
    IR: nodes L/2 - 2 m^2/L, weights C(L, L/2+m) (2 - delta_{m0}) / 2^L,
        m = L/2 down to 0.  The weights sum to 1.
    """
    length = model.length
    if model.kind is ModelKind.NN:
        nodes = 2.0 * np.arange(length) - (length - 1.0)
        return nodes, log_binomial_pmf(length - 1)
    magnetization = np.arange(length // 2, -1, -1.0)
    nodes = length / 2.0 - 2.0 * magnetization**2 / length
    log_weights = log_binomial_pmf(length)[length // 2 :][::-1]
    log_weights[:-1] += math.log(2.0)
    return nodes, log_weights


def analytic_lanczos(model):
    """Closed-form Lanczos coefficients, spectrum from spectral_measure.

    NN: a_n = 0, b_n = sqrt(n(L-n)), Krylov dimension L.
    IR: a_n = -2n + 4n^2/L - 1/2 + L/2 for n = 0..L/2 and
        b_n = sqrt(2n(L-2n+1)(2n-1)(L-2n+2)) / (2L), dimension L/2+1.
    """
    length = model.length
    spectrum = spectral_measure(model)[0]
    if model.kind is ModelKind.NN:
        steps = np.arange(1.0, length)
        tridiag = TridiagonalOperator(
            diag=np.zeros(length), offdiag=np.sqrt(steps * (length - steps)), spectrum=spectrum
        )
        return KrylovSpec(model=model, tridiag=tridiag)
    n = np.arange(0.0, length // 2 + 1)
    diag = -2.0 * n + 4.0 * n**2 / length - 0.5 + length / 2.0
    m = np.arange(1.0, length // 2 + 1)
    offdiag = np.sqrt(
        2.0 * m * (length - 2.0 * m + 1.0) * (2.0 * m - 1.0) * (length - 2.0 * m + 2.0)
    ) / (2.0 * length)
    tridiag = TridiagonalOperator(diag=diag, offdiag=offdiag, spectrum=spectrum)
    return KrylovSpec(model=model, tridiag=tridiag)


def nn_lambda(tau):
    """The NN spreading weight lambda = sinh^2(tau) / (1 + 2 sinh^2(tau)).

    Evaluated as (1 - sech(2 tau))/2 through decaying exponentials, which
    stays accurate for arbitrarily large tau (limit 1/2).  ``tau`` is a
    float or an array; the result is a float or an array of its shape.
    """
    tau = np.asarray(tau, dtype=float)
    if not np.all(tau >= 0):
        raise ArgumentError("tau must be nonnegative")
    e2 = np.exp(-2.0 * tau)
    lam = 0.5 * (1.0 - 2.0 * e2 / (1.0 + e2 * e2))
    return float(lam) if lam.ndim == 0 else lam


def psi_nn_analytic(length, tau):
    """Closed-form NN wavepacket.

    psi_n = (-1)^n sqrt(C(L-1, n) lambda^n (1-lambda)^{L-1-n}); the signed
    square root of a binomial profile, each entry to relative accuracy.
    Returns a single KrylovState: 0-d ``taus`` and a (L,) ``psi``.
    """
    if length < 2:
        raise ArgumentError("length must be at least 2")
    lam = nn_lambda(tau)
    if lam == 0.0:
        psi = np.zeros(length)
        psi[0] = 1.0
        return KrylovState(taus=float(tau), psi=psi)
    n = np.arange(length)
    log_psi2 = (
        log_binomial_pmf(length - 1)
        + n * math.log(2.0 * lam)
        + (length - 1 - n) * math.log(2.0 - 2.0 * lam)
    )
    psi = (-1.0) ** n * np.exp(0.5 * log_psi2)
    psi /= np.linalg.norm(psi)
    return KrylovState(taus=float(tau), psi=psi)


def k_nn_analytic(length, tau):
    """Closed-form NN Krylov complexity K = (L-1) lambda; limit (L-1)/2.

    ``tau`` is a float or an array, as for nn_lambda.
    """
    if length < 2:
        raise ArgumentError("length must be at least 2")
    return (length - 1) * nn_lambda(tau)
