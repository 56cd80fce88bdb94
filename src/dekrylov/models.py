"""Decohered Ising models: specs and closed-form references.

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
spectra, so their eigendecomposition needs no eigensolver.  Binomials
beyond L = 30 go through log-gamma (math.lgamma, elementwise); tests
cross-check against exact integer arithmetic below that.  The explicit
Kraus channels and the seed as a doubled-space state belong to the
verification layer and live in dekrylov.doubled, so this module, which
every scan imports, imports only errors and lintri.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError
from .lintri import KrylovState, TridiagonalOperator

REDUCED_MAX_LENGTH = 14  # dense 2^L paths stop here (16384 amplitudes)

# math.lgamma over an array; every argument here is an integer plus 1.
_lgamma = np.vectorize(math.lgamma, otypes=[float])


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


def _check_reduced_length(length):
    if length > REDUCED_MAX_LENGTH:
        raise ArgumentError(
            f"dense reduced-sector path is capped at L <= {REDUCED_MAX_LENGTH}"
        )


def site_spins(length):
    """(2^L, L) array of tau^z = +/-1 values per basis state and site."""
    states = np.arange(2**length)
    bits = (states[:, None] >> np.arange(length)) & 1
    return 1.0 - 2.0 * bits


def _domain_walls(states, length):
    """Domain walls z_i != z_{i+1} of each basis state, as bit counts."""
    return np.bitwise_count((states ^ (states >> 1)) & ((1 << (length - 1)) - 1))


def reduced_diagonal(model):
    """Diagonal of the reduced Hamiltonian in the tau^z product basis.

    Basis state x has z_i = 1 - 2 bit_i(x), so both diagonals follow from
    bit counts: Sum_i z_i z_{i+1} = (L-1) - 2 w with w the domain walls
    of x, and Sum_i z_i = L - 2 popcount(x).  The values, signed zeros
    included, are those of the products and sums over site_spins.
    """
    _check_reduced_length(model.length)
    length = model.length
    states = np.arange(2**length)
    if model.kind is ModelKind.NN:
        return -((length - 1) - 2.0 * _domain_walls(states, length))
    total = length - 2.0 * np.bitwise_count(states)
    pair_sum = 0.5 * (total**2 - length)  # Sum_{i<j} z_i z_j
    return -(pair_sum - length * (length - 1) / 2.0) / length


def reduced_levels(model):
    """Energy levels of the reduced Hamiltonian, indexed by an integer.

    Returns (level, energies): level[x] is the level of basis state x and
    energies[k] the diagonal at level k measured from the ground level, in
    closed form.  NN levels are the domain-wall counts w, with energy 2w;
    IR levels are |M|, M = Sum_i z_i, with energy (L^2 - M^2)/(2L).  The
    IR levels of the wrong parity, which no state takes, are listed too.
    """
    _check_reduced_length(model.length)
    length = model.length
    states = np.arange(2**length)
    if model.kind is ModelKind.NN:
        return _domain_walls(states, length), 2.0 * np.arange(length)
    levels = np.arange(length + 1)
    magnetization = length - 2 * np.bitwise_count(states).astype(np.int64)
    return np.abs(magnetization), (length**2 - levels**2) / (2.0 * length)


def log_binomial(n, k):
    """log C(n, k) via log-gamma, elementwise over integer values 0 <= k <= n."""
    return _lgamma(n + 1.0) - _lgamma(k + 1.0) - _lgamma(n - k + 1.0)


def kw_transform_nn(length):
    """Kramers-Wannier image of the reduced NN model, matrix-free.

    Returns the pair (apply, v0): apply(v) is H v for H = -Sum_i tau^x_i
    on the L-1 link spins, -Sum_link v[x ^ (1 << link)] at each basis
    state x, in O(L 2^{L-1}) with no 2^{L-1} x 2^{L-1} array; v0 is the
    all-up link state.  The Krylov space generated from v0 matches the
    NN chain's: same Lanczos coefficients, dimension exactly L.
    """
    if length < 2:
        raise ArgumentError("length must be at least 2")
    _check_reduced_length(length)
    links = length - 1
    flips = np.arange(2**links) ^ (1 << np.arange(links))[:, None]
    initial = np.zeros(2**links)
    initial[0] = 1.0
    return (lambda vec: -vec[flips].sum(axis=0)), initial


def analytic_lanczos(model):
    """Closed-form Lanczos coefficients and spectrum of a model.

    NN: a_n = 0, b_n = sqrt(n(L-n)), Krylov dimension L; eigenvalues
        2k - (L-1) for k = 0..L-1.
    IR: a_n = -2n + 4n^2/L - 1/2 + L/2 for n = 0..L/2 and
        b_n = sqrt(2n(L-2n+1)(2n-1)(L-2n+2)) / (2L), dimension L/2+1;
        eigenvalues L/2 - 2m^2/L for m = L/2 down to 0.
    """
    length = model.length
    if model.kind is ModelKind.NN:
        steps = np.arange(1.0, length)
        tridiag = TridiagonalOperator(
            diag=np.zeros(length),
            offdiag=np.sqrt(steps * (length - steps)),
            spectrum=2.0 * np.arange(length) - (length - 1.0),
        )
        return KrylovSpec(model=model, tridiag=tridiag)
    n = np.arange(0.0, length // 2 + 1)
    diag = -2.0 * n + 4.0 * n**2 / length - 0.5 + length / 2.0
    m = np.arange(1.0, length // 2 + 1)
    offdiag = np.sqrt(
        2.0 * m * (length - 2.0 * m + 1.0) * (2.0 * m - 1.0) * (length - 2.0 * m + 2.0)
    ) / (2.0 * length)
    magnetization = np.arange(length // 2, -1, -1.0)
    spectrum = length / 2.0 - 2.0 * magnetization**2 / length
    tridiag = TridiagonalOperator(diag=diag, offdiag=offdiag, spectrum=spectrum)
    return KrylovSpec(model=model, tridiag=tridiag)


def nn_lambda(tau):
    """The NN spreading weight lambda = sinh^2(tau) / (1 + 2 sinh^2(tau)).

    Evaluated as (1 - sech(2 tau))/2 through decaying exponentials, which
    stays accurate for arbitrarily large tau (limit 1/2).  ``tau`` is a
    float or an array; the result is a float or an array of its shape.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ArgumentError("tau must be nonnegative")
    e2 = np.exp(-2.0 * tau)
    lam = 0.5 * (1.0 - 2.0 * e2 / (1.0 + e2 * e2))
    return float(lam) if lam.ndim == 0 else lam


def psi_nn_analytic(length, tau):
    """Closed-form NN wavepacket.

    psi_n = (-1)^n sqrt(C(L-1, n) lambda^n (1-lambda)^{L-1-n}); the signed
    square root of a binomial profile.  Log-gamma binomials keep this
    valid to L = 1e4.  Returns a single KrylovState: 0-d ``taus`` and a
    (L,) ``psi``.
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
        log_binomial(length - 1, n)
        + n * math.log(lam)
        + (length - 1 - n) * math.log1p(-lam)
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


def area_law_psi(n, tau):
    """Large-L area-law wavepacket amplitude at Krylov index n.

    psi_n = [sqrt((2n)!) / (2^n n!)] sqrt(1/(1-tau)) (-tau/(1-tau))^n
            (1-2 tau)^{1/4},

    normalizable only for 0 <= tau < 1/2 (the (1-2 tau)^{1/4} factor is
    real there); tau >= 1/2 is a domain error.  ``n`` is an integer or an
    integer array; the result is a float or an array of its shape.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ArgumentError("n must be nonnegative")
    if not 0 <= tau < 0.5:
        raise DomainError(f"area-law profile requires 0 <= tau < 1/2, got {tau!r}")
    if tau == 0.0:
        psi = (n == 0).astype(float)
    else:
        log_mag = (
            0.5 * _lgamma(2 * n + 1.0)
            - n * math.log(2.0)
            - _lgamma(n + 1.0)
            - 0.5 * math.log1p(-tau)
            + n * (math.log(tau) - math.log1p(-tau))
            + 0.25 * math.log1p(-2.0 * tau)
        )
        psi = (-1.0) ** n * np.exp(log_mag)
    return float(psi) if psi.ndim == 0 else psi


def area_law_k(tau):
    """Area-law Krylov complexity K = tau^2 / (2(1-2 tau)), 0 <= tau < 1/2."""
    if not 0 <= tau < 0.5:
        raise DomainError(f"area-law K requires 0 <= tau < 1/2, got {tau!r}")
    return tau * tau / (2.0 * (1.0 - 2.0 * tau))


def volume_law_k(length):
    """Volume-law Krylov complexity K = L/4 (even L)."""
    if length % 2 or length < 2:
        raise DomainError("volume law is defined for even L >= 2")
    return length / 4.0
