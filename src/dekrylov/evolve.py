"""Imaginary-time observables: Krylov complexity, Renyi-2, survival moments.

The evolved state |rho(tau)> = e^{-tau H} |rho_init> is expanded over the
Krylov basis, |rho(tau)> = Sum_n psi_n(tau) |K_n>, and the observables are
functionals of the normalized wavepacket psi:

  * Krylov complexity K(tau) = Sum_n n psi_n^2, the mean number of noise
    events absorbed by the state;
  * the Renyi-2 correlator chi(tau) = (1/L^2) Sum_ij <rho| Z_i^u Z_i^l
    Z_j^u Z_j^l |rho> / <rho|rho>, the order diagnostic for
    strong-to-weak symmetry breaking;
  * survival moments mu_n = <rho_init| H^n |rho_init>, read off the
    tridiagonal representation (the exact integer sums that verification
    compares them with are oracle.survival_moments).

Both models are collective spins, so the scans need no wavepacket: NN K is
the closed form (L-1) lambda(tau), and IR K and chi are positive sums over
the L/2+1 magnetization sectors (ir_magnetization_sums), O(L) per tau.
Dense Renyi-2 (L <= 14, both models) sums over the at most L+1 energy
levels of the diagonal reduced Hamiltonian.  complexity and
renyi2_tridiag reduce a wavepacket array, one row per tau, to one value
per row with einsum; the verification suite uses them, and the tests
compare the sums with them.  Every function here is pure, and scan rows are plain
(L, tau, K, K_norm, chi) tuples built from whole arrays over tau.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .errors import ArgumentError, check_taus
from .lintri import exp_from_max
from .models import (
    REDUCED_MAX_LENGTH,
    ModelKind,
    k_nn_analytic,
    reduced_levels,
    spectral_measure,
)

# Longest chain the scans serve: the IR sums hold (TAU_BLOCK, L/2+1) work
# arrays, about 26 MB each at this length.
SCAN_MAX_LENGTH = 100_000
# Taus per block in ir_magnetization_sums, so its work arrays stay that
# small whatever the length of the tau grid.
TAU_BLOCK = 64


def complexity(psi):
    """Krylov complexity K = Sum_n n psi_n^2 / Sum_n psi_n^2 of a wavepacket.

    ``psi`` is a (dim,) wavepacket or an (m, dim) array of them, one per
    row; the result is a float or an (m,) array.
    """
    psi = np.asarray(psi, dtype=float)
    weights = np.arange(psi.shape[-1], dtype=float)
    return np.einsum("...n,n->...", psi * psi, weights) / np.einsum("...n,...n->...", psi, psi)


def renyi2_tridiag(spec, psi):
    """Renyi-2 correlator from the tridiagonal representation (IR only).

    For the IR model, (1/L) Sum_ij Z_i^u Z_i^l Z_j^u Z_j^l = L - 2 H^IR as
    operators on the positive-parity sector, so

        chi = -[Sum_n (2 a_n - L) psi_n^2
                + 4 Sum_n b_{n+1} psi_{n+1} psi_n] / L
            = 1 - 2 <psi| T |psi> / L.

    The factor convention is pinned by renyi2_dense: the two agree to
    1e-9 over L <= 12 (verification suite).  Like complexity, it reduces
    an (m, dim) array of unit wavepackets to an (m,) array and a (dim,)
    wavepacket to a float; a row whose length is not the Krylov dimension
    raises ArgumentError.
    """
    if spec.model.kind is not ModelKind.IR:
        raise ArgumentError("renyi2_tridiag applies to the IR model only")
    psi = np.asarray(psi, dtype=float)
    expectation = np.einsum("...n,...n->...", psi, spec.tridiag.matvec(psi))
    return 1.0 - 2.0 * expectation / spec.model.length


def renyi2_dense(model, taus):
    """Renyi-2 correlator by exact dense evolution (L <= 14, both models).

    The reduced Hamiltonian is diagonal, so e^{-tau H} acts elementwise;
    with M(s) = Sum_i tau^z_i(s),

        chi = Sum_s v_s^2 M(s)^2 / (L^2 Sum_s v_s^2),

    where v = e^{-tau H} applied to the uniform initial vector.  The
    i = j identity terms are included, giving chi(0) = 1/L.

    The diagonal takes at most L+1 distinct values, so the sums run over
    energy levels E, not over the 2^L states:

        chi = Sum_E e^{-2 tau E} S_E / (L^2 Sum_E e^{-2 tau E} N_E),

    with N_E the number of states at level E and S_E the sum of their
    M^2, both exact integers binned by the integer level index of
    models.reduced_levels.  The level energies are closed forms measured
    from the ground level, which keeps every exponential <= 1 at any tau.

    ``taus`` is a float or a sequence of floats; the result is a float or
    an array of the same shape.  L > 14, and a tau that errors.check_taus
    refuses, raise ArgumentError.
    """
    tau_arr = check_taus(taus)
    length = model.length
    level, energies = reduced_levels(model)  # enforces the L <= 14 cap
    magnetization = length - 2.0 * np.bitwise_count(np.arange(level.size))
    counts = np.bincount(level, minlength=energies.size)
    magnetization_sq = np.bincount(level, weights=magnetization**2, minlength=energies.size)
    weights = np.exp(-2.0 * tau_arr[..., None] * energies)
    chi = (weights @ magnetization_sq) / (length**2 * (weights @ counts))
    return float(chi) if chi.ndim == 0 else chi


def ir_magnetization_sums(model, taus):
    """IR Krylov complexity K and Renyi-2 chi from the spin-L/2 sectors.

    The IR evolution is a collective spin s = L/2: over the states
    |s, m>, the evolved state has the amplitudes a_m = a0_m f_m with
    a0_m = sqrt(C(L, s+m)) (the seed, the S_x = s eigenstate) and
    f_m = e^{2 m^2 tau / L}, and K = <s - S_x> / 2.  The seed is the zero
    mode of s - S_x, whose off-diagonal entries -l_m/2, with
    l_m = sqrt(s(s+1) - m(m-1)), are all negative, so the ground-state
    transform gives

        <a| s - S_x |a> = Sum_m (l_m / 2) a0_m a0_{m-1} (f_m - f_{m-1})^2,

    where l_m a0_m a0_{m-1} = (s + m) a0_m^2 exactly and
    f_m - f_{m-1} = -f_m expm1(-2(2m-1) tau / L).  Folding +-m,

        K   = Sum_{m>=1} (s + m) a_m^2 expm1(-2(2m-1) tau / L)^2 / (2 N),
        chi = Sum_{m>=1} 2 a_m^2 4 m^2 / (L^2 N),
        N   = a_0^2 + 2 Sum_{m>=1} a_m^2.

    Every term is positive, so nothing cancels: K keeps its relative
    accuracy at small tau, and K(0) = 0 exactly.  At tau = 0,
    Sum_k C(L, k) (2k - L)^2 = L 2^L gives chi = 1/L, which is returned
    as such.  The folded weights 2 a_m^2 (m > 0) and a_0^2 are the
    spectral_measure, reversed to m = 0..s, times e^{4 m^2 tau / L}; their
    logs are shifted by their largest value per tau (lintri.exp_from_max,
    which zeroes the weights that would be subnormal), so none overflows,
    and the taus go TAU_BLOCK at a time through two (TAU_BLOCK, s+1) work
    arrays, updated in place.  Each row is reduced on its own (einsum: a
    BLAS product's summation order depends on the row count), so no tau's
    bits depend on the others.

    ``taus`` is a float or a sequence of floats.  Returns (K, chi), each a
    float or an array of the shape of ``taus``.

    Raises:
        ArgumentError: for the NN model, L > SCAN_MAX_LENGTH or a tau
            that errors.check_taus refuses.
    """
    if model.kind is not ModelKind.IR:
        raise ArgumentError("ir_magnetization_sums applies to the IR model only")
    length = model.length
    if length > SCAN_MAX_LENGTH:
        raise ArgumentError(f"IR sums are capped at L <= {SCAN_MAX_LENGTH}, got {length}")
    tau_arr = check_taus(taus)
    flat = tau_arr.reshape(-1)
    spin = length // 2
    m = np.arange(spin + 1.0)
    log_measure = spectral_measure(model)[1][::-1]
    rates = 4.0 * m * m / length
    decays = -2.0 * (2.0 * m[1:] - 1.0) / length
    k_weights = (spin + m[1:]) / 4.0
    chi_weights = 4.0 * m * m / length**2
    k = np.empty(flat.size)
    chi = np.empty(flat.size)
    for start in range(0, flat.size, TAU_BLOCK):
        block = flat[start : start + TAU_BLOCK, None]
        stop = start + block.shape[0]
        weights = np.multiply(block, rates)
        weights += log_measure
        exp_from_max(weights)
        norm = np.einsum("ij->i", weights)
        steps = np.multiply(block, decays)
        np.expm1(steps, out=steps)
        np.square(steps, out=steps)
        steps *= weights[:, 1:]
        k[start:stop] = np.einsum("ij,j->i", steps, k_weights) / norm
        chi[start:stop] = np.einsum("ij,j->i", weights, chi_weights) / norm
        chi[start:stop][block[:, 0] == 0.0] = 1.0 / length
        del weights, steps  # freed before the next block allocates its own
    k, chi = k.reshape(tau_arr.shape), chi.reshape(tau_arr.shape)
    if tau_arr.ndim == 0:
        return float(k), float(chi)
    return k, chi


def moments_from_tridiag(tri, n_max):
    """Moments <e_0| T^n |e_0> by repeated tridiagonal application.

    Raises:
        ArgumentError: for n_max outside [0, 2 dim].
        numpy.linalg.LinAlgError: at the first moment that is not finite
            in binary64.
    """
    if not 0 <= n_max <= 2 * tri.dim:
        raise ArgumentError(f"n_max must lie in [0, {2 * tri.dim}]")
    vec = np.zeros(tri.dim)
    vec[0] = 1.0
    moments = [1.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_max + 1):
            vec = tri.matvec(vec)
            if not np.isfinite(vec[0]):
                raise np.linalg.LinAlgError(
                    f"moment mu_{n} overflows binary64 (Krylov dimension {tri.dim})"
                )
            moments.append(float(vec[0]))
    return np.array(moments)


def scan_point(model, taus):
    """Scan rows (L, tau, K, K_norm, chi) of one length over ``taus``.

    Each observable is one closed-form array over ``taus``; no wavepacket
    is built.  NN: K = (L-1) lambda(tau), and chi from dense evolution at
    L <= 14, None above.  IR: K and chi from ir_magnetization_sums.  Rows
    are plain tuples in the order of ``taus``.  ``K_norm`` is K/(L-1) for
    the NN model and K/L for the IR model.

    Raises:
        ArgumentError: if a K is negative or a chi lies outside
            [-1e-10, 1 + 1e-10].
    """
    taus = np.asarray(taus, dtype=float)
    length = model.length
    if model.kind is ModelKind.NN:
        norm = length - 1
        k = k_nn_analytic(length, taus)
        chis = renyi2_dense(model, taus) if length <= REDUCED_MAX_LENGTH else None
    else:
        norm = length
        k, chis = ir_magnetization_sums(model, taus)
    if np.any(k < 0):
        raise ArgumentError("K must be nonnegative")
    if chis is not None and not np.all((chis >= -1e-10) & (chis <= 1.0 + 1e-10)):
        raise ArgumentError(f"chi out of [0, 1]: {float(chis.min())!r} to {float(chis.max())!r}")
    return list(
        zip(
            repeat(length),
            taus.tolist(),
            k.tolist(),
            (k / norm).tolist(),
            repeat(None) if chis is None else chis.tolist(),
        )
    )
