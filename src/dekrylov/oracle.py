"""Brute-force dense verification at small L.

Ground truth for the rest of the package: full 4^L channel application,
explicit Gram-Schmidt Krylov construction from {H^n |rho_init>}, and the
interpretation of the n-th Krylov vector as the n-error state.  Nothing
here is performance-sensitive; the caps (4^L path at L <= 6, reduced
2^L path at L <= 12) keep every check at the seconds scale.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import doubled, lintri
from .errors import ArgumentError, LinearDependenceError
from .lanczos import LanczosResult
from .models import (
    ModelKind,
    build_ir_channel,
    build_nn_channel,
    reduced_diagonal,
    reduced_initial_state,
    site_spins,
)

DENSE_MAX_LENGTH = 6
KRYLOV_MAX_LENGTH = 12
ERROR_STATE_MAX_LENGTH = 8
ERROR_STATE_TOL = 1e-8


def _layer_agreement_spins(length):
    """(4^L, L) array of z_i^u z_i^l = +/-1, +1 where the two layers agree.

    Doubled index i = upper + 2^L lower; the product is the tau^z value of
    the bit string upper xor lower.
    """
    indices = np.arange(4**length)
    return site_spins(length)[(indices & (2**length - 1)) ^ (indices >> length)]


def doubled_hamiltonian_diagonal(model):
    """Diagonal of the effective Hamiltonian on the full doubled space.

    Both models are sums of Z-strings acting identically on the two
    layers, so the doubled Hamiltonian is diagonal in the doubled Z
    basis.  Index convention: upper bits low, lower bits shifted by L.
    """
    length = model.length
    if length > DENSE_MAX_LENGTH:
        raise ArgumentError(f"doubled dense path is capped at L <= {DENSE_MAX_LENGTH}")
    zz = _layer_agreement_spins(length)
    if model.kind is ModelKind.NN:
        return -np.sum(zz[:, :-1] * zz[:, 1:], axis=1)
    total = zz.sum(axis=1)
    pair_sum = 0.5 * (total**2 - length)
    return -(pair_sum - length * (length - 1) / 2.0) / length


def _per_factor_diagonals(model, p_or_tau):
    """Superoperator diagonal of each bond/pair factor of the channel.

    Z-type Kraus terms make every factor diagonal; the full channel is
    the matrix product of the factors, i.e. the elementwise product of
    these diagonals.
    """
    length = model.length
    zz = _layer_agreement_spins(length)
    factors = []
    if model.kind is ModelKind.NN:
        p = p_or_tau
        if not 0 <= p < 0.5:
            raise ArgumentError(f"p must lie in [0, 1/2), got {p!r}")
        for bond in range(length - 1):
            factors.append((1.0 - p) + p * zz[:, bond] * zz[:, bond + 1])
    else:
        tau = p_or_tau
        if tau < 0:
            raise ArgumentError("tau must be nonnegative")
        w_plus = 0.5 * (1.0 + np.exp(-2.0 * tau / length))
        w_minus = 0.5 * (1.0 - np.exp(-2.0 * tau / length))
        for i in range(length):
            for j in range(i + 1, length):
                factors.append(w_plus + w_minus * zz[:, i] * zz[:, j])
    return factors


def channel_vs_exponential(model, p_or_tau):
    """Max-abs deviation between the channel and its exponential form.

    The channel superoperator is assembled as the explicit product over
    bond (NN) / pair (IR) factors; the exponential side is
    prefactor * exp(-tau H) with H the diagonal doubled Hamiltonian
    (elementwise exponential; the diagonality is itself verified by the
    dense cross-check below).  For NN, tau = -ln(1-2p)/2 and the
    prefactor is e^{-(L-1) tau}; for IR the mapping has no prefactor.
    """
    length = model.length
    if length > DENSE_MAX_LENGTH:
        raise ArgumentError(f"oracle dense path is capped at L <= {DENSE_MAX_LENGTH}")
    product = np.ones(4**length)
    for factor in _per_factor_diagonals(model, p_or_tau):
        product = product * factor
    if model.kind is ModelKind.NN:
        tau = doubled.tau_from_p(p_or_tau)
        prefactor = np.exp(-(length - 1) * tau)
    else:
        tau = p_or_tau
        prefactor = 1.0
    target = prefactor * np.exp(-tau * doubled_hamiltonian_diagonal(model))
    return float(np.max(np.abs(product - target)))


def dense_superoperator(model, p_or_tau):
    """The full 4^L x 4^L channel matrix, from the flattened Kraus expansion.

    Independent of channel_vs_exponential's per-factor product: this
    route goes through the explicit Kraus terms and the doubled sign
    rule, so the two constructions validate each other.
    """
    if model.length > DENSE_MAX_LENGTH:
        raise ArgumentError(
            f"dense superoperators are capped at L <= {DENSE_MAX_LENGTH}"
        )
    if model.kind is ModelKind.NN:
        channel = build_nn_channel(model.length, p_or_tau)
    else:
        channel = build_ir_channel(model.length, p_or_tau)
    return doubled.channel_matrix(channel)


def expm_elementwise_vs_generic(model, tau):
    """Cross-check the elementwise exponential against scaling-and-squaring.

    Builds exp(-tau H) once from the diagonal (elementwise) and once with
    the generic dense matrix exponential; returns the max-abs difference.
    Capped at L <= 4 (the generic route is O(8^L)).
    """
    if model.length > 4:
        raise ArgumentError("generic expm cross-check is capped at L <= 4")
    diag = doubled_hamiltonian_diagonal(model)
    elementwise = np.diag(np.exp(-tau * diag))
    generic = scipy.linalg.expm(-tau * np.diag(diag))
    return float(np.max(np.abs(elementwise - generic)))


def dense_krylov(model):
    """Krylov basis and Lanczos coefficients by explicit Gram-Schmidt.

    Builds {H^n v0} as explicit dense vectors in the reduced sector,
    orthonormalizes with the two-pass Gram-Schmidt, and reads off a_n and
    b_n by direct inner products.  The linear-dependence error raised by
    the orthonormalizer marks the exact closure of the Krylov space
    (dimension L for NN, L/2+1 for IR).
    """
    length = model.length
    if length > KRYLOV_MAX_LENGTH:
        raise ArgumentError(
            f"dense Krylov construction is capped at L <= {KRYLOV_MAX_LENGTH}"
        )
    diag = reduced_diagonal(model)
    v0 = reduced_initial_state(model).amplitudes
    powers = [v0]
    for _ in range(min(2**length, length + 1)):
        powers.append(diag * powers[-1])
    try:
        lintri.orthonormalize(powers)
    except LinearDependenceError as err:
        krylov_dim = err.index
    else:
        raise ArgumentError(
            "Krylov space did not close within the expected dimension"
        )
    basis = lintri.orthonormalize(powers[:krylov_dim])
    a = np.array([q @ (diag * q) for q in basis])
    b = np.array(
        [basis[n] @ (diag * basis[n - 1]) for n in range(1, krylov_dim)]
    )
    return LanczosResult(a=a, b=b, basis=basis, terminated=True)


def _error_operator_masks(model):
    """Z-support masks of the single-error operators (bonds or pairs)."""
    length = model.length
    if model.kind is ModelKind.NN:
        return [0b11 << bond for bond in range(length - 1)]
    return [
        (1 << i) | (1 << j)
        for i in range(length)
        for j in range(i + 1, length)
    ]


def _reachable_supports(masks, steps):
    """Z-supports reachable by applying at most ``steps`` error operators."""
    reached = {0}
    frontier = {0}
    for _ in range(steps):
        frontier = {s ^ m for s in frontier for m in masks} - reached
        reached |= frontier
    return reached


def error_state_interpretation_check(model, n):
    """Verify |K_n> is an n-error state with lower errors projected out.

    Applying a product of ZZ error operators to the uniform initial
    vector gives the orthonormal sign vector of the XOR of their
    supports, so the span of <= n errors is spanned by the Walsh vectors
    of the supports reachable in <= n steps.  The check passes when the
    residual of |K_n> outside the <= n span and its projection onto the
    <= n-1 span both have norm below ERROR_STATE_TOL.
    """
    length = model.length
    if length > ERROR_STATE_MAX_LENGTH:
        raise ArgumentError(
            f"error-state check is capped at L <= {ERROR_STATE_MAX_LENGTH}"
        )
    result = dense_krylov(model)
    if not 0 <= n < len(result.a):
        raise ArgumentError(f"n must lie in [0, {len(result.a) - 1}]")
    kn = result.basis[n]
    masks = _error_operator_masks(model)
    states = np.arange(2**length)

    def walsh(support):
        signs = 1.0 - 2.0 * (np.bitwise_count(states & support) % 2)
        return signs * 2.0 ** (-length / 2.0)

    span = np.array([walsh(s) for s in sorted(_reachable_supports(masks, n))])
    residual = kn - span.T @ (span @ kn)
    lower = sorted(_reachable_supports(masks, n - 1)) if n else []
    lower_overlap = (
        np.linalg.norm([walsh(s) @ kn for s in lower]) if lower else 0.0
    )
    return (
        float(np.linalg.norm(residual)) < ERROR_STATE_TOL
        and float(lower_overlap) < ERROR_STATE_TOL
    )
