"""Brute-force dense verification at small L.

Ground truth for the rest of the package: full 4^L channel application,
one two-pass Gram-Schmidt over the powers {H^n |rho_init>} for the Krylov
basis, and the interpretation of the n-th Krylov vector as the n-error
state.  Nothing here is performance-sensitive; the caps (4^L path at
L <= 6, reduced 2^L path at L <= 12) keep every check at the seconds scale.
"""

from __future__ import annotations

import math

import numpy as np

from . import doubled
from .errors import ArgumentError
from .lanczos import LanczosResult
from .models import ModelKind, analytic_lanczos, reduced_diagonal, site_spins

DENSE_MAX_LENGTH = 6
KRYLOV_MAX_LENGTH = 12
ERROR_STATE_MAX_LENGTH = 8
ERROR_STATE_TOL = 1e-8
# Relative residual norm at or under which a power H^n v0 lies in the span
# of the lower powers: the Krylov space has closed.
CLOSURE_RTOL = 1e-12


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
    prefactor * exp(-tau H) with H the diagonal doubled Hamiltonian,
    exponentiated elementwise.  That H is diagonal is checked elsewhere:
    doubled.effective_hamiltonian_check compares the full 4^L x 4^L
    channel_matrix of the Kraus sum with a diagonal target (criterion 1,
    L <= 4).  For NN, tau = -ln(1-2p)/2 and the prefactor is
    e^{-(L-1) tau}; for IR the mapping has no prefactor.
    """
    length = model.length
    if length > DENSE_MAX_LENGTH:
        raise ArgumentError(f"oracle dense path is capped at L <= {DENSE_MAX_LENGTH}")
    product = np.ones(4**length)
    for factor in _per_factor_diagonals(model, p_or_tau):
        product = product * factor
    tau, prefactor = _tau_and_prefactor(model, p_or_tau)
    target = prefactor * np.exp(-tau * doubled_hamiltonian_diagonal(model))
    return float(np.max(np.abs(product - target)))


def _tau_and_prefactor(model, p_or_tau):
    """(tau, prefactor) of the channel = prefactor * exp(-tau H) mapping."""
    if model.kind is ModelKind.NN:
        tau = doubled.tau_from_p(p_or_tau)
        return tau, np.exp(-(model.length - 1) * tau)
    return p_or_tau, 1.0


def vectorized_map_vs_exponential(model, p_or_tau):
    """Max-abs deviation of the literal rho -> |rho>> route from exp(-tau h).

    Vectorizes rho_init = |+><+|^{(x)L}, applies the composed Kraus
    channel (build_nn_channel / build_ir_channel) in the doubled space,
    restricts the image to the positive-parity sector, and compares it
    with prefactor * exp(-tau h) on the uniform seed, h the reduced
    diagonal; tau and the prefactor are those of channel_vs_exponential.
    """
    length = model.length
    if length > DENSE_MAX_LENGTH:
        raise ArgumentError(f"oracle dense path is capped at L <= {DENSE_MAX_LENGTH}")
    if model.kind is ModelKind.NN:
        channel = doubled.build_nn_channel(length, p_or_tau)
    else:
        channel = doubled.build_ir_channel(length, p_or_tau)
    rho_init = np.full((2**length, 2**length), 2.0**-length)
    image = doubled.restrict_to_parity_sector(
        doubled.apply_channel(channel, doubled.vectorize(rho_init))
    )
    tau, prefactor = _tau_and_prefactor(model, p_or_tau)
    seed = doubled.reduced_initial_state(model)
    target = prefactor * np.exp(-tau * reduced_diagonal(model)) * seed
    return float(np.max(np.abs(image - target)))


def dense_expm(mat):
    """exp(mat) of a dense square matrix by Taylor series and squaring.

    mat is scaled by 2^-s, s = ceil(log2 ||mat||_1), to a 1-norm of at
    most 1, where 18 Taylor terms leave a truncation error below
    e / 19! ~ 2e-17; s squarings then undo the scaling.  Generic, O(n^3)
    per product, and meant for small oracle matrices only.
    """
    mat = np.asarray(mat, dtype=float)
    norm = float(np.max(np.sum(np.abs(mat), axis=0)))
    squarings = max(0, math.ceil(math.log2(norm))) if norm > 0 else 0
    scaled = mat / 2.0**squarings
    term = np.eye(mat.shape[0])
    result = term.copy()
    for k in range(1, 19):
        term = term @ scaled / k
        result += term
    for _ in range(squarings):
        result = result @ result
    return result


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
    generic = dense_expm(-tau * np.diag(diag))
    return float(np.max(np.abs(elementwise - generic)))


def dense_krylov(model):
    """Krylov basis and Lanczos coefficients by explicit Gram-Schmidt.

    Builds the powers H^n v0 as explicit dense vectors in the reduced
    sector and projects each against the basis so far twice
    (re-orthogonalization), which keeps the basis orthonormal to 1e-12.
    The first power whose residual norm is at most CLOSURE_RTOL times its
    own norm marks the exact closure of the Krylov space (dimension L for
    NN, L/2+1 for IR).  a_n and b_n are read off by direct inner products.
    """
    length = model.length
    if length > KRYLOV_MAX_LENGTH:
        raise ArgumentError(
            f"dense Krylov construction is capped at L <= {KRYLOV_MAX_LENGTH}"
        )
    diag = reduced_diagonal(model)
    power = doubled.reduced_initial_state(model)
    basis = []
    for _ in range(min(2**length, length + 1) + 1):
        residual = np.array(power, dtype=float)
        for _ in range(2):
            for q in basis:
                residual -= (q @ residual) * q
        norm = np.linalg.norm(residual)
        if norm <= CLOSURE_RTOL * np.linalg.norm(power):
            break
        basis.append(residual / norm)
        power = diag * power
    else:
        raise ArgumentError(
            "Krylov space did not close within the expected dimension"
        )
    a = np.array([q @ (diag * q) for q in basis])
    b = np.array(
        [basis[n] @ (diag * basis[n - 1]) for n in range(1, len(basis))]
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


def error_state_interpretation_check(model):
    """First Krylov vector |K_n> that is not an n-error state, or None.

    Applying a product of ZZ error operators to the uniform initial
    vector gives the orthonormal sign vector of the XOR of their
    supports, so the span of <= n errors is spanned by the Walsh vectors
    of the supports reachable in <= n steps; the reachable set grows by
    one step per n.  |K_n> passes when its residual outside the <= n span
    and its projection onto the <= n-1 span both have norm below
    ERROR_STATE_TOL.  Every n below the closed-form Krylov dimension is
    checked against one dense basis; an n that the dense basis does not
    reach fails.
    """
    length = model.length
    if length > ERROR_STATE_MAX_LENGTH:
        raise ArgumentError(
            f"error-state check is capped at L <= {ERROR_STATE_MAX_LENGTH}"
        )
    basis = dense_krylov(model).basis
    masks = _error_operator_masks(model)
    states = np.arange(2**length)

    def walsh(supports):
        signs = 1.0 - 2.0 * (np.bitwise_count(states & np.array(sorted(supports))[:, None]) % 2)
        return signs * 2.0 ** (-length / 2.0)

    lower = set()
    reached = frontier = {0}
    for n in range(analytic_lanczos(model).krylov_dim):
        if n >= len(basis):
            return n
        span = walsh(reached)
        residual = basis[n] - span.T @ (span @ basis[n])
        lower_overlap = np.linalg.norm(walsh(lower) @ basis[n]) if lower else 0.0
        if not (np.linalg.norm(residual) < ERROR_STATE_TOL and lower_overlap < ERROR_STATE_TOL):
            return n
        frontier = {s ^ m for s in frontier for m in masks} - reached
        lower, reached = reached, reached | frontier
    return None
