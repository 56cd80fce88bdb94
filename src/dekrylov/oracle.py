"""Independent references for verification: dense brute force at small L,
exact integer moments, closed-form limits.

Ground truth for the rest of the package: per-site spins and the dense
reduced diagonal, 4^L channels at per-factor dephasing p, one two-pass
Gram-Schmidt over the powers {H^n |rho_init>} for the Krylov basis, the
Kramers-Wannier dual, the n-error-state reading of the Krylov vectors,
the exact survival moments of both models and the area- and volume-law
limits.  No scan imports this module.  Nothing here is
performance-sensitive; the caps (4^L paths at L <= 7, 2^L paths at
L <= 14, the dense Krylov basis at L <= 12, the exact moments' L-bit
integers at L <= 4096) keep every check at the seconds scale.
"""

from __future__ import annotations

import math

import numpy as np

from . import doubled
from .errors import ArgumentError, DomainError, check_taus
from .lanczos import LanczosResult
from .models import (
    REDUCED_MAX_LENGTH,
    ModelKind,
    ModelSpec,
    analytic_lanczos,
    log_binomial_pmf,
    reduced_levels,
)

KRYLOV_MAX_LENGTH = 12
MOMENTS_MAX_LENGTH = 4096
ERROR_STATE_MAX_LENGTH = 8
ERROR_STATE_TOL = 1e-8
# Relative residual norm at or under which a power H^n v0 lies in the span
# of the lower powers: the Krylov space has closed.
CLOSURE_RTOL = 1e-12


def site_spins(length):
    """(2^L, L) array of tau^z = +/-1 values per basis state and site."""
    states = np.arange(2**length)
    bits = (states[:, None] >> np.arange(length)) & 1
    return 1.0 - 2.0 * bits


def reduced_diagonal(model):
    """Diagonal of the reduced Hamiltonian in the tau^z product basis.

    Read off models.reduced_levels: NN -(Sum_i z_i z_{i+1}) with
    Sum_i z_i z_{i+1} = (L-1) - 2w at w domain walls, IR
    -(Sum_{i<j} z_i z_j - L(L-1)/2) / L with the pair sum
    (M^2 - L) / 2 at level |M|.  The values, signed zeros included, are
    those of the products and sums over site_spins (L <= 14).
    """
    level, energies = reduced_levels(model)
    length = model.length
    if model.kind is ModelKind.NN:
        return -((length - 1) - energies[level])
    pair_sum = 0.5 * (np.arange(length + 1.0) ** 2 - length)
    return (-(pair_sum - length * (length - 1) / 2.0) / length)[level]


def _layer_mismatch(length):
    """upper xor lower of each doubled index i = upper + 2^L lower (L <= 7).

    Its bits are where the two layers disagree: z_i^u z_i^l is the tau^z
    value of that bit string.
    """
    doubled.check_full_length(length)
    indices = np.arange(4**length)
    return (indices & (2**length - 1)) ^ (indices >> length)


def doubled_hamiltonian_diagonal(model):
    """Diagonal of the effective Hamiltonian on the full doubled space.

    Both models are sums of Z-strings acting identically on the two
    layers, so the doubled Hamiltonian is diagonal in the doubled Z
    basis, and each product z_i^u z_i^l z_j^u z_j^l depends only on the
    layer mismatch: the diagonal is reduced_diagonal pulled back through
    upper xor lower.  Index convention: upper bits low, lower bits
    shifted by L.
    """
    mismatch = _layer_mismatch(model.length)  # enforces the L <= 7 cap first
    return reduced_diagonal(model)[mismatch]


def _per_factor_diagonals(model, p):
    """(factors, 4^L) superoperator diagonals (1-p) + p z_i z_j, one row
    per pair (i, j) of doubled.dephasing_pairs.

    Z-type Kraus terms make every factor diagonal; the full channel is
    the matrix product of the factors, i.e. the elementwise product of
    these rows.
    """
    zz = site_spins(model.length)[_layer_mismatch(model.length)].T
    i, j = np.array(doubled.dephasing_pairs(model)).T
    return (1.0 - p) + p * zz[i] * zz[j]  # p checked by _tau_and_prefactor first


def channel_vs_exponential(model, p):
    """Max-abs deviation between the channel and its exponential form.

    Each factor (bond for NN, pair for IR) dephases with probability p.
    The channel superoperator is assembled as the explicit product over
    the factors; the exponential side is prefactor * exp(-tau H) with H
    the diagonal doubled Hamiltonian, exponentiated elementwise.  Z-type
    Kraus operators make the channel diagonal by construction; the tests
    check its diagonal (doubled.channel_diagonal) against a np.kron
    Z-string oracle, and kraus_sum_vs_exponential compares it with the
    same target.
    """
    tau, prefactor = _tau_and_prefactor(model, p)
    product = np.multiply.reduce(_per_factor_diagonals(model, p), axis=0)
    target = prefactor * np.exp(-tau * doubled_hamiltonian_diagonal(model))
    return float(np.max(np.abs(product - target)))


def _tau_and_prefactor(model, p):
    """(tau, prefactor) of channel = prefactor * exp(-tau H) at per-factor p:
    doubled.tau_from_p(p) and e^{-(L-1) tau} for NN, L times it and 1 for IR."""
    tau = doubled.tau_from_p(p)
    if model.kind is ModelKind.NN:
        return tau, np.exp(-(model.length - 1) * tau)
    return model.length * tau, 1.0


def _composed_channel(model, p):
    """The model's composed channel as an explicit Kraus sum."""
    if model.kind is ModelKind.NN:
        return doubled.build_nn_channel(model.length, p)
    return doubled.build_ir_channel(model.length, p)


def kraus_sum_vs_exponential(model, p):
    """Max-abs deviation of the explicit Kraus sum from prefactor * exp(-tau H).

    The superoperator diagonal of the composed channel at per-factor
    dephasing p (build_nn_channel / build_ir_channel, then
    doubled.channel_diagonal) against the doubled Hamiltonian's
    exponential; tau and the prefactor are those of _tau_and_prefactor.
    """
    tau, prefactor = _tau_and_prefactor(model, p)
    diagonal = doubled.channel_diagonal(_composed_channel(model, p))
    target = prefactor * np.exp(-tau * doubled_hamiltonian_diagonal(model))
    return float(np.max(np.abs(diagonal - target)))


def vectorized_map_vs_exponential(model, p):
    """Max-abs deviation of the literal rho -> |rho>> route from exp(-tau h).

    Vectorizes rho_init = |+><+|^{(x)L}, applies the composed Kraus
    channel at per-factor dephasing p in the doubled space, restricts the
    image to the positive-parity sector, and compares it with
    prefactor * exp(-tau h) on the uniform seed, h the reduced diagonal;
    tau and the prefactor are those of _tau_and_prefactor.
    """
    length = model.length
    rho_init = np.full((2**length, 2**length), 2.0**-length)
    image = doubled.restrict_to_parity_sector(
        doubled.apply_channel(_composed_channel(model, p), doubled.vectorize(rho_init))
    )
    tau, prefactor = _tau_and_prefactor(model, p)
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
    tau = check_taus(tau)
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


def kw_transform_nn(length):
    """Kramers-Wannier image of the reduced NN model, matrix-free.

    Returns the pair (apply, v0): apply(v) is H v for H = -Sum_i tau^x_i
    on the L-1 link spins, -Sum_link v[x ^ (1 << link)] at each basis
    state x, in O(L 2^{L-1}) with no 2^{L-1} x 2^{L-1} array; v0 is the
    all-up link state.  The Krylov space generated from v0 matches the
    NN chain's: same Lanczos coefficients, dimension exactly L.
    """
    ModelSpec(kind=ModelKind.NN, length=length)  # validates L >= 2
    if length > REDUCED_MAX_LENGTH:
        raise ArgumentError(f"Kramers-Wannier image is capped at L <= {REDUCED_MAX_LENGTH}")
    links = length - 1
    flips = np.arange(2**links) ^ (1 << np.arange(links))[:, None]
    initial = np.zeros(2**links)
    initial[0] = 1.0
    return (lambda vec: -vec[flips].sum(axis=0)), initial


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
    masks = doubled.dephasing_supports(model)
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


def _binomial_row(n):
    """[C(n, 0), ..., C(n, n)] as exact integers, by the running ratio
    C(n, k+1) = C(n, k) (n - k) / (k + 1), each division exact."""
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


def survival_moments(model, n_max):
    """Exact survival moments mu_n = Sum_k w_k x_k^n, n = 0..n_max, over the
    closed-form spectral measure of models.spectral_measure:

      NN: x = 2k - (L-1), w = C(L-1, k) / 2^(L-1), k = 0..L-1;
      IR: x = (L^2 - 4 m^2) / (2L), w = C(L, L/2+m) (2 - delta_{m0}) / 2^L,
          m = 0..L/2.

    The sums run over exact integers, and the one int / int true division
    per moment rounds once, so mu_0 = 1 and, for NN, mu_1 = 0 and
    mu_2 = L - 1 hold exactly.

    Raises:
        ArgumentError: for L > MOMENTS_MAX_LENGTH or n_max outside [0, 20].
    """
    length = model.length
    if length > MOMENTS_MAX_LENGTH:
        raise ArgumentError(f"exact moments are capped at L <= {MOMENTS_MAX_LENGTH}")
    if not 0 <= n_max <= 20:
        raise ArgumentError("n_max must lie in [0, 20]")
    if model.kind is ModelKind.NN:
        nodes = range(1 - length, length, 2)
        terms = _binomial_row(length - 1)
        scale, node_scale = 2 ** (length - 1), 1
    else:
        half = length // 2
        nodes = [length * length - 4 * m * m for m in range(half + 1)]
        terms = _binomial_row(length)[half:]
        terms[1:] = [2 * term for term in terms[1:]]
        scale, node_scale = 2**length, 2 * length
    moments = []
    for n in range(n_max + 1):
        moments.append(sum(terms) / (scale * node_scale**n))
        terms = [term * x for term, x in zip(terms, nodes)]
    return np.array(moments)


def area_law_psi(n, tau):
    """Large-L area-law wavepacket amplitude at Krylov index n.

    psi_n = [sqrt((2n)!) / (2^n n!)] sqrt(1/(1-tau)) (-tau/(1-tau))^n
            (1-2 tau)^{1/4},

    normalizable only for 0 <= tau < 1/2 (the (1-2 tau)^{1/4} factor is
    real there); tau >= 1/2 is a domain error.  The prefactor squared is
    C(2n, n) / 4^n = Prod_{k=1..n} (1 - 1/(2k)).  ``n`` is an integer or
    an integer array; the result is a float or an array of its shape.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ArgumentError("n must be nonnegative")
    if check_taus(tau) >= 0.5:
        raise DomainError(f"area-law profile requires 0 <= tau < 1/2, got {float(tau)!r}")
    if tau == 0.0:
        psi = (n == 0).astype(float)
    else:
        log_central = np.cumsum(np.log1p(-0.5 / np.arange(1.0, n.max(initial=0) + 1)))
        log_mag = (
            0.5 * np.concatenate(([0.0], log_central))[n]
            - 0.5 * math.log1p(-tau)
            + n * (math.log(tau) - math.log1p(-tau))
            + 0.25 * math.log1p(-2.0 * tau)
        )
        psi = (-1.0) ** n * np.exp(log_mag)
    return float(psi) if psi.ndim == 0 else psi


def area_law_k(tau):
    """Area-law Krylov complexity K = tau^2 / (2(1-2 tau)), 0 <= tau < 1/2."""
    if check_taus(tau) >= 0.5:
        raise DomainError(f"area-law K requires 0 <= tau < 1/2, got {float(tau)!r}")
    return tau * tau / (2.0 * (1.0 - 2.0 * tau))


def volume_law_k(length):
    """Volume-law Krylov complexity K = L/4 (even L)."""
    ModelSpec(kind=ModelKind.IR, length=length)  # validates L >= 2, even
    return length / 4.0


def psi_ir_asymptotic_profile(length):
    """Large-tau/large-L asymptotic IR wavepacket over n = 0..L/2."""
    ModelSpec(kind=ModelKind.IR, length=length)  # validates L >= 2, even
    n = np.arange(length // 2 + 1)
    return (-1.0) ** n * np.exp(0.5 * (log_binomial_pmf(length)[::2] + math.log(2.0)))
