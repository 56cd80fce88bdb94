"""Wigner small-d matrices and exact infinite-range amplitudes.

Two independent routes to d^s_{m'm}(theta) = <s,m'| e^{-i theta S_y} |s,m>:

  1. the direct factorial k-sum in binary64, accurate up to s ~ 20 at
     theta = pi/2 (beyond that the alternating sum cancels
     catastrophically).  Every factorial up to 40! is finite, and so is
     every product of four of them, so each term is a ratio of factorials
     times powers of cos(theta/2) and sin(theta/2), all read from tables,
     and the float powers carry the signs;
  2. a spectral route valid to s = 300: in the |s,m> basis (row index
     k, m = s-k) the generator is tridiagonal with (S_y)_{k+1,k} =
     i beta_k, beta_k = sqrt((k+1)(2s-k))/2.  The similarity
     D = diag((-i)^k) maps it to the real symmetric tridiagonal M with
     off-diagonal beta_k, so

         d(theta) = D^{-1} e^{-i theta M} D,
         d_{rc} = Re[ i^{r-c} (A - iB)_{rc} ],
         A = Q cos(theta Lambda) Q^T,  B = Q sin(theta Lambda) Q^T,

     with Lambda = diag(-s, ..., s), the exact spectrum of S_y, and Q
     from lintri's twisted recursion at those eigenvalues.  The i^{r-c}
     phase is tracked as an exact period-4 integer counter, never as a
     complex float, picking A, B, -A, -B by (r-c) mod 4.

Each route gives the whole matrix, entry [r, c] at m' = s - r, m = s - c:
wigner_d sums every entry's k terms over one (2s+1)^3 term array, and
wigner_d_stable forms every column with one einsum for A and one for B,
which, unlike a matrix product, starts no BLAS thread.

The exact infinite-range wavepacket is a positive Gaussian integral:
e^{2 tau S_z^2 / L} averages e^{phi S_z} over a Gaussian in phi, which
maps |+>^{(x)L} to (cosh(phi/2)|+> + sinh(phi/2)|->)^{(x)L}, and the
average over +-phi cancels the odd numbers of x-flips, so

    psi_n(tau) = (-1)^n sqrt(C(L, 2n)) I_n / norm,
    I_n = Int_0^inf e^{-L phi^2 / (8 tau)} cosh^{L-2n}(phi/2) sinh^{2n}(phi/2) dphi.

Nothing cancels, so every amplitude keeps its relative accuracy, however
small.  The integrand is even in phi, so the trapezoid rule with weight
1/2 at phi = 0 converges exponentially.  Its large-tau limit, the flat
volume-law profile that verification compares against, is
oracle.psi_ir_asymptotic_profile.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ArgumentError, DomainError
from .lintri import TridiagonalOperator, eig_tridiag, exp_from_max
from .models import log_binomial_pmf, signed_unit_profile

DIRECT_SUM_MAX_TWO_S = 40  # s <= 20 for the factorial k-sum route
STABLE_MAX_TWO_S = 600  # s <= 300, matrix dimension 601
# Longest chain `wavepacket` serves, both models: the IR integral holds an
# (L/2 + 1) x (nodes) work array, at most ~20 MB at this length.
WAVEPACKET_MAX_LENGTH = 4096
NODES_PER_WIDTH = 8  # IR trapezoid nodes per peak width sqrt(4 tau / L)
TAIL_WIDTHS = 40  # peak widths of tail beyond the outermost saddles


def _twice_spin(s, max_two_s):
    """2s of an integer or half-integer spin 0 <= s <= max_two_s / 2."""
    two_s = 2.0 * s  # NaN fails the first comparison, before round()
    if not (0 <= two_s <= max_two_s and abs(two_s - round(two_s)) <= 1e-9):
        raise ArgumentError(f"s must be integer or half-integer in [0, {max_two_s // 2}]: {s!r}")
    return round(two_s)


def wigner_d(s, theta):
    """The matrix d^s(theta) by the direct factorial k-sum (s <= 20).

    Entry [r, c] is d^s_{m'm}(theta) with m' = s - r and m = s - c, one
    math.fsum over the terms k = 0..2s, the terms outside its range zero.
    """
    two_s = _twice_spin(s, DIRECT_SUM_MAX_TWO_S)
    k = np.arange(two_s + 1)
    s_minus_mp = k[:, None, None]  # r
    s_plus_m = two_s - k[:, None]  # 2s - c, broadcast over the last two axes
    m_minus_mp = s_minus_mp + s_plus_m - two_s  # r - c
    fact_at = functools.partial(np.take, [float(math.factorial(i)) for i in k], mode="clip")
    cos_at = functools.partial(np.take, math.cos(0.5 * theta) ** k, mode="clip")
    sin_at = functools.partial(np.take, math.sin(0.5 * theta) ** k, mode="clip")
    prefactor = np.sqrt(
        fact_at(s_plus_m)
        * fact_at(two_s - s_plus_m)
        * fact_at(two_s - s_minus_mp)
        * fact_at(s_minus_mp)
    )
    denominator = (
        fact_at(s_plus_m - k) * fact_at(s_minus_mp - k) * fact_at(k - m_minus_mp) * fact_at(k)
    )
    terms = (
        (-1.0) ** (k - m_minus_mp)
        * prefactor
        / denominator
        * cos_at(two_s - 2 * k + m_minus_mp)
        * sin_at(2 * k - m_minus_mp)
    )
    in_range = (k >= m_minus_mp) & (k <= np.minimum(s_plus_m, s_minus_mp))
    terms = np.where(in_range, terms, 0.0)
    rows = terms.reshape(-1, two_s + 1).tolist()
    return np.array(list(map(math.fsum, rows))).reshape(two_s + 1, two_s + 1)


def _sy_operator(two_s):
    """Real symmetric image M of S_y, with its spectrum -s, -s+1, ..., s."""
    dim = two_s + 1
    k = np.arange(dim - 1, dtype=float)
    beta = 0.5 * np.sqrt((k + 1.0) * (two_s - k))
    return TridiagonalOperator(
        diag=np.zeros(dim), offdiag=beta, spectrum=np.arange(dim) - 0.5 * two_s
    )


@functools.lru_cache(maxsize=16)
def _sy_decomposition(two_s):
    """Spectrum and eigenvector matrix of the real symmetric image of S_y (cached)."""
    op = _sy_operator(two_s)
    return op.spectrum, eig_tridiag(op)


def wigner_d_stable(s, theta):
    """The matrix d^s(theta), stable to s = 300, as a read-only array.

    Indexed as wigner_d.  It is computed column by column, as a (c, r)
    array, and returned as the transposed view: einsum sums in layout
    order, so the layout fixes the last bits.

    Raises:
        ArgumentError: on an invalid s, or if a column is not unit norm
            within 1e-10.
    """
    two_s = _twice_spin(s, STABLE_MAX_TWO_S)
    values, vectors = _sy_decomposition(two_s)
    # einsum, not BLAS: a matrix product here would start an OpenBLAS thread.
    a_part = np.einsum("ck,rk->cr", np.cos(theta * values) * vectors, vectors)
    b_part = np.einsum("ck,rk->cr", np.sin(theta * values) * vectors, vectors)
    index = np.arange(two_s + 1)
    phase = (index - index[:, None]) % 4  # (r - c) mod 4
    magnitude = np.where(phase % 2 == 0, a_part, b_part)
    columns = np.where(phase < 2, magnitude, -magnitude)
    if np.any(np.abs(np.einsum("cr,cr->c", columns, columns) - 1.0) > 1e-10):
        raise ArgumentError("column of a rotation matrix must be unit norm")
    entries = columns.T
    entries.setflags(write=False)
    return entries


def _quadrature_offsets(length, tau):
    """Trapezoid nodes x = phi - 2 tau of the IR integral, and the peak width.

    Every log-integrand peaks between the saddles of n = 0
    (phi = 2 tau tanh(phi/2)) and n = L/2 (phi tanh(phi/2) = 2 tau).
    tanh(y) >= y / (1 + y) bounds the latter by tau + sqrt(tau^2 + 4 tau);
    phi -> 2 tau tanh(phi/2) climbs from 2 tau - 2 towards the former,
    never past it.  With the tails, the node count stays bounded as tau
    grows (at most ~1200 at L = 4096).  The first node is phi = 0, or lies
    where the integrand is negligible.
    """
    root = math.sqrt(tau)
    width = 2.0 * root / math.sqrt(length)
    tail = TAIL_WIDTHS * width
    lower = -2.0
    for _ in range(8):
        decay = math.exp(-2.0 * tau - lower)
        lower = -4.0 * tau * decay / (1.0 + decay)
    lower = max(-2.0 * tau, lower - tail)
    upper = 4.0 * root / (math.sqrt(tau + 4.0) + root) + tail
    step = width / NODES_PER_WIDTH
    return lower + step * np.arange(int((upper - lower) / step) + 1), width


def psi_ir_exact_profile(length, tau):
    """Exact IR wavepacket over all Krylov indices n = 0..L/2.

    The Gaussian integral of the module docstring, summed in the log
    domain with one shift per Krylov index.  The log-integrand is taken
    around phi = 2 tau, -(x / width)^2 / 2 + L log1p(e^{-phi})
    + 2n log tanh(phi/2), without the n-independent L tau / 2 - L log 2,
    so its terms stay small where it matters.  tau = 0 gives e_0 exactly.

    Raises:
        DomainError: for odd L.
        ArgumentError: for tau < 0 or NaN, or L > WAVEPACKET_MAX_LENGTH.
    """
    if length % 2 or length < 2:
        raise DomainError("exact IR amplitudes require even L >= 2")
    if length > WAVEPACKET_MAX_LENGTH:
        raise ArgumentError(f"exact IR amplitudes are capped at L <= {WAVEPACKET_MAX_LENGTH}")
    if not tau >= 0:
        raise ArgumentError("tau must be nonnegative")
    n = np.arange(length // 2 + 1.0)
    if tau == 0:
        return (n == 0).astype(float)
    offsets, width = _quadrature_offsets(length, tau)
    phi = 2.0 * tau + offsets
    base = length * np.log1p(np.exp(-phi)) - 0.5 * (offsets / width) ** 2
    base[0] += math.log(0.5)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_tanh = -np.log1p(2.0 / np.expm1(phi))  # -inf at phi = 0
        logs = np.multiply.outer(2.0 * n, log_tanh)
    logs[0] = 0.0  # 0 * log tanh(0) is NaN; the n = 0 integrand has no tanh
    logs += base
    shifts = exp_from_max(logs)
    return signed_unit_profile(
        log_binomial_pmf(length)[::2] + 2.0 * (shifts + np.log(logs.sum(axis=1)))
    )
