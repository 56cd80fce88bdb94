"""Wigner small-d matrices and exact infinite-range amplitudes.

Two independent routes to d^s_{m'm}(theta) = <s,m'| e^{-i theta S_y} |s,m>:

  1. the direct factorial k-sum, accurate up to s ~ 20 at theta = pi/2
     (beyond that the alternating sum cancels catastrophically);
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

The exact infinite-range wavepacket is a positive Gaussian integral:
e^{2 tau S_z^2 / L} averages e^{phi S_z} over a Gaussian in phi, which
maps |+>^{(x)L} to (cosh(phi/2)|+> + sinh(phi/2)|->)^{(x)L}, and the
average over +-phi cancels the odd numbers of x-flips, so

    psi_n(tau) = (-1)^n sqrt(C(L, 2n)) I_n / norm,
    I_n = Int_0^inf e^{-L phi^2 / (8 tau)} cosh^{L-2n}(phi/2) sinh^{2n}(phi/2) dphi.

Nothing cancels, so every amplitude keeps its relative accuracy, however
small.  The integrand is even in phi, so the trapezoid rule with weight
1/2 at phi = 0 converges exponentially.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ArgumentError, DomainError
from .lintri import TridiagonalOperator, eig_tridiag
from .models import log_binomial

DIRECT_SUM_MAX_TWO_S = 40  # s <= 20 for the factorial k-sum route
STABLE_MAX_TWO_S = 600  # s <= 300, matrix dimension 601
# Longest chain `wavepacket` serves, both models: the IR integral holds an
# (L/2 + 1) x (nodes) work array, at most ~20 MB at this length.
WAVEPACKET_MAX_LENGTH = 4096
NODES_PER_WIDTH = 8  # IR trapezoid nodes per peak width sqrt(4 tau / L)
TAIL_WIDTHS = 40  # peak widths of tail beyond the outermost saddles


def signed_logsumexp(log_magnitudes, signs):
    """Sum of signed log-domain terms under a single max-exponent shift.

    The shifted terms are added with math.fsum, which rounds the exact sum
    once, so the result does not depend on the order of the terms.
    Returns (sign, log_magnitude) of the sum; sign 0 encodes exact zero
    (or no terms).
    """
    live = [
        (log_mag, sign)
        for log_mag, sign in zip(log_magnitudes, signs)
        if sign != 0 and math.isfinite(log_mag)
    ]
    if not live:
        return 0, -math.inf
    shift = float(max(log_mag for log_mag, _ in live))
    total = math.fsum(sign * math.exp(log_mag - shift) for log_mag, sign in live)
    if total == 0.0:
        return 0, -math.inf
    return (1 if total > 0 else -1), shift + math.log(abs(total))


def _twice(value, name):
    doubled = round(2.0 * value)
    if abs(2.0 * value - doubled) > 1e-9:
        raise ArgumentError(f"{name} must be integer or half-integer, got {value!r}")
    return int(doubled)


def wigner_d(s, m_prime, m, theta):
    """Wigner small-d element by the direct factorial k-sum (s <= 20).

    Args:
        s: spin (integer or half-integer).
        m_prime: row magnetic index.
        m: column magnetic index.
        theta: rotation angle in radians.

    Returns:
        d^s_{m'm}(theta) as a float.
    """
    two_s = _twice(s, "s")
    two_mp = _twice(m_prime, "m_prime")
    two_m = _twice(m, "m")
    if two_s < 0 or two_s > DIRECT_SUM_MAX_TWO_S:
        raise ArgumentError(f"direct-sum route requires 0 <= s <= 20, got s={s!r}")
    if abs(two_mp) > two_s or abs(two_m) > two_s:
        raise ArgumentError("|m|, |m_prime| must not exceed s")
    if (two_s + two_m) % 2 or (two_s + two_mp) % 2:
        raise ArgumentError("s - m and s - m_prime must be integers")

    s_plus_m = (two_s + two_m) // 2
    s_minus_m = (two_s - two_m) // 2
    s_plus_mp = (two_s + two_mp) // 2
    s_minus_mp = (two_s - two_mp) // 2
    m_minus_mp = (two_m - two_mp) // 2

    log_prefactor = 0.5 * (
        math.lgamma(s_plus_m + 1.0)
        + math.lgamma(s_minus_m + 1.0)
        + math.lgamma(s_plus_mp + 1.0)
        + math.lgamma(s_minus_mp + 1.0)
    )
    cos_half = math.cos(0.5 * theta)
    sin_half = math.sin(0.5 * theta)

    logs = []
    signs = []
    for k in range(max(0, m_minus_mp), min(s_plus_m, s_minus_mp) + 1):
        cos_power = two_s - 2 * k + m_minus_mp
        sin_power = 2 * k - m_minus_mp
        if (cos_power > 0 and cos_half == 0.0) or (sin_power > 0 and sin_half == 0.0):
            continue
        log_mag = log_prefactor - (
            math.lgamma(s_plus_m - k + 1.0)
            + math.lgamma(s_minus_mp - k + 1.0)
            + math.lgamma(k - m_minus_mp + 1.0)
            + math.lgamma(k + 1.0)
        )
        if cos_power:
            log_mag += cos_power * math.log(abs(cos_half))
        if sin_power:
            log_mag += sin_power * math.log(abs(sin_half))
        sign = (-1) ** (k - m_minus_mp)
        if cos_power and cos_half < 0:
            sign *= (-1) ** cos_power
        if sin_power and sin_half < 0:
            sign *= (-1) ** sin_power
        logs.append(log_mag)
        signs.append(sign)
    sign, log_mag = signed_logsumexp(logs, signs)
    return 0.0 if sign == 0 else sign * math.exp(log_mag)


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
    """Eigendecomposition of the real symmetric image of S_y (cached)."""
    return eig_tridiag(_sy_operator(two_s))


def wigner_column_stable(s, n_col, theta):
    """One column of d^s(theta), stable to s = 300, as a read-only array.

    Entries are indexed by the row r = 0..2s with m' = s - r.

    Raises:
        ArgumentError: on invalid indices, or if the column is not unit
            norm within 1e-10.
    """
    two_s = _twice(s, "s")
    two_n = _twice(n_col, "n_col")
    if two_s < 0 or two_s > STABLE_MAX_TWO_S:
        raise ArgumentError(f"stable route requires 0 <= s <= 300, got s={s!r}")
    if abs(two_n) > two_s or (two_s + two_n) % 2:
        raise ArgumentError("n_col must satisfy |n_col| <= s with s - n_col integer")
    col = (two_s - two_n) // 2  # m = s - col; row r holds m' = s - r
    dec = _sy_decomposition(two_s)
    seed = dec.vectors[col]
    a_part = dec.vectors @ (np.cos(theta * dec.values) * seed)
    b_part = dec.vectors @ (np.sin(theta * dec.values) * seed)
    phase = (np.arange(two_s + 1) - col) % 4
    magnitude = np.where(phase % 2 == 0, a_part, b_part)
    entries = np.where(phase < 2, magnitude, -magnitude)
    if abs(entries @ entries - 1.0) > 1e-10:
        raise ArgumentError("column of a rotation matrix must be unit norm")
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
        ArgumentError: for tau < 0 or L > WAVEPACKET_MAX_LENGTH.
    """
    if length % 2 or length < 2:
        raise DomainError("exact IR amplitudes require even L >= 2")
    if length > WAVEPACKET_MAX_LENGTH:
        raise ArgumentError(f"exact IR amplitudes are capped at L <= {WAVEPACKET_MAX_LENGTH}")
    if tau < 0:
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
    shifts = logs.max(axis=1)
    logs -= shifts[:, None]
    np.exp(logs, out=logs)
    log_sq = log_binomial(length, 2.0 * n) + 2.0 * (shifts + np.log(logs.sum(axis=1)))
    log_sq -= log_sq.max()
    log_sq -= math.log(np.exp(log_sq).sum())
    return (-1.0) ** n * np.exp(0.5 * log_sq)


def psi_ir_asymptotic_profile(length):
    """Large-tau/large-L asymptotic IR wavepacket over n = 0..L/2."""
    if length % 2 or length < 2:
        raise DomainError("asymptotic IR amplitudes require even L >= 2")
    n = np.arange(length // 2 + 1)
    log_binom = log_binomial(length, 2.0 * n)
    return (-1.0) ** n * np.exp(0.5 * (log_binom + (1.0 - length) * math.log(2.0)))
