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

Both routes take arrays of indices and give a whole matrix in one call:
wigner_d sums every element's k terms over one (..., 2s+1) term array,
wigner_column_stable forms every requested column with one product.

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
    """Sum of signed log-domain terms over the last axis, one shift per sum.

    Each sum shifts its terms by their largest live exponent and adds them
    with math.fsum, which rounds the exact sum once, so the result does
    not depend on the order of the terms.  Returns (sign, log_magnitude),
    each of the shape of the inputs without their last axis; sign 0
    encodes exact zero (or no terms).
    """
    logs = np.asarray(log_magnitudes, dtype=float)
    signs = np.asarray(signs, dtype=float)
    live = (signs != 0) & np.isfinite(logs)
    logs = np.where(live, logs, -np.inf)
    shift = logs.max(axis=-1, initial=-np.inf)
    with np.errstate(invalid="ignore"):
        terms = np.where(live, signs * np.exp(logs - shift[..., None]), 0.0)
    rows = terms.reshape(shift.size, -1).tolist()
    total = np.array(list(map(math.fsum, rows))).reshape(shift.shape)
    with np.errstate(divide="ignore"):
        log_sum = np.where(total == 0, -np.inf, shift + np.log(abs(total)))
    return np.sign(total).astype(int)[()], log_sum[()]


def _twice(value, name):
    """Twice an integer or half-integer value (or array), as integers."""
    value = np.asarray(value, dtype=float)
    doubled = np.rint(2.0 * value)
    bad = value[np.abs(2.0 * value - doubled) > 1e-9]
    if bad.size:
        raise ArgumentError(f"{name} must be integer or half-integer, got {bad.tolist()[0]!r}")
    return doubled.astype(int)


def wigner_d(s, m_prime, m, theta):
    """Wigner small-d elements by the direct factorial k-sum (s <= 20).

    Args:
        s: spin (integer or half-integer).
        m_prime: row magnetic index, a float or an array.
        m: column magnetic index, a float or an array; it broadcasts
            against m_prime.
        theta: rotation angle in radians.

    Returns:
        d^s_{m'm}(theta): a float for scalar indices, else an array of
        their broadcast shape.  Each element is one signed_logsumexp over
        the terms k = 0..2s, the terms outside the element's range zero.
    """
    two_s = int(_twice(s, "s"))
    two_mp, two_m = np.broadcast_arrays(_twice(m_prime, "m_prime"), _twice(m, "m"))
    if two_s < 0 or two_s > DIRECT_SUM_MAX_TWO_S:
        raise ArgumentError(f"direct-sum route requires 0 <= s <= 20, got s={s!r}")
    if np.any(np.abs(two_mp) > two_s) or np.any(np.abs(two_m) > two_s):
        raise ArgumentError("|m|, |m_prime| must not exceed s")
    if np.any((two_s + two_m) % 2) or np.any((two_s + two_mp) % 2):
        raise ArgumentError("s - m and s - m_prime must be integers")

    s_plus_m = (two_s + two_m)[..., None] // 2
    s_minus_mp = (two_s - two_mp)[..., None] // 2
    m_minus_mp = (two_m - two_mp)[..., None] // 2
    k = np.arange(two_s + 1)
    log_factorials = np.array([math.lgamma(i + 1.0) for i in range(two_s + 1)])
    log_fact_at = functools.partial(np.take, log_factorials, mode="clip")
    log_prefactor = 0.5 * (
        log_fact_at(s_plus_m)
        + log_fact_at(two_s - s_plus_m)
        + log_fact_at(two_s - s_minus_mp)
        + log_fact_at(s_minus_mp)
    )
    cos_half, sin_half = math.cos(0.5 * theta), math.sin(0.5 * theta)
    cos_power = two_s - 2 * k + m_minus_mp
    sin_power = 2 * k - m_minus_mp
    log_mag = log_prefactor - (
        log_fact_at(s_plus_m - k)
        + log_fact_at(s_minus_mp - k)
        + log_fact_at(k - m_minus_mp)
        + log_fact_at(k)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        for power, half in ((cos_power, cos_half), (sin_power, sin_half)):
            log_mag += np.where(power > 0, power * np.log(abs(half)), 0.0)
    parity = k - m_minus_mp + cos_power * (cos_half < 0) + sin_power * (sin_half < 0)
    in_range = (k >= m_minus_mp) & (k <= np.minimum(s_plus_m, s_minus_mp))
    sign, log_sum = signed_logsumexp(log_mag, np.where(in_range, 1 - 2 * (parity % 2), 0))
    out = np.where(sign == 0, 0.0, sign * np.exp(log_sum))
    return float(out) if out.ndim == 0 else out


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
    """Columns of d^s(theta), stable to s = 300, as a read-only array.

    Entries are indexed by the row r = 0..2s with m' = s - r, first: a
    scalar n_col gives the (2s+1,) column, an array of n_col the array
    (2s+1,) + n_col.shape of their columns, so n_col = s - arange(2s+1)
    gives the whole matrix.

    Raises:
        ArgumentError: on invalid indices, or if a column is not unit
            norm within 1e-10.
    """
    two_s = int(_twice(s, "s"))
    two_n = _twice(n_col, "n_col")
    if two_s < 0 or two_s > STABLE_MAX_TWO_S:
        raise ArgumentError(f"stable route requires 0 <= s <= 300, got s={s!r}")
    if np.any(np.abs(two_n) > two_s) or np.any((two_s + two_n) % 2):
        raise ArgumentError("n_col must satisfy |n_col| <= s with s - n_col integer")
    col = (two_s - two_n) // 2  # m = s - col; row r holds m' = s - r
    dec = _sy_decomposition(two_s)
    seeds = dec.vectors[col]  # n_col.shape + (2s+1,), over the eigenvectors
    a_part = (np.cos(theta * dec.values) * seeds) @ dec.vectors.T
    b_part = (np.sin(theta * dec.values) * seeds) @ dec.vectors.T
    phase = (np.arange(two_s + 1) - col[..., None]) % 4
    magnitude = np.where(phase % 2 == 0, a_part, b_part)
    entries = np.where(phase < 2, magnitude, -magnitude)
    if np.any(np.abs(np.einsum("...r,...r->...", entries, entries) - 1.0) > 1e-10):
        raise ArgumentError("column of a rotation matrix must be unit norm")
    entries = np.moveaxis(entries, -1, 0)
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
