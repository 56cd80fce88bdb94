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

     with (Lambda, Q) from the real eigensolver.  The i^{r-c} phase is
     tracked as an exact period-4 integer counter, never as a complex
     float, picking A, B, -A, -B by (r-c) mod 4.

The exact wavepacket of the infinite-range model follows by expanding
e^{-tau H} in the rotated collective-spin eigenbasis:

    psi_n(tau) = (-1)^n Sum_{m'} d^{L/2}_{m', L/2-2n}(pi/2)
                    sqrt(C(L, L/2+m')) e^{2 m'^2 tau / L}
                 / sqrt(Sum_{m'} C(L, L/2+m') e^{4 m'^2 tau / L}).

The e^{2 m'^2 tau / L} weights reach e^{L tau / 2}, which overflows
binary64 for L tau over ~1400, so every sum runs in the signed log
domain with one shift per Krylov index, fixed pairwise order along r
(bitwise deterministic).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import gammaln

from .errors import ArgumentError, DomainError
from .lintri import TridiagonalOperator, eig_tridiag
from .models import log_binomial

DIRECT_SUM_MAX_TWO_S = 40  # s <= 20 for the factorial k-sum route
STABLE_MAX_TWO_S = 600  # s <= 300, matrix dimension 601


def signed_logsumexp(log_magnitudes, signs):
    """Sum of signed log-domain terms under a single max-exponent shift.

    Summation order is the array order (fixed, bitwise deterministic).
    Returns (sign, log_magnitude) of the sum; sign 0 encodes exact zero.
    """
    log_magnitudes = np.asarray(log_magnitudes, dtype=float)
    signs = np.asarray(signs, dtype=float)
    live = (signs != 0) & np.isfinite(log_magnitudes)
    if not np.any(live):
        return 0, -math.inf
    shift = float(np.max(log_magnitudes[live]))
    total = float(
        np.sum(np.where(live, signs * np.exp(log_magnitudes - shift), 0.0))
    )
    return _signed_log(shift, total)


def _signed_log(shift, total):
    """(sign, log|value|) of value = total * e^shift; sign 0 encodes exact zero."""
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
        gammaln(s_plus_m + 1.0)
        + gammaln(s_minus_m + 1.0)
        + gammaln(s_plus_mp + 1.0)
        + gammaln(s_minus_mp + 1.0)
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
            gammaln(s_plus_m - k + 1.0)
            + gammaln(s_minus_mp - k + 1.0)
            + gammaln(k - m_minus_mp + 1.0)
            + gammaln(k + 1.0)
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


@functools.lru_cache(maxsize=16)
def _sy_decomposition(two_s):
    """Eigendecomposition of the real symmetric image of S_y (cached)."""
    dim = two_s + 1
    k = np.arange(dim - 1, dtype=float)
    beta = 0.5 * np.sqrt((k + 1.0) * (two_s - k))
    return eig_tridiag(TridiagonalOperator(diag=np.zeros(dim), offdiag=beta))


def _rotation_columns(two_s, theta, cols):
    """Columns ``cols`` of d^s(theta) via the spectral route.

    Row r corresponds to m' = s - r, column c to m = s - c.
    """
    dec = _sy_decomposition(two_s)
    vectors = dec.vectors
    cos_w = np.cos(theta * dec.values)
    sin_w = np.sin(theta * dec.values)
    sub = vectors[cols, :]  # (len(cols), dim) of Q rows
    a_part = vectors @ (cos_w[:, None] * sub.T)
    b_part = vectors @ (sin_w[:, None] * sub.T)
    rows = np.arange(two_s + 1)
    phase = (rows[:, None] - np.asarray(cols)[None, :]) % 4
    magnitude = np.where(phase % 2 == 0, a_part, b_part)
    return np.where(phase < 2, magnitude, -magnitude)


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
    col = (two_s - two_n) // 2
    entries = _rotation_columns(two_s, theta, [col])[:, 0]
    if abs(entries @ entries - 1.0) > 1e-10:
        raise ArgumentError("column of a rotation matrix must be unit norm")
    entries.setflags(write=False)
    return entries


def _check_ir_length(length):
    if length % 2 or length < 2:
        raise DomainError("exact IR amplitudes require even L >= 2")
    if length > STABLE_MAX_TWO_S:
        raise ArgumentError(f"exact IR amplitudes are capped at L <= {STABLE_MAX_TWO_S}")


@functools.lru_cache(maxsize=8)
def _ir_amplitude_data(length):
    """tau-independent pieces of the exact amplitude sum at theta = pi/2.

    Returns (signs, log_d, log_binom, msq).  signs and log_d have one
    C-contiguous row per Krylov index n = 0..L/2 and one column per
    r = 0..L (m' = L/2 - r), so each index's terms are one contiguous
    row; log_binom and msq are indexed by r.  A sign is 0 exactly where
    log_d is -inf.
    """
    cols = 2 * np.arange(length // 2 + 1)  # m = L/2 - 2n sits at column 2n
    dmat = np.ascontiguousarray(_rotation_columns(length, 0.5 * math.pi, cols).T)
    signs = np.sign(dmat).astype(np.int8)
    with np.errstate(divide="ignore"):
        log_d = np.log(np.abs(dmat))
    m_prime = length / 2.0 - np.arange(length + 1)
    log_binom = log_binomial(length, length / 2.0 + m_prime)
    m_prime_sq = m_prime**2
    for arr in (signs, log_d, log_binom, m_prime_sq):
        arr.setflags(write=False)
    return signs, log_d, log_binom, m_prime_sq


def psi_ir_exact_profile(length, tau):
    """Exact IR wavepacket over all Krylov indices n = 0..L/2.

    Every numerator is a signed log-sum-exp over r with one shift per
    Krylov index and a fixed pairwise order along r; all rows are summed
    at once.  Terms with sign 0 have log_d = -inf and drop out as
    exp(-inf) = 0.  The last step per index runs through scalar
    math.exp and math.log, so each amplitude is bitwise the value of a
    separate signed_logsumexp over its row.
    """
    _check_ir_length(length)
    if tau < 0:
        raise ArgumentError("tau must be nonnegative")
    signs, log_d, log_binom, msq = _ir_amplitude_data(length)
    tau_weight = 2.0 * msq * tau / length
    _, log_den = signed_logsumexp(log_binom + 2.0 * tau_weight, np.ones(length + 1))
    half_log_den = 0.5 * log_den
    terms = log_d + (0.5 * log_binom + tau_weight)
    shifts = terms.max(axis=1)
    terms -= shifts[:, None]
    np.exp(terms, out=terms)
    terms *= signs
    totals = terms.sum(axis=1)
    out = np.empty(length // 2 + 1)
    for n, (shift, total) in enumerate(zip(shifts.tolist(), totals.tolist())):
        sign, log_num = _signed_log(shift, total)
        out[n] = (-1.0) ** n * sign * math.exp(log_num - half_log_den)
    return out


def psi_ir_asymptotic_profile(length):
    """Large-tau/large-L asymptotic IR wavepacket over n = 0..L/2."""
    if length % 2 or length < 2:
        raise DomainError("asymptotic IR amplitudes require even L >= 2")
    n = np.arange(length // 2 + 1)
    log_binom = log_binomial(length, 2.0 * n)
    return (-1.0) ** n * np.exp(0.5 * (log_binom + (1.0 - length) * math.log(2.0)))
