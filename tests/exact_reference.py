"""Exact references that the tests compare production routes with.

Every reference here is a sum of exact integers, or of ``decimal``
numbers at a stated precision, written out from the closed forms of the
two models.  None calls a production route: the float routes they check
live in dekrylov.models, dekrylov.evolve, dekrylov.wigner and
dekrylov.lintri.  The exact survival moments, which `verify` uses too,
are dekrylov.oracle.survival_moments.
"""

import math
from decimal import Decimal, localcontext

from dekrylov.models import ModelKind


def log_binomial_pmf(n, digits=40):
    """Decimal log(C(n, k) / 2^n) for k = 0..n.

    The centre k = n//2 is the ln of the exact integer C(n, n//2) less
    n ln 2; each step outward adds the ln of the exact ratio
    C(n, k+1) / C(n, k) = (n - k) / (k + 1), and C(n, k) = C(n, n - k)
    mirrors the upper half onto the lower.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        centre = n // 2
        logs = [Decimal(math.comb(n, centre)).ln() - n * Decimal(2).ln()]
        for k in range(centre, n):
            logs.append(logs[-1] + (Decimal(n - k) / (k + 1)).ln())
        return logs[::-1][:centre] + logs


def log_seed_overlaps(kind, length):
    """log|c_k| of the seed's overlaps with the ascending eigenvectors, floats.

    NN: c_k^2 = C(L-1, k) / 2^(L-1).  IR: c_k^2 = C(L, L/2 + m)
    (2 - delta_m0) / 2^L with m = L/2 - k.
    """
    if kind is ModelKind.NN:
        return [float(log / 2) for log in log_binomial_pmf(length - 1, digits=20)]
    half = length // 2
    logs = log_binomial_pmf(length, digits=20)[half:][::-1]
    return [float(log / 2) + (0.0 if k == half else math.log(2) / 2) for k, log in enumerate(logs)]


def nn_lambda(tau, digits):
    """The NN spreading weight sinh^2 tau / (1 + 2 sinh^2 tau) as a Decimal,
    with sinh tau from Decimal.exp, which loses |log10 tau| of the
    ``digits`` digits at small tau."""
    with localcontext() as ctx:
        ctx.prec = digits
        sinh_sq = ((Decimal(tau).exp() - Decimal(-tau).exp()) / 2) ** 2
        return sinh_sq / (1 + 2 * sinh_sq)


def nn_wavepacket(length, tau, digits):
    """The NN wavepacket (-1)^n sqrt(C(L-1, n) lambda^n (1-lambda)^(L-1-n)),
    n = 0..L-1, as floats rounded once from ``digits``-digit decimals, by
    the running ratio t_{n+1} = t_n (L-1-n)/(n+1) lambda/(1-lambda)."""
    with localcontext() as ctx:
        ctx.prec = digits
        lam = nn_lambda(tau, digits)
        ratio = lam / (1 - lam)
        term = (1 - lam) ** (length - 1)
        psi = []
        for n in range(length):
            psi.append(float((-1) ** n * term.sqrt()))
            term = term * (length - 1 - n) / (n + 1) * ratio
        return psi


def ir_direct_sums(length, tau, digits=80):
    """(K, chi) of the IR model as decimal sums over the states |s, m>:
    exact integer binomials, Decimal.exp, and K = (s - <S_x>)/2 evaluated
    directly, not through the positive form of ir_positive_sums."""
    with localcontext() as ctx:
        ctx.prec = digits
        spin, tau = length // 2, Decimal(tau)
        amps = {
            m: Decimal(math.comb(length, spin + m)).sqrt() * (2 * m * m * tau / length).exp()
            for m in range(-spin, spin + 1)
        }
        norm = sum(a * a for a in amps.values())
        s_x = sum(
            Decimal(spin * (spin + 1) - m * (m - 1)).sqrt() * amps[m] * amps[m - 1]
            for m in range(1 - spin, spin + 1)
        ) / norm
        chi = sum(4 * m * m * a * a for m, a in amps.items()) / (length * length * norm)
        return (spin - s_x) / 2, chi


def ir_positive_sums(length, taus, digits=34):
    """(K, chi) per tau from the positive form of ir_magnetization_sums in
    decimals, over the weights C(L, s+m) / 2^L of log_binomial_pmf."""
    with localcontext() as ctx:
        ctx.prec = digits
        spin = length // 2
        log_binom = log_binomial_pmf(length, digits)[spin:]
        results = []
        for tau in map(Decimal, taus):
            sq = [(lb + 4 * m * m * tau / length).exp() for m, lb in enumerate(log_binom)]
            norm = sq[0] + 2 * sum(sq[1:])
            k = sum(
                (spin + m) * sq[m] * ((-2 * (2 * m - 1) * tau / length).exp() - 1) ** 2
                for m in range(1, spin + 1)
            ) / (2 * norm)
            chi = sum(8 * m * m * sq[m] for m in range(1, spin + 1)) / (length * length * norm)
            results.append((k, chi))
        return results


def ir_krawtchouk_profile(length, tau, digits=250):
    """|psi_n| of the IR wavepacket from exact integer Krawtchouk sums, floats.

    e^{2 tau S_z^2 / L} |+>^{(x)L} has the amplitudes
    A_j ~ sqrt(C(L, j)) Sum_k e^{tau (L - 2k)^2 / (2L)} K_k(j) on the
    x-basis Dicke states with j flips, where
    K_k(j) = Sum_i (-1)^i C(j, i) C(L - j, k - i); psi_n = A_{2n} / ||A||.
    The sums cancel: A_{2n} is of order tau^n, so at small tau they lose
    about L |log10 tau| / 2 of their digits.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        weights = [
            (Decimal(tau) * (length - 2 * k) ** 2 / (2 * length)).exp()
            for k in range(length + 1)
        ]
        amps = []
        for j in range(0, length + 1, 2):
            total = sum(
                weight
                * sum(
                    (-1) ** i * math.comb(j, i) * math.comb(length - j, k - i)
                    for i in range(max(0, k - length + j), min(j, k) + 1)
                )
                for k, weight in enumerate(weights)
            )
            amps.append(Decimal(math.comb(length, j)).sqrt() * total)
        norm = sum(a * a for a in amps).sqrt()
        return [abs(float(a / norm)) for a in amps]
