"""Wigner rotation layer and the exact IR wavepacket (a Gaussian integral)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dekrylov import wigner
from dekrylov.errors import ArgumentError, DomainError
from dekrylov.lintri import expm_from_eig
from dekrylov.models import (
    ModelKind,
    ModelSpec,
    analytic_lanczos,
)
from dekrylov.oracle import area_law_psi, psi_ir_asymptotic_profile
from dekrylov.wigner import (
    WAVEPACKET_MAX_LENGTH,
    psi_ir_exact_profile,
    wigner_d,
    wigner_d_stable,
)
import exact_reference


# ------------------------------------------------------------- d-matrix layer


def test_spin_half_rotation_matrix():
    """d^{1/2}(theta) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]], rows and
    columns ordered m = 1/2, -1/2."""
    for theta in (0.0, 0.4, np.pi / 2, 2.5):
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        expected = [[c, -s], [s, c]]
        assert_allclose(wigner_d(0.5, theta), expected, rtol=0, atol=1e-14)
        assert_allclose(wigner_d_stable(0.5, theta), expected, rtol=0, atol=1e-14)


def test_spin_one_rotation_matrix():
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    expected = np.array(
        [
            [(1 + c) / 2, -s / np.sqrt(2), (1 - c) / 2],
            [s / np.sqrt(2), c, -s / np.sqrt(2)],
            [(1 - c) / 2, s / np.sqrt(2), (1 + c) / 2],
        ]
    )
    assert_allclose(wigner_d(1.0, theta), expected, rtol=0, atol=1e-14)
    assert_allclose(wigner_d_stable(1, theta), expected, rtol=0, atol=1e-14)


@given(st.integers(1, 30), st.floats(0.05, 3.1))
@settings(max_examples=40)
def test_rotation_columns_are_orthonormal(two_s, theta):
    matrix = wigner_d_stable(two_s / 2, theta)
    assert matrix.shape == (two_s + 1, two_s + 1) and not matrix.flags.writeable
    assert_allclose(matrix.T @ matrix, np.eye(two_s + 1), atol=1e-11)


@pytest.mark.parametrize("two_s", [100, 301, 600])
def test_stable_route_is_orthonormal_up_to_its_cap(two_s):
    """Columns stay orthonormal to 1e-12 up to 2s = 600, where the factorial
    k-sum has long failed."""
    for theta in (0.4, np.pi / 2, 4.0):
        matrix = wigner_d_stable(two_s / 2, theta)
        gram = np.einsum("ri,rj->ij", matrix, matrix)
        assert np.max(np.abs(gram - np.eye(two_s + 1))) <= 1e-12, (two_s, theta)


@given(st.integers(1, 24), st.floats(0.05, 3.1))
@settings(max_examples=40)
def test_stable_column_matches_direct_sum(two_s, theta):
    """The spectral route reproduces the factorial k-sum where both exist."""
    column = two_s // 2
    stable = wigner_d_stable(two_s / 2, theta)
    assert_allclose(stable[:, column], wigner_d(two_s / 2, theta)[:, column], atol=1e-10)


def _loop_wigner_d(s, m_prime, m, theta):
    """The factorial k-sum as a loop over k in stdlib floats, no logs.

    Returns the element and the sum of the magnitudes of its terms."""
    two_s, up, u = round(2 * s), round(s + m_prime), round(s + m)
    fact = math.factorial
    prefactor = math.sqrt(fact(up) * fact(two_s - up) * fact(u) * fact(two_s - u))
    cos_half, sin_half = math.cos(0.5 * theta), math.sin(0.5 * theta)
    terms = [
        (-1) ** (k - u + up)
        * prefactor
        / (fact(u - k) * fact(two_s - up - k) * fact(k - u + up) * fact(k))
        * cos_half ** (two_s - 2 * k + u - up)
        * sin_half ** (2 * k - u + up)
        for k in range(max(0, u - up), min(u, two_s - up) + 1)
    ]
    return math.fsum(terms), math.fsum(map(abs, terms))


@pytest.mark.parametrize("theta", [0.4, np.pi / 2, 1.9, 4.0])
def test_wigner_d_matches_the_exact_loop(theta):
    """Up to the cap 2s = 40, every element lies within 8 eps of its summed
    term magnitudes of the k-sum loop over exact integer factorials.
    theta = 4.0 has cos(theta/2) < 0."""
    eps = np.finfo(float).eps
    for two_s in range(wigner.DIRECT_SUM_MAX_TWO_S + 1):
        s = two_s / 2
        ms = s - np.arange(two_s + 1)
        matrix = wigner_d(s, theta)
        loop = np.array([[_loop_wigner_d(s, mp, m, theta) for m in ms] for mp in ms])
        assert matrix.shape == (two_s + 1, two_s + 1)
        assert np.all(np.abs(matrix - loop[..., 0]) <= 8 * eps * loop[..., 1]), (two_s, theta)


def test_wigner_routes_agree_on_the_criterion_grid():
    """The factorial k-sum and the spectral route agree within 2e-14 on the
    grid of the Wigner verification criterion (s <= 10)."""
    for two_s in range(1, 21):
        for theta in (np.pi / 2, 0.4, 1.9):
            direct = wigner_d(two_s / 2, theta)
            stable = wigner_d_stable(two_s / 2, theta)
            assert np.max(np.abs(direct - stable)) <= 2e-14, (two_s, theta)


def test_wigner_argument_validation():
    """Each route refuses a spin past its cap, a negative spin, and one that
    is neither integer nor half-integer."""
    for route, cap in ((wigner_d, 20), (wigner_d_stable, 300)):
        route(cap, 1.0)
        for s in (cap + 0.5, -0.5, 0.3, 1.25, math.nan, math.inf):
            with pytest.raises(ArgumentError, match="integer or half-integer in"):
                route(s, 1.0)


# ------------------------------------------------------ exact IR amplitudes


@given(st.integers(1, 100), st.floats(0.0, 3.0))
@settings(max_examples=40)
def test_exact_profile_is_normalized(half, tau):
    profile = psi_ir_exact_profile(2 * half, tau)
    assert profile.shape == (half + 1,)
    assert profile @ profile == pytest.approx(1.0, abs=1e-12)
    assert profile[0] != 0.0


def test_exact_profile_starts_at_the_seed():
    assert np.array_equal(psi_ir_exact_profile(60, 0.0), np.eye(31)[0])


def test_exact_profile_matches_tridiagonal_propagation():
    for length, tau in ((8, 0.6), (12, 1.3)):
        kspec = analytic_lanczos(ModelSpec(ModelKind.IR, length))
        assert_allclose(
            psi_ir_exact_profile(length, tau),
            expm_from_eig(kspec.tridiag, tau).psi,
            atol=1e-12,
        )


def _per_index_profile(length, tau):
    """The exact profile with each integral I_n summed on its own, in
    scalar stdlib arithmetic, on the nodes of the vectorized route."""
    offsets, width = wigner._quadrature_offsets(length, tau)
    log_sq = []
    for n in range(length // 2 + 1):
        logs = []
        for j, x in enumerate(offsets.tolist()):
            phi = 2.0 * tau + x
            if n and phi == 0.0:
                continue  # sinh^{2n}(0) = 0
            value = length * math.log1p(math.exp(-phi)) - 0.5 * (x / width) ** 2
            if n:
                value += 2 * n * math.log(math.tanh(0.5 * phi))
            logs.append(value + (math.log(0.5) if j == 0 else 0.0))
        shift = max(logs)
        log_integral = shift + math.log(math.fsum(math.exp(v - shift) for v in logs))
        log_sq.append(math.log(math.comb(length, 2 * n)) + 2.0 * log_integral)
    top = max(log_sq)
    log_norm = top + math.log(math.fsum(math.exp(v - top) for v in log_sq))
    return np.array(
        [(-1.0) ** n * math.exp(0.5 * (v - log_norm)) for n, v in enumerate(log_sq)]
    )


@pytest.mark.parametrize("length", (2, 6, 50, 102, 500, 600))
def test_exact_profile_equals_per_index_sums(length):
    """The batched log-domain sums, one shift per Krylov index, equal a
    scalar loop over each index.  L tau up to 24000 needs the log domain."""
    for tau in (0.3, 2.0, 40.0):
        assert_allclose(
            psi_ir_exact_profile(length, tau), _per_index_profile(length, tau), rtol=1e-12
        )


@pytest.mark.parametrize("length", (8, 20, 40))
def test_exact_profile_matches_decimal_krawtchouk_sums(length):
    """Every entry down to 1e-300 keeps its relative accuracy, with the
    sign (-1)^n of the Krylov basis."""
    for tau in (1e-3, 0.1, 0.5, 1.0, 2.0, 10.0):
        psi = psi_ir_exact_profile(length, tau)
        for n, exact in enumerate(exact_reference.ir_krawtchouk_profile(length, tau)):
            if exact >= 1e-300:
                assert psi[n] == pytest.approx((-1) ** n * exact, rel=1e-10, abs=0), (tau, n)


@pytest.mark.parametrize(
    "length, tau", [(8, 1e-12), (8, 1e-200), (8, 1e-300), (40, 1e-12), (40, 1e-30)]
)
def test_exact_profile_keeps_relative_accuracy_as_tau_vanishes(length, tau):
    """Every entry down to 1e-300 stays within 1e-12 relative of the
    Krawtchouk sums.  These cancel about L |log10 tau| / 2 digits, so the
    reference runs at L |log10 tau| + 100 digits, and agrees with itself at
    1.5 times as many."""
    digits = round(length * -math.log10(tau)) + 100
    reference = exact_reference.ir_krawtchouk_profile(length, tau, digits)
    finer = exact_reference.ir_krawtchouk_profile(length, tau, 3 * digits // 2)
    assert_allclose(reference, finer, rtol=1e-15, atol=0)
    psi = psi_ir_exact_profile(length, tau)
    for n, exact in enumerate(reference):
        if exact >= 1e-300:
            assert psi[n] == pytest.approx((-1) ** n * exact, rel=1e-12, abs=0), n


@pytest.mark.parametrize("length", (100, 2000, WAVEPACKET_MAX_LENGTH))
def test_exact_profile_converges_in_the_node_count(length, monkeypatch):
    """Doubling the nodes per peak width moves no entry by 1e-10 relative."""
    taus = (1e-3, 0.5, 2.0, 10.0, 1000.0)
    coarse = [psi_ir_exact_profile(length, tau) for tau in taus]
    monkeypatch.setattr(wigner, "NODES_PER_WIDTH", 2 * wigner.NODES_PER_WIDTH)
    for tau, psi in zip(taus, coarse):
        fine = psi_ir_exact_profile(length, tau)
        live = np.abs(fine) >= 1e-300
        assert_allclose(psi[live], fine[live], rtol=1e-10, atol=0)
        assert np.all(np.abs(psi[~live]) < 1e-290)


def test_exact_profile_converges_to_area_law_with_length():
    """At fixed tau in the area-law phase the finite-L profile flattens onto
    the L-independent limit, with the gap shrinking as L grows."""
    tau = 0.3
    gaps = []
    for length in (40, 80, 160):
        profile = psi_ir_exact_profile(length, tau)
        limit = area_law_psi(np.arange(profile.size), tau)
        gaps.append(np.max(np.abs(profile - limit)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 5e-3


def test_exact_profile_relaxes_onto_flat_plateau():
    """At large tau the packet approaches the top-eigenvector profile."""
    length = 40
    plateau = psi_ir_asymptotic_profile(length)
    gaps = [
        np.max(np.abs(psi_ir_exact_profile(length, tau) - plateau))
        for tau in (2.0, 4.0, 8.0)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-5


def test_asymptotic_profile_plateau_complexity():
    for length in (8, 12, 30):
        profile = psi_ir_asymptotic_profile(length)
        assert profile @ profile == pytest.approx(1.0, abs=1e-13)
        k = np.arange(profile.size) @ profile**2
        assert k == pytest.approx(length / 4, abs=1e-12)


def test_exact_amplitude_domains():
    with pytest.raises(DomainError):
        psi_ir_exact_profile(7, 1.0)
    with pytest.raises(ArgumentError):
        psi_ir_exact_profile(8, -1.0)
    with pytest.raises(ArgumentError):
        psi_ir_exact_profile(WAVEPACKET_MAX_LENGTH + 2, 1.0)
