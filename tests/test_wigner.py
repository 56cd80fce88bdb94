"""Wigner rotation layer and log-domain exact IR amplitudes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dekrylov.errors import ArgumentError, DomainError
from dekrylov.lintri import expm_action
from dekrylov.models import (
    ModelKind,
    ModelSpec,
    analytic_lanczos,
    area_law_psi,
    log_binomial,
)
from dekrylov.wigner import (
    psi_ir_asymptotic_profile,
    psi_ir_exact_profile,
    signed_logsumexp,
    wigner_column_stable,
    wigner_d,
)


# ------------------------------------------------------------ log arithmetic


def test_signed_log_value_round_trip():
    """A single term comes back as (sign, log|value|)."""
    for value in (1.0, -3.5, 1e-280, -2e200):
        sign, log_mag = signed_logsumexp([math.log(abs(value))], [math.copysign(1, value)])
        back = sign * math.exp(log_mag)
        # exp(log x) loses ~|log x| ulp of relative precision at huge magnitudes
        assert back == pytest.approx(value, rel=1e-12, abs=0.0) or back == value
    assert signed_logsumexp([0.0], [0]) == (0, -math.inf)


def test_signed_logsumexp_degenerate_cases():
    exact_zero = signed_logsumexp(np.array([0.0, 0.0]), np.array([1, -1]))
    assert exact_zero[0] == 0
    empty = signed_logsumexp(np.array([]), np.array([]))
    assert empty[0] == 0
    sign, log_mag = signed_logsumexp(np.array([math.log(2.0)]), np.array([-1]))
    assert sign == -1 and log_mag == pytest.approx(math.log(2.0), rel=1e-15)


@given(
    st.lists(
        st.tuples(st.floats(-200.0, 200.0), st.sampled_from([-1, 1])),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=80)
def test_signed_logsumexp_matches_fsum(terms):
    """Signed log-domain accumulation agrees with fsum up to cancellation."""
    logs = np.array([t[0] for t in terms])
    signs = np.array([t[1] for t in terms])
    shift = logs.max()  # compare in a representable range
    values = [s * math.exp(lg - shift) for lg, s in zip(logs, signs)]
    expected = math.fsum(values)
    sign, log_mag = signed_logsumexp(logs - shift, signs)
    result = sign * math.exp(log_mag)
    assert abs(result - expected) <= 1e-13 * math.fsum(map(abs, values))


def test_log_binomial_matches_exact_integers():
    for n in (0, 1, 7, 23, 40):
        for k in range(n + 1):
            assert log_binomial(n, k) == pytest.approx(
                math.log(math.comb(n, k)), abs=1e-12
            )


# ------------------------------------------------------------- d-matrix layer


def test_spin_half_rotation_matrix():
    """d^{1/2}(theta) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]."""
    for theta in (0.0, 0.4, np.pi / 2, 2.5):
        half = theta / 2
        assert wigner_d(0.5, 0.5, 0.5, theta) == pytest.approx(np.cos(half), abs=1e-14)
        assert wigner_d(0.5, 0.5, -0.5, theta) == pytest.approx(-np.sin(half), abs=1e-14)
        assert wigner_d(0.5, -0.5, 0.5, theta) == pytest.approx(np.sin(half), abs=1e-14)
        assert wigner_d(0.5, -0.5, -0.5, theta) == pytest.approx(np.cos(half), abs=1e-14)


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
    ms = (1.0, 0.0, -1.0)
    actual = np.array([[wigner_d(1.0, mp, m, theta) for m in ms] for mp in ms])
    assert_allclose(actual, expected, atol=1e-14)


@given(st.integers(1, 30), st.floats(0.05, 3.1))
@settings(max_examples=40)
def test_rotation_columns_are_orthonormal(two_s, theta):
    s = two_s / 2
    cols = np.array(
        [wigner_column_stable(s, s - k, theta) for k in range(two_s + 1)]
    ).T
    assert_allclose(cols.T @ cols, np.eye(two_s + 1), atol=1e-11)


@given(st.integers(1, 24), st.floats(0.05, 3.1))
@settings(max_examples=40)
def test_stable_column_matches_direct_sum(two_s, theta):
    """The spectral route reproduces the factorial k-sum where both exist."""
    s = two_s / 2
    n_col = s - (two_s // 2)
    column = wigner_column_stable(s, n_col, theta)
    direct = [wigner_d(s, s - r, n_col, theta) for r in range(two_s + 1)]
    assert_allclose(column, direct, atol=1e-10)


def test_wigner_argument_validation():
    with pytest.raises(ArgumentError):
        wigner_d(21, 0, 0, 1.0)  # factorial route cap
    with pytest.raises(ArgumentError):
        wigner_d(1, 2, 0, 1.0)
    with pytest.raises(ArgumentError):
        wigner_d(1, 0.5, 0, 1.0)
    with pytest.raises(ArgumentError):
        wigner_column_stable(301, 0, 1.0)


# ------------------------------------------------------ exact IR amplitudes


@given(st.integers(1, 100), st.floats(0.0, 3.0))
@settings(max_examples=40)
def test_exact_profile_is_normalized(half, tau):
    profile = psi_ir_exact_profile(2 * half, tau)
    assert profile.shape == (half + 1,)
    assert profile @ profile == pytest.approx(1.0, abs=1e-12)
    assert profile[0] != 0.0


def test_exact_profile_starts_at_the_seed():
    profile = psi_ir_exact_profile(60, 0.0)
    assert_allclose(profile, np.eye(31)[0], atol=1e-13)


def test_exact_profile_matches_tridiagonal_propagation():
    for length, tau in ((8, 0.6), (12, 1.3)):
        kspec = analytic_lanczos(ModelSpec(ModelKind.IR, length))
        assert_allclose(
            psi_ir_exact_profile(length, tau),
            expm_action(kspec.tridiag, tau).psi,
            atol=1e-12,
        )


def test_exact_profile_converges_to_area_law_with_length():
    """At fixed tau in the area-law phase the finite-L profile flattens onto
    the L-independent limit, with the gap shrinking as L grows."""
    tau = 0.3
    gaps = []
    for length in (40, 80, 160):
        profile = psi_ir_exact_profile(length, tau)
        limit = np.array([area_law_psi(n, tau) for n in range(profile.size)])
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
        psi_ir_exact_profile(602, 1.0)
