"""Imaginary-time scans: complexity, Renyi-2 correlator, survival moments."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dekrylov import doubled, evolve, oracle
from dekrylov.errors import ArgumentError
from dekrylov.evolve import (
    complexity,
    ir_magnetization_sums,
    moments_from_tridiag,
    renyi2_dense,
    renyi2_tridiag,
    scan_point,
)
from dekrylov.lintri import KrylovState, expm_from_eig
from dekrylov.models import (
    ModelKind,
    ModelSpec,
    analytic_lanczos,
    k_nn_analytic,
    nn_lambda,
)
from dekrylov.oracle import (
    MOMENTS_MAX_LENGTH,
    area_law_k,
    reduced_diagonal,
    site_spins,
    survival_moments,
)
from dekrylov.wigner import psi_ir_exact_profile
import exact_reference
from exact_spectrum import dense, with_spectrum


def model_specs(max_length=30):
    nn = st.integers(2, max_length).map(lambda n: ModelSpec(ModelKind.NN, n))
    ir = st.integers(1, max_length // 2).map(lambda n: ModelSpec(ModelKind.IR, 2 * n))
    return st.one_of(nn, ir)


# ------------------------------------------------------------------ complexity


def test_complexity_counts_mean_position():
    assert complexity(np.array([1.0, 0.0, 0.0])) == 0.0
    assert complexity(np.array([0.0, 0.0, 1.0])) == 2.0
    half = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert complexity(half) == pytest.approx(1.0, abs=1e-15)
    # an unnormalized profile is divided by its squared norm
    assert complexity([3.0, 0.0, 3.0]) == 1.0


def test_propagation_starts_at_the_seed():
    spec = analytic_lanczos(ModelSpec(ModelKind.IR, 8))
    state = expm_from_eig(spec.tridiag, 0.0)
    assert_allclose(state.psi, np.eye(spec.krylov_dim)[0], atol=1e-14)


@given(model_specs())
@settings(max_examples=30)
def test_complexity_is_nondecreasing_in_tau(spec):
    """Imaginary-time cooling never moves the packet back toward the seed."""
    kspec = analytic_lanczos(spec)
    taus = np.linspace(0.0, 10.0, 101)
    values = complexity(expm_from_eig(kspec.tridiag, taus).psi)
    assert np.all(np.diff(values) >= -1e-10)


@given(
    st.integers(2, 40), st.integers(2, 40), st.floats(0.0, 3.0)
)
@settings(max_examples=40)
def test_nn_normalized_complexity_is_length_free(l1, l2, tau):
    """K/(L-1) collapses onto lambda(tau) for every chain length."""
    rows = []
    for length in (l1, l2):
        rows += scan_point(ModelSpec(ModelKind.NN, length), [tau])
    assert rows[0][3] == pytest.approx(rows[1][3], abs=1e-11)
    assert rows[0][3] == pytest.approx(nn_lambda(tau), abs=1e-11)


# --------------------------------------------------------------------- Renyi-2


@given(st.sampled_from([4, 6, 8]), st.floats(0.0, 5.0))
@settings(max_examples=40)
def test_renyi2_routes_agree_for_ir(length, tau):
    spec = ModelSpec(ModelKind.IR, length)
    kspec = analytic_lanczos(spec)
    tri = renyi2_tridiag(kspec, expm_from_eig(kspec.tridiag, tau).psi)
    dense = renyi2_dense(spec, tau)
    assert tri == pytest.approx(dense, abs=1e-12)


@given(
    st.sampled_from([ModelKind.NN, ModelKind.IR]),
    st.sampled_from([4, 6, 8, 10]),
    st.floats(0.0, 6.0),
)
@settings(max_examples=40)
def test_renyi2_is_bounded_and_starts_at_one_over_l(kind, length, tau):
    spec = ModelSpec(kind, length)
    value = renyi2_dense(spec, tau)
    assert 0.0 <= value <= 1.0
    assert renyi2_dense(spec, 0.0) == pytest.approx(1.0 / length, abs=1e-12)


def _renyi2_per_state(spec, tau):
    """chi summed state by state with math.exp and math.fsum."""
    length = spec.length
    diag = reduced_diagonal(spec)
    shifted = (diag - diag.min()).tolist()
    magnetization_sq = (site_spins(length).sum(axis=1) ** 2).tolist()
    weights = [math.exp(-2.0 * tau * energy) for energy in shifted]
    numerator = math.fsum(w * m2 for w, m2 in zip(weights, magnetization_sq))
    return numerator / (length**2 * math.fsum(weights))


@pytest.mark.parametrize("kind", [ModelKind.NN, ModelKind.IR])
@pytest.mark.parametrize("length", [10, 12, 14])
def test_renyi2_dense_matches_per_state_fsum(kind, length):
    """The level sum is as accurate as a compensated sum over all 2^L states."""
    spec = ModelSpec(kind, length)
    taus = np.linspace(0.0, 3.0, 61)
    reference = np.array([_renyi2_per_state(spec, tau) for tau in taus])
    assert_allclose(renyi2_dense(spec, taus), reference, rtol=0.0, atol=1.5e-15)


@pytest.mark.parametrize("kind", [ModelKind.NN, ModelKind.IR])
def test_renyi2_dense_large_tau_keeps_the_ground_level(kind):
    """Past any overflow scale chi stays in [0, 1]; at tau = 1e6 only the
    two fully polarized states survive, so chi is exactly 1."""
    spec = ModelSpec(kind, 14)
    chis = renyi2_dense(spec, [50.0, 1e3, 1e6])
    assert np.all(np.isfinite(chis)) and np.all((chis >= 0.0) & (chis <= 1.0))
    assert chis[-1] == 1.0
    assert renyi2_dense(spec, 1e6) == 1.0


def test_renyi2_tridiag_rejects_nn():
    kspec = analytic_lanczos(ModelSpec(ModelKind.NN, 6))
    with pytest.raises(ArgumentError):
        renyi2_tridiag(kspec, expm_from_eig(kspec.tridiag, 0.5).psi)


def test_renyi2_dense_length_cap():
    with pytest.raises(ArgumentError):
        renyi2_dense(ModelSpec(ModelKind.NN, 16), 0.5)


# --------------------------------------------------------------------- moments


def test_survival_moments_match_binomial_formulas():
    """mu_2 = m, mu_4 = 3m^2 - 2m, mu_6 = 15m^3 - 30m^2 + 16m for m = L-1."""
    for length in (3, 6, 11, 30):
        m = length - 1
        mu = survival_moments(ModelSpec(ModelKind.NN, length), 6)
        assert mu[0] == 1.0 and mu[1] == 0.0 and mu[3] == 0.0 and mu[5] == 0.0
        assert mu[2] == m
        assert mu[4] == 3 * m**2 - 2 * m
        assert mu[6] == 15 * m**3 - 30 * m**2 + 16 * m


def test_survival_moments_length_domain():
    past_cap = ((ModelKind.NN, MOMENTS_MAX_LENGTH + 1), (ModelKind.IR, MOMENTS_MAX_LENGTH + 2))
    for kind, length in past_cap:
        with pytest.raises(ArgumentError, match="capped"):
            survival_moments(ModelSpec(kind, length), 2)
    with pytest.raises(ArgumentError, match="n_max"):
        survival_moments(ModelSpec(ModelKind.NN, 6), 21)


@given(st.integers(2, 8), st.integers(0, 2**31 - 1), st.integers(0, 6))
@settings(max_examples=40)
def test_tridiag_moments_match_spectral_oracle(dim, seed, n_max):
    """<e0|T^n|e0> = sum_j |<e0|v_j>|^2 lambda_j^n via numpy's eigensolver."""
    rng = np.random.default_rng(seed)
    tri = with_spectrum(rng.uniform(-2, 2, dim), rng.uniform(0.1, 2, dim - 1))
    n_max = min(n_max, 2 * tri.dim)  # route is capped at the information content
    mu = moments_from_tridiag(tri, n_max)
    values, vectors = np.linalg.eigh(dense(tri.diag, tri.offdiag))
    weights = vectors[0] ** 2
    expected = [weights @ values**n for n in range(n_max + 1)]
    assert_allclose(mu, expected, rtol=1e-10, atol=1e-10)


def test_tridiag_moments_respect_power_cap():
    tri = analytic_lanczos(ModelSpec(ModelKind.NN, 4)).tridiag
    with pytest.raises(ArgumentError):
        moments_from_tridiag(tri, 9)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_tridiag_moments_at_scale_match_exact_rational_moments(kind):
    """The recursion on the closed-form coefficients reproduces the exact
    moments of the closed-form measure at L = 2000, far past criterion 9."""
    model = ModelSpec(kind, 2000)
    mu = moments_from_tridiag(analytic_lanczos(model).tridiag, 10)
    assert_allclose(mu, survival_moments(model, 10), rtol=1e-14, atol=0)


def test_nn_moments_agree_between_exact_and_tridiagonal_routes():
    for length in (4, 8, 12):
        tri = analytic_lanczos(ModelSpec(ModelKind.NN, length)).tridiag
        exact = survival_moments(ModelSpec(ModelKind.NN, length), 6)
        recursive = moments_from_tridiag(tri, 6)
        assert_allclose(recursive, exact, rtol=1e-12, atol=1e-12)


# ------------------------------------------------------------------ scan rows


def test_scan_point_normalizations():
    """k_norm divides by the bond count for NN and by L for IR."""
    (row,) = scan_point(ModelSpec(ModelKind.NN, 10), [0.8])
    length, tau, k, k_norm, chi = row
    assert (length, tau) == (10, 0.8)
    assert k_norm == pytest.approx(k / 9, rel=1e-15)
    assert chi is not None
    (row,) = scan_point(ModelSpec(ModelKind.IR, 8), [0.8])
    assert row[3] == pytest.approx(row[2] / 8, rel=1e-15)


def test_scan_point_chi_handling():
    assert scan_point(ModelSpec(ModelKind.NN, 20), [0.5])[0][4] is None  # dense route capped
    assert scan_point(ModelSpec(ModelKind.NN, 8), [0.5])[0][4] is not None


def test_scan_point_rejects_negative_k_and_chi_out_of_bounds(monkeypatch):
    """The row checks run on the whole tau array: K >= 0 and chi within
    [-1e-10, 1 + 1e-10], for the IR sums and for the NN closed form."""
    spec = ModelSpec(ModelKind.IR, 8)
    nn = ModelSpec(ModelKind.NN, 8)
    taus = [0.1, 0.5]
    assert len(scan_point(spec, taus)) == len(scan_point(nn, taus)) == 2
    with monkeypatch.context() as patch:
        patch.setattr(
            evolve,
            "ir_magnetization_sums",
            lambda model, t: (np.array([0.2, -0.2]), np.array([0.5, 0.5])),
        )
        with pytest.raises(ArgumentError, match="K must be nonnegative"):
            scan_point(spec, taus)
    with monkeypatch.context() as patch:
        patch.setattr(evolve, "k_nn_analytic", lambda length, t: np.array([0.2, -0.2]))
        with pytest.raises(ArgumentError, match="K must be nonnegative"):
            scan_point(nn, taus)
    for chi in (1.5, -1e-9, np.nan):
        with monkeypatch.context() as patch:
            patch.setattr(
                evolve,
                "ir_magnetization_sums",
                lambda model, t: (np.array([0.2, 0.3]), np.array([0.5, chi])),
            )
            patch.setattr(evolve, "renyi2_dense", lambda model, t: np.array([0.5, chi]))
            with pytest.raises(ArgumentError, match="chi out of"):
                scan_point(spec, taus)
            with pytest.raises(ArgumentError, match="chi out of"):
                scan_point(nn, taus)
    for chi in (-1e-10, 1.0 + 1e-10):  # the bounds themselves pass
        with monkeypatch.context() as patch:
            patch.setattr(
                evolve,
                "ir_magnetization_sums",
                lambda model, t: (np.array([0.2, 0.3]), np.array([0.5, chi])),
            )
            patch.setattr(evolve, "renyi2_dense", lambda model, t: np.array([0.5, chi]))
            assert scan_point(spec, taus)[1][4] == chi
            assert scan_point(nn, taus)[1][4] == chi


# ------------------------------------------------------ magnetization sums


DEFAULT_IR_TAUS = [*np.linspace(0.0, 2.0, 401), 5.0, 10.0]


@pytest.mark.parametrize("length", [100, 500, 2000])
def test_ir_sums_match_the_propagated_wavepacket(length):
    """K and chi from the magnetization sums equal complexity and
    renyi2_tridiag of the propagated Krylov wavepacket on the default
    403-tau grid, to 1e-8 in K and 1e-9 in chi."""
    model = ModelSpec(ModelKind.IR, length)
    kspec = analytic_lanczos(model)
    psi = expm_from_eig(kspec.tridiag, DEFAULT_IR_TAUS).psi
    k, chi = ir_magnetization_sums(model, DEFAULT_IR_TAUS)
    assert_allclose(k, complexity(psi), rtol=0, atol=1e-8)
    assert_allclose(chi, renyi2_tridiag(kspec, psi), rtol=0, atol=1e-9)


@pytest.mark.parametrize("length", [100, 2000])
def test_nn_closed_form_k_matches_the_propagated_wavepacket(length):
    model = ModelSpec(ModelKind.NN, length)
    taus = np.linspace(0.0, 3.0, 301)
    psi = expm_from_eig(analytic_lanczos(model).tridiag, taus).psi
    k = np.array([row[2] for row in scan_point(model, taus)])
    assert_allclose(k, complexity(psi), rtol=0, atol=1e-8)


@pytest.mark.parametrize("length", [8, 20, 40])
def test_ir_sums_match_80_digit_decimal_sums(length):
    taus = [1e-4, 1e-3, 0.3, 0.5, 2.0, 10.0]
    k, chi = ir_magnetization_sums(ModelSpec(ModelKind.IR, length), taus)
    for tau, k_value, chi_value in zip(taus, k, chi):
        k_exact, chi_exact = exact_reference.ir_direct_sums(length, tau)
        assert abs(Decimal(k_value) / k_exact - 1) < Decimal("1e-12"), tau
        assert abs(Decimal(chi_value) / chi_exact - 1) < Decimal("1e-12"), tau


@pytest.mark.parametrize("length", [2000, 10_000])
def test_ir_sums_at_scale_match_34_digit_decimal_sums(length):
    """Relative accuracy where the scans run: binomial weights built from
    exact ratios keep K and chi within 1e-13 of the decimal sums."""
    taus = [1e-3, 0.3, 0.5, 0.7, 2.0]
    k, chi = ir_magnetization_sums(ModelSpec(ModelKind.IR, length), taus)
    for tau, k_value, chi_value, (k_exact, chi_exact) in zip(
        taus, k, chi, exact_reference.ir_positive_sums(length, taus)
    ):
        assert abs(Decimal(k_value) / k_exact - 1) <= Decimal("1e-13"), tau
        assert abs(Decimal(chi_value) / chi_exact - 1) <= Decimal("1e-13"), tau


def test_ir_sums_keep_the_shape_of_tau_and_start_at_zero():
    model = ModelSpec(ModelKind.IR, 12)
    k, chi = ir_magnetization_sums(model, 0.0)
    assert (k, chi) == (0.0, pytest.approx(1 / 12, rel=1e-14))
    k, chi = ir_magnetization_sums(model, [[0.5, 1.0]])
    assert k.shape == chi.shape == (1, 2)
    assert k[0, 1] == pytest.approx(ir_magnetization_sums(model, 1.0)[0], rel=1e-14)


def test_ir_sums_reject_nn_long_chains_and_negative_tau():
    with pytest.raises(ArgumentError, match="IR model only"):
        ir_magnetization_sums(ModelSpec(ModelKind.NN, 8), 0.5)
    with pytest.raises(ArgumentError, match="100000"):
        ir_magnetization_sums(ModelSpec(ModelKind.IR, 100_002), 0.5)
    with pytest.raises(ArgumentError, match="nonnegative"):
        ir_magnetization_sums(ModelSpec(ModelKind.IR, 8), [0.5, -1e-3])


NAN_TAU_GUARDS = {
    "nn_lambda": lambda tau: nn_lambda(tau),
    "k_nn_analytic": lambda tau: k_nn_analytic(8, [0.5, tau]),
    "renyi2_dense": lambda tau: renyi2_dense(ModelSpec(ModelKind.NN, 8), [tau]),
    "ir_magnetization_sums": lambda tau: ir_magnetization_sums(ModelSpec(ModelKind.IR, 8), tau),
    "scan_point_nn": lambda tau: scan_point(ModelSpec(ModelKind.NN, 8), [tau]),
    "scan_point_ir": lambda tau: scan_point(ModelSpec(ModelKind.IR, 8), [tau]),
    "psi_ir_exact_profile": lambda tau: psi_ir_exact_profile(8, tau),
    "KrylovState": lambda tau: KrylovState(taus=tau, psi=np.array([1.0, 0.0])),
    "build_ir_channel": lambda tau: doubled.build_ir_channel(4, tau),
    "channel_vs_exponential": lambda tau: oracle.channel_vs_exponential(
        ModelSpec(ModelKind.IR, 4), tau
    ),
}


@pytest.mark.parametrize("guard", sorted(NAN_TAU_GUARDS))
def test_a_nan_tau_is_refused_as_a_negative_one_is(guard):
    """Every public tau guard is written `not tau >= 0`, so NaN fails it."""
    for tau in (-1.0, math.nan):
        with pytest.raises(ArgumentError, match="tau must be nonnegative"):
            NAN_TAU_GUARDS[guard](tau)


def test_ir_complexity_approaches_its_limits_as_one_over_l():
    """The paper's transition at scale: at tau = 0.3, K tends to the area
    law tau^2/(2(1 - 2 tau)); at tau = 1, K/L tends to the Curie-Weiss
    (1 - sqrt(1 - x^2))/4 with x = tanh(2 tau x).  Both gaps fall as 1/L
    (L times the gap is 0.73 and 0.176) from L = 2000 to 10^5, and K/L
    reaches the volume-law 1/4 at tau = 10."""
    x = 1.0
    for _ in range(200):
        x = math.tanh(2.0 * x)
    curie_weiss = (1.0 - math.sqrt(1.0 - x * x)) / 4.0
    area_gaps, volume_gaps = [], []
    for length in (2000, 10_000, 100_000):
        k, _ = ir_magnetization_sums(ModelSpec(ModelKind.IR, length), [0.3, 1.0, 10.0])
        area_gaps.append(length * abs(k[0] - area_law_k(0.3)))
        volume_gaps.append(length * abs(k[1] / length - curie_weiss))
    for gaps in (area_gaps, volume_gaps):
        assert max(gaps) < 1.1 * min(gaps), gaps
    assert area_gaps[-1] == pytest.approx(0.73, abs=0.01)
    assert volume_gaps[-1] == pytest.approx(0.176, abs=0.002)
    assert abs(k[2] / length - 0.25) < 1e-6


# ------------------------------------------------------------ batch reductions


def _per_row_complexity(psi):
    return float(np.arange(psi.size) @ (psi * psi))


def _per_row_renyi2(kspec, psi):
    tri = kspec.tridiag
    expectation = float(tri.diag @ (psi * psi))
    if tri.dim > 1:
        expectation += 2.0 * float(tri.offdiag @ (psi[1:] * psi[:-1]))
    return 1.0 - 2.0 * expectation / kspec.model.length


@given(
    st.integers(1, 40).map(lambda n: ModelSpec(ModelKind.IR, 2 * n)),
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=80),
)
@settings(max_examples=40, deadline=None)
def test_batch_reductions_equal_per_row_formulas(spec, taus):
    """complexity and renyi2_tridiag on an (m, dim) array equal the scalar
    formulas applied row by row, within 1e-12 relative."""
    kspec = analytic_lanczos(spec)
    psi = expm_from_eig(kspec.tridiag, taus).psi
    k = complexity(psi)
    chi = renyi2_tridiag(kspec, psi)
    assert k.shape == chi.shape == (len(taus),)
    assert_allclose(k, [_per_row_complexity(row) for row in psi], rtol=1e-12, atol=0)
    assert_allclose(chi, [_per_row_renyi2(kspec, row) for row in psi], rtol=1e-12, atol=0)
    single = expm_from_eig(kspec.tridiag, taus[0]).psi
    assert complexity(single) == pytest.approx(k[0], rel=1e-12)
    assert renyi2_tridiag(kspec, single) == pytest.approx(chi[0], rel=1e-12)
