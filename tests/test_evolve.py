"""Imaginary-time scans: complexity, Renyi-2 correlator, survival moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dekrylov import evolve
from dekrylov.errors import ArgumentError
from dekrylov.evolve import (
    complexity,
    moments_from_tridiag,
    renyi2_dense,
    renyi2_tridiag,
    scan_point,
    survival_moments_nn,
)
from dekrylov.lintri import (
    KrylovState,
    TridiagonalOperator,
    eig_tridiag,
    expm_action,
    expm_from_eig,
)
from dekrylov.models import (
    ModelKind,
    ModelSpec,
    analytic_lanczos,
    nn_lambda,
    reduced_diagonal,
    site_spins,
)


def model_specs(max_length=30):
    nn = st.integers(2, max_length).map(lambda n: ModelSpec(ModelKind.NN, n))
    ir = st.integers(1, max_length // 2).map(lambda n: ModelSpec(ModelKind.IR, 2 * n))
    return st.one_of(nn, ir)


# ------------------------------------------------------------------ complexity


def test_complexity_counts_mean_position():
    assert complexity(KrylovState(0.0, np.array([1.0, 0.0, 0.0]))) == 0.0
    assert complexity(KrylovState(0.0, np.array([0.0, 0.0, 1.0]))) == 2.0
    half = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert complexity(KrylovState(0.0, half)) == pytest.approx(1.0, abs=1e-15)


def test_propagation_starts_at_the_seed():
    spec = analytic_lanczos(ModelSpec(ModelKind.IR, 8))
    state = expm_action(spec.tridiag, 0.0)
    assert_allclose(state.psi, np.eye(spec.krylov_dim)[0], atol=1e-14)


@given(model_specs())
@settings(max_examples=30)
def test_complexity_is_nondecreasing_in_tau(spec):
    """Imaginary-time cooling never moves the packet back toward the seed."""
    kspec = analytic_lanczos(spec)
    taus = np.linspace(0.0, 10.0, 101)
    values = complexity(expm_from_eig(eig_tridiag(kspec.tridiag), taus))
    assert np.all(np.diff(values) >= -1e-10)


@given(
    st.integers(2, 40), st.integers(2, 40), st.floats(0.0, 3.0)
)
@settings(max_examples=40)
def test_nn_normalized_complexity_is_length_free(l1, l2, tau):
    """K/(L-1) collapses onto lambda(tau) for every chain length."""
    rows = []
    for length in (l1, l2):
        kspec = analytic_lanczos(ModelSpec(ModelKind.NN, length))
        rows += scan_point(kspec, eig_tridiag(kspec.tridiag), [tau])
    assert rows[0][3] == pytest.approx(rows[1][3], abs=1e-11)
    assert rows[0][3] == pytest.approx(nn_lambda(tau), abs=1e-11)


# --------------------------------------------------------------------- Renyi-2


@given(st.sampled_from([4, 6, 8]), st.floats(0.0, 5.0))
@settings(max_examples=40)
def test_renyi2_routes_agree_for_ir(length, tau):
    spec = ModelSpec(ModelKind.IR, length)
    kspec = analytic_lanczos(spec)
    tri = renyi2_tridiag(kspec, expm_action(kspec.tridiag, tau))
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
        renyi2_tridiag(kspec, expm_action(kspec.tridiag, 0.5))


def test_renyi2_dense_length_cap():
    with pytest.raises(ArgumentError):
        renyi2_dense(ModelSpec(ModelKind.NN, 16), 0.5)


# --------------------------------------------------------------------- moments


def test_survival_moments_match_binomial_formulas():
    """mu_2 = m, mu_4 = 3m^2 - 2m, mu_6 = 15m^3 - 30m^2 + 16m for m = L-1."""
    for length in (3, 6, 11, 30):
        m = length - 1
        mu = survival_moments_nn(length, 6)
        assert mu[0] == 1.0 and mu[1] == 0.0 and mu[3] == 0.0 and mu[5] == 0.0
        assert mu[2] == m
        assert mu[4] == 3 * m**2 - 2 * m
        assert mu[6] == 15 * m**3 - 30 * m**2 + 16 * m


def test_survival_moments_length_domain():
    with pytest.raises(ArgumentError):
        survival_moments_nn(65, 2)
    with pytest.raises(ArgumentError):
        survival_moments_nn(1, 2)


@given(st.integers(2, 8), st.integers(0, 2**31 - 1), st.integers(0, 6))
@settings(max_examples=40)
def test_tridiag_moments_match_spectral_oracle(dim, seed, n_max):
    """<e0|T^n|e0> = sum_j |<e0|v_j>|^2 lambda_j^n via numpy's eigensolver."""
    rng = np.random.default_rng(seed)
    tri = TridiagonalOperator(
        diag=rng.uniform(-2, 2, dim), offdiag=rng.uniform(0.1, 2, dim - 1)
    )
    n_max = min(n_max, 2 * tri.dim)  # route is capped at the information content
    mu = moments_from_tridiag(tri, n_max)
    values, vectors = np.linalg.eigh(tri.to_dense())
    weights = vectors[0] ** 2
    expected = [weights @ values**n for n in range(n_max + 1)]
    assert_allclose(mu, expected, rtol=1e-10, atol=1e-10)


def test_tridiag_moments_respect_power_cap():
    tri = analytic_lanczos(ModelSpec(ModelKind.NN, 4)).tridiag
    with pytest.raises(ArgumentError):
        moments_from_tridiag(tri, 9)


def test_nn_moments_agree_between_exact_and_tridiagonal_routes():
    for length in (4, 8, 12):
        tri = analytic_lanczos(ModelSpec(ModelKind.NN, length)).tridiag
        exact = survival_moments_nn(length, 6)
        recursive = moments_from_tridiag(tri, 6)
        assert_allclose(recursive, exact, rtol=1e-12, atol=1e-12)


# ------------------------------------------------------------------ scan rows


def test_scan_point_normalizations():
    """k_norm divides by the bond count for NN and by L for IR."""
    nn = analytic_lanczos(ModelSpec(ModelKind.NN, 10))
    (row,) = scan_point(nn, eig_tridiag(nn.tridiag), [0.8])
    length, tau, k, k_norm, chi = row
    assert (length, tau) == (10, 0.8)
    assert k_norm == pytest.approx(k / 9, rel=1e-15)
    assert chi is not None
    ir = analytic_lanczos(ModelSpec(ModelKind.IR, 8))
    (row,) = scan_point(ir, eig_tridiag(ir.tridiag), [0.8])
    assert row[3] == pytest.approx(row[2] / 8, rel=1e-15)


def test_scan_point_chi_handling():
    big = analytic_lanczos(ModelSpec(ModelKind.NN, 20))
    dec = eig_tridiag(big.tridiag)
    assert scan_point(big, dec, [0.5])[0][4] is None  # dense route capped
    small = analytic_lanczos(ModelSpec(ModelKind.NN, 8))
    assert scan_point(small, eig_tridiag(small.tridiag), [0.5])[0][4] is not None


def test_scan_point_rejects_negative_k_and_chi_out_of_bounds(monkeypatch):
    """The row checks run on the whole batch: K >= 0 and chi within
    [-1e-10, 1 + 1e-10]."""
    spec = analytic_lanczos(ModelSpec(ModelKind.IR, 8))
    dec = eig_tridiag(spec.tridiag)
    taus = [0.1, 0.5]
    assert len(scan_point(spec, dec, taus)) == 2
    with monkeypatch.context() as patch:
        patch.setattr(evolve, "complexity", lambda batch: np.array([0.2, -0.2]))
        with pytest.raises(ArgumentError, match="K must be nonnegative"):
            scan_point(spec, dec, taus)
    for chi in (1.5, -1e-9, np.nan):
        with monkeypatch.context() as patch:
            patch.setattr(evolve, "renyi2_tridiag", lambda s, batch: np.array([0.5, chi]))
            with pytest.raises(ArgumentError, match="chi out of"):
                scan_point(spec, dec, taus)
    for chi in (-1e-10, 1.0 + 1e-10):  # the bounds themselves pass
        with monkeypatch.context() as patch:
            patch.setattr(evolve, "renyi2_tridiag", lambda s, batch: np.array([0.5, chi]))
            assert scan_point(spec, dec, taus)[1][4] == chi


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
    """complexity and renyi2_tridiag on a batch equal the scalar formulas
    applied row by row, within 1e-12 relative."""
    kspec = analytic_lanczos(spec)
    batch = expm_from_eig(eig_tridiag(kspec.tridiag), taus)
    k = complexity(batch)
    chi = renyi2_tridiag(kspec, batch)
    assert k.shape == chi.shape == (len(taus),)
    assert_allclose(k, [_per_row_complexity(psi) for psi in batch.psi], rtol=1e-12, atol=0)
    assert_allclose(chi, [_per_row_renyi2(kspec, psi) for psi in batch.psi], rtol=1e-12, atol=0)
    single = expm_action(kspec.tridiag, taus[0])
    assert complexity(single) == pytest.approx(k[0], rel=1e-12)
    assert renyi2_tridiag(kspec, single) == pytest.approx(chi[0], rel=1e-12)
