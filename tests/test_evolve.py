"""Imaginary-time scans: complexity, Renyi-2 correlator, survival moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dekrylov.errors import ArgumentError
from dekrylov.evolve import (
    ScanRow,
    complexity,
    moments_from_tridiag,
    renyi2_dense,
    renyi2_tridiag,
    scan_point,
    survival_moments_nn,
)
from dekrylov.lintri import KrylovState, TridiagonalOperator, eig_tridiag, expm_action
from dekrylov.models import ModelKind, ModelSpec, analytic_lanczos, nn_lambda


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
    values = [complexity(expm_action(kspec.tridiag, t)) for t in taus]
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
    assert rows[0].k_norm == pytest.approx(rows[1].k_norm, abs=1e-11)
    assert rows[0].k_norm == pytest.approx(nn_lambda(tau), abs=1e-11)


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
    assert row.k_norm == pytest.approx(row.k / 9, rel=1e-15)
    assert row.chi is not None
    ir = analytic_lanczos(ModelSpec(ModelKind.IR, 8))
    (row,) = scan_point(ir, eig_tridiag(ir.tridiag), [0.8])
    assert row.k_norm == pytest.approx(row.k / 8, rel=1e-15)


def test_scan_point_chi_handling():
    big = analytic_lanczos(ModelSpec(ModelKind.NN, 20))
    dec = eig_tridiag(big.tridiag)
    assert scan_point(big, dec, [0.5])[0].chi is None  # dense route capped
    small = analytic_lanczos(ModelSpec(ModelKind.NN, 8))
    assert scan_point(small, eig_tridiag(small.tridiag), [0.5])[0].chi is not None


def test_scan_row_validation():
    with pytest.raises(ArgumentError):
        ScanRow(ModelKind.NN, 4, 0.1, k=-0.2, k_norm=-0.05, chi=None, krylov_dim=4)
    with pytest.raises(ArgumentError):
        ScanRow(ModelKind.NN, 4, 0.1, k=0.2, k_norm=0.05, chi=1.5, krylov_dim=4)
