"""From-scratch dense oracles against the production routes."""

import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from dekrylov import doubled, oracle
from dekrylov.doubled import (
    apply_channel,
    build_ir_channel,
    build_nn_channel,
    restrict_to_parity_sector,
    tau_from_p,
    vectorize,
)
from dekrylov.errors import ArgumentError
from dekrylov.lanczos import LanczosResult
from dekrylov.models import ModelKind, ModelSpec, analytic_lanczos
from dekrylov.oracle import (
    channel_vs_exponential,
    dense_expm,
    dense_krylov,
    doubled_hamiltonian_diagonal,
    error_state_interpretation_check,
    expm_elementwise_vs_generic,
    reduced_diagonal,
    site_spins,
)


def ir_pair_p(tau, length):
    """The per-pair dephasing p = (1 - e^{-2 tau/L})/2 of IR imaginary time tau."""
    return -math.expm1(-2.0 * tau / length) / 2.0


def test_channel_is_exponential_across_models_and_rates():
    for length in (2, 4, 6):
        for p in (0.0, 0.05, 0.2, 0.45):
            assert channel_vs_exponential(ModelSpec(ModelKind.NN, length), p) < 1e-12
        for tau in (0.0, 0.1, 0.6, 2.0):
            p = ir_pair_p(tau, length)
            assert channel_vs_exponential(ModelSpec(ModelKind.IR, length), p) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 8, 64])
def test_dense_expm_matches_scipy_on_dense_matrices(dim):
    """The oracle's exponential is generic: random nonsymmetric matrices,
    with 1-norms from below 1 to ~60 (up to 6 squarings)."""
    rng = np.random.default_rng(dim)
    for scale in (0.1, 1.0):
        for _ in range(5):
            mat = scale * rng.standard_normal((dim, dim))
            ref = scipy.linalg.expm(mat)
            assert np.max(np.abs(dense_expm(mat) - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert_allclose(dense_expm(np.zeros((dim, dim))), np.eye(dim), rtol=0, atol=0)


def test_elementwise_exponential_matches_scaling_and_squaring():
    for kind in (ModelKind.NN, ModelKind.IR):
        for tau in (0.0, 0.3, 1.5):
            assert expm_elementwise_vs_generic(ModelSpec(kind, 4), tau) < 1e-12


def test_dense_krylov_two_site_chain_by_hand():
    """L = 2 NN reduces to a two-level hopping problem: a = 0, b = 1."""
    result = dense_krylov(ModelSpec(ModelKind.NN, 2))
    assert result.terminated
    assert_allclose(result.a, [0.0, 0.0], atol=1e-14)
    assert_allclose(result.b, [1.0], atol=1e-14)


def test_dense_krylov_dimensions_follow_closed_forms():
    for kind, length, expected_dim in (
        (ModelKind.NN, 5, 5),
        (ModelKind.NN, 8, 8),
        (ModelKind.IR, 8, 5),
        (ModelKind.IR, 10, 6),
    ):
        result = dense_krylov(ModelSpec(kind, length))
        assert result.terminated
        assert len(result.a) == expected_dim
        closed = analytic_lanczos(ModelSpec(kind, length))
        assert_allclose(result.a, closed.tridiag.diag, atol=1e-9)
        assert_allclose(result.b, closed.tridiag.offdiag, atol=1e-9)


def test_dense_krylov_basis_is_orthonormal():
    """One two-pass Gram-Schmidt keeps the basis orthonormal to 1e-12."""
    for kind in (ModelKind.NN, ModelKind.IR):
        for length in (4, 6, 8, 10, 12):
            basis = np.array(dense_krylov(ModelSpec(kind, length)).basis)
            gram = basis @ basis.T
            assert_allclose(gram, np.eye(len(basis)), rtol=0, atol=1e-12)


def test_doubled_diagonal_depends_only_on_layer_mismatch():
    """The pullback of the reduced diagonal through upper xor lower is, bit
    for bit and signed zeros included, each model's Z-string sum over the
    layer-agreement spins zz_i = z_i^u z_i^l: NN -Sum_i zz_i zz_{i+1}, IR
    -(Sum_{i<j} zz_i zz_j - L(L-1)/2) / L, at every L <= 7."""
    specs = [ModelSpec(ModelKind.NN, length) for length in range(2, 8)]
    specs += [ModelSpec(ModelKind.IR, length) for length in (2, 4, 6)]
    for spec in specs:
        length = spec.length
        indices = np.arange(4**length)
        spins = site_spins(length)
        zz = spins[indices % 2**length] * spins[indices >> length]
        if spec.kind is ModelKind.NN:
            reference = -np.sum(zz[:, :-1] * zz[:, 1:], axis=1)
        else:
            pair_sum = 0.5 * (zz.sum(axis=1) ** 2 - length)
            reference = -(pair_sum - length * (length - 1) / 2.0) / length
        full = doubled_hamiltonian_diagonal(spec)
        assert np.array_equal(full, reference), spec
        assert np.array_equal(np.signbit(full), np.signbit(reference)), spec


def test_repeated_channel_equals_reduced_imaginary_time_flow():
    """Applying the channel in the full doubled space, then projecting onto the
    parity sector, reproduces elementwise exp(-n tau h) on the uniform seed."""
    cases = (
        (build_nn_channel(3, 0.25), ModelSpec(ModelKind.NN, 3), tau_from_p(0.25)),
        (build_ir_channel(4, ir_pair_p(0.6, 4)), ModelSpec(ModelKind.IR, 4), 0.6),
    )
    for channel, spec, tau in cases:
        length = spec.length
        rho_plus = np.full((2**length, 2**length), 2.0**-length)
        state = vectorize(rho_plus)
        diag = reduced_diagonal(spec)
        for repeat in (1, 2, 3):
            state = apply_channel(channel, state)
            reduced = restrict_to_parity_sector(state)
            expected = np.exp(-repeat * tau * diag) * 2.0 ** (-length / 2)
            assert_allclose(
                reduced / np.linalg.norm(reduced),
                expected / np.linalg.norm(expected),
                atol=1e-13,
            )


def test_krylov_vectors_are_n_error_states_on_small_chains():
    for kind, length in ((ModelKind.NN, 4), (ModelKind.NN, 5), (ModelKind.IR, 6)):
        assert error_state_interpretation_check(ModelSpec(kind, length)) is None


def test_error_state_check_reports_the_first_failing_vector(monkeypatch):
    """A vector out of order fails at its index, and a dense basis shorter
    than the closed-form dimension fails at its length."""
    spec = ModelSpec(ModelKind.IR, 6)
    full = dense_krylov(spec)
    for basis, failing in (
        (full.basis[:1] + full.basis[2:] + full.basis[1:2], 1),
        (full.basis[:-1], len(full.basis) - 1),
    ):
        broken = LanczosResult(a=full.a, b=full.b, basis=basis, terminated=True)
        monkeypatch.setattr(oracle, "dense_krylov", lambda model, broken=broken: broken)
        assert error_state_interpretation_check(spec) == failing


CHANNEL_ROUTES = (
    channel_vs_exponential,
    oracle.kraus_sum_vs_exponential,
    oracle.vectorized_map_vs_exponential,
)


def test_every_channel_route_maps_ir_through_tau_from_p(monkeypatch):
    """IR, like NN, reaches tau only through doubled.tau_from_p: stretching
    the map's tau by 1e-6 moves each route off the exponential."""
    spec, p = ModelSpec(ModelKind.IR, 4), ir_pair_p(0.7, 4)
    assert max(route(spec, p) for route in CHANNEL_ROUTES) < 1e-12
    exact = doubled.tau_from_p
    monkeypatch.setattr(doubled, "tau_from_p", lambda p: exact(p) * (1.0 + 1e-6))
    for route in CHANNEL_ROUTES:
        assert route(spec, p) > 1e-12, route.__name__


def test_error_state_check_reads_the_factor_list(monkeypatch):
    """With its last factor dropped from doubled.dephasing_pairs, the
    single-error span misses part of |K_1>, for bonds and for pairs."""
    pairs = doubled.dephasing_pairs
    monkeypatch.setattr(doubled, "dephasing_pairs", lambda model: pairs(model)[:-1])
    for kind in (ModelKind.NN, ModelKind.IR):
        assert error_state_interpretation_check(ModelSpec(kind, 4)) == 1


def test_oracle_length_caps():
    """The 4^L routes share the doubled module's cap, L <= 7."""
    assert channel_vs_exponential(ModelSpec(ModelKind.NN, 7), 0.2) < 1e-12
    for route in (channel_vs_exponential, oracle.vectorized_map_vs_exponential):
        with pytest.raises(ArgumentError, match="capped at L <= 7"):
            route(ModelSpec(ModelKind.NN, 8), 0.2)
    with pytest.raises(ArgumentError):
        expm_elementwise_vs_generic(ModelSpec(ModelKind.NN, 5), 0.2)
    with pytest.raises(ArgumentError):
        dense_krylov(ModelSpec(ModelKind.NN, 13))
    with pytest.raises(ArgumentError):
        error_state_interpretation_check(ModelSpec(ModelKind.NN, 10))
