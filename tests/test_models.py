"""Model definitions, closed-form Lanczos data, and channel construction."""

import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dekrylov.checks import check_lanczos_closed_forms
from dekrylov.doubled import build_ir_channel, build_nn_channel, reduced_initial_state
from dekrylov.errors import ArgumentError, DomainError
from dekrylov.evolve import complexity
from dekrylov.lintri import expm_from_eig
from dekrylov.lanczos import run_lanczos
from dekrylov.models import (
    ModelKind,
    ModelSpec,
    analytic_lanczos,
    area_law_k,
    area_law_psi,
    k_nn_analytic,
    kw_transform_nn,
    nn_lambda,
    psi_nn_analytic,
    reduced_diagonal,
    site_spins,
    volume_law_k,
)
from dekrylov.oracle import channel_vs_exponential, dense_krylov


def nn_specs(max_length=40):
    return st.integers(2, max_length).map(lambda n: ModelSpec(ModelKind.NN, n))


def ir_specs(max_length=40):
    return st.integers(1, max_length // 2).map(
        lambda n: ModelSpec(ModelKind.IR, 2 * n)
    )


# -------------------------------------------------------------------- specs


def test_model_spec_validation():
    with pytest.raises(ArgumentError):
        ModelSpec(ModelKind.NN, 1)
    with pytest.raises(DomainError):
        ModelSpec(ModelKind.IR, 5)
    assert ModelSpec(ModelKind.IR, 6).length == 6


# ------------------------------------------------------------ reduced sector


def test_reduced_diagonal_hand_values():
    """Bond/pair sums over parity spins z_i = +-1."""
    nn2 = reduced_diagonal(ModelSpec(ModelKind.NN, 2))
    assert_allclose(nn2, [-1.0, 1.0, 1.0, -1.0])
    nn3 = reduced_diagonal(ModelSpec(ModelKind.NN, 3))
    assert_allclose(nn3, [-2.0, 0.0, 2.0, 0.0, 0.0, 2.0, 0.0, -2.0])
    ir2 = reduced_diagonal(ModelSpec(ModelKind.IR, 2))
    assert_allclose(ir2, [0.0, 1.0, 1.0, 0.0])


def _spins_diagonal(spec):
    """Reduced diagonal from products and sums of site spins."""
    length = spec.length
    spins = site_spins(length)
    if spec.kind is ModelKind.NN:
        return -np.sum(spins[:, :-1] * spins[:, 1:], axis=1)
    total = spins.sum(axis=1)
    return -(0.5 * (total**2 - length) - length * (length - 1) / 2.0) / length


@pytest.mark.parametrize(
    "spec",
    [ModelSpec(ModelKind.NN, length) for length in range(2, 15)]
    + [ModelSpec(ModelKind.IR, length) for length in range(2, 15, 2)],
    ids=lambda spec: f"{spec.kind.value}{spec.length}",
)
def test_reduced_diagonal_matches_site_spins_bitwise(spec):
    """The bit-count diagonal equals the site-spin one, signed zeros included."""
    diag = reduced_diagonal(spec)
    reference = _spins_diagonal(spec)
    assert np.array_equal(diag, reference)
    assert np.array_equal(np.signbit(diag), np.signbit(reference))


def test_reduced_initial_state_is_uniform():
    state = reduced_initial_state(ModelSpec(ModelKind.NN, 4))
    assert_allclose(state, np.full(16, 0.25))


def test_reduced_sector_length_cap():
    with pytest.raises(ArgumentError):
        reduced_diagonal(ModelSpec(ModelKind.NN, 15))


@given(ir_specs(max_length=12))
@settings(max_examples=12)
def test_ir_diagonal_is_nonnegative_with_zero_ground(spec):
    """-(sum_{i<j} z_i z_j - L(L-1)/2)/L vanishes only on the aligned states."""
    diag = reduced_diagonal(spec)
    assert np.min(diag) == 0.0
    assert diag[0] == 0.0 and diag[-1] == 0.0
    assert np.all(diag >= 0.0)


# -------------------------------------------------------- closed-form Lanczos


def test_nn_coefficients_small_chain():
    """L = 4: a_n = 0, b_n = sqrt(n (L - n))."""
    spec = analytic_lanczos(ModelSpec(ModelKind.NN, 4))
    assert spec.krylov_dim == 4
    assert_allclose(spec.tridiag.diag, np.zeros(4), atol=0)
    assert_allclose(spec.tridiag.offdiag, [np.sqrt(3.0), 2.0, np.sqrt(3.0)])


def test_ir_coefficients_small_chains():
    """L = 4 and L = 6, from the quadratic a_n and quartic b_n expressions."""
    four = analytic_lanczos(ModelSpec(ModelKind.IR, 4))
    assert four.krylov_dim == 3
    assert_allclose(four.tridiag.diag, [1.5, 0.5, 1.5])
    assert_allclose(four.tridiag.offdiag, [np.sqrt(6.0) / 4] * 2)
    six = analytic_lanczos(ModelSpec(ModelKind.IR, 6))
    assert six.krylov_dim == 4
    assert_allclose(six.tridiag.diag, [2.5, 7.0 / 6.0, 7.0 / 6.0, 2.5])


@given(nn_specs())
@settings(max_examples=30)
def test_nn_offdiagonal_is_symmetric_binomial_ladder(spec):
    tri = analytic_lanczos(spec).tridiag
    n = np.arange(1, spec.length)
    assert_allclose(tri.offdiag, np.sqrt(n * (spec.length - n)), rtol=1e-15)
    assert_allclose(tri.offdiag, tri.offdiag[::-1], rtol=1e-15)


@given(st.sampled_from([4, 6, 8, 10, 12]))
@settings(max_examples=5)
def test_closed_forms_match_dense_lanczos(length):
    """The analytic tridiagonals reproduce a from-scratch Krylov construction."""
    for kind in (ModelKind.NN, ModelKind.IR):
        spec = ModelSpec(kind, length)
        closed = analytic_lanczos(spec)
        dense = dense_krylov(spec)
        assert len(dense.a) == closed.krylov_dim
        assert_allclose(dense.a, closed.tridiag.diag, atol=1e-10)
        assert_allclose(dense.b, closed.tridiag.offdiag, atol=1e-10)


def test_kramers_wannier_route_reproduces_nn_coefficients():
    """Lanczos on the dual transverse-field image gives the same tridiagonal,
    and the matrix-free image is the dense -Sum_i tau^x_i on the links."""
    for length in (4, 6):
        apply, seed = kw_transform_nn(length)
        links = length - 1
        pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        dense = np.zeros((2**links, 2**links))
        for link in range(links):
            term = np.ones((1, 1))
            for site in range(links):
                term = np.kron(term, pauli_x if site == link else np.eye(2))
            dense -= term
        rng = np.random.default_rng(length)
        for vec in (seed, *rng.standard_normal((3, 2**links))):
            assert_allclose(apply(vec), dense @ vec, rtol=0, atol=1e-14)
        assert np.array_equal(seed, np.eye(2**links)[0])
        result = run_lanczos(apply, seed)
        closed = analytic_lanczos(ModelSpec(ModelKind.NN, length))
        assert_allclose(result.a, closed.tridiag.diag, atol=1e-12)
        assert_allclose(result.b, closed.tridiag.offdiag, atol=1e-12)


def test_lanczos_check_allocates_no_dense_dual_matrix():
    """Criterion 2 at L = 12 peaks below 8 MB of traced allocations; the
    dense 2^11 x 2^11 dual matrix alone would take 33.5 MB."""
    tracemalloc.start()
    try:
        passed, detail = check_lanczos_closed_forms()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed, detail
    assert peak < 8 * 2**20, peak


# ----------------------------------------------------------- NN closed forms


def test_nn_lambda_endpoints():
    assert nn_lambda(0.0) == 0.0
    assert nn_lambda(50.0) == pytest.approx(0.5, abs=1e-15)


@given(st.floats(0.0, 20.0), st.floats(0.001, 5.0))
@settings(max_examples=60)
def test_nn_lambda_is_monotone_into_half(tau, step):
    lo, hi = nn_lambda(tau), nn_lambda(tau + step)
    assert 0.0 <= lo <= hi <= 0.5
    if tau + step <= 8.0:  # saturation hits float resolution past tau ~ 17
        assert hi > lo


def test_nn_wavepacket_starts_at_origin_and_alternates():
    state = psi_nn_analytic(12, 0.8)
    assert state.psi[0] > 0
    signs = np.sign(state.psi)
    assert_allclose(signs, [(-1.0) ** n for n in range(12)])
    assert_allclose(psi_nn_analytic(12, 0.0).psi, np.eye(12)[0], atol=0)


@given(st.integers(2, 60), st.floats(0.0, 5.0))
@settings(max_examples=60)
def test_nn_complexity_is_binomial_mean(length, tau):
    """K = sum_n n psi_n^2 equals (L-1) lambda for the binomial wavepacket."""
    state = psi_nn_analytic(length, tau)
    assert complexity(state.psi) == pytest.approx(k_nn_analytic(length, tau), abs=1e-10)


@given(st.sampled_from([4, 6, 8, 10]), st.floats(0.0, 4.0))
@settings(max_examples=40)
def test_nn_complexity_matches_tridiagonal_propagation(length, tau):
    spec = analytic_lanczos(ModelSpec(ModelKind.NN, length))
    assert complexity(expm_from_eig(spec.tridiag, tau).psi) == pytest.approx(
        k_nn_analytic(length, tau), abs=1e-9
    )


@pytest.mark.parametrize("tau", [0.01, 0.5, 10.0])
def test_nn_wavepacket_at_the_wavepacket_cap_matches_decimal_binomials(tau):
    """At L = 4096, the largest L `wavepacket` serves, every entry matches
    (-1)^n sqrt(C(L-1, n) lambda^n (1-lambda)^(L-1-n)) in 50-digit decimals,
    built by the running ratio t_{n+1} = t_n (L-1-n)/(n+1) lambda/(1-lambda)."""
    length = 4096
    with localcontext() as ctx:
        ctx.prec = 50
        sinh_sq = ((Decimal(tau).exp() - Decimal(-tau).exp()) / 2) ** 2
        lam = sinh_sq / (1 + 2 * sinh_sq)
        ratio = lam / (1 - lam)
        term = (1 - lam) ** (length - 1)
        exact = []
        for n in range(length):
            exact.append(float((-1) ** n * term.sqrt()))
            term = term * (length - 1 - n) / (n + 1) * ratio
    exact = np.array(exact)
    psi = psi_nn_analytic(length, tau).psi
    normal = np.abs(exact) >= np.finfo(float).tiny
    assert_allclose(psi[normal], exact[normal], rtol=1e-10, atol=0)
    assert_allclose(psi, exact, rtol=0, atol=1e-12)
    # Underflowed entries included: the zeros fall in the same places.
    assert np.array_equal(np.sign(psi), np.sign(exact))


# ------------------------------------------------- thermodynamic-limit forms


def test_area_law_profile_is_normalized_and_matches_k():
    for tau in (0.1, 0.3, 0.45):
        psi = area_law_psi(np.arange(400), tau)
        assert psi @ psi == pytest.approx(1.0, abs=1e-12)
        assert np.arange(400) @ psi**2 == pytest.approx(area_law_k(tau), abs=1e-12)


def test_area_law_peaks_at_origin_for_tau_zero():
    assert area_law_psi(0, 0.0) == 1.0
    assert area_law_psi(3, 0.0) == 0.0
    assert np.array_equal(area_law_psi(np.arange(4), 0.0), [1.0, 0.0, 0.0, 0.0])
    assert area_law_k(0.0) == 0.0


@pytest.mark.parametrize("tau", [0.0, 1e-3, 0.3, 0.499])
def test_area_law_array_equals_scalar_calls(tau):
    n = np.arange(300).reshape(20, 15)
    psi = area_law_psi(n, tau)
    assert psi.shape == n.shape
    scalars = [area_law_psi(int(k), tau) for k in n.flat]
    assert all(type(value) is float for value in scalars)
    assert np.array_equal(psi.ravel(), scalars)


def test_area_law_requires_tau_below_half():
    for bad in (0.5, 0.7, -0.01):
        with pytest.raises(DomainError):
            area_law_psi(1, bad)
        with pytest.raises(DomainError):
            area_law_psi(np.arange(3), bad)
    for bad_n in (-1, [0, 1, -2]):
        with pytest.raises(ArgumentError):
            area_law_psi(bad_n, 0.2)
    with pytest.raises(DomainError):
        area_law_k(0.5)


def test_volume_law_plateau_is_quarter_length():
    assert volume_law_k(4) == 1.0
    assert volume_law_k(102) == 25.5


# ----------------------------------------------------------------- channels


def test_nn_channel_terms_by_hand():
    """L = 3, p = 0.2: bond factors expand to four Z-supports (bit i is site i)."""
    channel = build_nn_channel(3, 0.2)
    terms = {support: weight for weight, support in channel.terms}
    assert terms == pytest.approx({0b000: 0.64, 0b011: 0.16, 0b110: 0.16, 0b101: 0.04})


@given(st.integers(2, 6), st.floats(0.0, 0.49))
@settings(max_examples=30)
def test_nn_channel_matches_bond_product_expansion(length, p):
    """Expanding prod_bonds [(1-p) I + p ZZ] term by term gives the channel."""
    expected = {}
    for subset in range(2 ** (length - 1)):
        support = 0
        weight = 1.0
        for bond in range(length - 1):
            if subset >> bond & 1:
                support ^= 0b11 << bond
                weight *= p
            else:
                weight *= 1 - p
        expected[support] = expected.get(support, 0.0) + weight
    channel = build_nn_channel(length, p)
    actual = {support: weight for weight, support in channel.terms}
    # zero-weight terms may be dropped from the channel
    assert set(actual) <= set(expected)
    for support, weight in expected.items():
        assert actual.get(support, 0.0) == pytest.approx(weight, abs=1e-14)


def test_channel_term_counts_and_support_parity():
    for length in (3, 4, 5):
        nn = build_nn_channel(length, 0.2)
        assert len(nn.terms) == 2 ** (length - 1)
    for length in (4, 6):
        ir = build_ir_channel(length, 0.7)
        assert len(ir.terms) == 2 ** (length - 1)
        assert all(support.bit_count() % 2 == 0 for _, support in ir.terms)
        assert all(w >= 0 for w, _ in ir.terms)


@given(
    st.sampled_from([ModelKind.NN, ModelKind.IR]),
    st.integers(1, 3),
    st.floats(0.01, 0.45),
)
@settings(max_examples=25)
def test_channel_equals_elementwise_exponential(kind, half, arg):
    """Dual route: the Kraus sum acts as a rescaled exp(-tau H_eff)."""
    length = 2 * half
    deviation = channel_vs_exponential(ModelSpec(kind, length), arg)
    assert deviation < 1e-12


def test_channel_parameter_domains():
    with pytest.raises(DomainError):
        build_nn_channel(3, 0.5)
    with pytest.raises(ArgumentError):
        build_ir_channel(4, -0.1)
