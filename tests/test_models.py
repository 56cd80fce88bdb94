"""Model definitions, closed-form Lanczos data, and channel construction."""

import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dekrylov.checks import check_lanczos_closed_forms
from dekrylov.doubled import build_ir_channel, build_nn_channel, reduced_initial_state
from dekrylov.errors import ArgumentError, DomainError
from dekrylov.evolve import complexity, scan_point
from dekrylov.lintri import expm_from_eig
from dekrylov.lanczos import run_lanczos
from dekrylov.models import (
    ModelKind,
    ModelSpec,
    analytic_lanczos,
    k_nn_analytic,
    log_binomial_pmf,
    nn_lambda,
    psi_nn_analytic,
    spectral_measure,
)
from dekrylov.oracle import (
    area_law_k,
    area_law_psi,
    channel_vs_exponential,
    dense_krylov,
    kw_transform_nn,
    reduced_diagonal,
    site_spins,
    vectorized_map_vs_exponential,
    volume_law_k,
)
import exact_reference


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


# --------------------------------------------------------- spectral measure


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 1001, 2000, 4095])
def test_log_binomial_pmf_matches_decimal_logs(n):
    """Every log(C(n, k) / 2^n), tails included, within 4e-15 of its size
    (measured at most 1.6e-15, at n = 4095) of a 40-digit decimal ln of
    the exact integer ratio."""
    logs = log_binomial_pmf(n)
    assert logs.shape == (n + 1,)
    for k, (value, exact) in enumerate(zip(logs.tolist(), exact_reference.log_binomial_pmf(n))):
        assert abs(Decimal(value) - exact) <= Decimal("4e-15") * abs(exact), k


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("length", [2, 4, 8, 100, 2000, 100_000])
def test_spectral_measure_is_normalized_on_the_closed_form_spectrum(kind, length):
    model = ModelSpec(kind, length)
    nodes, log_weights = spectral_measure(model)
    assert np.array_equal(nodes, analytic_lanczos(model).tridiag.spectrum)
    assert log_weights.shape == nodes.shape
    top = log_weights.max()
    assert abs(top + math.log(np.exp(log_weights - top).sum())) <= 1e-15


@pytest.mark.parametrize("kind", list(ModelKind))
def test_spectral_measure_weights_are_the_folded_binomials(kind):
    """NN: C(L-1, k) / 2^(L-1) at 2k - (L-1); IR: C(L, L/2+m) (2 - delta_{m0})
    / 2^L at L/2 - 2 m^2/L, m = L/2 down to 0, from exact integers."""
    length = 12
    nodes, log_weights = spectral_measure(ModelSpec(kind, length))
    if kind is ModelKind.NN:
        exact_nodes = [2 * k - length + 1 for k in range(length)]
        exact_weights = [math.comb(length - 1, k) / 2 ** (length - 1) for k in range(length)]
    else:
        sectors = range(length // 2, -1, -1)
        exact_nodes = [length / 2 - 2 * m * m / length for m in sectors]
        exact_weights = [
            math.comb(length, length // 2 + m) * (2 - (m == 0)) / 2**length for m in sectors
        ]
    assert_allclose(nodes, exact_nodes, rtol=0, atol=1e-15)
    assert_allclose(np.exp(log_weights), exact_weights, rtol=1e-15, atol=0)


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
    exact = np.array(exact_reference.nn_wavepacket(length, tau, 50))
    psi = psi_nn_analytic(length, tau).psi
    normal = np.abs(exact) >= np.finfo(float).tiny
    assert_allclose(psi[normal], exact[normal], rtol=1e-10, atol=0)
    assert_allclose(psi, exact, rtol=0, atol=1e-12)
    # Underflowed entries included: the zeros fall in the same places.
    assert np.array_equal(np.sign(psi), np.sign(exact))


@pytest.mark.parametrize("length", [2, 100, 4096])
@pytest.mark.parametrize("tau", [1e-9, 1e-6, 1e-3])
def test_nn_closed_forms_keep_relative_accuracy_as_tau_vanishes(length, tau):
    """lambda ~ tau^2 comes from no difference, so at small tau every
    normal entry of the wavepacket stays within 1e-10 relative of 50-digit
    decimals, and K from the `evolve` scan within 1e-14."""
    exact = np.array(exact_reference.nn_wavepacket(length, tau, 50))
    psi = psi_nn_analytic(length, tau).psi
    normal = np.abs(exact) >= np.finfo(float).tiny
    assert_allclose(psi[normal], exact[normal], rtol=1e-10, atol=0)
    assert_allclose(psi, exact, rtol=0, atol=1e-12)
    ((_, _, k, _, _),) = scan_point(ModelSpec(ModelKind.NN, length), [tau])
    k_exact = (length - 1) * exact_reference.nn_lambda(tau, 50)
    assert abs(Decimal(k) / k_exact - 1) <= Decimal("1e-14")


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


@pytest.mark.parametrize("length", range(2, 8))
@pytest.mark.parametrize("p", [0, 0.1, 0.3, 0.49])
def test_nn_channel_weights_are_the_per_subset_products_bit_for_bit(length, p):
    """Bond subset s has the weight p^|s| (1-p)^(L-1-|s|), as a Python float,
    and the Python-int support s xor (s << 1); zero weights are dropped."""
    bonds = length - 1
    expected = []
    for subset in range(2**bonds):
        weight = p ** subset.bit_count() * (1.0 - p) ** (bonds - subset.bit_count())
        if weight != 0.0:
            expected.append((weight, subset ^ (subset << 1)))
    terms = build_nn_channel(length, p).terms
    assert [(type(w), type(s)) for w, s in terms] == [(float, int)] * len(expected)
    assert [(w.hex(), s) for w, s in terms] == [(w.hex(), s) for w, s in expected]


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
    """A p outside [0, 1/2) is one DomainError on every route to the NN channel."""
    nn = ModelSpec(ModelKind.NN, 3)
    for route in (
        lambda p: build_nn_channel(3, p),
        lambda p: channel_vs_exponential(nn, p),
        lambda p: vectorized_map_vs_exponential(nn, p),
    ):
        for p in (0.5, -0.1, math.nan):
            with pytest.raises(DomainError, match=r"p must lie in \[0, 1/2\)"):
                route(p)
    with pytest.raises(ArgumentError):
        build_ir_channel(4, -0.1)
