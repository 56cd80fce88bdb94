"""Doubled-space vectorization, Z-type channels, and parity reduction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dekrylov.doubled import (
    FULL_SPACE_MAX_LENGTH,
    KrausChannel,
    apply_channel,
    build_nn_channel,
    channel_diagonal,
    reduced_initial_state,
    restrict_to_parity_sector,
    tau_from_p,
    vectorize,
)
from dekrylov.errors import ArgumentError, DomainError
from dekrylov.models import ModelKind, ModelSpec
from dekrylov.oracle import doubled_hamiltonian_diagonal, kraus_sum_vs_exponential

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dense_z_string(length, support):
    """Complex matrix of Z^support; site 0 is the least significant bit."""
    out = np.eye(1, dtype=complex)
    for site in reversed(range(length)):
        out = np.kron(out, PAULI_Z if support >> site & 1 else np.eye(2))
    return out


def symmetric_rho(length, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((2**length, 2**length))
    return (raw + raw.T) / 2


def z_channels(max_length=3):
    """Random few-term Z-type channels with weights summing to one."""

    def build(length):
        supports = st.lists(
            st.integers(0, 2**length - 1), min_size=1, max_size=4, unique=True
        )
        raws = st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4)
        return st.tuples(st.just(length), supports, raws).map(_assemble)

    def _assemble(triple):
        length, supports, raws = triple
        weights = np.asarray(raws[: len(supports)])
        weights = weights / weights.sum()
        weights[-1] = 1.0 - weights[:-1].sum()
        return KrausChannel(
            length, tuple((float(w), s) for w, s in zip(weights, supports))
        )

    return st.integers(1, max_length).flatmap(build)


# -------------------------------------------------------------- vectorization


def test_vectorize_uses_column_order():
    """rho[upper, lower] lands at doubled index upper + 2^L * lower."""
    rho = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert_allclose(vectorize(rho), [1.0, 2.0, 2.0, 3.0])


@given(st.integers(1, 3), st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_vectorize_round_trip(length, seed):
    rho = symmetric_rho(length, seed)
    dim = 2**length
    assert_allclose(vectorize(rho).reshape((dim, dim), order="F"), rho, atol=0)


def test_vectorize_rejects_non_hermitian():
    with pytest.raises(ArgumentError):
        vectorize(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_trace_functional_reads_diagonal():
    """The trace of rho sits on the doubled indices with upper = lower."""
    rho = np.diag([0.4, 0.25, 0.25, 0.1])
    image = vectorize(rho).reshape((4, 4), order="F")
    assert np.trace(image) == pytest.approx(1.0, abs=1e-15)


# ------------------------------------------------------------ channel action


@given(z_channels(), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_apply_channel_matches_complex_kraus_oracle(channel, seed):
    """Real doubled-space action reproduces sum_m w_m B_m rho B_m^dagger."""
    length = channel.length
    rho = symmetric_rho(length, seed)
    expected = np.zeros_like(rho, dtype=complex)
    for weight, support in channel.terms:
        mat = dense_z_string(length, support)
        expected += weight * (mat @ rho @ mat.conj().T)
    assert np.max(np.abs(expected.imag)) < 1e-12
    state = vectorize(rho)
    dim = 2**length
    for out in (apply_channel(channel, state), channel_diagonal(channel) * state):
        assert_allclose(out.reshape((dim, dim), order="F"), expected.real, atol=1e-12)


@given(z_channels(), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_channel_preserves_trace_and_symmetry(channel, seed):
    length = channel.length
    rho = symmetric_rho(length, seed)
    out = apply_channel(channel, vectorize(rho))
    dim = 2**length
    image = out.reshape((dim, dim), order="F")
    assert np.trace(image) == pytest.approx(np.trace(rho), abs=1e-12)
    assert_allclose(image, image.T, atol=1e-12)


@given(z_channels(max_length=2), st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_channel_matrix_composes_like_repeated_application(channel, seed):
    state = vectorize(symmetric_rho(channel.length, seed))
    twice = apply_channel(channel, apply_channel(channel, state))
    diagonal = channel_diagonal(channel)
    assert_allclose(diagonal * (diagonal * state), twice, atol=1e-12)


def test_channel_diagonal_serves_the_full_space_cap_in_little_memory():
    """At L = 7 the diagonal is 4^7 amplitudes (128 KiB), where a dense
    superoperator matrix would take 2 GiB; L = 8 is refused before any
    4^L array exists."""
    length = FULL_SPACE_MAX_LENGTH
    channel = build_nn_channel(length, 0.3)
    tracemalloc.start()
    try:
        diagonal = channel_diagonal(channel)
        deviation = kraus_sum_vs_exponential(ModelSpec(ModelKind.NN, length), 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert diagonal.shape == (4**length,)
    assert deviation <= 1e-12
    assert peak < 2 * 2**20, peak
    wide = KrausChannel(length + 1, ((1.0, 0b11),))
    for call in (
        lambda: channel_diagonal(wide),
        lambda: kraus_sum_vs_exponential(ModelSpec(ModelKind.NN, length + 1), 0.3),
        lambda: doubled_hamiltonian_diagonal(ModelSpec(ModelKind.NN, length + 1)),
    ):
        with pytest.raises(ArgumentError, match="capped at L <= 7"):
            call()


def test_full_space_operations_reject_a_wrong_vector():
    """A vector that is not 4^L long, or whose L is not the channel's, is
    an argument error; a parity-sector seed at L = 2 (4 amplitudes) reads
    as a full-space state at L = 1."""
    channel = build_nn_channel(2, 0.3)
    seed = reduced_initial_state(ModelSpec(ModelKind.NN, 2))
    with pytest.raises(ArgumentError, match="channel length 2 != state length 1"):
        apply_channel(channel, seed)
    for bad in (np.ones(8), np.ones((4, 4)), np.ones(2), np.ones(0), np.ones(4**8)):
        with pytest.raises(ArgumentError):
            apply_channel(channel, bad)
        with pytest.raises(ArgumentError):
            restrict_to_parity_sector(bad)


# ------------------------------------------------------------------- parity


@given(st.integers(2, 3), st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_restriction_ignores_antisymmetric_component(length, seed):
    """A component odd under a layer-swap parity g_i (flip bit i in both
    layers) restricts to zero: adding it leaves the restriction unchanged."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4**length)
    idx = np.arange(4**length)
    base = restrict_to_parity_sector(x)
    for site in range(length):
        mask = (1 << site) | (1 << (site + length))
        odd = x - x[idx ^ mask]
        assert_allclose(restrict_to_parity_sector(x + odd), base, atol=1e-13)


@pytest.mark.parametrize("length", [2, 3])
def test_parity_odd_state_has_an_empty_sector(length):
    """Restricted alone, a component odd under a layer-swap parity has no
    positive-parity part, which is a domain error, not a zero-norm state."""
    x = np.random.default_rng(length).standard_normal(4**length)
    idx = np.arange(4**length)
    for site in range(length):
        mask = (1 << site) | (1 << (site + length))
        with pytest.raises(DomainError, match="positive-parity sector"):
            restrict_to_parity_sector(x - x[idx ^ mask])


@pytest.mark.parametrize("length", range(1, FULL_SPACE_MAX_LENGTH + 1))
def test_restriction_is_the_per_component_sum_bit_for_bit(length):
    """Component r is the contiguous sum over u of state[u + 2^L (u xor r)],
    taken with np.sum one r at a time, then scaled by 2^{-L/2}."""
    state = np.random.default_rng(length).standard_normal(4**length)
    dim = 2**length
    upper = np.arange(dim)
    expected = np.array([np.sum(state[upper + dim * (upper ^ r)]) for r in range(dim)])
    expected *= 2.0 ** (-length / 2.0)
    assert restrict_to_parity_sector(state).tobytes() == expected.tobytes()


def test_plus_state_restricts_to_uniform_seed():
    """Vectorized |+...+><+...+| is the uniform positive-parity seed."""
    for length in (2, 3, 4):
        rho = np.full((2**length, 2**length), 2.0**-length)
        reduced = restrict_to_parity_sector(vectorize(rho))
        seed = reduced_initial_state(ModelSpec(ModelKind.NN, length))
        assert_allclose(reduced, seed, atol=1e-15)


# -------------------------------------------------------------- parametrics


def test_tau_from_p_values_and_domain():
    assert tau_from_p(0.0) == 0.0
    assert tau_from_p(0.3) == pytest.approx(-np.log(0.4) / 2, rel=1e-15)
    for bad in (-0.1, 0.5, 0.7):
        with pytest.raises(DomainError):
            tau_from_p(bad)


def test_kraus_weights_must_sum_to_one():
    with pytest.raises(ArgumentError):
        KrausChannel(1, ((0.5, 1), (0.4, 0)))


def test_kraus_supports_must_fit_the_length():
    """Bit i of a support is a Z on site i, so a support needs S < 2^L."""
    assert KrausChannel(2, ((0.5, 0b11), (0.5, 0))).terms == ((0.5, 3), (0.5, 0))
    for bad in (0b100, -1, 1.0):
        with pytest.raises(ArgumentError, match=r"is not an integer below 2\^2"):
            KrausChannel(2, ((0.5, bad), (0.5, 0)))
