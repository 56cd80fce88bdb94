"""Doubled-space vectorization, Pauli channels, and parity reduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dekrylov.doubled import (
    DoubledState,
    KrausChannel,
    PauliString,
    Sector,
    apply_channel,
    build_nn_channel,
    channel_matrix,
    reduced_initial_state,
    restrict_to_parity_sector,
    tau_from_p,
    vectorize,
)
from dekrylov.errors import ArgumentError, DomainError
from dekrylov.models import ModelKind, ModelSpec

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def dense_pauli(letters):
    """Complex matrix of a Pauli string; site 0 is the least significant bit."""
    out = np.eye(1, dtype=complex)
    for ch in reversed(letters):
        out = np.kron(out, PAULI[ch])
    return out


def symmetric_rho(length, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((2**length, 2**length))
    return (raw + raw.T) / 2


def pauli_channels(max_length=3):
    """Random few-term Pauli channels with weights summing to one."""

    def build(length):
        strings = st.lists(
            st.text(alphabet="IXYZ", min_size=length, max_size=length),
            min_size=1,
            max_size=4,
            unique=True,
        )
        raws = st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4)
        return st.tuples(strings, raws).map(_assemble)

    def _assemble(pair):
        strings, raws = pair
        weights = np.asarray(raws[: len(strings)])
        weights = weights / weights.sum()
        weights[-1] = 1.0 - weights[:-1].sum()
        return KrausChannel(
            tuple((float(w), PauliString(s)) for w, s in zip(weights, strings))
        )

    return st.integers(1, max_length).flatmap(build)


# -------------------------------------------------------------- vectorization


def test_vectorize_uses_column_order():
    """rho[upper, lower] lands at doubled index upper + 2^L * lower."""
    rho = np.array([[1.0, 2.0], [2.0, 3.0]])
    state = vectorize(rho)
    assert state.length == 1
    assert state.sector is Sector.FULL
    assert_allclose(state.amplitudes, [1.0, 2.0, 2.0, 3.0])


@given(st.integers(1, 3), st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_vectorize_round_trip(length, seed):
    rho = symmetric_rho(length, seed)
    dim = 2**length
    assert_allclose(vectorize(rho).amplitudes.reshape((dim, dim), order="F"), rho, atol=0)


def test_vectorize_rejects_non_hermitian():
    with pytest.raises(ArgumentError):
        vectorize(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_trace_functional_reads_diagonal():
    """The trace of rho sits on the doubled indices with upper = lower."""
    rho = np.diag([0.4, 0.25, 0.25, 0.1])
    image = vectorize(rho).amplitudes.reshape((4, 4), order="F")
    assert np.trace(image) == pytest.approx(1.0, abs=1e-15)


# ------------------------------------------------------------ channel action


@given(pauli_channels(), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_apply_channel_matches_complex_kraus_oracle(channel, seed):
    """Real doubled-space action reproduces sum_m w_m B_m rho B_m^dagger."""
    length = len(channel.terms[0][1].letters)
    rho = symmetric_rho(length, seed)
    expected = np.zeros_like(rho, dtype=complex)
    for weight, string in channel.terms:
        mat = dense_pauli(string.letters)
        expected += weight * (mat @ rho @ mat.conj().T)
    assert np.max(np.abs(expected.imag)) < 1e-12
    out = apply_channel(channel, vectorize(rho))
    dim = 2**length
    assert_allclose(out.amplitudes.reshape((dim, dim), order="F"), expected.real, atol=1e-12)


@given(pauli_channels(), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_channel_preserves_trace_and_symmetry(channel, seed):
    length = len(channel.terms[0][1].letters)
    rho = symmetric_rho(length, seed)
    state = vectorize(rho)
    out = apply_channel(channel, state)
    dim = 2**length
    image = out.amplitudes.reshape((dim, dim), order="F")
    assert np.trace(image) == pytest.approx(np.trace(rho), abs=1e-12)
    assert_allclose(image, image.T, atol=1e-12)


@given(pauli_channels(max_length=2), st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_channel_matrix_composes_like_repeated_application(channel, seed):
    length = len(channel.terms[0][1].letters)
    state = vectorize(symmetric_rho(length, seed))
    twice = apply_channel(channel, apply_channel(channel, state))
    mat = channel_matrix(channel)
    assert_allclose(mat @ (mat @ state.amplitudes), twice.amplitudes, atol=1e-12)


def test_apply_channel_requires_full_sector():
    channel = build_nn_channel(2, 0.3)
    reduced = DoubledState(2, Sector.PARITY_REDUCED, np.full(4, 0.5))
    with pytest.raises(ArgumentError):
        apply_channel(channel, reduced)


# ------------------------------------------------------------------- parity


@given(st.integers(2, 3), st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_restriction_ignores_antisymmetric_component(length, seed):
    """A component odd under a layer-swap parity g_i (flip bit i in both
    layers) restricts to zero: adding it leaves the restriction unchanged."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4**length)
    idx = np.arange(4**length)
    base = restrict_to_parity_sector(DoubledState(length, Sector.FULL, x)).amplitudes
    for site in range(length):
        mask = (1 << site) | (1 << (site + length))
        odd = x - x[idx ^ mask]
        shifted = DoubledState(length, Sector.FULL, x + odd)
        assert_allclose(restrict_to_parity_sector(shifted).amplitudes, base, atol=1e-13)


@pytest.mark.parametrize("length", [2, 3])
def test_parity_odd_state_has_an_empty_sector(length):
    """Restricted alone, a component odd under a layer-swap parity has no
    positive-parity part, which is a domain error, not a zero-norm state."""
    x = np.random.default_rng(length).standard_normal(4**length)
    idx = np.arange(4**length)
    for site in range(length):
        mask = (1 << site) | (1 << (site + length))
        odd = DoubledState(length, Sector.FULL, x - x[idx ^ mask])
        with pytest.raises(DomainError, match="positive-parity sector"):
            restrict_to_parity_sector(odd)


def test_plus_state_restricts_to_uniform_seed():
    """Vectorized |+...+><+...+| is the uniform positive-parity seed."""
    for length in (2, 3, 4):
        rho = np.full((2**length, 2**length), 2.0**-length)
        reduced = restrict_to_parity_sector(vectorize(rho))
        seed = reduced_initial_state(ModelSpec(ModelKind.NN, length))
        assert_allclose(reduced.amplitudes, seed.amplitudes, atol=1e-15)


# -------------------------------------------------------------- parametrics


def test_tau_from_p_values_and_domain():
    assert tau_from_p(0.0) == 0.0
    assert tau_from_p(0.3) == pytest.approx(-np.log(0.4) / 2, rel=1e-15)
    for bad in (-0.1, 0.5, 0.7):
        with pytest.raises(DomainError):
            tau_from_p(bad)


def test_kraus_weights_must_sum_to_one():
    with pytest.raises(ArgumentError):
        KrausChannel(((0.5, PauliString("Z")), (0.4, PauliString("I"))))
