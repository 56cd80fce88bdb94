"""Choi vectorization and Z-type Kraus channels in the doubled Hilbert space.

A density matrix rho on L qubits is reshaped column-wise into a vector
|rho> of 4^L plain float amplitudes on two copies of the chain:

    rho = [rho_11 rho_12; rho_21 rho_22]  ->  (rho_11, rho_21, rho_12, rho_22)

so the doubled basis index is the lower-layer (column) bitstring
concatenated with the upper-layer (row) bitstring, little-endian in the
site label:

    index = upper + 2^L * lower.

Under this map a channel E[rho] = Sum_m B_m rho B_m^dag acts as
Sum_m (B_m^* (x) B_m) |rho>.  Both models dephase with Z strings only, so
each Kraus operator is sqrt(w_m) Z^{S_m} for an integer support S_m (bit
i puts a Z on site i), and its doubled action is diagonal: the sign
(-1)^popcount(index & (S_m | S_m << L)).  The whole layer stays in real
arithmetic, and the dense complex oracle in the test-suite validates this
shortcut.

The paper's mapping is the chain vectorize -> apply_channel ->
restrict_to_parity_sector: |+><+|^{(x)L} becomes the uniform
positive-parity seed (reduced_initial_state, 2^L amplitudes), and the
composed dephasing channel (build_nn_channel, build_ir_channel) becomes
prefactor * exp(-tau h) on it.  Criterion 1 checks that chain for L <= 6.

Full-space operations are capped at L <= 7 (4^7 = 16384 amplitudes); they
exist to validate the parity-reduced code paths, not for production scans.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError
from .models import ModelKind, ModelSpec

FULL_SPACE_MAX_LENGTH = 7
# Relative norm under which restrict_to_parity_sector finds no
# positive-parity component; rounding leaves at most 1.1e-16 of a
# parity-odd state (measured for L <= 7).
EMPTY_SECTOR_RTOL = 1e-12


@dataclass(frozen=True)
class KrausChannel:
    """A Z-type channel on `length` sites: terms (w_m, S_m), Kraus
    operators sqrt(w_m) Z^{S_m}, where bit i of the integer support S_m
    puts a Z on site i."""

    length: int
    terms: tuple

    def __post_init__(self):
        terms = tuple((float(w), support) for w, support in self.terms)
        if not terms:
            raise ArgumentError("channel needs at least one Kraus term")
        if self.length < 1:
            raise ArgumentError("channel needs at least one site")
        for w, support in terms:
            if not isinstance(support, (int, np.integer)) or not 0 <= support < 2**self.length:
                raise ArgumentError(
                    f"Z-support {support!r} is not an integer below 2^{self.length}"
                )
            if not w > 0:
                raise ArgumentError("Kraus weights must be strictly positive")
        total = math.fsum(w for w, _ in terms)
        if abs(total - 1.0) > 1e-12:
            raise ArgumentError(f"Kraus weights sum to {total!r}, expected 1")
        object.__setattr__(self, "terms", terms)


def check_full_length(length):
    if length > FULL_SPACE_MAX_LENGTH:
        raise ArgumentError(
            f"full doubled-space path is capped at L <= {FULL_SPACE_MAX_LENGTH}"
        )


def _full_length(vec):
    """L of a full-space vector: 4^L finite amplitudes of positive norm."""
    length = (vec.size.bit_length() - 1) // 2
    if vec.shape != (4**length,):
        raise ArgumentError(
            f"a full doubled-space state has 4^L amplitudes, got shape {vec.shape}"
        )
    check_full_length(length)
    if not np.all(np.isfinite(vec)):
        raise ArgumentError("amplitudes must be finite")
    if not np.linalg.norm(vec) > 0:
        raise ArgumentError("state must have positive norm")
    return length


def vectorize(rho):
    """Column-reshape a Hermitian density matrix into its 4^L amplitudes.

    The input must be real-symmetric up to 1e-12: every state handled by
    this package is real in the computational basis, which is what keeps
    the doubled layer in real arithmetic.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ArgumentError("rho must be a square matrix")
    dim = rho.shape[0]
    length = dim.bit_length() - 1
    if 2**length != dim:
        raise ArgumentError(f"matrix size {dim} is not a power of two")
    check_full_length(length)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ArgumentError("rho must be Hermitian within 1e-12")
    if np.max(np.abs(np.imag(rho))) > 1e-12:
        raise ArgumentError("rho must be real within 1e-12 in this basis")
    amps = np.real(rho).reshape(-1, order="F").astype(float)
    _full_length(amps)
    return amps


def apply_channel(channel, state):
    """Apply Sum_m (B_m^* (x) B_m) to a full-space state of 4^L amplitudes."""
    vec = np.asarray(state, dtype=float)
    length = _full_length(vec)
    if channel.length != length:
        raise ArgumentError(f"channel length {channel.length} != state length {length}")
    return channel_diagonal(channel) * vec


def channel_diagonal(channel):
    """The 4^L superoperator diagonal of a Z-type channel, all it has:
    Sum_m w_m (-1)^popcount(index & (S_m | S_m << L))."""
    length = channel.length
    check_full_length(length)
    indices = np.arange(4**length)
    diagonal = np.zeros(4**length)
    for weight, support in channel.terms:
        both = support | (support << length)
        diagonal += weight * (1.0 - 2.0 * (np.bitwise_count(indices & both) & 1))
    return diagonal


def tau_from_p(p):
    """Imaginary time tau = -ln(1-2p)/2 of a dephasing strength p in [0, 1/2)."""
    if not 0 <= p < 0.5:
        raise DomainError(f"p must lie in [0, 1/2), got {p!r}")
    return -0.5 * math.log1p(-2.0 * p)


def restrict_to_parity_sector(state):
    """Overlaps of a full-space state with the 2^L parity-sector basis states.

    The positive-parity basis state labeled by bits r embeds as
    2^{-L/2} Sum_u |upper=u, lower=u xor r>, so component r is
    2^{-L/2} Sum_u state[u + 2^L (u xor r)].  These basis states are
    orthonormal, so the restriction is a projection and never longer
    than the state.

    Raises:
        DomainError: if the state has no positive-parity component, that
            is, the restriction's norm is at most EMPTY_SECTOR_RTOL times
            the state's (a state odd under a layer-swap parity).
    """
    vec = np.asarray(state, dtype=float)
    length = _full_length(vec)
    dim = 2**length
    upper = np.arange(dim)
    reduced = vec[upper + dim * (upper ^ upper[:, None])].sum(axis=1)
    reduced *= 2.0 ** (-length / 2.0)
    reduced_norm = np.linalg.norm(reduced)
    norm = np.linalg.norm(vec)
    if reduced_norm <= EMPTY_SECTOR_RTOL * norm:
        raise DomainError(
            "the positive-parity sector of this state is empty: its restriction "
            f"has norm {reduced_norm:.3g} against a state norm of {norm:.3g}"
        )
    return reduced


def reduced_initial_state(model):
    """Uniform positive-parity state: 2^L amplitudes 2^{-L/2}."""
    return np.full(2**model.length, 2.0 ** (-model.length / 2.0))


def build_nn_channel(length, p):
    """The composed NN bond channel as an explicit Kraus sum.

    Expands Prod_i [(1-p) id + p ZZ_i] into 2^{L-1} Z-support terms
    (bond supports XOR freely, so every subset of bonds gives a distinct
    support).  Intended for the full doubled-space validation path.
    """
    if length < 2:
        raise ArgumentError("length must be at least 2")
    check_full_length(length)
    if not 0 <= p < 0.5:
        raise DomainError(f"p must lie in [0, 1/2), got {p!r}")
    bonds = length - 1
    subsets = np.arange(2**bonds)
    by_count = np.array([p**k * (1.0 - p) ** (bonds - k) for k in range(bonds + 1)])
    weights = by_count[np.bitwise_count(subsets)]
    kept = weights != 0.0
    supports = (subsets ^ (subsets << 1))[kept]
    return KrausChannel(length, tuple(zip(weights[kept].tolist(), supports.tolist())))


def build_ir_channel(length, tau):
    """The composed infinite-range pair channel as an explicit Kraus sum.

    Each pair (i, j) applies (w+ id + w- Z_i Z_j) with
    w(+/-) = (1 +/- e^{-2 tau/L})/2; the product over all pairs is
    convolved in the space of Z-supports (at most 2^L distinct terms).
    """
    ModelSpec(kind=ModelKind.IR, length=length)  # validates L >= 2, even
    check_full_length(length)
    if not tau >= 0:
        raise ArgumentError("tau must be nonnegative")
    w_plus = 0.5 * (1.0 + math.exp(-2.0 * tau / length))
    w_minus = 0.5 * (1.0 - math.exp(-2.0 * tau / length))
    weights = np.zeros(2**length)
    weights[0] = 1.0
    supports = np.arange(2**length)
    for i in range(length):
        for j in range(i + 1, length):
            mask = (1 << i) | (1 << j)
            weights = w_plus * weights + w_minus * weights[supports ^ mask]
    terms = tuple((float(weights[s]), s) for s in range(2**length) if weights[s] > 0.0)
    return KrausChannel(length, terms)
