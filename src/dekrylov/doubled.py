"""Choi vectorization and Kraus channels in the doubled Hilbert space.

A density matrix rho on L qubits is reshaped column-wise into a vector
|rho> living on two copies of the chain:

    rho = [rho_11 rho_12; rho_21 rho_22]  ->  (rho_11, rho_21, rho_12, rho_22)

so the doubled basis index is the lower-layer (column) bitstring
concatenated with the upper-layer (row) bitstring, little-endian in the
site label:

    index = upper + 2^L * lower.

Under this map a channel E[rho] = Sum_m B_m rho B_m^dag acts as
Sum_m (B_m^* (x) B_m) |rho>.  For Pauli-string Kraus operators the
conjugation is a pure sign rule (Y -> -Y), so the whole layer stays in
real arithmetic: X and Y flip the addressed bit in both layers, while Z
and Y each contribute a sign (-1)^(upper bit + lower bit) at their site.
The dense complex oracle in the test-suite validates this shortcut.

The paper's mapping is the chain vectorize -> apply_channel ->
restrict_to_parity_sector: |+><+|^{(x)L} becomes the uniform
positive-parity seed, and the composed dephasing channel becomes
prefactor * exp(-tau h) on it.  Criterion 1 checks that chain for L <= 6.

Full-space operations are capped at L <= 7 (4^7 = 16384 amplitudes); they
exist to validate the parity-reduced code paths, not for production scans.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, DomainError

PAULI_LETTERS = "IXYZ"

FULL_SPACE_MAX_LENGTH = 7
# Relative norm under which restrict_to_parity_sector finds no
# positive-parity component; rounding leaves at most 1.1e-16 of a
# parity-odd state (measured for L <= 7).
EMPTY_SECTOR_RTOL = 1e-12


class Sector(enum.Enum):
    """Basis sector a DoubledState lives in."""

    FULL = "full"  # all 4^L doubled basis states
    PARITY_REDUCED = "parity-reduced"  # positive-parity block, 2^L states


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-site Paulis, e.g. ``"IZZI"``."""

    letters: str

    def __post_init__(self):
        if not self.letters:
            raise ArgumentError("PauliString must have at least one site")
        bad = set(self.letters) - set(PAULI_LETTERS)
        if bad:
            raise ArgumentError(f"invalid Pauli letters: {sorted(bad)}")

    @property
    def length(self):
        return len(self.letters)


@dataclass(frozen=True)
class KrausChannel:
    """A Pauli channel: terms (w_m, P_m) with Kraus operators sqrt(w_m) P_m."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((float(w), op) for w, op in self.terms)
        if not terms:
            raise ArgumentError("channel needs at least one Kraus term")
        length = terms[0][1].length
        for w, op in terms:
            if op.length != length:
                raise ArgumentError("all Kraus strings must share one length")
            if not w > 0:
                raise ArgumentError("Kraus weights must be strictly positive")
        total = math.fsum(w for w, _ in terms)
        if abs(total - 1.0) > 1e-12:
            raise ArgumentError(f"Kraus weights sum to {total!r}, expected 1")
        object.__setattr__(self, "terms", terms)

    @property
    def length(self):
        return self.terms[0][1].length


@dataclass(eq=False)
class DoubledState:
    """Amplitude vector over the doubled basis (full or parity-reduced)."""

    length: int
    sector: Sector
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=float)
        expected = 4**self.length if self.sector is Sector.FULL else 2**self.length
        if amps.shape != (expected,):
            raise ArgumentError(
                f"{self.sector.value} sector at L={self.length} needs "
                f"{expected} amplitudes, got {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ArgumentError("amplitudes must be finite")
        if not np.linalg.norm(amps) > 0:
            raise ArgumentError("state must have positive norm")
        self.amplitudes = amps


def _check_full_length(length):
    if length > FULL_SPACE_MAX_LENGTH:
        raise ArgumentError(
            f"full doubled-space path is capped at L <= {FULL_SPACE_MAX_LENGTH}"
        )


def vectorize(rho):
    """Column-reshape a Hermitian density matrix into a DoubledState.

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
    _check_full_length(length)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ArgumentError("rho must be Hermitian within 1e-12")
    if np.max(np.abs(np.imag(rho))) > 1e-12:
        raise ArgumentError("rho must be real within 1e-12 in this basis")
    amps = np.real(rho).reshape(-1, order="F").copy()
    return DoubledState(length=length, sector=Sector.FULL, amplitudes=amps)


def _term_masks(op):
    """Flip mask and sign mask (single layer) for one Pauli string."""
    flip = 0
    sign = 0
    for site, letter in enumerate(op.letters):
        if letter in "XY":
            flip |= 1 << site
        if letter in "ZY":
            sign |= 1 << site
    return flip, sign


def apply_channel(channel, state):
    """Apply Sum_m (B_m^* (x) B_m) to a full-sector doubled state."""
    if state.sector is not Sector.FULL:
        raise ArgumentError("apply_channel needs a full-sector state")
    if channel.length != state.length:
        raise ArgumentError(
            f"channel length {channel.length} != state length {state.length}"
        )
    length = state.length
    _check_full_length(length)
    vec = state.amplitudes
    indices = np.arange(4**length)
    out = np.zeros_like(vec)
    for weight, op in channel.terms:
        flip, sign = _term_masks(op)
        both_flip = flip | (flip << length)
        both_sign = sign | (sign << length)
        signs = 1.0 - 2.0 * (np.bitwise_count(indices & both_sign) & 1)
        # out[idx ^ F] += w * sign(idx) * vec[idx], gathered form
        out += (weight * signs * vec)[indices ^ both_flip]
    return DoubledState(length=length, sector=Sector.FULL, amplitudes=out)


def channel_matrix(channel):
    """Dense 4^L x 4^L superoperator matrix of a Pauli channel."""
    length = channel.length
    _check_full_length(length)
    size = 4**length
    indices = np.arange(size)
    mat = np.zeros((size, size))
    for weight, op in channel.terms:
        flip, sign = _term_masks(op)
        both_flip = flip | (flip << length)
        both_sign = sign | (sign << length)
        signs = 1.0 - 2.0 * (np.bitwise_count(indices & both_sign) & 1)
        np.add.at(mat, (indices ^ both_flip, indices), weight * signs)
    return mat


def effective_hamiltonian_check(channel, diagonal, prefactor, tau):
    """Max-abs deviation between a channel and prefactor * exp(-tau H).

    H is diagonal on the full doubled space and given by its diagonal, so
    exp(-tau H) is exponentiated elementwise.  Returns
    max |channel_matrix - prefactor * exp(-tau H)|.
    """
    length = channel.length
    if length > 6:
        raise ArgumentError("effective_hamiltonian_check is capped at L <= 6")
    diagonal = np.asarray(diagonal, dtype=float)
    size = 4**length
    if diagonal.shape != (size,):
        raise ArgumentError(f"diagonal shape {diagonal.shape} != ({size},)")
    mat = channel_matrix(channel)
    target = np.diag(np.exp(-tau * diagonal))
    return float(np.max(np.abs(mat - prefactor * target)))


def tau_from_p(p):
    """Imaginary time tau = -ln(1-2p)/2 of a dephasing strength p in [0, 1/2)."""
    if not 0 <= p < 0.5:
        raise DomainError(f"p must lie in [0, 1/2), got {p!r}")
    return -0.5 * math.log1p(-2.0 * p)


def restrict_to_parity_sector(state):
    """Overlaps of a full-sector state with the parity-sector basis.

    The positive-parity basis state labeled by bits r embeds as
    2^{-L/2} Sum_u |upper=u, lower=u xor r>, so component r is
    2^{-L/2} Sum_u amplitudes[u + 2^L (u xor r)].  These basis states are
    orthonormal, so the restriction is a projection and never longer
    than the state.

    Raises:
        DomainError: if the state has no positive-parity component, that
            is, the restriction's norm is at most EMPTY_SECTOR_RTOL times
            the state's (a state odd under a layer-swap parity).
    """
    if state.sector is not Sector.FULL:
        raise ArgumentError("restrict_to_parity_sector needs a full-sector state")
    length = state.length
    dim = 2**length
    upper = np.arange(dim)
    reduced = np.empty(dim)
    for r in range(dim):
        reduced[r] = np.sum(state.amplitudes[upper + dim * (upper ^ r)])
    reduced *= 2.0 ** (-length / 2.0)
    reduced_norm = np.linalg.norm(reduced)
    norm = np.linalg.norm(state.amplitudes)
    if reduced_norm <= EMPTY_SECTOR_RTOL * norm:
        raise DomainError(
            "the positive-parity sector of this state is empty: its restriction "
            f"has norm {reduced_norm:.3g} against a state norm of {norm:.3g}"
        )
    return DoubledState(
        length=length, sector=Sector.PARITY_REDUCED, amplitudes=reduced
    )
