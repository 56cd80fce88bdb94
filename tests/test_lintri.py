"""Tridiagonal operators, their eigenvectors and the propagation kernel."""

import functools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dekrylov import evolve, lintri, wigner
from dekrylov.errors import ArgumentError
from dekrylov.lanczos import run_lanczos
from dekrylov.lintri import (
    ORTHOGONALITY_TOL,
    KrylovState,
    TridiagonalOperator,
    _ROW_BLOCK,
    _twisted_vectors,
    eig_tridiag,
    expm_from_eig,
)
from dekrylov.models import ModelKind, ModelSpec, analytic_lanczos
from dekrylov.wigner import _sy_operator, psi_ir_exact_profile
import exact_reference
from exact_spectrum import MIN_RELATIVE_GAP, dense, eigvalsh_spectrum, relative_gap, with_spectrum


def tridiagonals(max_dim=10):
    """Random well-scaled symmetric tridiagonal operators with eigvalsh spectra.

    Draws whose relative eigenvalue gap is below MIN_RELATIVE_GAP are
    discarded: eig_tridiag refuses clustered spectra, which
    test_clustered_spectra_are_refused pins.
    """

    def build(dim):
        return st.tuples(
            st.lists(st.floats(-4.0, 4.0), min_size=dim, max_size=dim),
            st.lists(st.floats(0.05, 4.0), min_size=dim - 1, max_size=dim - 1),
        )

    return (
        st.integers(2, max_dim)
        .flatmap(build)
        .filter(lambda pair: relative_gap(eigvalsh_spectrum(*pair)) >= MIN_RELATIVE_GAP)
        .map(lambda pair: with_spectrum(*pair))
    )


# ---------------------------------------------------------------- containers


def test_tridiagonal_operator_validates_shapes():
    with pytest.raises(ArgumentError):
        TridiagonalOperator(diag=np.zeros(3), offdiag=np.ones(3), spectrum=np.arange(3.0))
    with pytest.raises(ArgumentError):
        TridiagonalOperator(
            diag=np.zeros(3), offdiag=np.array([1.0, 0.0]), spectrum=np.arange(3.0)
        )
    with pytest.raises(TypeError, match="spectrum"):
        TridiagonalOperator(diag=np.zeros(2), offdiag=np.ones(1))
    # dim 1 is legal: it represents a Krylov space that terminated immediately
    assert TridiagonalOperator(diag=np.zeros(1), offdiag=np.zeros(0), spectrum=[0.0]).dim == 1


@pytest.mark.parametrize(
    "spectrum, message",
    [
        ([-1.0, 1.0, 3.0], "length"),
        ([-1.0, np.nan], "finite"),
        ([1.0, -1.0], "ascending"),
        ([-1.0, -1.0], "ascending"),
        ([-1.0 + 1e-9, 1.0 + 1e-9], r"Sum lambda = "),  # tr T = 0
        ([-1.0 - 1e-9, 1.0 + 1e-9], r"Sum lambda\^2"),  # tr T^2 = 2
    ],
)
def test_tridiagonal_operator_rejects_a_wrong_spectrum(spectrum, message):
    """T = [[0, 1], [1, 0]] has the spectrum (-1, 1)."""
    op = TridiagonalOperator(diag=np.zeros(2), offdiag=np.ones(1), spectrum=[-1.0, 1.0])
    assert_allclose(op.spectrum, [-1.0, 1.0], rtol=0, atol=0)
    with pytest.raises(ArgumentError, match=message):
        TridiagonalOperator(diag=np.zeros(2), offdiag=np.ones(1), spectrum=spectrum)


def test_closed_form_spectra_match_stev():
    """Every closed-form spectrum lies within 1e-13 max|lambda| of LAPACK's
    (measured at most 9.1e-15 max|lambda|, 1.9e-11 at NN L = 2044)."""
    ops = [
        (f"{kind.value} L={length}", analytic_lanczos(ModelSpec(kind, length)).tridiag)
        for kind in (ModelKind.NN, ModelKind.IR)
        for length in (2, 4, 10, 100, 500, 1200, 2000, 2044)
    ]
    ops += [(f"S_y 2s={two_s}", _sy_operator(two_s)) for two_s in (0, 1, 2, 7, 100, 301, 600)]
    for name, op in ops:
        ref = scipy.linalg.eigh_tridiagonal(
            op.diag, op.offdiag, eigvals_only=True, lapack_driver="stev"
        )
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(op.spectrum - ref)) <= 1e-13 * scale, name


def test_matvec_agrees_with_the_dense_matrix():
    """A vector, and each row of an (m, dim) array, is multiplied by T."""
    op = with_spectrum(np.array([1.0, -2.0, 0.5]), np.array([0.3, 1.1]))
    mat = dense(op.diag, op.offdiag)
    v = np.array([0.2, -1.0, 0.7])
    assert_allclose(op.matvec(v), mat @ v, atol=1e-15)
    rows = np.array([v, [1.0, 0.0, 0.0], [0.5, 0.5, -2.0]])
    assert_allclose(op.matvec(rows), rows @ mat, atol=1e-15)
    with pytest.raises(ArgumentError, match="dim 3"):
        op.matvec(np.ones((3, 2)))


def test_krylov_state_requires_unit_norm():
    with pytest.raises(ArgumentError):
        KrylovState(taus=0.0, psi=np.array([1.0, 1.0]))
    state = KrylovState(taus=0.0, psi=np.array([1.0, 0.0]))
    assert state.taus == 0.0


def test_krylov_batch_rejects_bad_rows():
    """One check per batch still rejects a single bad row: a non-unit
    row, a negative tau, a non-finite entry, or a shape mismatch."""
    good = np.array([[1.0, 0.0], [0.6, 0.8]])
    batch = KrylovState(taus=[0.0, 1.0], psi=good)
    assert batch.psi.shape[-1] == 2 and batch.taus.tolist() == [0.0, 1.0]
    for taus, psi, match in (
        ([0.0, 1.0], [[1.0, 0.0], [0.6, 0.8 + 1e-9]], "unit-normalized"),
        ([0.0, -1e-300], good, "nonnegative"),
        ([0.0, 1.0], [[1.0, 0.0], [np.nan, 0.8]], "finite"),
        ([0.0, 1.0], [[1.0, 0.0], [np.inf, 0.8]], "finite"),
        ([0.0, 1.0, 2.0], good, "shape"),
        ([[0.0, 1.0]], good, "shape"),
        (0.0, good, "shape"),
        ([0.0, 1.0], np.zeros((2, 0)), "shape"),
    ):
        with pytest.raises(ArgumentError, match=match):
            KrylovState(taus=taus, psi=np.array(psi))
    with pytest.raises(ArgumentError, match="nonnegative"):
        expm_from_eig(analytic_lanczos(ModelSpec(ModelKind.IR, 8)).tridiag, [0.5, -1e-3])


def test_expm_batch_is_a_read_only_view_of_the_filled_array(monkeypatch):
    """expm_from_eig fills one (m, dim) array; the batch's psi is that
    array, read-only, not a copy."""
    filled = []
    original = lintri.KrylovState

    def recording_state(taus, psi):
        filled.append(psi)
        return original(taus=taus, psi=psi)

    op = analytic_lanczos(ModelSpec(ModelKind.IR, 40)).tridiag
    taus = np.linspace(0.0, 3.0, 71)
    monkeypatch.setattr(lintri, "KrylovState", recording_state)
    batch = expm_from_eig(op, taus)
    monkeypatch.undo()
    assert batch.psi.shape == (taus.size, op.dim) and batch.taus.shape == (taus.size,)
    assert not batch.psi.flags.writeable
    (buf,) = filled
    assert buf.shape == batch.psi.shape and np.shares_memory(buf, batch.psi)
    with pytest.raises(ValueError):
        batch.psi[0, 0] = 0.0


def test_eig_tridiag_returns_a_read_only_view():
    """The vector matrix is eig_tridiag's own buffer, held read-only
    through a view, not a copy."""
    produced = eig_tridiag(analytic_lanczos(ModelSpec(ModelKind.IR, 40)).tridiag)
    assert not produced.flags.writeable and produced.base is not None
    with pytest.raises(ValueError):
        produced[0, 0] = 2.0


def test_expm_rows_do_not_depend_on_the_other_taus():
    """Every row of the 401-tau grid at IR L = 100 is bitwise the row of a
    one-tau call."""
    op = analytic_lanczos(ModelSpec(ModelKind.IR, 100)).tridiag
    taus = np.linspace(0.0, 2.0, 401)
    batch = expm_from_eig(op, taus)
    for tau, psi in zip(taus, batch.psi):
        assert np.array_equal(expm_from_eig(op, [tau]).psi[0], psi), tau


def test_array_dataclasses_compare_by_identity():
    """Dataclasses holding arrays neither raise on == nor refuse hash()."""
    spec = analytic_lanczos(ModelSpec(ModelKind.NN, 4))
    twin = analytic_lanczos(ModelSpec(ModelKind.NN, 4))
    state = expm_from_eig(spec.tridiag, [0.0, 1.0])
    mat = dense(spec.tridiag.diag, spec.tridiag.offdiag)
    for obj, other in (
        (spec.tridiag, twin.tridiag),
        (state, expm_from_eig(spec.tridiag, [0.0, 1.0])),
        (spec, twin),
        (run_lanczos(mat.__matmul__, np.eye(4)[0]), run_lanczos(mat.__matmul__, np.eye(4)[0])),
    ):
        assert obj == obj
        assert not obj == other
        assert obj != other
        assert len({obj, other}) == 2


# --------------------------------------------------------------- eigensolver


def test_two_site_hopping_spectrum():
    """T = [[0,1],[1,0]] has eigenvalues -1, +1 with vectors (1, -+1)/sqrt 2."""
    op = with_spectrum(np.zeros(2), np.ones(1))
    assert_allclose(op.spectrum, [-1.0, 1.0], atol=1e-15)
    vectors = eig_tridiag(op)
    assert_allclose(np.abs(vectors), np.full((2, 2), np.sqrt(0.5)), atol=1e-15)
    assert_allclose(vectors.T @ vectors, np.eye(2), atol=1e-14)


def test_binomial_chain_spectrum_is_integer_ladder():
    """offdiag sqrt(n(L-n)) at L=4 gives the ladder -3,-1,1,3."""
    op = with_spectrum(np.zeros(4), np.sqrt([3.0, 4.0, 3.0]))
    assert_allclose(op.spectrum, [-3.0, -1.0, 1.0, 3.0], atol=1e-13)
    _assert_orthonormal_eigenpairs(op, eig_tridiag(op))


@given(tridiagonals())
@settings(max_examples=60)
def test_eig_matches_scipy_and_reconstructs(op):
    vectors = eig_tridiag(op)
    ref = scipy.linalg.eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True)
    scale = 1.0 + np.max(np.abs(ref))
    assert_allclose(op.spectrum, ref, atol=1e-10 * scale)
    _assert_orthonormal_eigenpairs(op, vectors)


def test_eigenvectors_keep_exponentially_small_ground_overlap():
    """At IR L = 500 the seed overlaps the ground state at ~1e-76; the
    eigensolver must keep that component for propagation to match the
    exact profile."""
    spec = analytic_lanczos(ModelSpec(ModelKind.IR, 500))
    assert 1e-80 < abs(eig_tridiag(spec.tridiag)[0, 0]) < 1e-70
    (psi,) = expm_from_eig(spec.tridiag, [2.0]).psi
    assert_allclose(psi, psi_ir_exact_profile(500, 2.0), rtol=0, atol=1e-10)


def _assert_orthonormal_eigenpairs(op, vectors):
    assert_allclose(vectors.T @ vectors, np.eye(op.dim), atol=1e-10)
    scale = 1.0 + np.max(np.abs(op.spectrum))
    recon = vectors @ (op.spectrum[:, None] * vectors.T)
    assert_allclose(recon, dense(op.diag, op.offdiag), atol=1e-9 * scale)


def wilkinson_plus(dim):
    half = dim // 2
    return np.abs(np.arange(-half, half + 1.0)), np.ones(dim - 1)


@pytest.mark.parametrize(
    "diag, offdiag",
    [
        # W21+: its top pair agrees to ~1e-14, neighbour overlap ~8e-3
        wilkinson_plus(21),
        # from the boundary grid diag in {-4, -1, 0, 1, 4}, b in {0.05, 0.5,
        # 1, 4}: relative gap 2.9e-9, neighbour overlap ~2e-8
        ([4.0, -4.0, 0.0, 1.0, -4.0, 4.0], [0.05, 0.05, 0.5, 0.05, 0.05]),
    ],
    ids=["W21+", "boundary-dim6"],
)
def test_clustered_spectra_are_refused(diag, offdiag):
    """Twisted-recursion vectors of nearly equal eigenvalues are not
    orthogonal; eig_tridiag raises instead of returning them."""
    op = with_spectrum(diag, offdiag)
    assert relative_gap(op.spectrum) < MIN_RELATIVE_GAP
    with pytest.raises(np.linalg.LinAlgError, match="clustered"):
        eig_tridiag(op)


def test_wilkinson_101_rounded_spectrum_is_not_a_spectrum():
    """W101+'s top pairs agree beyond binary64: the rounded eigenvalues
    are not strictly ascending, so the operator cannot be built."""
    diag, offdiag = wilkinson_plus(101)
    with pytest.raises(ArgumentError, match="strictly ascending"):
        with_spectrum(diag, offdiag)


@pytest.mark.parametrize(
    "diag, offdiag",
    [
        # hypothesis examples: without a floor, b^2 / pivot overflows ...
        ([4.33409798e-118, 3.16015625, 1.11253693e-308], [0.05078125, 1.5]),
        # ... and with a floor for exact zeros only, a subnormal pivot does
        ([0.0, 0.0, 5e-324], [0.5, 0.25]),
        # the middle eigenvalue, ~1e-17, puts the first pivot under the floor
        ([0.0] * 5, [1.0, 1.5, 1.5, 1.0]),
        # a subnormal norm is scaled up by 2^1073 without forming 2^1073
        ([1e-310, -1e-310, 0.0], [3e-311, 2e-310]),
    ],
)
def test_tiny_and_zero_pivots_stay_finite_and_warning_free(diag, offdiag):
    op = with_spectrum(np.array(diag), np.array(offdiag))
    _assert_orthonormal_eigenpairs(op, eig_tridiag(op))


def _twisted_vectors_by_rows(diag, offdiag, shifts):
    """Row-by-row reference for lintri._twisted_vectors: the same pivots,
    then each back-substitution ratio masked and multiplied in one row at
    a time."""
    dim = diag.size
    pivmin = np.finfo(float).eps
    off_sq = offdiag**2

    def floored(row):
        row[np.abs(row) < pivmin] = -pivmin
        return row

    top = np.empty((dim, dim))
    bottom = np.empty((dim, dim))
    floored(np.subtract(diag[0], shifts, out=top[0]))
    for n in range(1, dim):
        row = np.subtract(diag[n], shifts, out=top[n])
        floored(np.subtract(row, off_sq[n - 1] / top[n - 1], out=row))
    gamma = top[dim - 1].copy()
    twist = np.full(dim, dim - 1)
    floored(np.subtract(diag[dim - 1], shifts, out=bottom[dim - 1]))
    for n in range(dim - 2, -1, -1):
        coupling = off_sq[n] / bottom[n + 1]
        row = np.subtract(diag[n], shifts, out=bottom[n])
        floored(np.subtract(row, coupling, out=row))
        cand = np.subtract(top[n], coupling, out=coupling)
        better = np.abs(cand) < np.abs(gamma)
        gamma[better] = cand[better]
        twist[better] = n
    top[dim - 1] = 1.0
    for n in range(dim - 2, -1, -1):
        row = np.divide(-offdiag[n], top[n], out=top[n])
        row[twist <= n] = 1.0
        row *= top[n + 1]
    bottom[0] = 1.0
    for n in range(1, dim):
        row = np.divide(-offdiag[n - 1], bottom[n], out=bottom[n])
        row[twist >= n] = 1.0
        row *= bottom[n - 1]
    top *= bottom
    return top, np.einsum("ij,ij->j", top, top)


def _twisted_cases():
    cases = [
        (f"{kind.value} L={length}", analytic_lanczos(ModelSpec(kind, length)).tridiag)
        for kind in (ModelKind.NN, ModelKind.IR)
        for length in (2, 20, 100, 600)
    ]
    # Floored pivots inside a block of the pivot passes: IR L = 600 at
    # forward row 149 and backward row 151, the zero diagonal of dim 5 at
    # the first two rows of each pass.  NN L = 2 _ROW_BLOCK + 1 floors, in
    # each pass and counting from the row the pass starts at, at its row
    # _ROW_BLOCK - 1, the last of a block, and its row 2 _ROW_BLOCK, the
    # first of one.
    length = 2 * _ROW_BLOCK + 1
    cases.append((f"nn L={length}", analytic_lanczos(ModelSpec(ModelKind.NN, length)).tridiag))
    cases += [(f"S_y 2s={two_s}", _sy_operator(two_s)) for two_s in (1, 7, 301)]
    cases.append(("W21+", with_spectrum(*wilkinson_plus(21))))
    for diag, offdiag in (
        ([4.33409798e-118, 3.16015625, 1.11253693e-308], [0.05078125, 1.5]),
        ([0.0, 0.0, 5e-324], [0.5, 0.25]),
        ([0.0] * 5, [1.0, 1.5, 1.5, 1.0]),
        ([1e-310, -1e-310, 0.0], [3e-311, 2e-310]),
    ):
        cases.append((f"pivots {diag}", with_spectrum(np.array(diag), np.array(offdiag))))
    return cases


def test_twisted_vectors_equal_the_row_by_row_recursion():
    """The masked-ratio back-substitution changes no bit of any vector or
    norm, at closed-form and at eigvalsh eigenvalues alike."""
    for name, op in _twisted_cases():
        exponent = -np.frexp(np.max(np.abs(op.spectrum)))[1]
        args = [np.ldexp(x, exponent) for x in (op.diag, op.offdiag, op.spectrum)]
        expected = _twisted_vectors_by_rows(*args)
        found = _twisted_vectors(*args)
        for want, got in zip(expected, found):
            assert np.array_equal(want, got), name


def test_non_finite_spectrum_fails_at_construction():
    """Finite entries whose eigenvalue overflows must not reach propagation:
    the overflowing spectrum cannot be attached to the operator."""
    with pytest.raises(ArgumentError, match="finite"):
        with_spectrum(np.array([1e308, 1e308]), np.array([1e308]))


@pytest.mark.parametrize(
    "kind, length", [(ModelKind.IR, 1200), (ModelKind.IR, 2000), (ModelKind.NN, 1000)]
)
def test_production_operators_skip_the_cubic_eigensolver(kind, length):
    """No O(dim^3) eigensolver is left to fall back on: one twisted pass at
    the closed-form spectrum must give orthonormal vectors by itself."""
    op = analytic_lanczos(ModelSpec(kind, length)).tridiag
    vectors = eig_tridiag(op)
    assert_allclose(vectors.T @ vectors, np.eye(op.dim), atol=1e-10)


@pytest.mark.parametrize("length", [2000, 2044])
def test_ir_neighbour_overlaps_keep_headroom_up_to_the_last_normal_length(length):
    """The largest neighbour overlap (measured 1.6e-11 at IR L = 2000 and
    1.5e-11 at 2044) stays below half the guard, so the guard does not sit
    at the edge of the kernel's range."""
    vectors = eig_tridiag(analytic_lanczos(ModelSpec(ModelKind.IR, length)).tridiag)
    overlaps = np.einsum("ij,ij->j", vectors[:, :-1], vectors[:, 1:])
    assert np.max(np.abs(overlaps)) < ORTHOGONALITY_TOL / 2


def test_ir_seed_overlaps_match_closed_form_at_length_2000():
    """The IR closed form holds down to the ground-state overlap of ~1e-301."""
    length = 2000
    seed = eig_tridiag(analytic_lanczos(ModelSpec(ModelKind.IR, length)).tridiag)[0]
    expected = exact_reference.log_seed_overlaps(ModelKind.IR, length)
    assert 1e-303 < abs(seed[0]) < 1e-299
    assert np.max(np.abs(np.log(np.abs(seed)) - expected)) <= 1e-8


@pytest.mark.parametrize("kind", [ModelKind.IR, ModelKind.NN])
def test_seed_overlaps_match_closed_form_at_last_normal_length(kind):
    """L = 2044 is the last even length whose smallest overlap,
    2^{-(L-1)/2}, is a normal float, so expm_from_eig still accepts it."""
    length = 2044
    seed = eig_tridiag(analytic_lanczos(ModelSpec(kind, length)).tridiag)[0]
    expected = exact_reference.log_seed_overlaps(kind, length)
    assert np.min(np.abs(seed)) >= np.finfo(float).tiny
    assert np.max(np.abs(np.log(np.abs(seed)) - expected)) <= 1e-8


@pytest.mark.parametrize("kind", [ModelKind.IR, ModelKind.NN])
def test_underflowed_seed_overlap_is_a_linalg_error(kind):
    """Past L ~ 2045 the smallest seed overlap 2^{-(L-1)/2} underflows;
    the kernel stops instead of propagating without that eigenstate."""
    op = analytic_lanczos(ModelSpec(kind, 2200)).tridiag
    with pytest.raises(np.linalg.LinAlgError, match="underflows binary64"):
        expm_from_eig(op, [2.0, 10.0])


def test_orthogonality_guard_refuses_ir_length_2400():
    """At IR L = 2400 the top pair's relative gap 4/L^2 costs the twisted
    vectors their orthogonality (neighbour overlap 5.1e-11)."""
    op = analytic_lanczos(ModelSpec(ModelKind.IR, 2400)).tridiag
    with pytest.raises(np.linalg.LinAlgError, match="clustered eigenvalues"):
        expm_from_eig(op, [1.0])

# --------------------------------------------------------------- propagators


def test_two_site_propagator_closed_form():
    """exp(-tau X) e0 normalizes to (cosh tau, -sinh tau)/sqrt(cosh 2 tau)."""
    op = with_spectrum(np.zeros(2), np.ones(1))
    for tau in (0.0, 0.3, 1.0, 4.0):
        state = expm_from_eig(op, tau)
        expected = np.array([np.cosh(tau), -np.sinh(tau)]) / np.sqrt(np.cosh(2 * tau))
        assert_allclose(state.psi, expected, atol=1e-14)


@given(tridiagonals(max_dim=8), st.floats(0.0, 3.0))
@settings(max_examples=60)
def test_expm_action_matches_dense_expm(op, tau):
    """The action of exp(-tau T) on e_0, normalized, for a scalar tau."""
    state = expm_from_eig(op, tau)
    full = scipy.linalg.expm(-tau * dense(op.diag, op.offdiag))[:, 0]
    assert_allclose(state.psi, full / np.linalg.norm(full), atol=1e-11)
    assert_allclose(np.linalg.norm(state.psi), 1.0, atol=1e-12)


@given(tridiagonals(max_dim=8), st.floats(0.0, 3.0), st.floats(-5.0, 5.0))
@settings(max_examples=60)
def test_normalized_propagation_is_shift_invariant(op, tau, shift):
    shifted = with_spectrum(op.diag + shift, op.offdiag)
    assume(relative_gap(shifted.spectrum) >= MIN_RELATIVE_GAP)
    assert_allclose(expm_from_eig(op, tau).psi, expm_from_eig(shifted, tau).psi, atol=1e-12)


@given(tridiagonals(max_dim=8), st.floats(0.0, 3.0))
@settings(max_examples=50)
def test_eig_route_equals_direct_route(op, tau):
    """A scalar tau gives a single state, bitwise the row of a one-tau batch."""
    single = expm_from_eig(op, tau)
    assert single.psi.shape == (op.dim,) and single.taus.shape == ()
    assert np.array_equal(expm_from_eig(op, [tau]).psi[0], single.psi)


@given(
    tridiagonals(max_dim=8),
    st.lists(st.floats(0.0, 3.0), min_size=1, max_size=80),
)
@settings(max_examples=40, deadline=None)
def test_batched_kernel_matches_per_tau_expm(op, taus):
    batch = expm_from_eig(op, taus)
    assert batch.taus.tolist() == taus
    for tau, psi in zip(batch.taus, batch.psi):
        full = scipy.linalg.expm(-tau * dense(op.diag, op.offdiag))[:, 0]
        assert_allclose(psi, full / np.linalg.norm(full), atol=1e-11)


@given(tridiagonals(max_dim=8), st.floats(1.0, 10.0))
@settings(max_examples=60)
def test_batched_kernel_relaxes_onto_ground_state(op, margin):
    """Once e^{-tau (lambda_1 - lambda_0)} < 1e-16, relative to the seed's
    ground-state overlap, psi is the ground-state eigenvector up to sign."""
    values, vectors = np.linalg.eigh(dense(op.diag, op.offdiag))
    gap = values[1] - values[0]
    ground = vectors[:, 0]
    tau = (margin + 16 * np.log(10) - np.log(abs(ground[0]))) / gap
    assert np.exp(-tau * gap) < 1e-16
    (psi,) = expm_from_eig(op, [tau]).psi
    sign = np.sign(psi @ ground)
    assert_allclose(psi, sign * ground, atol=1e-9 * (1 + 1 / gap))


@given(tridiagonals(max_dim=6), st.floats(0.1, 2.0))
@settings(max_examples=40)
def test_propagation_satisfies_imaginary_time_ode(op, tau):
    """The normalized state obeys d psi / d tau = -(T - <psi|T|psi>) psi:
    a central difference of the propagated states matches the right side."""
    h = 1e-4
    before, psi, after = (expm_from_eig(op, t).psi for t in (tau - h, tau, tau + h))
    deriv = (after - before) / (2 * h)
    t_psi = op.matvec(psi)
    rhs = -(t_psi - (psi @ t_psi) * psi)
    norm = 1.0 + np.max(np.abs(op.spectrum))
    assert np.linalg.norm(deriv - rhs) <= 1e-4 * norm


# ------------------------------------------------------ shifted exponentials


def plain_exp_from_max(logs, dying):
    """exp_from_max as an open-coded shift and np.exp; appends to ``dying``
    the number of results below the smallest normal float."""
    shifts = logs.max(axis=-1)
    logs -= shifts[..., None]
    dying.append(np.count_nonzero(logs < lintri.LOG_TINY))
    np.exp(logs, out=logs)
    return shifts


def test_exp_from_max_zeroes_only_what_exp_makes_subnormal():
    """Entries whose exponential is subnormal or zero (-inf included) come
    out as exact zeros, every other entry as under a plain shift and
    np.exp: the row maximum gives exactly 1, a row holding NaN or only
    -inf gives NaN, and the shifts are the row maxima."""
    tiny = np.finfo(float).tiny
    below = np.nextafter(lintri.LOG_TINY, -np.inf)
    rows = np.array(
        [
            [0.0, -1.0, -700.0, -720.0, -800.0, -np.inf, 3.0],
            [1.0, np.nan, -2.0, 0.0, -710.0, -1e300, 5.0],
            [-np.inf] * 7,
            [lintri.LOG_TINY, 0.0, below, -740.0, -745.2, -1e300, -np.inf],
        ]
    )
    expected, actual = rows.copy(), rows.copy()
    with np.errstate(invalid="ignore"):  # -inf - (-inf) in the third row
        expected_shifts = plain_exp_from_max(expected, [])
        shifts = lintri.exp_from_max(actual)
    np.testing.assert_array_equal(shifts, [3.0, np.nan, -np.inf, 0.0])
    np.testing.assert_array_equal(shifts, expected_shifts)
    subnormal = expected < tiny
    assert np.count_nonzero(subnormal & (expected > 0.0)) == 3  # -723, below, -740
    assert expected[3, 0] >= tiny  # LOG_TINY itself still exponentiates to a normal
    np.testing.assert_array_equal(actual, np.where(subnormal, 0.0, expected))
    assert actual[0, 6] == actual[3, 1] == 1.0
    vector = np.array([-3.0, -1000.0, 2.0])
    assert lintri.exp_from_max(vector) == 2.0
    assert vector.tolist() == [math.exp(-5.0), 0.0, 1.0]


IR_GRID = np.linspace(0.0, 2.0, 401)  # the CLI's default IR tau grid
# The three kernels that exponentiate shifted logs, with inputs where a
# share of the shifted logs lies below LOG_TINY.
SHIFTED_EXP_KERNELS = {
    "ir_magnetization_sums": (
        evolve,
        lambda: [
            evolve.ir_magnetization_sums(
                ModelSpec(ModelKind.IR, length), [*IR_GRID, 1e-300, 1e5, 1e300]
            )
            for length in (1200, 2000, 10_000)
        ],
    ),
    "psi_ir_exact_profile": (
        wigner,
        lambda: [
            wigner.psi_ir_exact_profile(length, tau)
            for length in (100, 1000, 4096)
            for tau in (0.01, 0.5, 2.0, 10.0, 100.0)
        ],
    ),
    "expm_from_eig": (
        lintri,
        lambda: [
            expm_from_eig(analytic_lanczos(ModelSpec(ModelKind.IR, length)).tridiag, IR_GRID).psi
            for length in (500, 2000)
        ],
    ),
}


@pytest.mark.parametrize("kernel", sorted(SHIFTED_EXP_KERNELS))
def test_kernels_keep_their_bits_without_subnormal_exponentials(kernel, monkeypatch):
    """Each kernel gives the same bits through exp_from_max as through a
    plain shift and np.exp, although some of its shifted logs die: next to
    a 1, no sum feels the subnormal values that exp_from_max zeroes."""
    module, run = SHIFTED_EXP_KERNELS[kernel]
    actual = run()
    dying = []
    monkeypatch.setattr(module, "exp_from_max", functools.partial(plain_exp_from_max, dying=dying))
    expected = run()
    assert sum(dying) > 0
    assert [np.asarray(x).tobytes() for x in actual] == [np.asarray(x).tobytes() for x in expected]
