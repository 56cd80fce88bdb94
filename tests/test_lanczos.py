"""Lanczos recursion: faithfulness, termination, and seed validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dekrylov.errors import ArgumentError
from dekrylov.lanczos import run_lanczos


def random_problem(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim))
    matrix = (raw + raw.T) / 2
    v0 = rng.standard_normal(dim)
    return matrix, v0 / np.linalg.norm(v0)


@given(st.integers(2, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=50)
def test_lanczos_basis_is_orthonormal_and_faithful(dim, seed):
    """Q^T H Q reproduces the tridiagonal built from (a, b)."""
    matrix, v0 = random_problem(dim, seed)
    result = run_lanczos(lambda v: matrix @ v, v0)
    q = np.array(result.basis).T
    steps = q.shape[1]
    assert_allclose(q.T @ q, np.eye(steps), atol=1e-10)
    projected = q.T @ matrix @ q
    tri = np.diag(result.a)
    if len(result.b):
        tri += np.diag(result.b, 1) + np.diag(result.b, -1)
    assert_allclose(projected, tri, atol=1e-9)
    assert np.all(np.asarray(result.b) > 0)
    assert_allclose(result.basis[0], v0, atol=0)


@given(st.integers(2, 7), st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_full_run_reconstructs_the_operator(dim, seed):
    matrix, v0 = random_problem(dim, seed)
    result = run_lanczos(lambda v: matrix @ v, v0)
    if len(result.a) < dim:  # early invariant subspace; faithfulness covers it
        assert result.terminated
        return
    q = np.array(result.basis).T
    tri = np.diag(result.a) + np.diag(result.b, 1) + np.diag(result.b, -1)
    assert_allclose(q @ tri @ q.T, matrix, atol=1e-8)


def test_identity_terminates_after_one_step():
    result = run_lanczos(lambda v: v, np.full(4, 0.5))
    assert result.terminated
    assert_allclose(result.a, [1.0])
    assert len(result.b) == 0
    assert len(result.basis) == 1


def test_krylov_dimension_counts_distinct_diagonal_values():
    """A diagonal operator explores one direction per distinct eigenvalue."""
    diag = np.array([0.0, 0.0, 1.0, 1.0, 2.0])
    result = run_lanczos(lambda v: diag * v, np.full(5, 1 / np.sqrt(5.0)))
    assert result.terminated
    assert len(result.a) == 3


def test_seed_aligned_with_eigenvector_terminates_immediately():
    diag = np.array([1.0, 2.0])
    result = run_lanczos(lambda v: diag * v, np.array([1.0, 0.0]))
    assert result.terminated
    assert_allclose(result.a, [1.0])


def test_seed_validation():
    """A non-unit seed, and a matvec of another dimension than the seed."""
    with pytest.raises(ArgumentError):
        run_lanczos(lambda v: 0.0 * v, np.full(4, 0.6))
    with pytest.raises(ArgumentError):
        run_lanczos(lambda v: np.zeros(4), np.full(3, 1 / np.sqrt(3.0)))
