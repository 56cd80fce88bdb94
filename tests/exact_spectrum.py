"""Operators for tests that start from raw tridiagonal entries.

Every TridiagonalOperator carries its exact spectrum, and the package
builds only operators with a closed form.  A test that draws or writes
down its own diag and offdiag takes the spectrum from numpy's dense
``eigvalsh`` here instead, and a test that needs the dense matrix builds
it here too.
"""

import numpy as np

from dekrylov.lintri import TridiagonalOperator

# Smallest eigenvalue gap, relative to max |lambda|, of the operators that
# property tests decompose.  eig_tridiag refuses clustered spectra, and
# draws at the edges of the entry ranges trip its orthogonality guard at
# relative gaps up to ~2e-6; tests/test_lintri.py pins that refusal.
MIN_RELATIVE_GAP = 1e-5


def dense(diag, offdiag):
    """tridiag(offdiag, diag, offdiag) as a dense (dim, dim) array."""
    offdiag = np.asarray(offdiag, dtype=float)
    return np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)


def eigvalsh_spectrum(diag, offdiag):
    """Ascending eigenvalues of tridiag(offdiag, diag, offdiag), dense LAPACK."""
    return np.linalg.eigvalsh(dense(diag, offdiag))


def with_spectrum(diag, offdiag):
    """TridiagonalOperator whose spectrum is the eigvalsh of its entries."""
    return TridiagonalOperator(diag, offdiag, eigvalsh_spectrum(diag, offdiag))


def relative_gap(values):
    """min_k (lambda_{k+1} - lambda_k) / max_k |lambda_k| of an ascending spectrum."""
    return np.min(np.diff(values)) / np.max(np.abs(values))
