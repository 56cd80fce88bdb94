"""Krylov-space analysis of symmetric dephasing channels.

Dephasing a spin chain with ZZ noise is, in the doubled (vectorized)
Hilbert space, imaginary-time evolution under an effective Hamiltonian.
This package builds that mapping explicitly, tridiagonalizes the
effective Hamiltonian over the Krylov space of the maximally mixed
initial condition, and evaluates the two observables that tell a
strong-to-weak symmetry-breaking crossover apart from a genuine
mixed-state transition: the Krylov complexity K(tau) and the Renyi-2
correlator chi(tau).

Each name is reached through its home module (``dekrylov.checks.run_checks``,
``dekrylov.errors.ArgumentError``); the root re-exports only the five names
that the benchmark harness reads from it.

Module map.  The production path, which every scan imports:

  lintri   tridiagonal operators; O(d^2) eigenvectors and exp(-tau T) e_0 (verify only)
  models   the two noise models (NN bonds, infinite range), closed forms,
           energy levels and the log-binomial helper shared by all
  evolve   K(tau), chi(tau) as O(L) sums per tau, their wavepacket
           reductions (verify only), tridiagonal survival moments
  wigner   Wigner d-matrices; the exact IR wavepacket as a positive
           Gaussian integral (L <= 4096)
  cli      deterministic CSV/JSON scans (entry point: ``dekrylov``)

The verification layer, which loads only when one of its modules is
imported (``dekrylov verify`` imports ``checks``), so that
``import dekrylov`` and the scans load none of it:

  doubled  Choi vectorization, Z-type Kraus channels on plain arrays, the
           models' composed channels and seed, parity reduction: the map
           criterion 1 checks
  lanczos  Lanczos recursion on a matvec callable, full reorthogonalization
  oracle   independent references: dense brute force at small L (reduced
           and doubled diagonals, Gram-Schmidt Krylov, the Kramers-Wannier
           dual), exact integer moments, closed-form area/volume-law limits
  checks   the acceptance-grade verification suite
"""

from .lintri import eig_tridiag
from .lintri import expm_from_eig as expm_action
from .models import ModelKind, ModelSpec, analytic_lanczos

__version__ = "0.1.0"

__all__ = [
    "ModelKind",
    "ModelSpec",
    "analytic_lanczos",
    "eig_tridiag",
    "expm_action",
    "__version__",
]
