"""Krylov-space analysis of symmetric dephasing channels.

Dephasing a spin chain with ZZ noise is, in the doubled (vectorized)
Hilbert space, imaginary-time evolution under an effective Hamiltonian.
This package builds that mapping explicitly, tridiagonalizes the
effective Hamiltonian over the Krylov space of the maximally mixed
initial condition, and evaluates the two observables that tell a
strong-to-weak symmetry-breaking crossover apart from a genuine
mixed-state transition: the Krylov complexity K(tau) and the Renyi-2
correlator chi(tau).

Module map.  The production path, which every scan imports:

  lintri   tridiagonal operators; O(d^2) eigenvectors and exp(-tau T) e_0 (verify only)
  models   the two noise models (NN bonds, infinite range), closed forms,
           and the spin-decoding and log-binomial helpers shared by all
  evolve   K(tau), chi(tau) as O(L) sums per tau, their wavepacket
           reductions (verify only), survival moments
  wigner   Wigner d-matrices; the exact IR wavepacket as a positive
           Gaussian integral (L <= 4096)
  cli      deterministic CSV/JSON scans (entry point: ``dekrylov``)

The verification layer, whose names below load their module on first
access (PEP 562), so that ``import dekrylov`` and the scans load none of it:

  doubled  Choi vectorization, Z-type Kraus channels on plain arrays, the
           models' composed channels and seed, parity reduction: the map
           criterion 1 checks
  lanczos  Lanczos recursion on a matvec callable, full reorthogonalization
  oracle   dense brute-force ground truth at small L, Gram-Schmidt Krylov
  checks   the acceptance-grade verification suite
"""

import importlib

from .errors import ArgumentError, DomainError
from .lintri import KrylovState, TridiagonalOperator, eig_tridiag
# Kept for perfbench/test_harness.py, which propagates through this name.
from .lintri import expm_from_eig as expm_action
from .models import (
    KrylovSpec,
    ModelKind,
    ModelSpec,
    analytic_lanczos,
    area_law_k,
    area_law_psi,
    k_nn_analytic,
    psi_nn_analytic,
    volume_law_k,
)
from .evolve import (
    complexity,
    ir_magnetization_sums,
    moments_from_tridiag,
    renyi2_dense,
    renyi2_tridiag,
    scan_point,
    survival_moments_nn,
)
from .wigner import psi_ir_exact_profile, wigner_column_stable, wigner_d

_VERIFICATION_MODULES = {
    "KrausChannel": "doubled",
    "apply_channel": "doubled",
    "tau_from_p": "doubled",
    "vectorize": "doubled",
    "LanczosResult": "lanczos",
    "run_lanczos": "lanczos",
    "CheckResult": "checks",
    "run_checks": "checks",
}


def __getattr__(name):
    module = _VERIFICATION_MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "DomainError",
    "KrylovState",
    "TridiagonalOperator",
    "eig_tridiag",
    "expm_action",
    "KrausChannel",
    "apply_channel",
    "tau_from_p",
    "vectorize",
    "KrylovSpec",
    "ModelKind",
    "ModelSpec",
    "analytic_lanczos",
    "area_law_k",
    "area_law_psi",
    "k_nn_analytic",
    "psi_nn_analytic",
    "volume_law_k",
    "LanczosResult",
    "run_lanczos",
    "complexity",
    "ir_magnetization_sums",
    "moments_from_tridiag",
    "renyi2_dense",
    "renyi2_tridiag",
    "scan_point",
    "survival_moments_nn",
    "psi_ir_exact_profile",
    "wigner_column_stable",
    "wigner_d",
    "CheckResult",
    "run_checks",
    "__version__",
]
