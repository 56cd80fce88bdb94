"""Krylov-space analysis of symmetric dephasing channels.

Dephasing a spin chain with ZZ noise is, in the doubled (vectorized)
Hilbert space, imaginary-time evolution under an effective Hamiltonian.
This package builds that mapping explicitly, tridiagonalizes the
effective Hamiltonian over the Krylov space of the maximally mixed
initial condition, and evaluates the two observables that tell a
strong-to-weak symmetry-breaking crossover apart from a genuine
mixed-state transition: the Krylov complexity K(tau) and the Renyi-2
correlator chi(tau).

Module map:

  lintri   O(d^2) eigensolver, batched exp(-tau T) e_0 (verify only), Gram-Schmidt
  doubled  Choi vectorization, Pauli-Kraus channels, parity reduction:
           the rho -> |rho>> map that criterion 1 checks
  models   the two noise models (NN bonds, infinite range), closed forms,
           and the spin-decoding and log-binomial helpers shared by all
  lanczos  Lanczos recursion on a matvec callable, full reorthogonalization
  evolve   K(tau), chi(tau) as O(L) sums per tau, survival moments
  wigner   Wigner d-matrices; the exact IR wavepacket as a positive
           Gaussian integral (L <= 4096)
  oracle   dense brute-force ground truth at small L
  checks   the acceptance-grade verification suite
  cli      deterministic CSV/JSON scans (entry point: ``dekrylov``)
"""

from .errors import (
    ArgumentError,
    DomainError,
    LinearDependenceError,
)
from .lintri import (
    EigenDecomposition,
    KrylovState,
    TridiagonalOperator,
    eig_tridiag,
    expm_action,
    orthonormalize,
)
from .doubled import (
    DoubledState,
    KrausChannel,
    PauliString,
    Sector,
    apply_channel,
    tau_from_p,
    vectorize,
)
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
from .lanczos import LanczosResult, run_lanczos
from .evolve import (
    complexity,
    ir_magnetization_sums,
    moments_from_tridiag,
    renyi2_dense,
    renyi2_tridiag,
    scan_point,
    survival_moments_nn,
)
from .wigner import (
    psi_ir_exact_profile,
    wigner_column_stable,
    wigner_d,
)
from .checks import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "DomainError",
    "LinearDependenceError",
    "EigenDecomposition",
    "KrylovState",
    "TridiagonalOperator",
    "eig_tridiag",
    "expm_action",
    "orthonormalize",
    "DoubledState",
    "KrausChannel",
    "PauliString",
    "Sector",
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
