"""Verification suite: every acceptance-grade numerical claim as a check.

Each check cross-validates independent routes to the same quantity
(closed form vs dense brute force vs tridiagonal propagation vs the
log-domain Gaussian integral) and reports the worst measured deviation
next to its tolerance.  ``run_checks()`` runs all twelve, the L = 500
scans included, in about a quarter of a second of CPU time.

The checks share no state, so on Linux with two or more usable CPUs they
run at the same time on two plain forked worker processes.  Criterion 4
(``CRITICAL_PATH``) takes about as long as the other eleven together, so
one worker runs it alone and the other runs the rest in CHECKS order;
each sends every pickled result back through a pipe of its own.  On one
CPU they run in the calling process, one after another, in CHECKS order.
Either way results come in CHECKS order and each check's seconds are
measured in the process that ran it.

No check calls a threaded BLAS routine (its matrix products are einsums),
so a forked worker stays one thread and does not compete for the CPUs
with an OpenBLAS helper thread.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import cli, doubled, lanczos, lintri, models, oracle, wigner
from .errors import ArgumentError
from .evolve import (
    complexity,
    ir_magnetization_sums,
    moments_from_tridiag,
    renyi2_dense,
    renyi2_tridiag,
)
from .models import ModelKind, ModelSpec, analytic_lanczos


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one acceptance check."""

    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def check_channel_exponential():
    """Composed channels equal prefactor * exp(-tau H) on the doubled space.

    Four routes: per-bond/per-pair diagonal products; the paper's map,
    which vectorizes |+><+|^{(x)L}, applies the Kraus channel and
    restricts to the parity sector; the explicit Kraus expansion as a
    dense superoperator; and a generic matrix exponential.
    """
    worst = 0.0
    mapped = 0
    grid = [(ModelKind.NN, p) for p in (0.0, 0.1, 0.2, 0.3, 0.45)]
    grid += [(ModelKind.IR, tau) for tau in (0.0, 0.3, 0.7, 1.2, 2.0)]
    for length in range(2, 7):
        for kind, p_or_tau in grid:
            if kind is ModelKind.IR and length % 2:
                continue
            spec = ModelSpec(kind=kind, length=length)
            worst = max(
                worst,
                oracle.channel_vs_exponential(spec, p_or_tau),
                oracle.vectorized_map_vs_exponential(spec, p_or_tau),
            )
            mapped += 1
    cases = 2 * mapped
    for length in range(2, 5):
        nn = ModelSpec(kind=ModelKind.NN, length=length)
        tau = doubled.tau_from_p(0.3)
        dev = doubled.effective_hamiltonian_check(
            doubled.build_nn_channel(length, 0.3),
            oracle.doubled_hamiltonian_diagonal(nn),
            math.exp(-(length - 1) * tau),
            tau,
        )
        worst = max(worst, dev)
        cases += 1
        if length % 2 == 0:
            ir = ModelSpec(kind=ModelKind.IR, length=length)
            dev = doubled.effective_hamiltonian_check(
                doubled.build_ir_channel(length, 0.7),
                oracle.doubled_hamiltonian_diagonal(ir),
                1.0,
                0.7,
            )
            worst = max(worst, dev)
            cases += 1
    for spec in (
        ModelSpec(kind=ModelKind.NN, length=2),
        ModelSpec(kind=ModelKind.NN, length=3),
        ModelSpec(kind=ModelKind.IR, length=2),
    ):
        worst = max(worst, oracle.expm_elementwise_vs_generic(spec, 0.5))
        cases += 1
    return worst <= 1e-12, (
        f"max |channel - prefactor exp(-tau H)| = {worst:.2e} "
        f"over {cases} channel instances, {mapped} of them through "
        "vectorize -> apply_channel -> restrict_to_parity_sector (tol 1e-12)"
    )


def check_lanczos_closed_forms():
    """Dense Gram-Schmidt and iterative Lanczos match the closed forms."""
    lengths = (4, 6, 8, 10, 12)
    worst = 0.0
    for length in lengths:
        for kind in (ModelKind.NN, ModelKind.IR):
            spec = ModelSpec(kind=kind, length=length)
            expected = analytic_lanczos(spec)
            dense = oracle.dense_krylov(spec)
            if len(dense.a) != expected.krylov_dim:
                return False, (
                    f"{kind.value} L={length}: dense Krylov dimension "
                    f"{len(dense.a)} != {expected.krylov_dim}"
                )
            worst = max(
                worst,
                float(np.max(np.abs(dense.a - expected.tridiag.diag))),
                float(np.max(np.abs(dense.b - expected.tridiag.offdiag))),
            )
            diagonal = oracle.reduced_diagonal(spec)
            seed = doubled.reduced_initial_state(spec)
            iterative = lanczos.run_lanczos(lambda v: diagonal * v, seed)
            if not iterative.terminated or len(iterative.a) != expected.krylov_dim:
                return False, (
                    f"{kind.value} L={length}: recursion closed at dimension "
                    f"{len(iterative.a)} (terminated={iterative.terminated}), "
                    f"expected {expected.krylov_dim}"
                )
            worst = max(
                worst,
                float(np.max(np.abs(iterative.a - expected.tridiag.diag))),
                float(np.max(np.abs(iterative.b - expected.tridiag.offdiag))),
            )
        # Third route for NN: the dual transverse-field image on L-1 links.
        dual = lanczos.run_lanczos(*oracle.kw_transform_nn(length))
        expected = analytic_lanczos(ModelSpec(kind=ModelKind.NN, length=length))
        if not dual.terminated or len(dual.a) != length:
            return False, f"dual image at L={length} closed at {len(dual.a)} != {length}"
        worst = max(
            worst,
            float(np.max(np.abs(dual.a - expected.tridiag.diag))),
            float(np.max(np.abs(dual.b - expected.tridiag.offdiag))),
        )
    return worst <= 1e-9, (
        f"max coefficient deviation {worst:.2e} over L in {lengths}, "
        "three routes, exact Krylov dimensions (tol 1e-9)"
    )


def check_nn_closed_forms():
    """Tridiagonal propagation reproduces the NN binomial wavepacket."""
    taus = np.linspace(0.0, 3.0, 31)
    worst_psi = 0.0
    worst_k = 0.0
    plateau_dev = 0.0
    for length in (10, 100):
        spec = analytic_lanczos(ModelSpec(kind=ModelKind.NN, length=length))
        batch = lintri.expm_from_eig(spec.tridiag, [*taus, 5.0])
        ks = complexity(batch.psi)
        for tau, psi, k in zip(batch.taus[:-1], batch.psi[:-1], ks[:-1]):
            closed = models.psi_nn_analytic(length, tau)
            worst_psi = max(worst_psi, float(np.max(np.abs(psi - closed.psi))))
            worst_k = max(worst_k, abs(k - models.k_nn_analytic(length, tau)))
        plateau = ks[-1] / (length - 1)
        plateau_dev = max(plateau_dev, abs(plateau - 0.5))
    passed = worst_psi <= 1e-10 and worst_k <= 1e-8 and plateau_dev <= 1e-3
    return passed, (
        f"max |psi - closed form| = {worst_psi:.2e} (tol 1e-10), "
        f"max |K - (L-1) lambda| = {worst_k:.2e} (tol 1e-8), "
        f"plateau |K/(L-1) - 1/2| = {plateau_dev:.2e} at tau=5 (tol 1e-3)"
    )


def _seed_overlap_log_error(kind, length):
    """max_k |log|V[0,k]| - log|c_k|| against the closed-form seed overlaps,
    the square roots of the model's spectral_measure weights."""
    model = ModelSpec(kind=kind, length=length)
    seed = lintri.eig_tridiag(analytic_lanczos(model).tridiag)[0]
    log_weights = models.spectral_measure(model)[1]
    with np.errstate(divide="ignore"):
        return float(np.max(np.abs(np.log(np.abs(seed)) - 0.5 * log_weights)))


def check_ir_exact_amplitudes():
    """Exact IR amplitudes (the Gaussian integral) equal tridiagonal propagation.

    The L = 500 and 600 points guard the eigensolver: there the seed's
    overlap with the ground state is ~1e-76 to 1e-91, which LAPACK's
    ``stemr`` and ``stebz`` drivers lose (errors 1e-2 to 0.6).  Beyond,
    the closed-form seed overlaps guard it: at IR L = 1200 and 2000
    (ground-state overlap ~1e-301) and NN L = 1000, every log|V[0, k]|
    must match to 1e-8, where ``stemr`` returns exact zeros and ``stebz``
    is off by O(100).
    """
    grid = np.linspace(0.0, 3.0, 31)
    large = (0.5, 2.0, 10.0)
    cases = [(8, grid), (40, grid), (100, grid), (500, large), (600, large)]
    passed = True
    parts = []
    for length, taus in cases:
        spec = analytic_lanczos(ModelSpec(kind=ModelKind.IR, length=length))
        batch = lintri.expm_from_eig(spec.tridiag, taus)
        dev = max(
            float(np.max(np.abs(psi - wigner.psi_ir_exact_profile(length, tau))))
            for tau, psi in zip(batch.taus.tolist(), batch.psi)
        )
        tol = 1e-6 if length >= 100 else 1e-8
        passed = passed and dev <= tol
        parts.append(f"L={length}: {dev:.2e} (tol {tol:g})")
    overlap_parts = []
    for kind, length in ((ModelKind.IR, 1200), (ModelKind.IR, 2000), (ModelKind.NN, 1000)):
        err = _seed_overlap_log_error(kind, length)
        passed = passed and err <= 1e-8
        overlap_parts.append(f"{kind.value.upper()} L={length}: {err:.2e}")
    return passed, (
        "max |psi_tridiag - psi_exact| over tau in [0,3] for L <= 100 and "
        "tau in {0.5, 2, 10} for L >= 500: " + ", ".join(parts)
        + "; max |log|V[0,k]| - closed-form log overlap| (tol 1e-8): "
        + ", ".join(overlap_parts)
    )


def check_area_law_convergence():
    """Finite-L complexity and wavepacket converge to the area-law limits.

    Below the transition K_L tends to tau^2/(2(1-2 tau)) and psi_L(n) to
    area_law_psi(n, tau); both gaps must shrink strictly with L.
    """
    lengths = (100, 200, 500)
    passed = True
    parts = {"K": [], "psi": []}
    pinned = {}
    for tau in (0.1, 0.2, 0.3, 0.4):
        k_gaps = []
        psi_gaps = []
        for length in lengths:
            profile = wigner.psi_ir_exact_profile(length, tau)
            limit = oracle.area_law_psi(np.arange(profile.size), tau)
            k_gaps.append(abs(complexity(profile) - oracle.area_law_k(tau)))
            psi_gaps.append(float(np.max(np.abs(profile - limit))))
        for key, gaps in (("K", k_gaps), ("psi", psi_gaps)):
            if not all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1)):
                passed = False
            if tau == 0.3:
                pinned[key] = gaps[-1]
            parts[key].append(
                f"tau={tau:g}: {gaps[0]:.1e} > {gaps[1]:.1e} > {gaps[2]:.1e}"
            )
    passed = passed and all(pinned[key] <= 2e-3 for key in ("K", "psi"))
    return passed, (
        "gaps |K_L - K_area| over L=(100,200,500): "
        + "; ".join(parts["K"])
        + f"; pinned gap at (L=500, tau=0.3) = {pinned['K']:.2e} (tol 2e-3); "
        "profile gaps max_n |psi_L(n) - psi_area(n)|: "
        + "; ".join(parts["psi"])
        + f"; pinned profile gap at (L=500, tau=0.3) = {pinned['psi']:.2e} (tol 2e-3)"
    )


def check_volume_law_plateau():
    """K = L/4 exactly for the flat profile; tridiagonal K/L -> 1/4 at large tau."""
    worst_exact = 0.0
    worst_float = 0.0
    for length in (4, 100, 500):
        total = sum(n * math.comb(length, 2 * n) for n in range(length // 2 + 1))
        if 4 * total != length * 2 ** (length - 1):
            return False, f"exact rational identity fails at L={length}"
        worst_exact = max(
            worst_exact,
            abs(total / 2 ** (length - 1) - oracle.volume_law_k(length)),
        )
        profile = oracle.psi_ir_asymptotic_profile(length)
        worst_float = max(
            worst_float,
            abs(complexity(profile) - oracle.volume_law_k(length)),
        )
    worst_plateau = 0.0
    for length in (100, 200):
        spec = analytic_lanczos(ModelSpec(kind=ModelKind.IR, length=length))
        psi = lintri.expm_from_eig(spec.tridiag, 10.0).psi
        worst_plateau = max(worst_plateau, abs(complexity(psi) / length - 0.25))
    passed = worst_exact <= 1e-10 and worst_float <= 1e-9 and worst_plateau <= 0.02
    return passed, (
        f"identity dev {worst_exact:.1e} (tol 1e-10, rational equality exact), "
        f"binomial profile route {worst_float:.2e} (tol 1e-9), "
        f"tridiagonal |K/L - 1/4| at tau=10: {worst_plateau:.2e} (tol 0.02)"
    )


def check_crossover_sharpening():
    """The K/L slope peak (magnetization sums) grows with L and sits near
    tau = 1/2 at L = 5000."""
    lengths = (50, 100, 200, 500, 1000, 2000, 5000)
    taus = np.arange(0.29, 0.7101, 0.005)
    max_slopes = []
    peak_taus = []
    for length in lengths:
        k_norm = ir_magnetization_sums(ModelSpec(ModelKind.IR, length), taus)[0] / length
        slopes = (k_norm[2:] - k_norm[:-2]) / (taus[2:] - taus[:-2])
        peak = int(np.argmax(slopes))
        max_slopes.append(float(slopes[peak]))
        peak_taus.append(float(taus[peak + 1]))
    increasing = all(a < b for a, b in zip(max_slopes, max_slopes[1:]))
    in_window = 0.45 <= peak_taus[-1] <= 0.60
    return increasing and in_window, (
        "max d(K/L)/dtau = "
        + " -> ".join(f"{s:.3f}" for s in max_slopes)
        + f" over L={lengths} (strictly increasing); "
        f"argmax at L={lengths[-1]}: tau = {peak_taus[-1]:.3f} (window [0.45, 0.60])"
    )


def check_renyi2_diagnostics():
    """chi(0) = 1/L; route agreement; IR curves cross, NN curves do not."""
    worst_zero = 0.0
    for length in range(4, 15, 2):
        for kind in (ModelKind.NN, ModelKind.IR):
            model = ModelSpec(kind=kind, length=length)
            worst_zero = max(worst_zero, abs(renyi2_dense(model, 0.0) - 1.0 / length))
        spec = analytic_lanczos(ModelSpec(kind=ModelKind.IR, length=length))
        chi0 = renyi2_tridiag(spec, lintri.expm_from_eig(spec.tridiag, 0.0).psi)
        worst_zero = max(worst_zero, abs(chi0 - 1.0 / length))

    worst_route = 0.0
    for length in (4, 6, 8, 10, 12):
        model = ModelSpec(kind=ModelKind.IR, length=length)
        spec = analytic_lanczos(model)
        taus = np.linspace(0.0, 5.0, 26)
        chis = renyi2_tridiag(spec, lintri.expm_from_eig(spec.tridiag, taus).psi)
        worst_route = max(worst_route, float(np.max(np.abs(chis - renyi2_dense(model, taus)))))

    lengths = (8, 10, 12, 14)
    taus_ir = np.linspace(0.0, 5.0, 501)
    ir_curves = {
        length: renyi2_dense(ModelSpec(kind=ModelKind.IR, length=length), taus_ir)
        for length in lengths
    }
    crossings_ok = True
    crossing_taus = []
    for i, small in enumerate(lengths):
        for large in lengths[i + 1 :]:
            diff = ir_curves[small] - ir_curves[large]
            flips = np.nonzero(np.sign(diff[:-1]) * np.sign(diff[1:]) < 0)[0]
            if flips.size != 1:
                crossings_ok = False
                continue
            j = int(flips[0])
            t_cross = taus_ir[j] + (taus_ir[j + 1] - taus_ir[j]) * diff[j] / (
                diff[j] - diff[j + 1]
            )
            crossing_taus.append(float(t_cross))
            if not 0.3 <= t_cross <= 0.8:
                crossings_ok = False

    taus_nn = np.linspace(0.0, 3.0, 301)
    nn_curves = {
        length: renyi2_dense(ModelSpec(kind=ModelKind.NN, length=length), taus_nn)
        for length in lengths
    }
    min_gap = math.inf
    for i, small in enumerate(lengths):
        for large in lengths[i + 1 :]:
            min_gap = min(min_gap, float(np.min(nn_curves[small] - nn_curves[large])))

    passed = (
        worst_zero <= 1e-10
        and worst_route <= 1e-9
        and crossings_ok
        and min_gap > 0.0
    )
    window = (
        f"[{min(crossing_taus):.2f}, {max(crossing_taus):.2f}]" if crossing_taus else "none"
    )
    return passed, (
        f"chi(0) dev {worst_zero:.1e} (tol 1e-10); tridiag vs dense {worst_route:.1e} "
        f"(tol 1e-9); IR pairwise crossings at tau in {window} (window [0.3, 0.8]); "
        f"NN min pairwise gap {min_gap:.1e} > 0 on [0, 3]"
    )


def check_moment_consistency():
    """Exact integer survival moments equal the tridiagonal moments."""
    worst = 0.0
    for length in (6, 10, 30):
        exact = oracle.survival_moments_nn(length, 10)
        if exact[0] != 1.0 or exact[1] != 0.0 or exact[2] != float(length - 1):
            return False, (
                f"NN L={length}: low moments {exact[:3]} != (1, 0, L-1) exactly"
            )
        spec = analytic_lanczos(ModelSpec(kind=ModelKind.NN, length=length))
        tri = moments_from_tridiag(spec.tridiag, 10)
        worst = max(
            worst,
            float(np.max(np.abs(exact - tri) / np.maximum(np.abs(exact), 1.0))),
        )
    for length in (8, 12):
        model = ModelSpec(kind=ModelKind.IR, length=length)
        diag = oracle.reduced_diagonal(model)
        dense_mu = np.array([float(np.mean(diag**n)) for n in range(11)])
        tri = moments_from_tridiag(analytic_lanczos(model).tridiag, 10)
        worst = max(
            worst,
            float(np.max(np.abs(dense_mu - tri) / np.maximum(np.abs(dense_mu), 1.0))),
        )
    return worst <= 1e-10, (
        f"max relative moment deviation {worst:.2e} for n <= 10 "
        "(tol 1e-10; mu_0, mu_1, mu_2 exact)"
    )


def check_wigner_layer():
    """Orthonormality, route agreement, the m = s column, and symmetries,
    each route called once per (s, theta) for the whole matrix."""
    theta = 0.5 * math.pi
    spins = (0.5, 5.0, 20.0, 100.0)
    worst_orth = 0.0
    for s in spins:
        dmat = wigner.wigner_d_stable(s, theta)
        gram = np.einsum("ri,rj->ij", dmat, dmat)  # no BLAS thread, as in wigner
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(len(dmat))))))

    worst_route = 0.0
    worst_column = 0.0
    for s in (0.5, 1.0, 2.5, 5.0, 7.5, 10.0):
        two_s = int(round(2 * s))
        rows = np.arange(two_s + 1)
        for angle in (0.5 * math.pi, 0.4, 1.9):
            stable = wigner.wigner_d_stable(s, angle)
            direct = wigner.wigner_d(s, angle)
            worst_route = max(worst_route, float(np.max(np.abs(direct - stable))))
            closed = (
                np.sqrt([float(math.comb(two_s, r)) for r in rows])
                * math.cos(0.5 * angle) ** (two_s - rows)
                * math.sin(0.5 * angle) ** rows
            )
            worst_column = max(worst_column, float(np.max(np.abs(direct[:, 0] - closed))))

    worst_sym = 0.0
    for s in (1.0, 2.5, 6.0):
        base = wigner.wigner_d(s, 0.7)
        rows = np.arange(len(base))
        parity = (-1.0) ** (rows[:, None] - rows)
        # d_{m'm}(t) = d_{mm'}(-t) = (-1)^{m'-m} d_{mm'}(t) = (-1)^{m'-m} d_{-m',-m}(t)
        for image in (
            wigner.wigner_d(s, -0.7).T,
            parity * base.T,
            parity * base[::-1, ::-1],
        ):
            worst_sym = max(worst_sym, float(np.max(np.abs(base - image))))
    passed = (
        worst_orth <= 1e-10
        and worst_route <= 1e-11
        and worst_column <= 1e-12
        and worst_sym <= 1e-11
    )
    return passed, (
        f"column orthonormality {worst_orth:.1e} (tol 1e-10, s up to {max(spins):g}); "
        f"spectral vs factorial-sum {worst_route:.1e} (tol 1e-11); "
        f"m = s column closed form {worst_column:.1e} (tol 1e-12); "
        f"symmetry identities {worst_sym:.1e} (tol 1e-11)"
    )


def check_error_state_interpretation():
    """Every Krylov vector is an n-error state orthogonal to lower spans."""
    checked = 0
    for kind, length in (
        (ModelKind.NN, 4),
        (ModelKind.NN, 6),
        (ModelKind.IR, 4),
        (ModelKind.IR, 6),
        (ModelKind.IR, 8),
    ):
        spec = ModelSpec(kind=kind, length=length)
        failing = oracle.error_state_interpretation_check(spec)
        if failing is not None:
            return False, (
                f"{kind.value} L={length}: Krylov vector {failing} is not an "
                "n-error state"
            )
        checked += analytic_lanczos(spec).krylov_dim
    return True, (
        f"all {checked} Krylov vectors lie in their n-error span and are "
        "orthogonal to the fewer-error span (tol 1e-8)"
    )


def check_cli_determinism():
    """cmd_evolve output is byte-identical across three reruns."""
    argv = [
        "evolve",
        "--model",
        "ir",
        "--lengths",
        "8,12",
        "--tau",
        "0:2:101",
        "--format",
        "csv",
    ]
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(3):
            path = os.path.join(tmp, f"run{run}.csv")
            code = cli.main(argv + ["--out", path])
            if code != 0:
                return False, f"cmd_evolve exited with code {code}"
            with open(path, "rb") as handle:
                blobs.append(handle.read())
    if blobs[0] == blobs[1] == blobs[2]:
        return True, f"byte-identical CSV ({len(blobs[0])} bytes) across three runs"
    return False, "outputs differ across reruns"


CHECKS = (
    (1, "channel equals imaginary-time propagator", check_channel_exponential),
    (2, "Lanczos coefficients match closed forms", check_lanczos_closed_forms),
    (3, "NN wavepacket and complexity closed forms", check_nn_closed_forms),
    (4, "IR exact amplitudes vs tridiagonal propagation", check_ir_exact_amplitudes),
    (5, "area-law complexity convergence", check_area_law_convergence),
    (6, "volume-law plateau K = L/4", check_volume_law_plateau),
    (7, "crossover slope sharpens with L", check_crossover_sharpening),
    (8, "Renyi-2 correlator diagnostics", check_renyi2_diagnostics),
    (9, "survival moment consistency", check_moment_consistency),
    (10, "Wigner rotation layer", check_wigner_layer),
    (11, "Krylov vectors are n-error states", check_error_state_interpretation),
    (12, "CLI output is byte-identical across reruns", check_cli_determinism),
)

# The longest criterion, which gets a forked worker of its own.  Run
# in-process on 2 vCPUs, pinned to one CPU with one BLAS thread (eleven
# fresh processes on a noisy host), criterion 4 takes 120-174 ms, median
# 169 ms (three eig_tridiag calls at dimension 601-1001), against
# 104-165 ms, median 156 ms, for the other eleven together.
CRITICAL_PATH = 4


def _run_check(index):
    """Run CHECKS[index], timed here; a raised exception is a failed result."""
    number, name, fn = CHECKS[index]
    started = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as err:  # a crashed check is a failed check
        passed, detail = False, f"raised {type(err).__name__}: {err}"
    return CheckResult(
        number=number,
        name=name,
        passed=bool(passed),
        detail=detail,
        elapsed=time.perf_counter() - started,
    )


def _fork_worker(indices, inherited):
    """Fork a worker that runs CHECKS[i] for each i in ``indices``; return
    its pid and the read end of the pipe it writes to.

    The worker closes every read end, its own and ``inherited``, so a write
    that nobody will read fails instead of blocking.  It writes each pickled
    CheckResult once finished and leaves through os._exit, so it flushes
    none of the buffers it inherited and runs no exit handler; anything a
    check raises past _run_check ends it with status 1.
    """
    fd, sink = os.pipe()
    pid = os.fork()
    if pid:
        os.close(sink)
        return pid, fd
    code = 1
    try:
        for unused in (fd, *inherited):
            os.close(unused)
        with open(sink, "wb") as out:
            for index in indices:
                pickle.dump(_run_check(index), out)
                out.flush()
        code = 0
    finally:
        os._exit(code)


def _run_forked():
    """Run CHECKS on two forked workers; results in CHECKS order.

    One worker runs CRITICAL_PATH, the other the rest in CHECKS order.  The
    parent reads the two pipes one after the other, each to its end, and
    reaps each worker.  A worker only ever waits for its own pipe to be
    read, so nothing deadlocks.  A check with no result failed with its
    worker; the other worker's results stand.  The workers are forked with
    SIGINT blocked and keep it so: Ctrl-C interrupts this process alone,
    whose ``finally`` kills and reaps them.
    """
    import signal  # only this path needs it, and no scan loads it

    shares = ([], [])
    for index, (number, _, _) in enumerate(CHECKS):
        shares[number != CRITICAL_PATH].append(index)
    workers = {}  # pid -> read end of its pipe, in fork order
    owner = {}  # index into CHECKS -> pid of the worker that runs it
    done = {}  # check number -> CheckResult
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
    try:
        for share in shares:
            pid, fd = _fork_worker(share, workers.values())
            workers[pid] = fd
            owner.update(dict.fromkeys(share, pid))
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for pid, fd in list(workers.items()):
            with open(fd, "rb", closefd=False) as stream:
                try:
                    while True:
                        result = pickle.load(stream)
                        done[result.number] = result
                except (EOFError, pickle.UnpicklingError):
                    pass  # the pipe's end, or a result cut off by the worker's
            os.waitpid(pid, 0)
            os.close(workers.pop(pid))
    finally:
        for pid, fd in workers.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    ended = "worker process {} ended before the check finished"
    return [
        done.get(number)
        or CheckResult(number, name, passed=False, detail=ended.format(owner[index]), elapsed=0.0)
        for index, (number, name, _) in enumerate(CHECKS)
    ]


def run_checks(level="full"):
    """Run every check of CHECKS; ``level`` must be "full", the only level.

    Results come in CHECKS order.  On Linux with two or more usable CPUs
    the checks run on two forked workers (_run_forked), which inherit the
    imported package, patched attributes included, instead of importing it
    again; otherwise they run here, one after another, which is faster on
    one CPU than two workers sharing it.
    """
    if level != "full":
        raise ArgumentError(f"level must be 'full', got {level!r}")
    if sys.platform == "linux" and len(os.sched_getaffinity(0)) > 1:
        return _run_forked()
    return [_run_check(index) for index in range(len(CHECKS))]
