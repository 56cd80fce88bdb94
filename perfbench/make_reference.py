#!/usr/bin/env python3
"""Write the reference values the benchmark's correctness gate compares against.

Usage (from the repository root):

    PYTHONPATH=src python3 perfbench/make_reference.py

Every value comes from a route independent of the production path
(tridiagonal eigendecomposition and propagation):

  IR K, psi for L <= 600   Wigner log-domain exact profiles (wigner.py)
  IR K for L > 600         magnetization sum, K = (L/2 - <S_x>)/2
  IR chi for L <= 14       dense evolution (evolve.renyi2_dense)
  IR chi for L > 14        magnetization sum, chi = <M^2>/L^2
  NN K, psi                binomial closed forms (models.py)
  NN chi                   open Ising chain, <z_i z_j> = tanh(2 tau)^|i-j|
  a_n, b_n                 the closed forms, evaluated here

The magnetization sums and the Ising form are cross-checked against the
Wigner and dense routes before anything is written.
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np
from scipy.special import gammaln, logsumexp

from dekrylov import evolve, models, wigner
from dekrylov.models import ModelKind, ModelSpec

from workloads import SCANS

HERE = pathlib.Path(__file__).resolve().parent
GRID = {"nn": (0.0, 3.0, 301), "ir": (0.0, 2.0, 401)}
LENGTHS = {"nn": (20, 100), "ir": (100, 200, 500)}
RENYI2_LENGTHS = (8, 10, 12, 14)
IR_PLATEAU_TAUS = (5.0, 10.0)
WIGNER_MAX_L = 600


def ir_msum(length, tau):
    """(K, chi) of the IR model from the spin-L/2 magnetization basis."""
    s = length / 2.0
    m = s - np.arange(length + 1)
    log_binom = gammaln(length + 1.0) - gammaln(s + m + 1.0) - gammaln(s - m + 1.0)
    log_amp = 0.5 * log_binom + 2.0 * m * m * tau / length
    log_norm = logsumexp(2.0 * log_amp)
    lower = m[1:]
    log_ladder = np.log(np.sqrt(s * (s + 1.0) - lower * (lower + 1.0)))
    s_x = math.exp(logsumexp(log_amp[1:] + log_amp[:-1] + log_ladder) - log_norm)
    weights = np.exp(2.0 * log_amp - log_norm)
    return (s - s_x) / 2.0, float(weights @ (4.0 * m * m)) / length**2


def nn_ising_chi(length, tau):
    t = math.tanh(2.0 * tau)
    return (length + 2.0 * sum((length - d) * t**d for d in range(1, length))) / length**2


def wigner_k(length, tau):
    psi = wigner.psi_ir_exact_profile(length, tau)
    return float(np.arange(psi.size) @ (psi * psi)) / float(psi @ psi)


def ir_k(length, tau):
    return wigner_k(length, tau) if length <= WIGNER_MAX_L else ir_msum(length, tau)[0]


def dense_chi(kind, length, tau):
    return evolve.renyi2_dense(ModelSpec(kind=ModelKind(kind), length=length), tau)


def grid(model):
    start, stop, count = GRID[model]
    return [float(t) for t in np.linspace(start, stop, count)]


def parse_argv(argv):
    flags = dict(zip(argv[1::2], argv[2::2]))
    model = flags["--model"]
    command = argv[0]
    if "--lengths" in flags:
        lengths = tuple(int(x) for x in flags["--lengths"].split(","))
    else:
        lengths = RENYI2_LENGTHS if command == "renyi2" else LENGTHS[model]
    if "--tau-list" in flags:
        taus = [float(x) for x in flags["--tau-list"].split(",")]
    else:
        taus = grid(model)
        if model == "ir" and command == "evolve":
            taus += list(IR_PLATEAU_TAUS)
    return command, model, sorted(set(lengths)), sorted(set(taus))


def coeff_rows(model, lengths):
    rows = []
    for length in lengths:
        if model == "nn":
            for n in range(length):
                rows.append([length, n, 0.0, None if n == 0 else math.sqrt(n * (length - n))])
        else:
            for n in range(length // 2 + 1):
                a = -2.0 * n + 4.0 * n * n / length - 0.5 + length / 2.0
                b = (
                    None
                    if n == 0
                    else math.sqrt(2 * n * (length - 2 * n + 1) * (2 * n - 1) * (length - 2 * n + 2))
                    / (2.0 * length)
                )
                rows.append([length, n, a, b])
    return rows


def reference_rows(argv):
    command, model, lengths, taus = parse_argv(argv)
    if command == "coeffs":
        return command, coeff_rows(model, lengths)
    rows = []
    for length in lengths:
        for tau in taus:
            if command == "wavepacket":
                psi = (
                    models.psi_nn_analytic(length, tau).psi
                    if model == "nn"
                    else wigner.psi_ir_exact_profile(length, tau)
                )
                rows += [[length, tau, n, float(v)] for n, v in enumerate(psi)]
            elif command == "renyi2":
                chi = nn_ising_chi(length, tau) if model == "nn" else dense_chi("ir", length, tau)
                rows.append([length, tau, chi])
            elif model == "nn":
                chi = nn_ising_chi(length, tau) if length <= 14 else None
                rows.append([length, tau, models.k_nn_analytic(length, tau), chi])
            else:
                chi = dense_chi("ir", length, tau) if length <= 14 else ir_msum(length, tau)[1]
                rows.append([length, tau, ir_k(length, tau), chi])
    return command, rows


def cross_check():
    """The derived routes agree with the Wigner and dense routes."""
    worst_k = worst_chi = 0.0
    for length in (100, 200, 500, 600):
        for tau in grid("ir")[::10] + list(IR_PLATEAU_TAUS):
            worst_k = max(worst_k, abs(ir_msum(length, tau)[0] - wigner_k(length, tau)))
    for length in RENYI2_LENGTHS:
        for tau in grid("nn")[::10]:
            worst_chi = max(
                worst_chi,
                abs(ir_msum(length, tau)[1] - dense_chi("ir", length, tau)),
                abs(nn_ising_chi(length, tau) - dense_chi("nn", length, tau)),
            )
    plateau = abs(ir_msum(1200, 10.0)[0] / 1200 - 0.25)
    coeff = 0.0
    for model in ("nn", "ir"):
        for length in LENGTHS[model]:
            tri = models.analytic_lanczos(ModelSpec(kind=ModelKind(model), length=length)).tridiag
            rows = coeff_rows(model, [length])
            coeff = max(
                coeff,
                float(np.max(np.abs(tri.diag - [r[2] for r in rows]))),
                float(np.max(np.abs(tri.offdiag - [r[3] for r in rows[1:]]))),
            )
    print(
        f"M-sum K vs Wigner {worst_k:.1e}, chi routes vs dense {worst_chi:.1e}, "
        f"|K/L - 1/4| at L=1200 tau=10 {plateau:.1e}, coefficients {coeff:.1e}"
    )
    if not (worst_k <= 1e-9 and worst_chi <= 1e-12 and plateau <= 0.02 and coeff <= 1e-12):
        raise SystemExit("independent routes disagree; no reference written")


def main():
    cross_check()
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    for workload, commands in SCANS.items():
        payload = {}
        for command_id, argv in commands:
            command, rows = reference_rows(argv)
            payload[command_id] = {"command": command, "argv": argv, "rows": rows}
        path = out_dir / f"{workload}.json"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{\n")
            for i, (command_id, entry) in enumerate(payload.items()):
                sep = "," if i < len(payload) - 1 else ""
                handle.write(f"{json.dumps(command_id)}: {json.dumps(entry)}{sep}\n")
            handle.write("}\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
