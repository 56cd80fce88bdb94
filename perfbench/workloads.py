"""Workload definitions shared by the benchmark parent, child and reference generator.

A scan workload is a list of ``cli.main`` commands.  Each command has an
id, which names its output file under the work directory and its entry in
the stored reference data.  The ``--out`` flag is appended by the child.
"""

SNAPSHOT_TAUS = "0,0.1,0.25,0.5,1,2"


def _figures():
    # The eight calls of scripts/scan_figures.py, with the same arguments.
    commands = []
    for model in ("nn", "ir"):
        commands += [
            (f"{model}_coeffs", ["coeffs", "--model", model]),
            (f"{model}_evolve", ["evolve", "--model", model]),
            (f"{model}_renyi2", ["renyi2", "--model", model]),
            (
                f"{model}_wavepacket",
                ["wavepacket", "--model", model, "--lengths", "100", "--tau-list", SNAPSHOT_TAUS],
            ),
        ]
    return commands


# Default grids at lengths past the figure scale.  At the seed the IR
# L=1200 default grid exits 2 and the explicit taus >= 0.7 raise
# ConvergenceError; both stay in the workload as counted failures.
LARGE_L = [
    ("ir_evolve_L600", ["evolve", "--model", "ir", "--lengths", "600"]),
    ("ir_evolve_L1200", ["evolve", "--model", "ir", "--lengths", "1200"]),
    ("nn_evolve_L500", ["evolve", "--model", "nn", "--lengths", "500"]),
    (
        "ir_evolve_L1200_late",
        ["evolve", "--model", "ir", "--lengths", "1200", "--tau-list", "0.7,1,2,5,10"],
    ),
]

SCANS = {"figures": _figures(), "large_L": LARGE_L}
WORKLOADS = ("figures", "verify_full", "large_L")

# Spans expected to fire (nonzero calls) or to stay silent, per workload, as
# measured at the seed.  A mismatch is reported, it does not fail a run.
SPAN_EXPECTATIONS = {
    "figures": {
        "fire": ["cli.cmd_evolve", "cli.write_rows", "evolve.renyi2_dense", "lintri.eig_tridiag"],
        "silent": ["wigner.psi_ir_exact_profile"],
    },
    "verify_full": {
        "fire": ["wigner.psi_ir_exact_profile", "evolve.renyi2_dense", "oracle", "lanczos.run_lanczos"],
        "silent": [],
    },
    "large_L": {
        "fire": ["lintri.eig_tridiag", "lintri.expm_from_eig", "cli.cmd_evolve"],
        "silent": ["wigner.psi_ir_exact_profile", "evolve.renyi2_dense"],
    },
}
