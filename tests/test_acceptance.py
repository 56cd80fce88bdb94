"""Acceptance gate: the twelve full-level verification criteria.

Each test runs one registered check at its full parameters, so `pytest -v`
prints one pass/fail line per criterion.  On failure the assertion message
carries the check's own measured detail (deviations, tolerances, timings).
These are the same checks `dekrylov verify full` runs.
"""

from dekrylov.checks import CHECKS

_BY_NUMBER = {number: (name, fn) for number, name, fn in CHECKS}


def run_criterion(number):
    name, fn = _BY_NUMBER[number]
    passed, detail = fn(quick=False)
    line = f"{'PASS' if passed else 'FAIL'} [{number:02d}] {name}: {detail}"
    print(line)
    assert passed, line


def test_criterion_01_channel_equals_imaginary_time_propagator():
    """Kraus sums reproduce rescaled exp(-tau H_eff) to 1e-12 for L <= 6, also
    through the paper's map: vectorize, apply the channel, restrict to parity."""
    run_criterion(1)


def test_criterion_02_lanczos_coefficients_match_closed_forms():
    """Dense Krylov construction hits the analytic a_n, b_n and dimensions."""
    run_criterion(2)


def test_criterion_03_nn_wavepacket_and_complexity_closed_forms():
    """Binomial amplitudes, K = (L-1) lambda, and the 1/2 plateau at L = 10, 100."""
    run_criterion(3)


def test_criterion_04_ir_exact_amplitudes_match_tridiagonal_route():
    """The Gaussian-integral amplitudes track propagation at L = 8, 40, 100, 500,
    600; closed-form eigenvector overlaps hold at IR L = 1200, 2000 and NN L = 1000."""
    run_criterion(4)


def test_criterion_05_area_law_complexity_converges_with_length():
    """K and wavepacket-profile (Gaussian integral) gaps to the area-law limits
    shrink strictly with L up to L = 500."""
    run_criterion(5)


def test_criterion_06_volume_law_plateau_is_quarter_length():
    """Late-time K/L reaches 1/4: exact identity, stable profile, propagation."""
    run_criterion(6)


def test_criterion_07_crossover_slope_sharpens_with_length():
    """Max d(K/L)/d tau grows with L from 50 to 5000 and localizes near the
    transition (K from the magnetization sums)."""
    run_criterion(7)


def test_criterion_08_renyi2_diagnostics_distinguish_the_models():
    """chi(0) = 1/L; routes agree; IR curves cross, NN curves do not."""
    run_criterion(8)


def test_criterion_09_survival_moments_are_consistent():
    """Exact binomial moments equal tridiagonal moments; mu_2 = L - 1."""
    run_criterion(9)


def test_criterion_10_wigner_layer_is_orthonormal_and_stable():
    """Column orthonormality to s = 100 plus closed-form and symmetry checks."""
    run_criterion(10)


def test_criterion_11_krylov_vectors_are_n_error_states():
    """Vector n lies in the n-error span and off the (n-1)-error span."""
    run_criterion(11)


def test_criterion_12_cli_output_is_byte_identical_across_reruns():
    """Identical bytes from three runs of the same scan."""
    run_criterion(12)
