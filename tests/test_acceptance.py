"""Acceptance suite: one test per cross-validation criterion.

Each criterion is implemented in expwell.verification with its tolerance
pinned there; this module runs every check at full scope and prints one
pass/fail line per criterion (visible with ``pytest -s`` or on failure).
The whole suite runs at desk scale, well under a minute.
"""

import pytest

from expwell import verification


def _run(check, *args):
    result = check(*args)
    print(result.line())
    assert result.passed, result.line()
    return result


def test_acceptance_1_difference_equation_equivalence():
    """g_closed vs g_iterate, rho in {0.5, 1.3, 2, 3.7}, n = 0..20."""
    _run(verification.check_difference_equation_integer)


def test_acceptance_2_functional_equation_non_integer_y():
    """g(y+1) = (rho^2 - y^2) g(y) at real y, relative 1e-12."""
    _run(verification.check_functional_equation)


def test_acceptance_3_mellin_pair_verification():
    """Quadrature vs closed Bessel pair (1e-6) and vs Gamma (1e-10)."""
    _run(verification.check_mellin_pairs)


def test_acceptance_4_matching_step_identity():
    """a=2, nu=2 rho, g0=1/rho makes both closed forms equal to 1e-12."""
    _run(verification.check_matching_identity)


def test_acceptance_5_spectrum_cross_validation():
    """Analytic vs Numerov vs finite differences, relative 1e-5, same counts."""
    _run(verification.check_spectrum_cross_validation)


def test_acceptance_6_threshold_behavior():
    """z0 = 2 binds nothing by all methods; counts non-decreasing to z0=30."""
    _run(verification.check_threshold_behavior)


def test_acceptance_7_wavefunction_validity():
    """u(0) ~ 0, n interior nodes, 5-point ODE residual at 1e-6 scaled."""
    _run(verification.check_wavefunction_validity)


def test_acceptance_8_scaling_exactness():
    """(V0, beta) -> (4V0, 2beta) preserves nu, multiplies E by exactly 4."""
    _run(verification.check_scaling_exactness)


def test_acceptance_9_bessel_recurrence_suite():
    """Three-term recurrence at 1e-10 over random draws; J_1/2(pi) = 0."""
    _run(verification.check_bessel_recurrence)


def test_acceptance_10_normalization():
    """Trapezoid integral of u^2 within 1e-9 of 1 for every state of four wells."""
    _run(verification.check_normalization)


@pytest.mark.parametrize("quick", [True])
def test_quick_suite_is_consistent_with_full_tolerances(quick):
    results = verification.run_all(quick=quick)
    for r in results:
        print(r.line())
    assert all(r.passed for r in results)
