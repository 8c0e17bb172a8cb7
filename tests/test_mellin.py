"""Mellin engine tests.

The difference-equation values are derived by direct substitution; the
closed Bessel transforms are cross-checked against the numerical transform
(an independent quadrature route) and against scipy-based integration.
"""

import math

import numpy as np
import pytest
from scipy.special import jv

from expwell import (
    DivergenceError,
    DomainError,
    PoleError,
    QuadratureConfig,
    QuadratureError,
    bessel_j,
    g_closed,
    g_iterate,
    gamma,
    match_parameters,
    mellin,
    mellin_bessel_closed,
    mellin_bessel_sqrt,
    mellin_numeric,
    rgamma,
)

RHO_SET = (0.5, 1.3, 2.0, 3.7)
BESSEL_CFG = QuadratureConfig(t_max=60.0)  # keeps 2*sqrt(x) inside envelope


# --------------------------------------------------------- difference eq.

def test_g_iterate_by_direct_substitution():
    # g(1) = rho^2 g(0); g(2) = (rho(rho-1)) (rho(rho+1)) g(0); zero at rho=2
    assert g_iterate(2.0, 1, 1.0) == 4.0
    assert g_iterate(2.0, 2, 1.0) == (2.0 * 1.0) * (2.0 * 3.0)
    assert g_iterate(2.0, 3, 1.0) == 0.0


def test_g_iterate_matches_explicit_product():
    rng = np.random.default_rng(21)
    for _ in range(50):
        rho = rng.uniform(0.1, 6.0)
        n = int(rng.integers(0, 12))
        expected = 1.0
        for y in range(n):
            expected *= rho * rho - y * y
        assert g_iterate(float(rho), n, 1.0) == expected


def test_g_closed_examples():
    assert math.isclose(g_closed(2.0, 0.0, 1.0), 1.0, rel_tol=1e-13)
    assert math.isclose(g_closed(2.0, 2.0, 1.0), g_iterate(2.0, 2, 1.0),
                        rel_tol=1e-12)
    assert g_closed(2.0, 3.0, 1.0) == 0.0  # rgamma(0) = 0 exactly


def test_g_closed_equals_iteration_at_integers():
    for rho in RHO_SET:
        for n in range(21):
            it = g_iterate(rho, n, 1.0)
            cl = g_closed(rho, float(n), 1.0)
            if it == 0.0:
                assert abs(cl) <= 1e-12
            else:
                assert math.isclose(cl, it, rel_tol=1e-10)


def test_g_closed_functional_equation_non_integer_y():
    for rho in RHO_SET:
        for y in (-0.5, 0.0, 0.7, 1.0, 2.5):
            try:
                lhs = g_closed(rho, y + 1.0, 1.0)
                rhs = (rho * rho - y * y) * g_closed(rho, y, 1.0)
            except PoleError:
                continue  # rho=0.5, y=-0.5 sits on Gamma(0)
            assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-300)


def test_g_closed_pole_and_domain():
    with pytest.raises(PoleError):
        g_closed(0.5, -0.5, 1.0)  # Gamma(0)
    with pytest.raises(DomainError):
        g_closed(-1.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        g_iterate(1.0, -2, 1.0)


def test_g0_scales_linearly():
    assert g_iterate(1.7, 4, 3.5) == 3.5 * g_iterate(1.7, 4, 1.0)
    assert math.isclose(g_closed(1.7, 2.2, 3.5),
                        3.5 * g_closed(1.7, 2.2, 1.0), rel_tol=1e-14)


# ---------------------------------------------------------- closed pairs

def test_mellin_bessel_closed_examples():
    assert math.isclose(mellin_bessel_closed(0.0, 1.0, 1.0), 1.0,
                        rel_tol=1e-13)
    assert math.isclose(mellin_bessel_closed(2.0, 2.0, 1.0), 0.5,
                        rel_tol=1e-13)
    expected = 2.0 ** -0.5 * gamma(0.75) * rgamma(1.25)
    assert math.isclose(mellin_bessel_closed(1.0, 1.0, 0.5), expected,
                        rel_tol=1e-13)


def test_mellin_bessel_sqrt_examples():
    assert mellin_bessel_sqrt(0.0, 2.0, 0.5) == 1.0
    assert math.isclose(mellin_bessel_sqrt(2.0, 2.0, 1.0), 1.0, rel_tol=1e-13)
    # y = 0 reduces to Gamma(nu/2) / Gamma(nu/2 + 1) = 2 / nu
    assert math.isclose(mellin_bessel_sqrt(3.0, 2.0, 0.0), 1.0 / 1.5,
                        rel_tol=1e-13)


def test_sqrt_form_is_closed_form_under_substitution():
    # M{J_nu(a sqrt(x))}(y) = 2 M{J_nu(a x)}(2y)
    rng = np.random.default_rng(22)
    for _ in range(60):
        nu = rng.uniform(0.2, 8.0)
        a = rng.uniform(0.3, 4.0)
        y = rng.uniform(0.05, 0.7)
        lhs = mellin_bessel_sqrt(float(nu), float(a), float(y))
        rhs = 2.0 * mellin_bessel_closed(float(nu), float(a), 2.0 * float(y))
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_match_parameters_values():
    assert match_parameters(1.0) == (2.0, 2.0, 1.0)
    assert match_parameters(2.5) == (2.0, 5.0, 0.4)
    assert match_parameters(0.5) == (2.0, 1.0, 2.0)


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.5])
def test_match_parameters_pointwise_identity(rho):
    a, nu, g0 = match_parameters(rho)
    for y in (0.0, 0.5, 1.0, 2.0):
        lhs = g_closed(rho, y, g0)
        rhs = mellin_bessel_sqrt(nu, a, y)
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-300)


def test_match_parameters_grid_identity():
    for rho in (0.5, 1.0, 2.5):
        a, nu, g0 = match_parameters(rho)
        for y in np.linspace(0.0, 3.0, 31):
            lhs = g_closed(rho, float(y), g0)
            rhs = mellin_bessel_sqrt(nu, a, float(y))
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-12 * scale


# ------------------------------------------------------ numeric transform

def test_mellin_numeric_gamma_integrand():
    est = mellin_numeric(lambda x: np.exp(-x), 3.0)
    assert abs(est.value - 2.0) < 1e-10
    est = mellin_numeric(lambda x: np.exp(-x), 0.5)
    assert abs(est.value - 1.7724538509) < 1e-8


@pytest.mark.parametrize("y", [0.5, 1.0, 2.5, 5.0])
def test_mellin_numeric_matches_gamma(y):
    est = mellin_numeric(lambda x: np.exp(-x), y)
    assert abs(est.value - gamma(y)) < 1e-10


def test_mellin_numeric_bessel_unit_example():
    est = mellin_numeric(lambda x: bessel_j(0.0, 2.0 * np.sqrt(x)), 0.5,
                         BESSEL_CFG)
    assert abs(est.value - 1.0) < 1e-6


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.7])
@pytest.mark.parametrize("y", [0.25, 0.5])
def test_mellin_numeric_matches_bessel_pair(nu, y):
    est = mellin_numeric(lambda x: bessel_j(nu, 2.0 * np.sqrt(x)), y,
                         BESSEL_CFG)
    assert abs(est.value - mellin_bessel_sqrt(nu, 2.0, y)) < 1e-6


# mellin_numeric values of the Bessel pair.  The last three are the same
# quadrature run on scipy's jv; a change to bessel_j may move them only by
# rounding.  Each case keeps a fixed id, the one it had under its first pin,
# so that re-pinning a value does not rename the case.
@pytest.mark.parametrize("nu,y,pinned", [
    pytest.param(0.5, 0.25, 1.7724538502212097,
                 id="0.5-0.25-1.7724538502212097"),
    pytest.param(2.7, 0.5, 1.000000000622914,
                 id="2.7-0.5-1.0000000006033023"),
    pytest.param(4.3, 0.35, 0.7929303276328039,
                 id="4.3-0.35-0.7929303276260473"),
    pytest.param(12.0, 0.25, 0.40807186578138205,
                 id="12.0-0.25-0.40807186578137367"),
    # the ends of the order and y ranges the Bessel callers use
    pytest.param(0.0, 0.05, 18.876361137755396,
                 id="0.0-0.05-18.876361137755396"),
    pytest.param(0.0, 0.65, 0.5438786974447467,
                 id="0.0-0.65-0.5438786974447467"),
    pytest.param(19.0, 0.05, 0.1318297715517075,
                 id="19.0-0.05-0.1318297715517075"),
    pytest.param(19.0, 0.65, 1.9650369771777556,
                 id="19.0-0.65-1.9650369771777556"),
])
def test_mellin_numeric_bessel_pair_regression_pin(nu, y, pinned):
    est = mellin_numeric(lambda x: bessel_j(nu, 2.0 * np.sqrt(x)), y,
                         BESSEL_CFG)
    assert abs(est.value - pinned) <= 1e-14 * abs(pinned)


@pytest.mark.parametrize("y,pinned", [(0.02, 49.44221016316209),
                                      (5.0, 24.0)])
def test_mellin_numeric_gamma_pair_regression_pin(y, pinned):
    # default config (t_max = 200); the values of the 4096-panel bulk mesh
    est = mellin_numeric(lambda x: np.exp(-x), y)
    assert abs(est.value - pinned) <= 1e-14 * abs(pinned)


def test_gl8_literals_match_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    for ours, ref in ((mellin._GL8_NODES, nodes),
                      (mellin._GL8_WEIGHTS, weights)):
        assert np.all(np.abs(ours - ref) <= np.spacing(np.abs(ref)))


def test_mellin_numeric_calls_integrand_once_on_a_small_mesh():
    calls = []

    def f(x):
        calls.append(x.size)
        return bessel_j(4.3, 2.0 * np.sqrt(x))

    mellin_numeric(f, 0.35, BESSEL_CFG)
    assert len(calls) == 1
    assert calls[0] <= 2100


def test_mellin_numeric_without_tail_averaging():
    # t_max < 4 pi leaves fewer than two averaging blocks: plain truncation
    cfg = QuadratureConfig(t_max=10.0)
    with pytest.raises(DivergenceError):
        mellin_numeric(lambda x: np.ones_like(x), 0.5, cfg)
    est = mellin_numeric(lambda x: np.exp(-x), 0.5, cfg)
    assert abs(est.value - math.sqrt(math.pi)) < 1e-10


@pytest.mark.parametrize("t_max", [10.0, 60.0])
def test_mellin_estimate_value_is_python_float(t_max):
    est = mellin_numeric(lambda x: np.exp(-x), 0.5, QuadratureConfig(t_max))
    assert type(est.value) is float


def test_mellin_numeric_general_a_pair_via_scipy():
    # checks mellin_bessel_closed through the x -> x^2 substitution with a
    # scipy integrand: f(t^2/4) = J_nu(a t / 2), so the asymptotic
    # oscillation half-period in t is 2 pi / a.  The (0, 1, 1) row is the
    # classic integral of J_0 over the half line (= 1); (1, 1, 0.5) is the
    # transform of J_1 at y = 1/2.
    for nu, a, y2 in ((0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 0.5),
                      (0.5, 1.5, 0.6)):
        cfg = QuadratureConfig(t_max=200.0, avg_spacing=2.0 * math.pi / a,
                               n_avg=12)
        est = mellin_numeric(lambda x: jv(nu, a * np.sqrt(x)), y2 / 2.0, cfg)
        ref = 2.0 * mellin_bessel_closed(nu, a, y2)
        assert abs(est.value - ref) < 1e-6


def test_mellin_numeric_error_estimate_not_wildly_optimistic():
    est = mellin_numeric(lambda x: bessel_j(1.0, 2.0 * np.sqrt(x)), 0.5,
                         BESSEL_CFG)
    true_err = abs(est.value - mellin_bessel_sqrt(1.0, 2.0, 0.5))
    assert true_err < max(100.0 * est.error, 1e-8)


def test_mellin_numeric_nonfinite_integrand_raises():
    with pytest.raises(QuadratureError):
        mellin_numeric(lambda x: np.exp(x), 0.5)  # overflows to inf


def test_mellin_numeric_divergent_tail_raises():
    with pytest.raises(DivergenceError):
        mellin_numeric(lambda x: np.ones_like(x), 0.5)


def test_mellin_numeric_divergent_origin_raises():
    with pytest.raises(DivergenceError):
        mellin_numeric(lambda x: np.exp(-x), -0.5)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(t_max=-1.0)


@pytest.mark.parametrize("kw", [
    pytest.param({"n_graded": 0}, id="n_graded=0"),
    # one graded panel leaves the origin-divergence check nothing to
    # compare: it called exp(-x) at y = 1 divergent
    pytest.param({"n_graded": 1}, id="n_graded=1"),
    pytest.param({"n_graded": -3}, id="n_graded=-3"),
    pytest.param({"t_max": math.inf}, id="t_max=inf"),
    pytest.param({"t_max": math.nan}, id="t_max=nan"),
    pytest.param({"avg_spacing": math.nan}, id="avg_spacing=nan"),
    # the mesh grows with t_max / avg_spacing: 8 panels per avg_spacing
    pytest.param({"avg_spacing": 1e-3}, id="avg_spacing=1e-3"),
])
def test_quadrature_config_rejects(kw):
    with pytest.raises(ValueError):
        QuadratureConfig(**kw)


def test_mellin_point_validates_finiteness():
    from expwell import MellinPoint
    MellinPoint(0.5, 1.25)
    with pytest.raises(ValueError):
        MellinPoint(0.5, math.inf)


def test_matching_table_pairs_agree():
    from expwell import matching_table
    rows = matching_table(2.5, np.linspace(0.0, 3.0, 13))
    assert len(rows) == 13
    for lhs, rhs in rows:
        assert lhs.y == rhs.y
        assert math.isclose(lhs.value, rhs.value, rel_tol=1e-12,
                            abs_tol=1e-300)
