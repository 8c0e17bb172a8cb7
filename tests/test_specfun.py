"""Special-function tests.

Independent oracles: the stdlib math.gamma, scipy.special (never used by
the library implementation itself), mpmath at 40 digits where installed,
and a plain-double J0 series rederived here for bracketing the first
Bessel zero.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import digamma as scipy_digamma
from scipy.special import jn_zeros, jv, y0

from expwell import (
    BESSEL_Z_MAX,
    GAMMA_OVERFLOW,
    DomainError,
    GammaOverflowError,
    PoleError,
    bessel_j,
    bessel_j_dnu,
    digamma,
    find_nu_zeros,
    gamma,
    rgamma,
)

SQRT_PI = 1.7724538509055160


# ---------------------------------------------------------------- gamma

def test_gamma_small_integers_and_half():
    assert math.isclose(gamma(1.0), 1.0, rel_tol=1e-14)
    assert math.isclose(gamma(5.0), 24.0, rel_tol=1e-14)
    assert math.isclose(gamma(0.5), SQRT_PI, rel_tol=1e-14)


def test_gamma_against_stdlib_on_positive_axis():
    xs = np.concatenate([np.linspace(1e-3, 0.499, 200),
                         np.linspace(0.5, 170.0, 2000)])
    worst = max(abs(gamma(float(x)) - math.gamma(float(x)))
                / math.gamma(float(x)) for x in xs)
    assert worst <= 1e-13


def test_gamma_reflection_against_stdlib():
    rng = np.random.default_rng(11)
    for _ in range(400):
        x = -rng.uniform(0.05, 60.0)
        if abs(x - round(x)) < 0.05:
            continue
        ref = math.gamma(x)
        assert math.isclose(gamma(float(x)), ref, rel_tol=1e-12)


def test_gamma_recurrence_property():
    for x in np.linspace(0.1, 50.0, 500):
        x = float(x)
        lhs = gamma(x + 1.0)
        assert math.isclose(lhs, x * gamma(x), rel_tol=1e-12)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
def test_gamma_pole_raises(x):
    with pytest.raises(PoleError):
        gamma(x)


def test_gamma_overflow_threshold():
    assert math.isfinite(gamma(GAMMA_OVERFLOW - 0.01))
    with pytest.raises(GammaOverflowError):
        gamma(GAMMA_OVERFLOW + 0.01)
    with pytest.raises(GammaOverflowError):
        gamma(200.0)


def test_rgamma_exact_zeros_at_poles():
    for x in (0.0, -1.0, -2.0, -3.0, -40.0):
        assert rgamma(x) == 0.0


def test_rgamma_basic_values():
    assert math.isclose(rgamma(2.0), 1.0, rel_tol=1e-14)
    rng = np.random.default_rng(12)
    for _ in range(300):
        x = rng.uniform(-40.0, 40.0)
        if x <= 0.0 and abs(x - round(x)) < 0.05:
            continue
        assert math.isclose(rgamma(float(x)) * gamma(float(x)), 1.0,
                            rel_tol=1e-12)


# --------------------------------------------------------------- bessel_j

def _j0_series(z: float) -> float:
    """Independent plain-double J0 series; accurate for small z."""
    term = 1.0
    total = 1.0
    q = 0.25 * z * z
    for k in range(1, 60):
        term *= -q / (k * k)
        total += term
        if abs(term) <= 1e-18 * abs(total):
            break
    return total


def _derive_first_j0_zero() -> float:
    a, b = 2.0, 3.0
    fa = _j0_series(a)
    assert fa * _j0_series(b) < 0.0
    while b - a > 1e-14:
        c = 0.5 * (a + b)
        fc = _j0_series(c)
        if fc == 0.0:
            return c
        if fa * fc < 0.0:
            b = c
        else:
            a, fa = c, fc
    return 0.5 * (a + b)


J01 = 2.404825557695773  # frozen from _derive_first_j0_zero()


def test_first_j0_zero_derivation_matches_frozen_constant():
    assert abs(_derive_first_j0_zero() - J01) < 2e-14


def test_bessel_trivial_values():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(1.5, 0.0) == 0.0
    assert abs(bessel_j(0.5, math.pi)) < 1e-12
    assert abs(bessel_j(0.0, J01)) < 1e-10


def test_bessel_half_order_identity():
    # J_{1/2}(z) = sqrt(2 / (pi z)) sin(z)
    for z in (0.7, 1.3, 2.9, 6.0, 14.0):
        ref = math.sqrt(2.0 / (math.pi * z)) * math.sin(z)
        assert math.isclose(bessel_j(0.5, z), ref, rel_tol=1e-12, abs_tol=1e-14)


def test_bessel_against_scipy_over_envelope():
    rng = np.random.default_rng(13)
    nu = rng.uniform(0.0, 40.0, size=300)
    z = rng.uniform(0.0, 45.0, size=300)
    mine = np.array([bessel_j(float(a), float(b)) for a, b in zip(nu, z)])
    ref = jv(nu, z)
    assert np.max(np.abs(mine - ref)) < 1e-12


def test_bessel_near_envelope_edge_absolute_accuracy():
    # the backward recurrence has no cancellation to lose digits to, so the
    # envelope edge is as accurate as the rest
    rng = np.random.default_rng(14)
    nu = rng.uniform(0.0, 10.0, size=100)
    z = rng.uniform(45.0, 60.0, size=100)
    mine = np.array([bessel_j(float(a), float(b)) for a, b in zip(nu, z)])
    assert np.max(np.abs(mine - jv(nu, z))) < 1e-14


def test_bessel_vector_matches_scalar():
    # both paths run the same recurrence steps, but (z/2)^nu and, for order
    # arrays, Gamma(nu+1) come from Python's ** and math.exp in one and
    # numpy's power and exp in the other, so agreement is to rounding rather
    # than bitwise
    rng = np.random.default_rng(15)
    z = rng.uniform(0.0, 30.0, size=200)
    for nu in (0.0, 0.883, 3.2, 12.5):
        vec = bessel_j(nu, z)
        scal = np.array([bessel_j(nu, float(v)) for v in z])
        assert np.allclose(vec, scal, rtol=1e-13, atol=1e-15)
    nu_arr = rng.uniform(0.0, 20.0, size=64)
    vec = bessel_j(nu_arr, 10.0)
    scal = np.array([bessel_j(float(v), 10.0) for v in nu_arr])
    assert np.allclose(vec, scal, rtol=1e-13, atol=1e-15)


# fixed ids, the ones the cases had under their first bounds, so that
# tightening a bound does not rename a case
@pytest.mark.parametrize("z_lo,z_hi,tol", [
    pytest.param(0.0, 45.0, 1e-12, id="0.0-45.0-1e-12"),
    pytest.param(45.0, 60.0, 1e-14, id="45.0-60.0-1e-07"),
])
def test_bessel_array_path_against_scipy(z_lo, z_hi, tol):
    # same bounds as the scalar-path tests above; scalar orders and an
    # order array, each against a z array
    rng = np.random.default_rng(17)
    z = rng.uniform(z_lo, z_hi, size=400)
    for nu in (0.0, 0.5, 3.3, 17.25, 40.0, rng.uniform(0.0, 40.0, size=400)):
        mine = bessel_j(nu, z)
        assert mine.shape == z.shape
        assert np.max(np.abs(mine - jv(nu, z))) < tol


# Mellin-node arguments whose J_4.3 value moved when a z = 60 argument
# shared the call, under a stop rule that waited for every lane.
_BATCH_SENSITIVE_Z = (7.705474055237735, 17.409964040097854,
                      23.054215929277206, 32.051134236948464,
                      35.81504715365986, 38.65938428624287)


def test_bessel_array_lanes_independent_of_batch():
    # each lane starts its recurrence at its own order and is rescaled on
    # its own, so its value cannot depend on which other arguments share
    # the call
    rng = np.random.default_rng(18)
    z = np.concatenate([_BATCH_SENSITIVE_Z, [60.0],
                        rng.uniform(0.0, 60.0, size=40)])
    nu_arr = np.concatenate([np.full(len(_BATCH_SENSITIVE_Z) + 1, 4.3),
                             rng.uniform(0.0, 40.0, size=40)])
    for nu in (0.5, 4.3, 17.25, nu_arr):
        batch = bessel_j(nu, z)
        for i in range(len(z)):
            nu_i = nu if np.ndim(nu) == 0 else nu[i:i + 1]
            assert batch[i] == bessel_j(nu_i, z[i:i + 1])[0]
    grid = np.arange(0.0, 45.0, 0.5)
    batch = bessel_j(grid, 45.0)
    for i in range(len(grid)):
        assert batch[i] == bessel_j(grid[i:i + 1], 45.0)[0]


def test_bessel_array_path_shape_and_zero_argument():
    z = np.array([[0.0, 1.0], [2.0, 0.0]])
    vals = bessel_j(np.array([[0.0], [1.5]]), z)
    assert vals.shape == (2, 2)
    assert vals[0, 0] == 1.0 and vals[1, 1] == 0.0
    assert bessel_j(2.0, np.empty(0)).shape == (0,)


def test_bessel_three_term_recurrence_property():
    rng = np.random.default_rng(16)
    for _ in range(300):
        nu = rng.uniform(1.0, 20.0)
        z = rng.uniform(0.5, 30.0)
        jm, j0, jp = (bessel_j(nu - 1.0, z), bessel_j(nu, z),
                      bessel_j(nu + 1.0, z))
        resid = abs(jm + jp - (2.0 * nu / z) * j0)
        assert resid <= 1e-10 * max(abs(jm), abs(j0), abs(jp))


def test_bessel_against_mpmath():
    # J_nu absolute and dJ_nu/dnu relative to max(1, |dJ_nu/dnu|), over the
    # whole [0, 60]^2 envelope, against 40-digit values; scipy's jv is
    # itself only good to ~1e-14 there
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(19)
    worst_j = worst_dj = 0.0
    with mpmath.workdps(40):
        for nu, z in rng.uniform(0.0, 60.0, size=(200, 2)):
            ref = float(mpmath.besselj(nu, z))
            dref = float(mpmath.diff(lambda n: mpmath.besselj(n, z), nu))
            j, dj = bessel_j_dnu(float(nu), float(z))
            worst_j = max(worst_j, abs(j - ref),
                          abs(bessel_j(float(nu), float(z)) - ref),
                          abs(bessel_j(nu, np.array([z]))[0] - ref),
                          abs(bessel_j(np.array([nu]), z)[0] - ref))
            worst_dj = max(worst_dj, abs(dj - dref) / max(1.0, abs(dref)))
    assert worst_j <= 1e-14
    assert worst_dj <= 1e-14


@pytest.mark.parametrize("nu,z", [(-0.1, 1.0), (61.0, 1.0), (1.0, -0.5),
                                  (1.0, 60.5)])
def test_bessel_domain_errors(nu, z):
    with pytest.raises(DomainError):
        bessel_j(nu, z)


# ------------------------------------------------------------- digamma

def test_digamma_against_scipy():
    xs = np.concatenate([np.geomspace(1e-4, 1.0, 200),
                         np.linspace(1.0, 70.0, 700)])
    for x in xs:
        ref = float(scipy_digamma(x))
        assert abs(digamma(float(x)) - ref) <= 1e-14 * max(1.0, abs(ref))


def test_digamma_domain():
    for x in (0.0, -1.5, math.nan):
        with pytest.raises(DomainError):
            digamma(x)


# ------------------------------------------------------- order derivative

def test_bessel_j_dnu_against_scipy_central_difference():
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(200):
        nu = float(rng.uniform(1e-3, 40.0))
        z = float(rng.uniform(0.1, 45.0))
        j, dj = bessel_j_dnu(nu, z)
        ref = (jv(nu + h, z) - jv(nu - h, z)) / (2.0 * h)
        assert abs(j - jv(nu, z)) < 1e-12
        # the bound is the central difference's own error (~9e-10 here);
        # test_bessel_against_mpmath checks dJ/dnu to rounding
        assert abs(dj - ref) < 2e-9 * max(1.0, abs(ref))


def test_bessel_j_dnu_order_zero_closed_form():
    # dJ_nu/dnu at nu = 0 is (pi/2) Y_0(z)
    for z in (0.3, 2.4048, 7.0, 19.5, 44.0):
        _, dj = bessel_j_dnu(0.0, z)
        assert abs(dj - 0.5 * math.pi * y0(z)) < 1e-12


@pytest.mark.parametrize("nu,z", [(-0.1, 1.0), (61.0, 1.0), (1.0, 0.0),
                                  (1.0, 60.5)])
def test_bessel_j_dnu_domain_errors(nu, z):
    with pytest.raises(DomainError):
        bessel_j_dnu(nu, z)


# ----------------------------------------------------------- find_nu_zeros

def _reference_nu_zeros(z0: float) -> list[float]:
    """Independent scan built on scipy.special.jv and brentq."""
    grid = np.arange(0.002, z0, 0.002)
    vals = jv(grid, z0)
    out = []
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0.0:
            out.append(brentq(lambda n: jv(n, z0), grid[i], grid[i + 1],
                              xtol=1e-13))
    return out


def test_find_nu_zeros_empty_below_first_j0_zero():
    assert find_nu_zeros(2.0).zeros == ()


def test_find_nu_zeros_at_exactly_first_j0_zero():
    # nu = 0 itself is excluded by the open interval (0, z0]
    assert find_nu_zeros(J01).zeros == ()


def test_find_nu_zeros_z0_10_against_scipy():
    res = find_nu_zeros(10.0)
    ref = _reference_nu_zeros(10.0)
    assert len(res.zeros) == 3
    assert res.search_ceiling == 10.0
    for mine, their in zip(res.zeros, ref):
        assert abs(mine - their) < 1e-10
    # coarse locations
    assert np.allclose(res.zeros, [0.9, 3.2, 6.1], atol=0.1)


def test_find_nu_zeros_counts_against_scipy():
    for z0 in (3.0, 7.5, 13.0, 26.0, 37.0, 45.0, 52.0, 56.0, 60.0):
        zeros = find_nu_zeros(z0).zeros
        ref = _reference_nu_zeros(z0)
        assert len(zeros) == len(ref)
        assert np.max(np.abs(np.array(zeros) - ref)) < 1e-10


def test_find_nu_zeros_ascending_and_residuals():
    res = find_nu_zeros(24.0)
    zs = res.zeros
    assert all(a < b for a, b in zip(zs, zs[1:]))
    assert all(0.0 < nu < res.search_ceiling for nu in zs)
    assert all(abs(bessel_j(nu, 24.0)) < 1e-9 for nu in zs)


_J0_ZEROS = jn_zeros(0, 20)
# z0 = j_{0,k} (1 + eps): a state with nu of order eps appears (eps > 0)
# or is still missing (eps < 0).
_THRESHOLD_WELLS = [float(j * (1.0 + eps)) for j in _J0_ZEROS[:19]
                    for eps in (1e-8, 1e-6, 1e-4, 1e-3, -1e-6, -1e-3)]


@pytest.mark.parametrize("wells", [
    pytest.param(np.linspace(0.5, 60.0, 600), id="grid"),
    pytest.param(_THRESHOLD_WELLS, id="thresholds"),
    pytest.param([60.0, J01, float(_J0_ZEROS[18]), 1.0, 0.3, 1e-300],
                 id="edges"),
])
def test_find_nu_zeros_counts_equal_j0_zero_counts(wells):
    # Each state is a zero nu > 0 of J_nu(z0); there is one for every
    # j_{0,k} < z0, since J_nu(z0) crosses zero at nu = 0 when z0 = j_{0,k}.
    # At a threshold to the last bits the new state is within root_tol of
    # nu = 0, which is not returned.
    for z0 in wells:
        want = int(np.sum(_J0_ZEROS < z0 * (1.0 - 1e-11)))
        assert len(find_nu_zeros(z0).zeros) == want, z0


def test_find_nu_zeros_makes_no_bessel_j_call(monkeypatch):
    # The brackets come from one recurrence at nu = 0, not from J_nu(z0)
    # on a grid of orders.
    import expwell.specfun as specfun

    def forbidden(nu, z):
        raise AssertionError("bessel_j called")

    monkeypatch.setattr(specfun, "bessel_j", forbidden)
    assert len(find_nu_zeros(45.0).zeros) == int(np.sum(_J0_ZEROS < 45.0))


def test_bessel_j_dnu_next_is_one_run_of_three_values():
    from expwell.specfun import _bessel_j_dnu_next
    rng = np.random.default_rng(11)
    for nu, z in zip(rng.uniform(0.0, 50.0, 40), rng.uniform(0.2, 60.0, 40)):
        j, dj, j_next = _bessel_j_dnu_next(nu, z)
        assert j == bessel_j(nu, z)
        assert dj == bessel_j_dnu(nu, z)[1]
        assert abs(j_next - jv(nu + 1.0, z)) < 2e-14


def test_find_nu_zeros_domain():
    with pytest.raises(DomainError):
        find_nu_zeros(0.0)
    with pytest.raises(DomainError):
        find_nu_zeros(BESSEL_Z_MAX + 1.0)
