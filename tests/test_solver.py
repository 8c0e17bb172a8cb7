"""Physics-layer tests.

The analytic wavefunction and normalization are cross-checked against a
Numerov integrator written directly in this file (independent of both the
library solver and the library oracle module), and the normalization and
threshold counts against scipy.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import jn_zeros, jv

from expwell import (
    DomainError,
    ParameterMismatchError,
    SolverConfig,
    compute_spectrum,
    make_params,
    normalize,
    r_of_x,
    spectrum,
    wavefunction,
    wavefunction_table,
    x_of_r,
)


def _numerov_inward(v0, beta, energy, r_max, n, mu=0.5, hbar=1.0):
    """Independent inward Numerov integration at a fixed energy."""
    h = r_max / (n - 1)
    r = np.linspace(0.0, r_max, n)
    alpha = math.sqrt(-2.0 * mu * energy) / hbar
    q = (-2.0 * mu * energy / hbar**2
         - (2.0 * mu * v0 / hbar**2) * np.exp(-beta * r))
    u = np.zeros(n)
    u[n - 1] = 1.0
    u[n - 2] = math.exp(alpha * h)
    c = h * h / 12.0
    for i in range(n - 3, -1, -1):
        u[i] = (2.0 * u[i + 1] * (1.0 + 5.0 * c * q[i + 1])
                - u[i + 2] * (1.0 - c * q[i + 2])) / (1.0 - c * q[i])
    return r, u


def _reference_norm(nu, z0, beta):
    """(2/beta) integral_0^z0 J_nu(t)^2 / t dt and its error, by QUADPACK.

    The t^(2 nu - 1) endpoint factor goes to the algebraic weight, so only
    the smooth (J_nu(t) / t^nu)^2 is sampled; below t = 1e-3 it is taken
    from the first two series terms.  QUADPACK may flag roundoff on deep
    wells; its own error estimate is what the callers check.
    """
    lead = 0.5 ** nu / math.gamma(nu + 1.0)

    def smooth(t):
        if t < 1e-3:
            return (lead * (1.0 - 0.25 * t * t / (nu + 1.0))) ** 2
        return (jv(nu, t) / t ** nu) ** 2

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(smooth, 0.0, z0, weight="alg",
                                  wvar=(2.0 * nu - 1.0, 0.0), epsabs=0.0,
                                  epsrel=1e-13, limit=400)
    return 2.0 / beta * val, 2.0 / beta * err


def _assert_norm_close(p, s, rel_tol):
    """normalize(p, s) gives integral u^2 = 1 by the scipy reference."""
    ref, err = _reference_norm(s.nu, p.z0, p.beta)
    assert err <= 0.1 * rel_tol * ref
    assert abs(normalize(p, s).norm_c ** -2 / ref - 1.0) <= rel_tol


# ----------------------------------------------------------- parameters

def test_make_params_convention():
    p = make_params(25.0, 1.0)
    assert p.mu == 0.5 and p.hbar == 1.0
    assert p.gamma == 5.0
    assert p.z0 == 10.0


def test_make_params_unit_well():
    assert make_params(1.0, 1.0).z0 == 2.0


def test_make_params_explicit_units():
    p = make_params(25.0, 1.0, mu=0.5, hbar=2.0)
    assert math.isclose(p.gamma, 2.5, rel_tol=1e-15)
    assert math.isclose(p.z0, 5.0, rel_tol=1e-15)


@pytest.mark.parametrize("kw", [dict(v0=-1.0), dict(beta=0.0),
                                dict(mu=-0.5), dict(hbar=0.0)])
def test_make_params_rejects_non_positive(kw):
    args = dict(v0=25.0, beta=1.0, mu=0.5, hbar=1.0)
    args.update(kw)
    with pytest.raises(DomainError):
        make_params(**args)


# ---------------------------------------------------- change of variables

def test_x_of_r_boundary_values():
    p = make_params(25.0, 1.0)
    assert x_of_r(p, 0.0) == 25.0  # (gamma/beta)^2 at r = 0
    assert x_of_r(p, 50.0) < 25.0 * 2e-22


def test_x_of_r_specific_point():
    p = make_params(25.0, 1.0)  # gamma = 5, beta = 1
    assert math.isclose(x_of_r(p, math.log(25.0)), 1.0, rel_tol=1e-14)


def test_r_of_x_roundtrip():
    p = make_params(13.0, 0.7)
    for r in np.linspace(0.0, 40.0, 117):
        assert math.isclose(r_of_x(p, x_of_r(p, float(r))), float(r),
                            rel_tol=1e-14, abs_tol=1e-14)


def test_r_of_x_domain():
    p = make_params(25.0, 1.0)
    with pytest.raises(DomainError):
        r_of_x(p, 0.0)
    with pytest.raises(DomainError):
        r_of_x(p, 25.0 * (1.0 + 1e-9))
    with pytest.raises(DomainError):
        x_of_r(p, -1.0)


# ---------------------------------------------------------------- spectrum

def test_spectrum_empty_at_threshold():
    assert spectrum(make_params(1.0, 1.0)) == []


def test_spectrum_v25_beta1():
    states = spectrum(make_params(25.0, 1.0))
    assert len(states) == 3
    nus = [s.nu for s in states]
    assert np.allclose(nus, [6.1, 3.2, 0.9], atol=0.1)
    for s in states:
        assert math.isclose(s.energy, -(s.nu / 2.0) ** 2, rel_tol=1e-14)


def test_spectrum_v25_beta2_single_state():
    # z0 = 5 lies between j_{1,1} ~ 3.83 and j_{0,2} ~ 5.52
    states = spectrum(make_params(25.0, 2.0))
    assert len(states) == 1


def test_spectrum_state_invariants():
    p = make_params(25.0, 1.0)
    states = spectrum(p)
    for i, s in enumerate(states):
        assert s.n == i
        assert s.alpha == s.nu * p.beta / 2.0
        assert s.energy == -(p.hbar * s.alpha) ** 2 / (2.0 * p.mu)
        assert s.energy < 0.0
        assert s.norm_c == 1.0
    for a, b in zip(states, states[1:]):
        assert a.nu > b.nu
        assert a.energy < b.energy


def test_spectrum_counts_just_above_each_threshold():
    # z0 = j_{0,k} (1 + 1e-6) binds exactly k states; the shallowest has
    # nu ~ 1e-6 .. 4e-5, below the 0.05 step of the order scan.
    for k, j0k in enumerate(jn_zeros(0, 18), start=1):
        z0 = float(j0k) * (1.0 + 1e-6)
        states = spectrum(make_params(z0 * z0 / 4.0, 1.0))
        assert len(states) == k
        assert 0.0 < states[-1].nu < 1e-4


def test_compute_spectrum_carries_warnings_tuple():
    res = compute_spectrum(make_params(25.0, 1.0))
    assert res.warnings == ()
    assert len(res.states) == 3


# ------------------------------------------------------------ wavefunction

def test_wavefunction_vanishes_at_origin():
    p = make_params(25.0, 1.0)
    for s in spectrum(p):
        r = np.linspace(0.0, 20.0, 2001)
        u = wavefunction(p, s, r)
        assert abs(u[0]) <= 1e-10 * np.max(np.abs(u))


def test_wavefunction_tail_is_tiny():
    p = make_params(25.0, 1.0)
    for s in spectrum(p):
        r = np.linspace(0.0, 20.0, 2001)
        umax = np.max(np.abs(wavefunction(p, s, r)))
        assert abs(wavefunction(p, s, 50.0)) < 1e-8 * umax


def test_wavefunction_rejects_foreign_state():
    p = make_params(25.0, 1.0)
    s = spectrum(p)[0]
    other = make_params(20.0, 1.0)
    with pytest.raises(ParameterMismatchError):
        wavefunction(other, s, 1.0)


def test_wavefunction_matches_independent_numerov_pointwise():
    p = make_params(25.0, 1.0)
    s = spectrum(p)[0]
    r, u_num = _numerov_inward(p.v0, p.beta, s.energy, 45.0, 45001)
    sel = (r >= 0.2) & (r <= 10.0)
    u_ana = wavefunction(p, s, r[sel])
    scale = float(np.dot(u_num[sel], u_ana) / np.dot(u_num[sel], u_num[sel]))
    resid = np.abs(u_num[sel] * scale - u_ana)
    assert np.max(resid) <= 1e-5 * np.max(np.abs(u_ana))


def test_wavefunction_ground_state_value_at_r1():
    from expwell import bessel_j
    p = make_params(25.0, 1.0)
    s = spectrum(p)[0]
    expected = s.norm_c * bessel_j(s.nu, 10.0 * math.exp(-0.5))
    assert wavefunction(p, s, 1.0) == expected


def test_wavefunction_table_shapes_and_radial_part():
    p = make_params(25.0, 1.0)
    s = spectrum(p)[0]
    grid = np.linspace(0.0, 10.0, 101)
    t = wavefunction_table(p, s, grid)
    assert len(t.r_grid) == len(t.u_values) == len(t.R_values)
    assert math.isnan(t.R_values[0])
    assert np.allclose(t.R_values[1:], t.u_values[1:] / t.r_grid[1:])


def test_wavefunction_node_counts():
    p = make_params(25.0, 1.0)
    for s in spectrum(p):
        r = np.linspace(0.0, 20.0, 4001)
        u = wavefunction(p, s, r)[1:]
        sgn = np.sign(u[u != 0.0])
        assert int(np.sum(sgn[1:] != sgn[:-1])) == s.n


# ------------------------------------------------------------- normalize

def test_normalize_unit_integral_by_independent_trapezoid():
    p = make_params(25.0, 1.0)
    for s in spectrum(p):
        sn = normalize(p, s)
        r = np.linspace(0.0, 60.0, 120001)
        u = wavefunction(p, sn, r)
        integral = np.trapezoid(u * u, r)
        assert abs(integral - 1.0) <= 1e-8


def test_normalize_idempotent():
    p = make_params(25.0, 1.0)
    s1 = normalize(p, spectrum(p)[0])
    s2 = normalize(p, s1)
    assert math.isclose(s1.norm_c, s2.norm_c, rel_tol=1e-10)


def test_normalize_matches_numerov_normalization():
    p = make_params(25.0, 1.0)
    s = spectrum(p)[0]
    sn = normalize(p, s)
    r, u_num = _numerov_inward(p.v0, p.beta, s.energy, 45.0, 45001)
    u_num = u_num / math.sqrt(np.trapezoid(u_num * u_num, r))
    # the normalized oracle solution is norm_c * J profile up to sign
    profile = wavefunction(p, s, r)  # norm_c = 1
    scale = float(np.dot(u_num, profile) / np.dot(profile, profile))
    assert math.isclose(abs(scale), sn.norm_c, rel_tol=1e-4)


@pytest.mark.parametrize("z0", [10.0, 30.0, 45.0])
def test_normalize_matches_scipy_quadrature(z0):
    p = make_params(z0 * z0 / 4.0, 1.0)
    for s in spectrum(p):
        _assert_norm_close(p, s, 1e-10)


@pytest.mark.parametrize("nu", [1e-3, 1.1e-4])
def test_normalize_barely_bound_state(nu):
    z0 = brentq(lambda z: jv(nu, z), 2.3, 2.5, xtol=1e-15)
    p = make_params(z0 * z0 / 4.0, 1.0)
    (s,) = spectrum(p)
    assert math.isclose(s.nu, nu, rel_tol=1e-8)
    _assert_norm_close(p, s, 1e-10)


def test_normalize_all_states_at_envelope_edge():
    # the bound is set by QUADPACK's error estimate on the reference (up to
    # 1.5e-10 relative at z0 = 60), not by normalize
    p = make_params(900.0, 1.0)
    states = spectrum(p)
    assert len(states) == 19
    for s in states:
        _assert_norm_close(p, s, 2e-9)


# ------------------------------------------------------------ scaling law

def test_scaling_law_exact():
    cfg = SolverConfig()
    for v0, beta in ((25.0, 1.0), (6.0, 1.0)):
        s1 = spectrum(make_params(v0, beta), cfg)
        s2 = spectrum(make_params(4.0 * v0, 2.0 * beta), cfg)
        assert len(s1) == len(s2)
        for a, b in zip(s1, s2):
            assert abs(a.nu - b.nu) <= cfg.root_tol
            assert abs(b.energy / a.energy - 4.0) <= 1e-10


def test_potential_params_rejects_inconsistent_derived_fields():
    from expwell import PotentialParams
    with pytest.raises(DomainError):
        PotentialParams(v0=25.0, beta=1.0, mu=0.5, hbar=1.0,
                        gamma=4.9, z0=10.0)
    with pytest.raises(DomainError):
        PotentialParams(v0=25.0, beta=1.0, mu=0.5, hbar=1.0,
                        gamma=5.0, z0=9.0)


def test_wavefunction_table_validation():
    from expwell import WavefunctionTable
    with pytest.raises(ValueError):
        WavefunctionTable(r_grid=np.array([0.0, 1.0]),
                          u_values=np.array([0.0]))
    with pytest.raises(ValueError):
        WavefunctionTable(r_grid=np.array([0.0, 1.0]),
                          u_values=np.array([0.0, np.inf]))
