"""Oracle tests: Numerov shooting, finite-difference spectra, ODE residual."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv

from expwell import (
    DomainError,
    GridTooCoarseError,
    RadialGrid,
    SolverConfig,
    default_grid,
    fd_spectrum,
    make_params,
    numerov_mismatch,
    numerov_spectrum,
    ode_residual,
    spectrum,
    wavefunction_table,
)
import expwell
from expwell import oracle


def _scipy_reference_energies(v0, beta):
    """Independent analytic energies: -(nu beta / 2)^2 from scipy Bessel zeros."""
    z0 = 2.0 * math.sqrt(v0) / beta
    grid = np.arange(0.002, z0, 0.002)
    vals = jv(grid, z0)
    nus = [brentq(lambda n: jv(n, z0), grid[i], grid[i + 1], xtol=1e-13)
           for i in range(len(grid) - 1) if vals[i] * vals[i + 1] < 0.0]
    return sorted(-(nu * beta / 2.0) ** 2 for nu in nus)


# --------------------------------------------------------------- mismatch

def test_mismatch_no_sign_change_below_well_floor():
    p = make_params(25.0, 1.0)
    g = default_grid(p)
    energies = np.linspace(-80.0, -25.5, 60)
    m = numerov_mismatch(p, energies, g)
    assert np.all(m > 0.0) or np.all(m < 0.0)


def test_mismatch_brackets_exactly_three_roots_for_v25():
    p = make_params(25.0, 1.0)
    g = default_grid(p)
    energies = np.linspace(-25.0, 0.0, 502)[1:-1]
    m = numerov_mismatch(p, energies, g)
    crossings = int(np.sum(m[:-1] * m[1:] < 0.0))
    assert crossings == 3


def test_mismatch_small_at_analytic_eigenvalues():
    p = make_params(25.0, 1.0)
    g = RadialGrid(r_max=45.0, n_points=9001)
    for e in _scipy_reference_energies(25.0, 1.0):
        assert abs(numerov_mismatch(p, e, g)) <= 1e-6


def test_mismatch_scalar_equals_vector_bitwise():
    p = make_params(25.0, 1.0)
    g = default_grid(p)
    energies = np.array([-9.2, -2.5, -0.2])
    vec = numerov_mismatch(p, energies, g)
    for e, mv in zip(energies, vec):
        assert numerov_mismatch(p, float(e), g) == mv


def test_mismatch_rejects_non_negative_energy():
    p = make_params(25.0, 1.0)
    with pytest.raises(DomainError):
        numerov_mismatch(p, 0.5, default_grid(p))


# ---------------------------------------------------------------- spectra

def test_numerov_spectrum_empty_at_threshold():
    p = make_params(1.0, 1.0)
    assert numerov_spectrum(p).energies == ()


def _run_python(code, timeout=None):
    """stdout of a fresh interpreter running code against this expwell."""
    src = str(Path(expwell.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True,
                          timeout=timeout).stdout


def test_import_leaves_scipy_unloaded():
    # expwell never imports scipy: only the test references use it
    code = ("import sys, expwell; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python(code).strip() == "[]"


def test_import_leaves_numpy_polynomial_unloaded():
    # the Mellin quadrature holds its Gauss-Legendre rule as literals
    code = ("import sys, expwell; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('numpy.polynomial')))")
    assert _run_python(code).strip() == "[]"


def test_numerov_spectrum_returns_when_energies_exceed_2_16():
    # |E| >= 2^16: one ulp of E exceeds energy_tol = 1e-11, so bisection
    # must stop once the midpoint equals an end of the bracket.  One grid
    # is enough to reach it, at half the cost of the Richardson pair.
    code = ("from expwell import make_params, numerov_spectrum; "
            "p = make_params(137000.0, 3.8, 0.116, 1.9); "
            "s = numerov_spectrum(p, richardson=False); "
            "print(len(s.energies), p.z0)")
    count, z0 = _run_python(code, timeout=60).split()
    assert float(z0) == pytest.approx(49.4, abs=0.05)
    assert int(count) == 15


def test_fd_spectrum_empty_at_threshold():
    p = make_params(1.0, 1.0)
    assert fd_spectrum(p).energies == ()


def test_numerov_spectrum_matches_reference_v25():
    p = make_params(25.0, 1.0)
    ref = _scipy_reference_energies(25.0, 1.0)
    got = numerov_spectrum(p).energies
    assert len(got) == 3
    for a, b in zip(ref, got):
        assert abs(a - b) / abs(a) <= 1e-6


def test_fd_spectrum_matches_reference_v25():
    p = make_params(25.0, 1.0)
    ref = _scipy_reference_energies(25.0, 1.0)
    got = fd_spectrum(p).energies
    assert len(got) == 3
    for a, b in zip(ref, got):
        assert abs(a - b) / abs(a) <= 1e-5


def test_fd_spectrum_counts_every_level():
    # z0 = 33.9 (11 levels) and z0 = 60 (19 levels): more than the ten
    # lowest eigenvalues that FD once returned
    for v0, n_levels in ((287.0, 11), (900.0, 19)):
        p = make_params(v0, 1.0)
        assert len(spectrum(p)) == n_levels
        assert len(fd_spectrum(p).energies) == n_levels


def test_numerov_spectrum_keeps_barely_bound_top_level():
    # nu = 0.068: the top level sits at E = -1.15e-3, just below the E = 0
    # end of the count bracket
    p = make_params(287.0, 1.0)
    analytic = sorted(s.energy for s in spectrum(p))
    got = numerov_spectrum(p).energies
    assert len(got) == len(analytic) == 11
    assert analytic[-1] == pytest.approx(-1.1472e-3, rel=1e-4)
    assert abs(got[-1] - analytic[-1]) <= 1e-6 * abs(analytic[-1])


def test_numerov_spectrum_rejects_grid_too_coarse_to_count():
    # h^2 gamma^2 >= 12 lets 1 - h^2 q / 12 change sign, and node counts
    # stop counting levels
    p = make_params(900.0, 1.0)
    with pytest.raises(GridTooCoarseError):
        numerov_spectrum(p, RadialGrid(45.0, 101))


def test_numerov_spectrum_sweep_budget(monkeypatch):
    # count brackets and secant steps: 32 sweeps here, against 190 scalar
    # bisection sweeps plus two 500-energy scans before
    calls = []
    sweep = oracle._numerov_sweep
    monkeypatch.setattr(oracle, "_numerov_sweep",
                        lambda *a: calls.append(a) or sweep(*a))
    assert len(numerov_spectrum(make_params(25.0, 1.0)).energies) == 3
    assert len(calls) <= 60


def test_node_count_is_levels_below_energy():
    # the count bracketing rests on it: sign changes of the inward solution
    # down to r = 0 count the levels below E, and sign(u(0)) = (-1)^count
    p = make_params(25.0, 1.0)
    for kind, sweep, solve in (("numerov", oracle._numerov_sweep,
                                numerov_spectrum),
                               ("fd", oracle._fd_sweep, fd_spectrum)):
        g = default_grid(p, kind)
        pot = oracle._potential_samples(p, g)
        levels = solve(p, g, richardson=False).energies
        for e in (-25.0, -20.0, -9.0, -5.0, -2.0, -1.0, -0.1, 0.0):
            nodes, mism = sweep(pot, g.h, -e)
            assert nodes == sum(1 for lv in levels if lv < e)
            assert (mism < 0.0) == (nodes % 2 == 1)


def test_sweep_start_changes_rounding_only(monkeypatch):
    # starting where the growth from the turning point reaches e^25 leaves
    # out grid points that change u by about e^-50 relative
    p = make_params(900.0, 1.0)
    for kind, sweep in (("numerov", oracle._numerov_sweep),
                        ("fd", oracle._fd_sweep)):
        g = default_grid(p, kind)
        pot = oracle._potential_samples(p, g)
        for alpha2 in np.linspace(0.0, 900.0, 61):
            assert len(oracle._swept(pot, g.h, alpha2)) <= len(pot)
            cut = sweep(pot, g.h, alpha2)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_swept", lambda pot, h, alpha2: pot)
                full = sweep(pot, g.h, alpha2)
            assert cut[0] == full[0]
            assert abs(cut[1] - full[1]) <= 1e-14


def test_richardson_gap_bounds_the_error():
    # the gap of the O(h^4) Numerov levels is below 1e-6 |E|; that of the
    # O(h^2) FD levels reaches 9.4e-5 |E| for the top level
    p = make_params(25.0, 1.0)
    analytic = sorted(s.energy for s in spectrum(p))
    for spec, rel in ((numerov_spectrum(p), 1e-6), (fd_spectrum(p), 1e-4)):
        assert len(spec.errors) == len(spec.energies) == 3
        for e, gap, exact in zip(spec.energies, spec.errors, analytic):
            assert gap < rel * abs(e)
            assert abs(exact - e) <= 2.0 * gap
    assert numerov_spectrum(p, richardson=False).errors == (None,) * 3


def test_numerov_self_convergence_under_grid_halving():
    p = make_params(25.0, 1.0)
    cfg = SolverConfig()
    g1 = RadialGrid(r_max=45.0, n_points=2251)
    g2 = RadialGrid(r_max=45.0, n_points=4501)
    e1 = numerov_spectrum(p, g1, cfg).energies
    e2 = numerov_spectrum(p, g2, cfg).energies
    assert len(e1) == len(e2) == 3
    for a, b in zip(e1, e2):
        assert abs(a - b) / abs(a) < 1e-6


def test_method_agreement_all_cases():
    for v0, beta in ((25.0, 1.0), (100.0, 2.0), (6.0, 1.0)):
        p = make_params(v0, beta)
        analytic = sorted(s.energy for s in spectrum(p))
        num = numerov_spectrum(p).energies
        fd = fd_spectrum(p).energies
        assert len(analytic) == len(num) == len(fd)
        for a, b, c in zip(analytic, num, fd):
            assert abs(b - a) / abs(a) <= 1e-5
            assert abs(c - a) / abs(a) <= 1e-5
            assert -v0 < a < 0.0


def test_randomized_count_agreement_between_oracles():
    # z0 kept 0.1 away from the J_0 zeros: counts at the exact threshold are
    # resolution-limited for any finite grid
    j0_zeros = [2.404825557695773, 5.520078110286311, 8.653727912911013,
                11.791534439014281, 14.930917708487787, 18.071063967910924,
                21.211636629879258, 24.352471530749302]
    rng = np.random.default_rng(20250809)
    picked = 0
    while picked < 10:
        v0 = float(rng.uniform(0.5, 40.0))
        beta = float(rng.uniform(0.4, 2.5))
        z0 = 2.0 * math.sqrt(v0) / beta
        if not 1.0 < z0 < 25.0:
            continue
        if min(abs(z0 - j) for j in j0_zeros) < 0.1:
            continue
        picked += 1
        p = make_params(v0, beta)
        n_num = len(numerov_spectrum(p).energies)
        n_fd = len(fd_spectrum(p).energies)
        n_ana = len(spectrum(p))
        assert n_num == n_fd == n_ana, (v0, beta, z0)


def test_fd_variational_monotonicity_in_r_max():
    # truncation at r_max raises eigenvalues; same h so the h^2 bias cancels
    p = make_params(25.0, 1.0)
    cfg = SolverConfig()
    prev = None
    converged = fd_spectrum(p).energies
    for r_max in (20.0, 30.0, 40.0):
        n = int(round(r_max / 0.005)) + 1
        vals = fd_spectrum(p, RadialGrid(r_max, n), cfg=cfg,
                           richardson=False).energies
        assert len(vals) == 3
        for e_trunc, e_conv in zip(vals, converged):
            assert e_trunc >= e_conv - 5e-4  # h^2 headroom at h = 0.005
        if prev is not None:
            for a, b in zip(prev, vals):
                # 1e-9 slack: for deep states the truncation shift is far
                # below the eigensolver's rounding jitter
                assert b <= a + 1e-9
        prev = vals


def test_radial_grid_validation():
    with pytest.raises(DomainError):
        RadialGrid(r_max=-1.0, n_points=500)
    with pytest.raises(DomainError):
        RadialGrid(r_max=10.0, n_points=50)
    g = RadialGrid(r_max=10.0, n_points=101)
    assert math.isclose(g.h, 0.1, rel_tol=1e-15)
    assert g.refined().n_points == 201


# ------------------------------------------------------------ ODE residual

def test_ode_residual_zero_table():
    p = make_params(25.0, 1.0)
    from expwell import WavefunctionTable
    r = np.linspace(0.0, 10.0, 101)
    t = WavefunctionTable(r_grid=r, u_values=np.zeros_like(r))
    assert ode_residual(p, t, 1.0) == 0.0


def test_ode_residual_small_at_true_eigenvalue():
    p = make_params(25.0, 1.0)
    for s in spectrum(p):
        r = np.arange(0.0, 12.0, 1e-3)
        t = wavefunction_table(p, s, r, with_radial=False)
        assert ode_residual(p, t, s.alpha) <= 1e-6


def test_ode_residual_detects_wrong_energy():
    p = make_params(25.0, 1.0)
    for s in spectrum(p):
        r = np.arange(0.0, 12.0, 1e-3)
        t = wavefunction_table(p, s, r, with_radial=False)
        assert ode_residual(p, t, s.alpha * (1.0 + 1e-3)) > 1e-4


def test_ode_residual_grid_requirements():
    p = make_params(25.0, 1.0)
    from expwell import WavefunctionTable
    r = np.linspace(0.0, 1.0, 4)
    t = WavefunctionTable(r_grid=r, u_values=np.ones_like(r))
    with pytest.raises(GridTooCoarseError):
        ode_residual(p, t, 1.0)
    r_bad = np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5])
    t_bad = WavefunctionTable(r_grid=r_bad, u_values=np.ones_like(r_bad))
    with pytest.raises(DomainError):
        ode_residual(p, t_bad, 1.0)
