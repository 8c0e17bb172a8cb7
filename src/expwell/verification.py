"""Cross-validation suite: every library claim checked against an
independent route (iteration vs closed form, quadrature vs Gamma ratios,
analytic spectrum vs two brute-force oracles).

Each check returns a :class:`CheckResult`; ``run_all`` executes the whole
suite.  The same checks back the ``expwell verify`` CLI command and the
acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mellin, oracle, solver, specfun
from .config import DEFAULT_CONFIG, SolverConfig

__all__ = ["CheckResult", "ACCEPTANCE_CASES", "SPECTRUM_REL_TOL", "run_all"]

#: (V0, beta) pairs, in the hbar = 1, 2 mu = 1 convention, used by the
#: spectrum cross-validation checks.
ACCEPTANCE_CASES = ((25.0, 1.0), (100.0, 2.0), (6.0, 1.0))

#: (V0, beta) pairs whose states the normalization check integrates: the
#: spectrum cases plus the deepest well of the envelope, z0 = 60.
NORMALIZATION_CASES = ACCEPTANCE_CASES + ((900.0, 1.0),)

#: Largest relative deviation of an oracle energy from the analytic one
#: that the spectrum cross-validation accepts; ``expwell spectrum`` warns
#: above it.
SPECTRUM_REL_TOL = 1e-5

_RHO_SET = (0.5, 1.3, 2.0, 3.7)
_SEED = 20250809


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name}: worst={self.worst:.3e} "
                f"tol={self.tolerance:.1e}  ({self.detail})")


def _result(name, worst, tol, detail) -> CheckResult:
    return CheckResult(name=name, passed=bool(worst <= tol), worst=float(worst),
                       tolerance=float(tol), detail=detail)


def check_difference_equation_integer() -> CheckResult:
    """Closed form vs direct iteration of g(y+1) = (rho^2 - y^2) g(y)."""
    worst = 0.0
    for rho in _RHO_SET:
        for n in range(21):
            it = mellin.g_iterate(rho, n, 1.0)
            cl = mellin.g_closed(rho, float(n), 1.0)
            if it == 0.0:
                err = abs(cl) / 1e-12 * 1e-10  # absolute 1e-12 at exact zeros
            else:
                err = abs(cl - it) / abs(it)
            worst = max(worst, err)
    return _result("difference-equation integer agreement", worst, 1e-10,
                   f"rho in {_RHO_SET}, n = 0..20")


def check_functional_equation() -> CheckResult:
    """g_closed satisfies the difference equation at non-integer y too."""
    from .errors import PoleError

    worst = 0.0
    tested = 0
    for rho in _RHO_SET:
        for y in (-0.5, 0.0, 0.7, 1.0, 2.5):
            try:
                lhs = mellin.g_closed(rho, y + 1.0, 1.0)
                rhs = (rho * rho - y * y) * mellin.g_closed(rho, y, 1.0)
            except PoleError:
                continue  # grid point sits on a Gamma pole (rho=0.5, y=-0.5)
            scale = max(abs(lhs), abs(rhs), 1e-300)
            worst = max(worst, abs(lhs - rhs) / scale)
            tested += 1
    return _result("functional equation at real y", worst, 1e-12,
                   f"{tested} (rho, y) pairs away from poles")


def check_mellin_pairs() -> CheckResult:
    """Numerical transform against the closed Bessel and Gamma forms."""
    worst_bessel = 0.0
    qcfg = mellin.QuadratureConfig(t_max=60.0)
    for nu in (0.5, 1.0, 2.7):
        for y in (0.25, 0.5):
            est = mellin.mellin_numeric(
                lambda x, nu=nu: specfun.bessel_j(nu, 2.0 * np.sqrt(x)), y, qcfg)
            closed = mellin.mellin_bessel_sqrt(nu, 2.0, y)
            worst_bessel = max(worst_bessel, abs(est.value - closed))
    worst_gamma = 0.0
    for y in (0.5, 1.0, 2.5, 5.0):
        est = mellin.mellin_numeric(lambda x: np.exp(-x), y)
        worst_gamma = max(worst_gamma, abs(est.value - specfun.gamma(y)))
    worst = max(worst_bessel, worst_gamma / 1e-10 * 1e-6)
    return _result("Mellin pair quadrature", worst, 1e-6,
                   f"Bessel pairs worst {worst_bessel:.2e} (tol 1e-6), "
                   f"Gamma worst {worst_gamma:.2e} (tol 1e-10)")


def check_matching_identity() -> CheckResult:
    """With g0 = 1/rho, both closed forms coincide on a y grid."""
    worst = 0.0
    y_grid = np.linspace(0.0, 3.0, 25)
    for rho in (0.5, 1.0, 2.5):
        a, nu, g0 = mellin.match_parameters(rho)
        for y in y_grid:
            lhs = mellin.g_closed(rho, float(y), g0)
            rhs = mellin.mellin_bessel_sqrt(nu, a, float(y))
            scale = max(abs(lhs), abs(rhs), 1.0)
            worst = max(worst, abs(lhs - rhs) / scale)
    return _result("matching identity a=2, nu=2*rho, g0=1/rho", worst, 1e-12,
                   "rho in {0.5, 1, 2.5}, y in [0, 3]")


def _three_spectra(v0: float, beta: float, cfg: SolverConfig):
    p = solver.make_params(v0, beta)
    analytic = np.sort([s.energy for s in solver.spectrum(p, cfg)])
    num = np.asarray(oracle.numerov_spectrum(p, cfg=cfg).energies)
    fd = np.asarray(oracle.fd_spectrum(p, cfg=cfg).energies)
    return p, analytic, num, fd


def check_spectrum_cross_validation(cases=ACCEPTANCE_CASES,
                                    cfg: SolverConfig = DEFAULT_CONFIG) -> CheckResult:
    """Analytic energies -(nu beta / 2)^2 vs both oracles, counts and values."""
    worst = 0.0
    counts = []
    for v0, beta in cases:
        _, analytic, num, fd = _three_spectra(v0, beta, cfg)
        counts.append((len(analytic), len(num), len(fd)))
        if not (len(analytic) == len(num) == len(fd)):
            return _result("spectrum cross-validation", math.inf,
                           SPECTRUM_REL_TOL,
                           f"count mismatch for (V0={v0}, beta={beta}): "
                           f"{counts[-1]}")
        for e_a, e_n, e_f in zip(analytic, num, fd):
            worst = max(worst, abs(e_n - e_a) / abs(e_a),
                        abs(e_f - e_a) / abs(e_a))
    return _result("spectrum cross-validation", worst, SPECTRUM_REL_TOL,
                   f"cases {cases}, counts {counts}")


def check_threshold_behavior(z0_max: int = 30,
                             cfg: SolverConfig = DEFAULT_CONFIG) -> CheckResult:
    """z0 = 2 binds nothing (all methods); state count never decreases in z0."""
    p2 = solver.make_params(1.0, 1.0)  # z0 = 2 exactly
    n_analytic = len(solver.spectrum(p2, cfg))
    n_num = len(oracle.numerov_spectrum(p2, cfg=cfg).energies)
    n_fd = len(oracle.fd_spectrum(p2, cfg=cfg).energies)
    if n_analytic or n_num or n_fd:
        return _result("threshold behavior", math.inf, 0.0,
                       f"z0=2 state counts (analytic, numerov, fd) = "
                       f"({n_analytic}, {n_num}, {n_fd}), expected zeros")
    counts = []
    for z0 in range(1, z0_max + 1):
        p = solver.make_params((0.5 * z0) ** 2, 1.0)  # z0 = 2 sqrt(V0)
        counts.append(len(solver.spectrum(p, cfg)))
    drops = sum(1 for i in range(1, len(counts))
                if counts[i] < counts[i - 1])
    return _result("threshold behavior", float(drops), 0.0,
                   f"z0=2 empty by all methods; counts over z0=1..{z0_max}: "
                   f"{counts}")


def check_wavefunction_validity(cases=ACCEPTANCE_CASES,
                                cfg: SolverConfig = DEFAULT_CONFIG) -> CheckResult:
    """u(0) ~ 0, node count = n, and the 5-point ODE residual, per state."""
    worst_u0 = 0.0
    worst_resid = 0.0
    node_fail = ""
    for v0, beta in cases:
        p = solver.make_params(v0, beta)
        for s in solver.spectrum(p, cfg):
            r_nodes = np.linspace(0.0, 20.0 / beta, 4001)
            u = solver.wavefunction(p, s, r_nodes, cfg)
            umax = float(np.max(np.abs(u)))
            worst_u0 = max(worst_u0, abs(u[0]) / umax)
            interior = u[1:]
            sgn = np.sign(interior[interior != 0.0])
            nodes = int(np.sum(sgn[1:] != sgn[:-1]))
            if nodes != s.n:
                node_fail += f" (V0={v0},beta={beta},n={s.n}: {nodes} nodes)"
            h = 1e-3 / beta
            r_res = np.arange(0.0, 12.0 / beta, h)
            table = solver.wavefunction_table(p, s, r_res, cfg,
                                              with_radial=False)
            worst_resid = max(worst_resid,
                              oracle.ode_residual(p, table, s.alpha))
    if node_fail:
        return _result("wavefunction validity", math.inf, 1e-6,
                       "node count mismatch:" + node_fail)
    worst = max(worst_u0 / 1e-8 * 1e-6, worst_resid)
    return _result("wavefunction validity", worst, 1e-6,
                   f"|u(0)|/max|u| worst {worst_u0:.2e} (tol 1e-8), "
                   f"residual worst {worst_resid:.2e} (tol 1e-6), "
                   f"node counts all correct")


def check_normalization(cases=NORMALIZATION_CASES,
                        cfg: SolverConfig = DEFAULT_CONFIG) -> CheckResult:
    """Lommel's closed-form norm vs the trapezoid rule on u^2, per state."""
    worst = 0.0
    n_states = 0
    for v0, beta in cases:
        p = solver.make_params(v0, beta)
        r = np.linspace(0.0, 45.0 / beta, 9001)
        for s in solver.spectrum(p, cfg):
            u = solver.wavefunction(p, solver.normalize(p, s, cfg), r, cfg)
            worst = max(worst, abs(float(np.trapezoid(u * u, r)) - 1.0))
            n_states += 1
    return _result("normalization", worst, 1e-9,
                   f"|integral u^2 - 1|, trapezoid rule on [0, 45/beta] with "
                   f"9001 points, {n_states} states of {cases}")


def check_scaling_exactness(cfg: SolverConfig = DEFAULT_CONFIG) -> CheckResult:
    """(V0, beta) -> (4 V0, 2 beta) keeps every nu and multiplies E by 4."""
    worst_nu = 0.0
    worst_ratio = 0.0
    for v0, beta in ((25.0, 1.0), (6.0, 1.0), (12.25, 1.0)):
        s1 = solver.spectrum(solver.make_params(v0, beta), cfg)
        s2 = solver.spectrum(solver.make_params(4.0 * v0, 2.0 * beta), cfg)
        if len(s1) != len(s2):
            return _result("scaling exactness", math.inf, 1e-10,
                           f"count changed under scaling for V0={v0}")
        for a, b in zip(s1, s2):
            worst_nu = max(worst_nu, abs(a.nu - b.nu))
            worst_ratio = max(worst_ratio, abs(b.energy / a.energy - 4.0))
    worst = max(worst_nu / cfg.root_tol * 1e-10, worst_ratio)
    return _result("scaling exactness", worst, 1e-10,
                   f"worst |dnu| {worst_nu:.2e} (tol {cfg.root_tol:.0e}), "
                   f"worst |E ratio - 4| {worst_ratio:.2e}")


def check_bessel_recurrence(samples: int = 200) -> CheckResult:
    """Three-term recurrence on random (nu, z); J_{1/2}(pi) = 0 exactly."""
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(samples):
        nu = rng.uniform(1.0, 20.0)
        z = rng.uniform(0.5, 30.0)
        jm = specfun.bessel_j(nu - 1.0, z)
        j0 = specfun.bessel_j(nu, z)
        jp = specfun.bessel_j(nu + 1.0, z)
        resid = abs(jm + jp - (2.0 * nu / z) * j0)
        worst = max(worst, resid / max(abs(jm), abs(j0), abs(jp)))
    half_pi = abs(specfun.bessel_j(0.5, math.pi))
    worst = max(worst, half_pi / 1e-12 * 1e-10)
    return _result("Bessel recurrence suite", worst, 1e-10,
                   f"{samples} random (nu, z) draws, seed {_SEED}; "
                   f"|J_1/2(pi)| = {half_pi:.2e} (tol 1e-12)")


def run_all(quick: bool = False) -> list[CheckResult]:
    """Execute the full suite (or a reduced but same-tolerance quick pass)."""
    if quick:
        cases = ((25.0, 1.0),)
        return [
            check_difference_equation_integer(),
            check_functional_equation(),
            check_matching_identity(),
            check_spectrum_cross_validation(cases),
            check_threshold_behavior(z0_max=6),
            check_wavefunction_validity(cases),
            check_normalization(cases),
            check_scaling_exactness(),
            check_bessel_recurrence(samples=40),
        ]
    return [
        check_difference_equation_integer(),
        check_functional_equation(),
        check_mellin_pairs(),
        check_matching_identity(),
        check_spectrum_cross_validation(),
        check_threshold_behavior(),
        check_wavefunction_validity(),
        check_normalization(),
        check_scaling_exactness(),
        check_bessel_recurrence(),
    ]
