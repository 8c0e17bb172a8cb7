"""Bound states of the attractive exponential well V(r) = -V0 exp(-beta r).

The reduced radial equation u'' - alpha^2 u + gamma^2 exp(-beta r) u = 0
(s wave, alpha^2 = -2 mu E / hbar^2, gamma^2 = 2 mu V0 / hbar^2) has the
closed-form solution u(r) = C J_nu(z0 exp(-beta r / 2)) with nu = 2 alpha /
beta and z0 = 2 gamma / beta.  Regularity of R = u/r at the origin forces
u(0) = 0, so the spectrum is the set of orders nu > 0 with J_nu(z0) = 0;
the companion solution J_(-nu) blows up as r -> infinity and is discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import DomainError, ParameterMismatchError
from .specfun import _bessel_j_dnu_next, bessel_j, find_nu_zeros

__all__ = [
    "PotentialParams",
    "BoundState",
    "WavefunctionTable",
    "SpectrumResult",
    "make_params",
    "x_of_r",
    "r_of_x",
    "spectrum",
    "compute_spectrum",
    "wavefunction",
    "wavefunction_table",
    "normalize",
]


@dataclass(frozen=True)
class PotentialParams:
    """Physical inputs plus the derived well-strength parameters.

    gamma = sqrt(2 mu V0) / hbar and z0 = 2 gamma / beta.  The default
    convention used throughout (hbar = 1, 2 mu = 1) makes gamma^2 = V0 and
    energies E = -alpha^2.
    """

    v0: float
    beta: float
    mu: float
    hbar: float
    gamma: float
    z0: float

    def __post_init__(self):
        for name in ("v0", "beta", "mu", "hbar"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"PotentialParams: {name} must be positive")
        if not math.isclose(self.gamma * self.gamma,
                            2.0 * self.mu * self.v0 / self.hbar ** 2,
                            rel_tol=1e-12):
            raise DomainError("PotentialParams: gamma inconsistent with inputs")
        if not math.isclose(self.z0, 2.0 * self.gamma / self.beta,
                            rel_tol=1e-12):
            raise DomainError("PotentialParams: z0 inconsistent with inputs")


def make_params(v0: float, beta: float, mu: float = 0.5,
                hbar: float = 1.0) -> PotentialParams:
    """Build PotentialParams; defaults implement the hbar=1, 2mu=1 convention."""
    if not (v0 > 0.0 and beta > 0.0 and mu > 0.0 and hbar > 0.0):
        raise DomainError("make_params: all physical inputs must be positive")
    gamma_ = math.sqrt(2.0 * mu * v0) / hbar
    return PotentialParams(v0=float(v0), beta=float(beta), mu=float(mu),
                           hbar=float(hbar), gamma=gamma_,
                           z0=2.0 * gamma_ / beta)


@dataclass(frozen=True)
class BoundState:
    """One bound level: n = 0 is the most strongly bound state.

    alpha = nu * beta / 2 and energy = -(hbar * alpha)^2 / (2 mu) are
    derived exactly from nu; norm_c is 1 until ``normalize`` is applied.
    """

    n: int
    nu: float
    alpha: float
    energy: float
    norm_c: float = 1.0


@dataclass(frozen=True)
class WavefunctionTable:
    """u(r) sampled on an ascending radial grid; R = u/r is NaN at r = 0."""

    r_grid: np.ndarray
    u_values: np.ndarray
    R_values: np.ndarray | None = None

    def __post_init__(self):
        if len(self.r_grid) != len(self.u_values):
            raise ValueError("WavefunctionTable: mismatched lengths")
        if self.R_values is not None and len(self.R_values) != len(self.r_grid):
            raise ValueError("WavefunctionTable: mismatched lengths")
        if not np.all(np.isfinite(self.u_values)):
            raise ValueError("WavefunctionTable: u must be finite")


@dataclass(frozen=True)
class SpectrumResult:
    """Spectrum plus non-fatal warnings (none from the analytic route)."""

    states: tuple[BoundState, ...]
    warnings: tuple[str, ...]


def x_of_r(p: PotentialParams, r):
    """Change of variables x = (gamma/beta)^2 exp(-beta r), r >= 0."""
    r_a = np.asarray(r, dtype=float)
    if not np.all(r_a >= 0.0):
        raise DomainError("x_of_r: r must be non-negative")
    x = (p.gamma / p.beta) ** 2 * np.exp(-p.beta * r_a)
    return float(x) if np.isscalar(r) else x


def r_of_x(p: PotentialParams, x):
    """Inverse map; defined for 0 < x <= (gamma/beta)^2."""
    x_a = np.asarray(x, dtype=float)
    x_max = (p.gamma / p.beta) ** 2
    if not np.all((x_a > 0.0) & (x_a <= x_max)):
        raise DomainError(f"r_of_x: x must lie in (0, {x_max:g}]")
    r = np.log(x_max / x_a) / p.beta
    return float(r) if np.isscalar(x) else r


def _state_from_nu(p: PotentialParams, n: int, nu: float) -> BoundState:
    alpha = nu * p.beta / 2.0
    energy = -(p.hbar * alpha) ** 2 / (2.0 * p.mu)
    return BoundState(n=n, nu=nu, alpha=alpha, energy=energy, norm_c=1.0)


def compute_spectrum(p: PotentialParams,
                     cfg: SolverConfig = DEFAULT_CONFIG) -> SpectrumResult:
    """All bound states of p, most bound (largest nu) first."""
    zeros = find_nu_zeros(p.z0, cfg).zeros
    states = tuple(_state_from_nu(p, n, nu)
                   for n, nu in enumerate(reversed(zeros)))
    return SpectrumResult(states=states, warnings=())


def spectrum(p: PotentialParams,
             cfg: SolverConfig = DEFAULT_CONFIG) -> list[BoundState]:
    """Bound states ordered by n (decreasing nu, increasing energy)."""
    return list(compute_spectrum(p, cfg).states)


def _check_state(p: PotentialParams, s: BoundState, j: float,
                 residual_tol: float):
    """Raise unless j = J_nu(z0) is within residual_tol of 0."""
    res = abs(j)
    if res > residual_tol:
        raise ParameterMismatchError(
            f"state nu={s.nu:.12g} is not quantized for z0={p.z0:.12g}: "
            f"|J_nu(z0)|={res:.3e} exceeds {residual_tol:.1e}")


def wavefunction(p: PotentialParams, s: BoundState, r,
                 cfg: SolverConfig = DEFAULT_CONFIG):
    """u(r) = norm_c * J_nu(z0 exp(-beta r / 2)) for r >= 0 (scalar or array)."""
    _check_state(p, s, bessel_j(s.nu, p.z0), cfg.residual_tol)
    r_a = np.asarray(r, dtype=float)
    if not np.all(r_a >= 0.0):
        raise DomainError("wavefunction: r must be non-negative")
    arg = p.z0 * np.exp(-0.5 * p.beta * r_a)
    u = s.norm_c * bessel_j(s.nu, arg)
    return float(u) if np.isscalar(r) else u


def wavefunction_table(p: PotentialParams, s: BoundState, r_grid,
                       cfg: SolverConfig = DEFAULT_CONFIG,
                       with_radial: bool = True) -> WavefunctionTable:
    """Sample u (and R = u/r) on an ascending grid."""
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or len(r) < 2 or not np.all(np.diff(r) > 0.0):
        raise DomainError("wavefunction_table: grid must be ascending 1-D")
    u = wavefunction(p, s, r, cfg)
    R = None
    if with_radial:
        with np.errstate(divide="ignore", invalid="ignore"):
            R = np.where(r > 0.0, u / r, np.nan)
    return WavefunctionTable(r_grid=r, u_values=u, R_values=R)


def normalize(p: PotentialParams, s: BoundState,
              cfg: SolverConfig = DEFAULT_CONFIG) -> BoundState:
    """Return s with norm_c set so that integral_0^inf u(r)^2 dr = 1.

    Closed form, no quadrature.  With t = z0 exp(-beta r / 2) the integral
    is (2/beta) integral_0^z0 J_nu(t)^2 / t dt.  Lommel's integral in the
    order (Watson, Treatise on Bessel Functions, 5.11) evaluated at a zero
    J_nu(z0) = 0, where J_nu'(z0) = -J_(nu+1)(z0), turns it into
    z0 J_(nu+1)(z0) dJ_nu/dnu(z0) / (beta nu).  This holds for every
    nu > 0, barely-bound states included.  Against quadrature it is good
    to ~4e-14 relative for z0 <= 45 and ~3e-14 for all 19 states at
    z0 = 60.  J_nu, dJ_nu/dnu and J_(nu+1) come from one Miller run.
    """
    j, dj_dnu, j_next = _bessel_j_dnu_next(s.nu, p.z0)
    _check_state(p, s, j, cfg.residual_tol)
    total = p.z0 * j_next * dj_dnu / (p.beta * s.nu)
    if not (total > 0.0 and math.isfinite(total)):
        raise DomainError("normalize: integral of u^2 is not positive")
    return replace(s, norm_c=1.0 / math.sqrt(total))
