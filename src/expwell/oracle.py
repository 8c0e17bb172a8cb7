"""Brute-force verification of the spectrum, independent of the analytic route.

Two methods solve u'' - alpha^2 u + gamma^2 exp(-beta r) u = 0 directly:

* Numerov shooting: integrate inward from r_max (the decaying solution is
  integrated against its growing companion, which is the stable direction)
  and locate energies where u(0) = 0.
* Finite differences: symmetric tridiagonal discretization with Dirichlet
  ends, lowest eigenvalues via LAPACK's Sturm-count bisection.

Both support Richardson extrapolation across grids h and h/2 (Numerov has
O(h^4) leading error, the finite-difference Laplacian O(h^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import DomainError, GridTooCoarseError
from .solver import PotentialParams, WavefunctionTable

__all__ = [
    "RadialGrid",
    "OracleSpectrum",
    "default_grid",
    "numerov_mismatch",
    "numerov_spectrum",
    "fd_spectrum",
    "ode_residual",
]

_RESCALE_LIMIT = 1e250


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [0, r_max] with n_points samples."""

    r_max: float
    n_points: int

    def __post_init__(self):
        if self.r_max <= 0.0:
            raise DomainError("RadialGrid: r_max must be positive")
        if self.n_points < 100:
            raise DomainError("RadialGrid: need at least 100 points")

    @property
    def h(self) -> float:
        return self.r_max / (self.n_points - 1)

    def refined(self) -> "RadialGrid":
        """Same extent, halved step."""
        return RadialGrid(self.r_max, 2 * (self.n_points - 1) + 1)


@dataclass(frozen=True)
class OracleSpectrum:
    """Negative eigenvalues found by one oracle, ascending."""

    energies: tuple[float, ...]
    method: str  # "numerov" or "finite_difference"
    grid: RadialGrid
    richardson_applied: bool

    def __post_init__(self):
        if any(e >= 0.0 for e in self.energies):
            raise ValueError("OracleSpectrum: energies must be negative")
        if list(self.energies) != sorted(self.energies):
            raise ValueError("OracleSpectrum: energies must ascend")


def default_grid(p: PotentialParams, kind: str = "numerov",
                 cfg: SolverConfig = DEFAULT_CONFIG) -> RadialGrid:
    """Grid sized for the well range: r_max = r_max_factor / beta.

    Adequate for states with decay constant alpha >= ~20 beta/r_max_factor;
    the default factor 45 covers every state of the acceptance envelope.
    """
    n = cfg.numerov_points if kind == "numerov" else cfg.fd_points
    return RadialGrid(r_max=cfg.r_max_factor / p.beta, n_points=n)


def _alpha2(p: PotentialParams, E) -> np.ndarray:
    return -2.0 * p.mu * np.asarray(E, dtype=float) / p.hbar ** 2


def _numerov_sweep_vec(pot: np.ndarray, h: float,
                       alpha2: np.ndarray) -> np.ndarray:
    """u(0)/max|u| for a vector of alpha^2 values (inward integration)."""
    n = len(pot)
    h2_12 = h * h / 12.0
    alpha = np.sqrt(alpha2)
    u_next = np.ones_like(alpha2)
    u_curr = np.exp(alpha * h)
    umax = np.maximum(np.abs(u_next), np.abs(u_curr))
    q_next = alpha2 - pot[n - 1]
    q_curr = alpha2 - pot[n - 2]
    for i in range(n - 3, -1, -1):
        q_prev = alpha2 - pot[i]
        u_prev = (2.0 * u_curr * (1.0 + 5.0 * h2_12 * q_curr)
                  - u_next * (1.0 - h2_12 * q_next)) / (1.0 - h2_12 * q_prev)
        u_next = u_curr
        u_curr = u_prev
        q_next = q_curr
        q_curr = q_prev
        umax = np.maximum(umax, np.abs(u_curr))
        if (i & 255) == 0 and np.any(umax > _RESCALE_LIMIT):
            s = np.where(umax > _RESCALE_LIMIT, umax, 1.0)
            u_next = u_next / s
            u_curr = u_curr / s
            umax = umax / s
    return u_curr / umax


def _numerov_sweep_scalar(pot: list, h: float, alpha2: float) -> float:
    """Scalar twin of the vector sweep; identical operation order."""
    n = len(pot)
    h2_12 = h * h / 12.0
    alpha = math.sqrt(alpha2)
    u_next = 1.0
    u_curr = math.exp(alpha * h)
    umax = max(abs(u_next), abs(u_curr))
    q_next = alpha2 - pot[n - 1]
    q_curr = alpha2 - pot[n - 2]
    for i in range(n - 3, -1, -1):
        q_prev = alpha2 - pot[i]
        u_prev = (2.0 * u_curr * (1.0 + 5.0 * h2_12 * q_curr)
                  - u_next * (1.0 - h2_12 * q_next)) / (1.0 - h2_12 * q_prev)
        u_next = u_curr
        u_curr = u_prev
        q_next = q_curr
        q_curr = q_prev
        au = abs(u_curr)
        if au > umax:
            umax = au
        if (i & 255) == 0 and umax > _RESCALE_LIMIT:
            u_next /= umax
            u_curr /= umax
            umax = 1.0
    return u_curr / umax


def _potential_samples(p: PotentialParams, g: RadialGrid) -> np.ndarray:
    r = np.linspace(0.0, g.r_max, g.n_points)
    return p.gamma ** 2 * np.exp(-p.beta * r)


def numerov_mismatch(p: PotentialParams, E, g: RadialGrid):
    """Boundary mismatch u(0)/max|u| of the inward Numerov solution.

    Zero crossings of E -> mismatch are the eigenvalues.  Intermediate
    overflow is handled by rescaling (the returned ratio is unaffected).
    Accepts a scalar E or an array of energies.
    """
    E_a = np.asarray(E, dtype=float)
    if not np.all(E_a < 0.0):
        raise DomainError("numerov_mismatch: E must be negative")
    pot = _potential_samples(p, g)
    if np.isscalar(E) or E_a.ndim == 0:
        return _numerov_sweep_scalar(pot.tolist(), g.h, float(_alpha2(p, E_a)))
    return _numerov_sweep_vec(pot, g.h, _alpha2(p, E_a))


def _bisect_root(p: PotentialParams, g: RadialGrid, pot: list,
                 a: float, fa: float, b: float, tol: float) -> float:
    while b - a > tol:
        c = 0.5 * (a + b)
        if c <= a or c >= b:  # no double left between a and b
            break
        fc = _numerov_sweep_scalar(pot, g.h, float(-2.0 * p.mu * c / p.hbar ** 2))
        if fc == 0.0:
            return c
        if fa * fc < 0.0:
            b = c
        else:
            a, fa = c, fc
    return 0.5 * (a + b)


def _scan_roots(p: PotentialParams, g: RadialGrid,
                cfg: SolverConfig) -> list[float]:
    pot = _potential_samples(p, g)
    pot_list = pot.tolist()
    # Scan the window (-V0, 0) on a grid uniform in alpha = sqrt(-2 mu E)/
    # hbar rather than in E: the spacing near E = 0 is then ~V0/steps^2, so
    # barely-bound states (which a uniform E grid of the same size would
    # step right over) still produce a bracket.
    alphas = np.linspace(p.gamma, 0.0, cfg.energy_scan_steps + 2)[1:-1]
    energies = -(p.hbar * alphas) ** 2 / (2.0 * p.mu)
    mism = _numerov_sweep_vec(pot, g.h, _alpha2(p, energies))
    brackets: list[tuple[float, float, float]] = []
    for i in range(len(energies) - 1):
        if mism[i] == 0.0:
            brackets.append((float(energies[i]), 0.0, float(energies[i])))
        elif mism[i] * mism[i + 1] < 0.0:
            brackets.append((float(energies[i]), float(mism[i]),
                             float(energies[i + 1])))
    # Degenerate double crossings inside one scan cell leave no sign change
    # but a near-zero dip; trisect such cells once to expose the brackets.
    scale = float(np.max(np.abs(mism)))
    for i in range(1, len(energies) - 1):
        if (abs(mism[i]) < 1e-5 * scale
                and mism[i - 1] * mism[i] > 0.0
                and mism[i] * mism[i + 1] > 0.0):
            sub = np.linspace(energies[i - 1], energies[i + 1], 7)
            msub = _numerov_sweep_vec(pot, g.h, _alpha2(p, sub))
            for j in range(len(sub) - 1):
                if msub[j] * msub[j + 1] < 0.0:
                    brackets.append((float(sub[j]), float(msub[j]),
                                     float(sub[j + 1])))
    roots = []
    for a, fa, b in brackets:
        if a == b:
            roots.append(a)
        else:
            roots.append(_bisect_root(p, g, pot_list, a, fa, b,
                                      cfg.energy_tol))
    return sorted(roots)


def numerov_spectrum(p: PotentialParams, g: RadialGrid | None = None,
                     cfg: SolverConfig = DEFAULT_CONFIG,
                     richardson: bool = True) -> OracleSpectrum:
    """Eigenvalues from Numerov shooting over the scan window (-V0, 0).

    With ``richardson`` the roots are recomputed on the h/2 grid and
    combined as (16 E_{h/2} - E_h)/15, cancelling the O(h^4) error.
    """
    if g is None:
        g = default_grid(p, "numerov", cfg)
    roots = _scan_roots(p, g, cfg)
    if richardson:
        fine = _scan_roots(p, g.refined(), cfg)
        extrapolated = []
        for ef in fine:
            partner = min(roots, key=lambda e: abs(e - ef)) if roots else None
            if partner is not None and abs(partner - ef) <= 0.1 * abs(ef) + 1e-6:
                extrapolated.append((16.0 * ef - partner) / 15.0)
            else:
                extrapolated.append(ef)  # coarse grid missed this root
        roots = extrapolated
    energies = tuple(e for e in sorted(roots) if e < 0.0)
    return OracleSpectrum(energies=energies, method="numerov", grid=g,
                          richardson_applied=richardson)


def _fd_eigenvalues(p: PotentialParams, g: RadialGrid, k: int) -> np.ndarray:
    # Imported here: scipy.linalg costs ~0.3 s, which every ``import expwell``
    # would otherwise pay, FD oracle or not.
    from scipy.linalg import eigh_tridiagonal

    r = np.linspace(0.0, g.r_max, g.n_points)[1:-1]
    coeff = p.hbar ** 2 / (2.0 * p.mu * g.h ** 2)
    diag = 2.0 * coeff - p.v0 * np.exp(-p.beta * r)
    off = np.full(len(r) - 1, -coeff)
    k = min(k, len(r))
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                            eigvals_only=True)


def fd_spectrum(p: PotentialParams, g: RadialGrid | None = None,
                k: int = 10, cfg: SolverConfig = DEFAULT_CONFIG,
                richardson: bool = True) -> OracleSpectrum:
    """k lowest finite-difference eigenvalues; keeps the negative ones.

    The discretized Hamiltonian -(hbar^2/2mu) u'' + V u with u(0) =
    u(r_max) = 0 is a symmetric tridiagonal matrix; its lowest eigenvalues
    come from bisection on the Sturm sequence (LAPACK ?stebz via scipy).
    """
    if k < 1:
        raise DomainError("fd_spectrum: k must be at least 1")
    if g is None:
        g = default_grid(p, "fd", cfg)
    e_h = _fd_eigenvalues(p, g, k)
    if richardson:
        e_h2 = _fd_eigenvalues(p, g.refined(), k)
        n = min(len(e_h), len(e_h2))
        vals = (4.0 * e_h2[:n] - e_h[:n]) / 3.0
    else:
        vals = e_h
    energies = tuple(float(e) for e in np.sort(vals) if e < 0.0)
    return OracleSpectrum(energies=energies, method="finite_difference",
                          grid=g, richardson_applied=richardson)


def ode_residual(p: PotentialParams, table: WavefunctionTable,
                 alpha: float) -> float:
    """Scaled residual of the working ODE on a uniformly sampled table.

    Applies the 5-point central second-derivative stencil to u and returns
    max |u'' - alpha^2 u + gamma^2 exp(-beta r) u| / max |u| over interior
    points.  A wrong alpha (wrong energy) shows up directly as a residual
    of order |delta(alpha^2)|.
    """
    r = np.asarray(table.r_grid, dtype=float)
    u = np.asarray(table.u_values, dtype=float)
    if len(r) < 5:
        raise GridTooCoarseError("ode_residual: need at least 5 points")
    steps = np.diff(r)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise DomainError("ode_residual: grid must be uniform")
    umax = float(np.max(np.abs(u)))
    if umax == 0.0:
        return 0.0
    upp = (-u[:-4] + 16.0 * u[1:-3] - 30.0 * u[2:-2] + 16.0 * u[3:-1]
           - u[4:]) / (12.0 * h * h)
    mid = slice(2, -2)
    resid = upp - alpha ** 2 * u[mid] + p.gamma ** 2 * np.exp(-p.beta * r[mid]) * u[mid]
    return float(np.max(np.abs(resid))) / umax
