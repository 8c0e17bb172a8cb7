"""Brute-force verification of the spectrum, independent of the analytic route.

Two methods solve u'' - alpha^2 u + gamma^2 exp(-beta r) u = 0 directly:

* Numerov shooting: integrate inward from r_max (the decaying solution is
  integrated against its growing companion, which is the stable direction)
  and locate energies where u(0) = 0.  The node count of each sweep is the
  number of levels below its energy, so every level gets a bracket of its
  own by bisection on the count, then secant steps refine it.
* Finite differences: symmetric tridiagonal discretization with Dirichlet
  ends.  The same shooting recurrence gives the matrix's Sturm count, so
  its levels are bracketed and refined in the same way.

Both support Richardson extrapolation across grids h and h/2 (Numerov has
O(h^4) leading error, the finite-difference Laplacian O(h^2)), pair the
two grids' levels by index, and report each level's gap |E_h - E_{h/2}|.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ._roots import refine_root
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
_RESCALE_BY = 2.0 ** -800
# An inward sweep starts where the solution it follows has grown by
# e^_FORGET from the turning point (WKB estimate); see _swept.
_FORGET = 25.0
# The h/2 grid brackets each level by stepping out from its h-grid value,
# first by _STEP_OUT |E|, then _STEP_GROWTH times farther each step; the
# two grids' levels differ by 1e-9 to 3e-4 relative on the default Numerov
# grids, and by 4e-6 to 3e-2 on the finite-difference ones.
_STEP_OUT = 1e-6
_STEP_GROWTH = 16.0


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
    """Negative eigenvalues found by one oracle, ascending.

    ``errors`` holds the Richardson gap |E_h - E_{h/2}| of each level, or
    None where the level has no partner on the other grid (always None
    without Richardson extrapolation).
    """

    energies: tuple[float, ...]
    errors: tuple[float | None, ...]
    method: str  # "numerov" or "finite_difference"
    grid: RadialGrid
    richardson_applied: bool

    def __post_init__(self):
        if any(e >= 0.0 for e in self.energies):
            raise ValueError("OracleSpectrum: energies must be negative")
        if list(self.energies) != sorted(self.energies):
            raise ValueError("OracleSpectrum: energies must ascend")
        if len(self.errors) != len(self.energies):
            raise ValueError("OracleSpectrum: one error per energy")


def default_grid(p: PotentialParams, kind: str = "numerov",
                 cfg: SolverConfig = DEFAULT_CONFIG) -> RadialGrid:
    """Grid sized for the well range: r_max = r_max_factor / beta.

    Adequate for states with decay constant alpha >= ~20 beta/r_max_factor;
    the default factor 45 covers every state of the acceptance envelope.
    """
    n = cfg.numerov_points if kind == "numerov" else cfg.fd_points
    return RadialGrid(r_max=cfg.r_max_factor / p.beta, n_points=n)


def _potential_samples(p: PotentialParams, g: RadialGrid) -> np.ndarray:
    r = np.linspace(0.0, g.r_max, g.n_points)
    return p.gamma ** 2 * np.exp(-p.beta * r)


def _swept(pot: np.ndarray, h: float, alpha2: float) -> np.ndarray:
    """The part of the grid an inward sweep at alpha^2 needs.

    Beyond the turning point the sweep follows the solution that grows
    inward, and whatever else its start values hold is damped relative to
    it by the square of that growth.  So the sweep can start where the
    growth to the turning point, exp(integral of sqrt(q) dr), reaches
    e^25: what it leaves out changes u by about e^-50 relative, far below
    rounding.  On 2400 energies at V0 = 25, 287 and 900 the mismatch moved
    by at most 1.7e-15 and no node count changed, while the sweeps covered
    14% of the grid on average.  Shallow levels, whose growth never gets
    there, keep the whole grid.
    """
    growth = h * np.cumsum(np.sqrt(np.maximum(alpha2 - pot, 0.0)))
    return pot[:int(np.searchsorted(growth, _FORGET)) + 2]


def _inward(v: np.ndarray, inv_w: np.ndarray, f: float,
            d: float) -> tuple[int, float]:
    """Node count and u(0)/max|u| of a three-term recurrence run inward.

    F_(i-1) - 2 F_i + F_(i+1) = v_i F_i for i = n-2, ..., 1, from
    F_(n-2) = f > 0 and F_(n-2) - F_(n-1) = d > 0, with u = F inv_w.  It
    runs in summed form, on the differences D_i = F_(i-1) - F_i, which
    keeps the rounding of 2 F_i out of the recurrence.  The node count is
    the number of sign changes of F down to i = 0, the last interval
    included, so sign(u(0)) = (-1)^count.  Past _RESCALE_LIMIT, F and D
    are scaled by a power of two, which changes no bit of the ratio.

    While v_i >= 0 (the classically forbidden outer region, v having the
    sign of q) D and F only grow, and so does u: for Numerov,
    w_(i-1) (u_(i-1) - u_i) = w_(i+1) (u_i - u_(i+1))
    + (h^2/12) u_i (10 q_i + q_(i+1) + q_(i-1)), where only the step out
    of the region can have q_(i-1) < 0.  That stretch runs without the
    node test, and its largest |u| is one of its last two.
    """
    v = v[-2:0:-1]
    negative_v = np.flatnonzero(v < 0.0)
    m = int(negative_v[0]) if len(negative_v) else len(v)
    for vi in v[:m].tolist():
        d += vi * f
        f += d
        if f > _RESCALE_LIMIT:
            d *= _RESCALE_BY
            f *= _RESCALE_BY
    umax = max(f * float(inv_w[-2 - m]), (f - d) * float(inv_w[-1 - m]))
    nodes = 0
    negative = False
    for vi, inv in zip(v[m:].tolist(), inv_w[-3 - m::-1].tolist()):
        d += vi * f
        f += d
        if (f < 0.0) != negative:
            negative = not negative
            nodes += 1
        au = abs(f * inv)
        if au > umax:
            umax = au
            if au > _RESCALE_LIMIT:
                d *= _RESCALE_BY
                f *= _RESCALE_BY
                umax *= _RESCALE_BY
    return nodes, f * float(inv_w[0]) / umax


def _numerov_sweep(pot: np.ndarray, h: float,
                   alpha2: float) -> tuple[int, float]:
    """Node count and u(0)/max|u| of the inward Numerov solution.

    Numerov's scheme for u'' = q u, q = alpha^2 - gamma^2 exp(-beta r), is
    F_(i-1) - 2 F_i + F_(i+1) = (h^2 q_i / w_i) F_i in F = w u, with
    w = 1 - h^2 q / 12 (B. R. Johnson, J. Chem. Phys. 69, 4678 (1978)).
    Run in summed form, its roots lie within an ulp or two of those of
    an extended-precision sweep.  It starts from the decaying exponential,
    u = 1 at r_max (or where ``_swept`` ends the grid) and exp(alpha h)
    one step in.  While h^2 gamma^2 < 12,
    w > 0, so u and F change sign together, and the node count is the
    number of levels below E on the grid.
    """
    q = alpha2 - _swept(pot, h, alpha2)
    w = 1.0 - (h * h / 12.0) * q
    inv_w = 1.0 / w
    f = float(w[-2]) * math.exp(math.sqrt(alpha2) * h)
    return _inward((h * h) * q * inv_w, inv_w, f, f - float(w[-1]))


def _fd_sweep(pot: np.ndarray, h: float, alpha2: float) -> tuple[int, float]:
    """Node count and u(0)/max|u| for the finite-difference matrix.

    The 3-point Laplacian gives u_(i-1) - 2 u_i + u_(i+1) = h^2 q_i u_i on
    the interior, with u(r_max) = 0 (or 0 where ``_swept`` ends the grid);
    u one step in is 1.  u(0) is then
    det(H - E) up to a positive factor, and the node count is the number
    of eigenvalues of H below E: the signs of u are those of the leading
    minors of H - E, its Sturm sequence.
    """
    pot = _swept(pot, h, alpha2)
    return _inward((h * h) * (alpha2 - pot), np.ones_like(pot), 1.0, 1.0)


def numerov_mismatch(p: PotentialParams, E, g: RadialGrid):
    """Boundary mismatch u(0)/max|u| of the inward Numerov solution.

    Zero crossings of E -> mismatch are the eigenvalues.  Intermediate
    overflow is handled by rescaling (the returned ratio is unaffected).
    Accepts a scalar E or an array of energies, each swept on its own.
    """
    E_a = np.asarray(E, dtype=float)
    if not np.all(E_a < 0.0):
        raise DomainError("numerov_mismatch: E must be negative")
    pot = _potential_samples(p, g)
    alpha2 = -2.0 * p.mu * E_a / p.hbar ** 2
    mism = np.array([_numerov_sweep(pot, g.h, a2)[1]
                     for a2 in alpha2.ravel().tolist()])
    if np.isscalar(E) or E_a.ndim == 0:
        return float(mism[0])
    return mism.reshape(E_a.shape)


def _levels(p: PotentialParams, g: RadialGrid, sweep, tol: float,
            guesses=()) -> list[float]:
    """Every level below E = 0 of one discretization on grid g, ascending.

    ``sweep(pot, h, alpha^2)`` gives the node count, which is the number
    of levels below E, and the mismatch, whose sign is (-1)^count.  The
    count at E = 0 is the number of levels.  Level k is bracketed by two
    energies with counts k and k + 1: bisection on the count, in alpha
    (where the levels are about evenly spaced), over the energies probed
    so far.  Where ``guesses[k]`` is given, the bracket is first sought by
    stepping out from it.  The mismatch changes sign across the bracket,
    and ``refine_root`` takes secant steps to ``tol``.
    """
    pot = _potential_samples(p, g)
    to_alpha2 = 2.0 * p.mu / p.hbar ** 2
    # (E, node count, mismatch), ascending in E and so in count.  At
    # E = -V0, q >= 0 on the whole grid, so u grows monotonically inward:
    # no node, and u(0) is the largest |u|.
    probes = [(-p.v0, 0, 1.0)]

    def probe(e: float) -> int:
        count, mism = sweep(pot, g.h, -to_alpha2 * e)
        bisect.insort(probes, (e, count, mism))
        return count

    def mismatch(e: float):
        return sweep(pot, g.h, -to_alpha2 * e)[1], None

    n_levels = probe(0.0)
    roots = []
    step_out = _STEP_OUT
    for k in range(n_levels):
        if k < len(guesses):
            guess = guesses[k]
            up = probe(guess) <= k
            d = step_out * abs(guess) + tol
            while True:
                e = guess + d if up else guess - d
                if not -p.v0 < e < 0.0 or (probe(e) > k) == up:
                    break
                d *= _STEP_GROWTH
        while True:
            lo = max(q for q in probes if q[1] <= k)
            hi = min(q for q in probes if q[1] > k)
            if lo[1] == k and hi[1] == k + 1:
                break
            alpha = 0.5 * (math.sqrt(-to_alpha2 * lo[0])
                           + math.sqrt(-to_alpha2 * hi[0]))
            e = -alpha * alpha / to_alpha2
            if not lo[0] < e < hi[0]:
                break
            probe(e)
        roots.append(refine_root(mismatch, lo[0], hi[0], lo[2], hi[2], tol))
        if k < len(guesses):
            # The grids' relative gap grows with the level: the next
            # level steps out from twice this one's.
            step_out = max(_STEP_OUT, 2.0 * abs(roots[-1] / guess - 1.0))
    return roots


def _spectrum(p: PotentialParams, g: RadialGrid, sweep, tol: float,
              richardson: bool, gain: float, method: str) -> OracleSpectrum:
    """Levels on grid g; with ``richardson``, combined with the h/2 grid's.

    Each h/2 level is bracketed around its h-grid partner, paired with it
    by index, and combined as (gain E_{h/2} - E_h)/(gain - 1), with the
    gap |E_h - E_{h/2}| as its error.  A level only the h/2 grid finds
    keeps its value and gets None.
    """
    coarse = _levels(p, g, sweep, tol)
    if richardson:
        fine = _levels(p, g.refined(), sweep, tol, coarse)
        levels = [((gain * ef - ec) / (gain - 1.0), abs(ec - ef))
                  for ec, ef in zip(coarse, fine)]
        levels += [(ef, None) for ef in fine[len(coarse):]]
    else:
        levels = [(e, None) for e in coarse]
    kept = sorted((lv for lv in levels if lv[0] < 0.0), key=lambda lv: lv[0])
    return OracleSpectrum(energies=tuple(e for e, _ in kept),
                          errors=tuple(err for _, err in kept),
                          method=method, grid=g, richardson_applied=richardson)


def numerov_spectrum(p: PotentialParams, g: RadialGrid | None = None,
                     cfg: SolverConfig = DEFAULT_CONFIG,
                     richardson: bool = True) -> OracleSpectrum:
    """Eigenvalues from Numerov shooting, bracketed by node counts.

    With ``richardson`` the levels are recomputed on the h/2 grid and
    combined as (16 E_{h/2} - E_h)/15, cancelling the O(h^4) error;
    ``errors`` holds |E_h - E_{h/2}|.
    """
    if g is None:
        g = default_grid(p, "numerov", cfg)
    if g.h * g.h * p.gamma ** 2 >= 12.0:
        raise GridTooCoarseError(
            "numerov_spectrum: need h^2 gamma^2 < 12 for node counting")
    return _spectrum(p, g, _numerov_sweep, cfg.energy_tol, richardson, 16.0,
                     "numerov")


def fd_spectrum(p: PotentialParams, g: RadialGrid | None = None,
                cfg: SolverConfig = DEFAULT_CONFIG,
                richardson: bool = True) -> OracleSpectrum:
    """Every finite-difference eigenvalue in (-V0, 0).

    The discretized Hamiltonian H = -(hbar^2/2mu) u'' + V u with u(0) =
    u(r_max) = 0 is a symmetric tridiagonal matrix.  Its eigenvalues come
    from its Sturm sequence (``_fd_sweep``), bracketed by count and
    refined like the Numerov levels.  With ``richardson`` they are
    combined with the h/2 grid's as (4 E_{h/2} - E_h)/3; ``errors`` holds
    |E_h - E_{h/2}|.
    """
    if g is None:
        g = default_grid(p, "fd", cfg)
    return _spectrum(p, g, _fd_sweep, cfg.energy_tol, richardson, 4.0,
                     "finite_difference")


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
