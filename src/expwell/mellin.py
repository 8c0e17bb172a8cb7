"""Mellin-transform engine.

Contains the numerical transform g(y) = integral_0^inf x^(y-1) f(x) dx,
the first-order difference equation g(y+1) = (rho^2 - y^2) g(y) in both
iterated and closed (Gamma-ratio) form, the closed Mellin transforms of
J_nu(a x) and J_nu(a sqrt(x)), and the parameter matching that identifies
the two closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DivergenceError, DomainError, QuadratureError
from .specfun import gamma, rgamma

__all__ = [
    "MellinPoint",
    "MellinEstimate",
    "QuadratureConfig",
    "MatchedParameters",
    "mellin_numeric",
    "g_iterate",
    "g_closed",
    "mellin_bessel_closed",
    "mellin_bessel_sqrt",
    "match_parameters",
    "matching_table",
]


@dataclass(frozen=True)
class MellinPoint:
    """One sample (y, g(y)) of a Mellin transform."""

    y: float
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("MellinPoint value must be finite")


class MellinEstimate(NamedTuple):
    """Quadrature value with a heuristic absolute-error estimate."""

    value: float
    error: float


# The 8-point Gauss-Legendre rule on [-1, 1], as
# numpy.polynomial.legendre.leggauss(8) returns it.  Held as literals so
# that importing the package does not load numpy.polynomial.
_GL8_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329,
    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
    0.7966664774136267, 0.9602898564975362])
_GL8_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
    0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
    0.22238103445337443, 0.10122853629037706])

# Bulk and tail panels per avg_spacing, the integrand's half-period.  Eight
# agree with a 4096-panel bulk to 7e-16 relative on Bessel pairs (t_max =
# 60, nu in [0, 20]); four moved a J_1 pair at t_max = 200 by 1.4e-13.
PANELS_PER_SPACING = 8

# Largest t_max / avg_spacing: the mesh grows with it, and at this bound
# it already holds ~2^18 integrand points.
_MAX_SPACINGS = 4096


@dataclass(frozen=True)
class QuadratureConfig:
    """Mesh layout for ``mellin_numeric``.

    The variable change t = 2 sqrt(x) maps the transform onto
    2^(1-2y) * integral_0^t_max t^(2y-1) f(t^2/4) dt.  The mesh has three
    zones: ``n_graded`` geometric panels toward t = 0 (the integrand has an
    algebraic endpoint singularity for y < 1/2), a uniform bulk, and
    ``n_avg`` trailing blocks of width ``avg_spacing`` whose cumulative
    sums are repeatedly pairwise-averaged.  Bulk and blocks use
    ``PANELS_PER_SPACING`` 8-point Gauss-Legendre panels per
    ``avg_spacing``.  For integrands that oscillate with asymptotic
    half-period ``avg_spacing`` (Bessel-type tails) the averaging cancels
    the truncated tail; for integrands that decay before t_max it is an
    exact no-op.
    """

    t_max: float = 200.0
    n_avg: int = 16
    avg_spacing: float = math.pi
    n_graded: int = 96

    def __post_init__(self):
        if not 0.0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        if self.n_avg < 0 or not 0.0 < self.avg_spacing < math.inf:
            raise ValueError("n_avg must be >= 0 and avg_spacing positive "
                             "and finite")
        if self.t_max > _MAX_SPACINGS * self.avg_spacing:
            raise ValueError(f"t_max / avg_spacing must be at most "
                             f"{_MAX_SPACINGS}")
        # The origin-divergence check compares neighbouring graded panels.
        if self.n_graded < 2:
            raise ValueError("n_graded must be at least 2")


DEFAULT_QUADRATURE = QuadratureConfig()


def _require_finite(vals: np.ndarray) -> None:
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("mellin_numeric: non-finite integrand sample")


def _check_origin_divergence(graded: np.ndarray) -> None:
    # graded[0] is the deepest panel; power-law growth toward t=0 means the
    # integral diverges at the origin.  Log divergence is not detectable.
    tail = np.abs(graded[:9])
    if tail[0] == 0.0:
        return
    if np.all(tail[:-1] >= 1.1 * tail[1:]):
        raise DivergenceError(
            "mellin_numeric: panel contributions grow toward x=0 "
            "(integral appears divergent at the origin)")


def _check_tail_divergence(blocks: np.ndarray, scale: float) -> None:
    if len(blocks) < 4:
        return
    last = blocks[-4:]
    floor = 1e-13 * max(scale, 1e-300)
    if np.abs(last[-1]) <= floor:
        return
    same_sign = np.all(last > 0.0) or np.all(last < 0.0)
    # >= with a sliver of slack so a constant tail (equal blocks up to
    # rounding jitter) still counts as non-decaying
    growing = np.all(np.abs(last[1:]) >= 0.999 * np.abs(last[:-1]))
    if same_sign and growing:
        raise DivergenceError(
            "mellin_numeric: tail contributions do not decay by t_max "
            "(integral divergent at infinity, or truncated far too early)")


def mellin_numeric(f: Callable[[np.ndarray], np.ndarray], y: float,
                   cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> MellinEstimate:
    """Numerical Mellin transform of f at y.

    Convergence of the defining integral at the given y is the caller's
    responsibility; obvious power-law divergence at either end is detected
    heuristically and raised as :class:`DivergenceError`.

    Parameters
    ----------
    f : callable
        Evaluates f on a numpy array of x >= 0 values.  It is called once,
        on every point of the mesh.
    y : float
        Mellin variable.
    cfg : QuadratureConfig
        Mesh layout; see the dataclass docstring.

    Returns
    -------
    MellinEstimate
        Quadrature value and a heuristic absolute-error estimate.
    """
    y = float(y)

    m = int(min(cfg.n_avg, math.floor(0.5 * cfg.t_max / cfg.avg_spacing)))
    if m < 2:
        m = 0
    t_top = cfg.t_max - m * cfg.avg_spacing
    t_lo = min(1.0, 0.5 * t_top)

    # Geometric zone (0, t_lo]: halving panels absorb the t^(2y-1) endpoint
    # behaviour; the remaining stub is integrated with f frozen at one
    # sample inside it, which is first-order exact for continuous f.  The
    # bulk's length is rounded up to whole spacings, so its panel count
    # splits into the 8 chunks of the m == 0 tail check.  One integrand
    # call covers every zone and the stub sample.
    n_g = cfg.n_graded
    n_b = PANELS_PER_SPACING * math.ceil((t_top - t_lo) / cfg.avg_spacing)
    g_edges = t_lo * 0.5 ** np.arange(n_g + 1, dtype=float)[::-1]
    edges = np.concatenate([
        g_edges, np.linspace(t_lo, t_top, n_b + 1)[1:],
        np.linspace(t_top, cfg.t_max, PANELS_PER_SPACING * m + 1)[1:]])
    mid = 0.5 * (edges[:-1] + edges[1:])
    hw = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + hw[:, None] * _GL8_NODES).ravel()
    w = (hw[:, None] * _GL8_WEIGHTS).ravel()
    t_eps = float(g_edges[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore",
                     under="ignore"):
        fx = np.asarray(f(np.append(t * t / 4.0, t_eps * t_eps / 8.0)),
                        dtype=float)
        vals = np.power(t, 2.0 * y - 1.0) * fx[:-1] * 2.0 ** (1.0 - 2.0 * y)
    n_gx = n_g * len(_GL8_NODES)
    _require_finite(vals[:n_gx])
    panels = (vals * w).reshape(-1, len(_GL8_NODES)).sum(axis=1)
    graded = panels[:n_g]
    _check_origin_divergence(graded)
    _require_finite(vals[n_gx:])
    bulk = panels[n_g:n_g + n_b]
    if y > 0.0:
        stub = (float(fx[-1]) * 2.0 ** (1.0 - 2.0 * y) * t_eps ** (2.0 * y)
                / (2.0 * y))
    else:
        stub = 0.0
    base = stub + float(graded.sum()) + float(bulk.sum())

    if m == 0:
        _check_tail_divergence(bulk.reshape(8, -1).sum(axis=1), abs(base))
        return MellinEstimate(base, abs(float(bulk[-1])) + 1e-14 * abs(base))

    blocks = panels[n_g + n_b:].reshape(m, -1).sum(axis=1)
    _check_tail_divergence(blocks, abs(base))

    seq = base + np.concatenate([[0.0], np.cumsum(blocks)])
    centers = [float(seq[len(seq) // 2])]
    while len(seq) > 1:
        seq = 0.5 * (seq[:-1] + seq[1:])
        centers.append(float(seq[len(seq) // 2]))
    value = float(seq[0])
    err = abs(centers[-1] - centers[-2]) if len(centers) > 1 else 0.0
    return MellinEstimate(value, err + 1e-14 * abs(value))


def g_iterate(rho: float, n: int, g0: float) -> float:
    """Iterate g(y+1) = (rho^2 - y^2) g(y) from g(0) = g0 up to y = n.

    Returns the finite product g0 * prod_{y=0}^{n-1} (rho^2 - y^2); an
    exact 0.0 appears as soon as rho equals one of the integers 0..n-1.
    """
    if n < 0 or n != int(n):
        raise DomainError("g_iterate: n must be a non-negative integer")
    rho = float(rho)
    if rho <= 0.0:
        raise DomainError("g_iterate: rho must be positive")
    g = float(g0)
    rho2 = rho * rho
    for y in range(int(n)):
        g *= rho2 - float(y) * float(y)
    return g


def g_closed(rho: float, y: float, g0: float) -> float:
    """Closed-form solution of the difference equation at real y.

    Evaluates rho * Gamma(rho + y) / Gamma(rho - y + 1) * g0, with the
    denominator handled through rgamma so that arguments at non-positive
    integers give an exact zero instead of a pole.

    Raises
    ------
    PoleError
        When Gamma(rho + y) itself has a pole.
    """
    rho = float(rho)
    if rho <= 0.0:
        raise DomainError("g_closed: rho must be positive")
    return rho * gamma(rho + y) * rgamma(rho - y + 1.0) * float(g0)


def mellin_bessel_closed(nu: float, a: float, y: float) -> float:
    """Closed Mellin transform of x -> J_nu(a x).

    Returns 2^(y-1) Gamma((y + nu)/2) / (a^y Gamma((nu - y)/2 + 1)).
    """
    if a <= 0.0:
        raise DomainError("mellin_bessel_closed: a must be positive")
    if nu < 0.0:
        raise DomainError("mellin_bessel_closed: nu must be non-negative")
    return (2.0 ** (y - 1.0) * gamma(0.5 * (y + nu))
            * rgamma(0.5 * (nu - y) + 1.0) / a ** y)


def mellin_bessel_sqrt(nu: float, a: float, y: float) -> float:
    """Closed Mellin transform of x -> J_nu(a sqrt(x)).

    Returns (2/a)^(2y) Gamma(y + nu/2) / Gamma(nu/2 - y + 1), which equals
    2 * mellin_bessel_closed(nu, a, 2y) by the substitution x -> x^2.
    """
    if a <= 0.0:
        raise DomainError("mellin_bessel_sqrt: a must be positive")
    if nu < 0.0:
        raise DomainError("mellin_bessel_sqrt: nu must be non-negative")
    return (2.0 / a) ** (2.0 * y) * gamma(y + 0.5 * nu) * rgamma(0.5 * nu - y + 1.0)


class MatchedParameters(NamedTuple):
    """Bessel-transform parameters reproducing the difference equation."""

    a: float
    nu: float
    g0: float


def match_parameters(rho: float) -> MatchedParameters:
    """Identify the closed difference-equation solution with a Bessel pair.

    With a = 2 and nu = 2 rho the transform of J_nu(a sqrt(x)) satisfies
    the same difference equation; fixing g(0) = 1/rho (its value at y = 0)
    makes g_closed(rho, y, g0) and mellin_bessel_sqrt(nu, a, y) equal for
    every admissible y.
    """
    rho = float(rho)
    if rho <= 0.0:
        raise DomainError("match_parameters: rho must be positive")
    return MatchedParameters(a=2.0, nu=2.0 * rho, g0=1.0 / rho)


def matching_table(rho: float, y_grid) -> list[tuple[MellinPoint, MellinPoint]]:
    """Sample both closed forms over a y grid with matched parameters.

    Each entry pairs a point of the difference-equation solution (with
    g0 = 1/rho) with the corresponding point of the Bessel-pair transform;
    the two columns agree to rounding for every valid rho.
    """
    a, nu, g0 = match_parameters(rho)
    rows = []
    for y in np.asarray(y_grid, dtype=float):
        rows.append((MellinPoint(float(y), g_closed(rho, float(y), g0)),
                     MellinPoint(float(y), mellin_bessel_sqrt(nu, a, float(y)))))
    return rows
