"""Independent reference values, computed with scipy only.

Nothing here imports ``expwell``: the analytic route under test sums its
own Bessel series and Gamma function, so the reference uses scipy's
``jv``/``gamma`` and generic root finding and quadrature instead.  All of it
runs in the benchmark's parent process, before and outside every timed
region.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, optimize, special

# Ascending zeros of J_0 inside the supported envelope z0 <= 60.
J0_ZEROS = tuple(float(v) for v in special.jn_zeros(0, 19))

# Grid step of the reference sign-change scan in nu.  Zeros of
# nu -> J_nu(z0) are at least ~1.5 apart for z0 <= 60, so any step well
# below that brackets each zero exactly once.
_NU_STEP = 0.02


def bessel_zeros(nu: float, z_max: float) -> list[float]:
    """Zeros of z -> J_nu(z) in (0, z_max], ascending, for 0 <= nu < 1.

    The k-th lies between j_{0,k} and j_{1,k}.
    """
    n = len(J0_ZEROS) + 1
    zeros = special.jn_zeros(0, n)
    if nu > 0.0:
        zeros = [optimize.brentq(lambda z: special.jv(nu, z), a, b, xtol=1e-14)
                 for a, b in zip(zeros, special.jn_zeros(1, n))]
    return [float(z) for z in zeros if z <= z_max]


def well_z0(v0: float, beta: float, mu: float, hbar: float) -> float:
    """z0 = 2 gamma / beta with gamma = sqrt(2 mu V0) / hbar."""
    return 2.0 * math.sqrt(2.0 * mu * v0) / hbar / beta


def nu_zeros(z0: float) -> list[float]:
    """Orders nu > 0 with J_nu(z0) = 0, ascending.

    The scan starts at nu = 0, so zeros of any size above zero are
    bracketed, and each bracket is refined by Brent's method.
    """
    grid = np.append(np.arange(0.0, z0, _NU_STEP), z0)
    vals = special.jv(grid, z0)
    zeros = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0 and a > 0.0:
            zeros.append(float(a))
        elif fa * fb < 0.0:
            zeros.append(optimize.brentq(lambda nu: special.jv(nu, z0),
                                         float(a), float(b),
                                         xtol=1e-15, rtol=1e-15,
                                         maxiter=200))
    return zeros


def energy(nu: float, beta: float, mu: float, hbar: float) -> float:
    """E = -(hbar nu beta / 2)^2 / (2 mu)."""
    return -(hbar * nu * beta / 2.0) ** 2 / (2.0 * mu)


def _smooth_factor(nu: float, t):
    """J_nu(t) / t^nu, continued by its series where t^nu underflows."""
    t = np.asarray(t, dtype=float)
    lead = math.exp(-nu * math.log(2.0) - special.gammaln(nu + 1.0))
    out = np.empty_like(t)
    with np.errstate(divide="ignore", under="ignore", over="ignore"):
        tp = np.power(t, nu)
        ok = tp > 1e-250
        out[ok] = special.jv(nu, t[ok]) / tp[ok]
    small = t[~ok]
    out[~ok] = lead * (1.0 - (0.5 * small) ** 2 / (nu + 1.0))
    return out


def norm_integral(nu: float, z0: float, beta: float) -> float:
    """Integral of J_nu(z0 exp(-beta r / 2))^2 over r in (0, inf).

    Substituting t = z0 exp(-beta r / 2) gives (2/beta) * integral_0^z0
    J_nu(t)^2 / t dt.  The t^(2 nu - 1) endpoint factor is handed to
    QUADPACK's algebraic-weight rule, so only the smooth
    (J_nu(t) / t^nu)^2 is sampled.
    """
    def f(t):
        return float(_smooth_factor(nu, t) ** 2)

    # QUADPACK flags roundoff on some deep wells at this epsrel even where
    # the result agrees with mpmath to ~1e-14; its own error estimate is
    # the check that counts.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, 0.0, z0, weight="alg",
                                  wvar=(2.0 * nu - 1.0, 0.0),
                                  epsabs=0.0, epsrel=1e-10, limit=400)
    if not err <= 1e-9 * val:
        raise ArithmeticError(f"reference norm for nu={nu!r}, z0={z0!r}: "
                              f"quadrature error {err:.2e} of {val:.6e}")
    return 2.0 / beta * val


def wavefunction(nu: float, z0: float, beta: float, norm_c: float, r):
    """u(r) = norm_c * J_nu(z0 exp(-beta r / 2))."""
    return norm_c * special.jv(nu, z0 * np.exp(-0.5 * beta * np.asarray(r)))


def mellin_bessel_sqrt(nu: float, y: float) -> float:
    """Mellin transform of J_nu(2 sqrt(x)): Gamma(y + nu/2) / Gamma(nu/2 - y + 1)."""
    return float(special.gamma(y + 0.5 * nu) * special.rgamma(0.5 * nu - y + 1.0))


def gamma(y: float) -> float:
    """Mellin transform of exp(-x): Gamma(y)."""
    return float(special.gamma(y))
