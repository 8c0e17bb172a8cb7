"""Self-contained special functions: Gamma, 1/Gamma, digamma, J_nu, its
derivative in the order, and order zeros.

Everything here is evaluated from embedded constants and plain arithmetic;
no external special-function library is used.  J_nu(z) comes from Miller's
backward recurrence in the order, normalized by a Neumann sum (W. Gautschi,
SIAM Review 9, 24 (1967); Gil, Segura & Temme, Numerical Methods for
Special Functions, SIAM 2007, ch. 4).  Run downward, the three-term
recurrence follows its minimal solution J_(nu+k)(z), so rounding errors
die out instead of growing.  Below z = 1 a short power series, whose terms
fall from the first, is used instead.  Against mpmath at 40 digits the
absolute error of J_nu is about 1e-15 on the whole [0, 60] x [0, 60]
envelope, and about 1e-16 near a zero of J_nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import refine_root
from .config import DEFAULT_CONFIG, SolverConfig
from .errors import DomainError, GammaOverflowError, PoleError

__all__ = [
    "GAMMA_OVERFLOW",
    "BESSEL_NU_MAX",
    "BESSEL_Z_MAX",
    "OrderZeroList",
    "gamma",
    "rgamma",
    "digamma",
    "bessel_j",
    "bessel_j_dnu",
    "find_nu_zeros",
]

# Lanczos approximation, Godfrey's 15-term coefficient set with g = 607/128.
# Relative error of the rational sum is below 1e-15 over the right half line.
_LANCZOS_G = 4.7421875
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_SQRT_TWO_PI = 2.5066282746310005024

#: Largest x for which Gamma(x) fits in a double.
GAMMA_OVERFLOW = 171.624376956302725

#: Evaluation envelope of the Bessel functions, set by the deepest well
#: the model supports, z0 = 60.  The accuracy is tested on it alone.
BESSEL_NU_MAX = 60.0
BESSEL_Z_MAX = 60.0

# Miller's recurrence starts _MILLER_MARGIN orders above max(nu, z), where
# J_(nu+N)(z) is so small against J_nu(z) that the arbitrary start values
# do not show in double precision.  Between two overflow checks, 16 steps
# apart, |f| grows at most by (2 (nu+N)/z)^16 < 1e41 for z >= _SERIES_Z,
# so rescaling past 1e150 keeps it finite; a power-of-two factor is exact.
_MILLER_MARGIN = 40
_RESCALE_AT = 1e150
_RESCALE_BY = 2.0 ** -500
# Below _SERIES_Z the power series has no cancellation and needs few
# terms, where the recurrence would need a rescale at nearly every step.
_SERIES_Z = 1.0
_SERIES_TERMS = 12


def _sinpi(x: float) -> float:
    """sin(pi*x) with range reduction done on x, exact at integers."""
    n = math.floor(x)
    r = x - n
    if r > 0.5:
        r = 1.0 - r
    s = math.sin(math.pi * r)
    return -s if (int(n) & 1) else s


def gamma(x: float) -> float:
    """Gamma function for real x.

    Uses the Lanczos sum above for x >= 0.5 and the reflection formula
    Gamma(x) = pi / (sin(pi x) Gamma(1-x)) below.  The power/exponential
    factor is evaluated as a squared half-power so that no intermediate
    overflows before the ~171.62 threshold.

    Raises
    ------
    PoleError
        If x is zero or a negative integer.
    GammaOverflowError
        If x >= 171.624376956302725 (result would exceed the double range).
    """
    x = float(x)
    if math.isnan(x):
        raise DomainError("gamma: argument is NaN")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma: pole at non-positive integer x={x:g}")
    if x >= GAMMA_OVERFLOW:
        raise GammaOverflowError(
            f"gamma: overflow for x={x:g} (threshold {GAMMA_OVERFLOW:g})")
    if x < 0.5:
        return math.pi / (_sinpi(x) * gamma(1.0 - x))
    return _lanczos(x, math.exp)


def _lanczos(x, exp):
    """Gamma(x) for x >= 0.5 by the Lanczos sum, x a float or an array.

    ``exp`` is math.exp for a float and np.exp for an array, so one
    formula serves ``gamma`` and the order arrays of ``bessel_j``.
    """
    w = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, 15):
        acc = acc + _LANCZOS_C[i] / (w + i)
    base = w + _LANCZOS_G + 0.5
    half_power = base ** (0.5 * (w + 0.5)) * exp(-0.5 * base)
    return _SQRT_TWO_PI * acc * half_power * half_power


def rgamma(x: float) -> float:
    """Reciprocal Gamma, entire in x: exactly 0.0 at 0, -1, -2, ...

    Returns 0.0 as well for x beyond the Gamma overflow threshold, where
    1/Gamma(x) underflows below the smallest normal double.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    if x >= GAMMA_OVERFLOW:
        return 0.0
    return 1.0 / gamma(x)


# Asymptotic digamma series: psi(x) ~ ln x - 1/(2x) - sum_n B_2n / (2n x^2n).
# Coefficients B_2n / (2n) for n = 1..6; the first omitted term is below
# 1e-15 for x >= _DIGAMMA_SHIFT.
_DIGAMMA_B = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
              1.0 / 132.0, -691.0 / 32760.0)
_DIGAMMA_SHIFT = 10.0


def digamma(x: float) -> float:
    """Digamma psi(x) = Gamma'(x) / Gamma(x) for real x > 0.

    Shifts x up to 10 with psi(x) = psi(x + 1) - 1/x, then sums the
    asymptotic series; the absolute error is about 1e-15.
    """
    x = float(x)
    if not x > 0.0:  # also rejects NaN
        raise DomainError("digamma: argument must be positive")
    acc = 0.0
    while x < _DIGAMMA_SHIFT:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    for b in reversed(_DIGAMMA_B):
        tail = (tail + b) * inv2
    return acc + math.log(x) - 0.5 / x - tail


def _leading_term(nu, z):
    """(z/2)^nu / Gamma(nu+1): J_nu(z) ~ this as z -> 0 (nu float or array)."""
    g = gamma(nu + 1.0) if isinstance(nu, float) else _lanczos(nu + 1.0, np.exp)
    return (0.5 * z) ** nu / g


def _series(nu, z):
    """J_nu(z) = sum_k t_k for z < 1, and sum_k t_k H_k (floats or arrays).

    t_k = (-z^2/4)^k (z/2)^nu / (k! Gamma(nu+k+1)) and H_k = sum_{j=1}^k
    1/(nu+j).  Here |t_k / t_(k-1)| <= 1/(4 k^2), so the terms fall from
    the first on and a fixed _SERIES_TERMS of them leave out less than
    1e-24 of t_0.
    """
    q = -0.25 * z * z
    term = total = _leading_term(nu, z)
    harmonic = weighted = 0.0
    for k in range(1, _SERIES_TERMS):
        harmonic = harmonic + 1.0 / (nu + k)
        term = term * q / (k * (nu + k))
        total = total + term
        weighted = weighted + term * harmonic
    return total, weighted


def _series_j(nu, z):
    """J_nu(z) for 0 <= z < 1, floats or arrays.

    J_nu(0) is set exactly: the series would carry the rounding of
    gamma(1) into J_0(0) = 1.
    """
    return np.where(z > 0.0, _series(nu, z)[0], nu == 0.0)


def _miller_start(nu, z):
    """Even start order N of the recurrence (nu, z floats or arrays)."""
    n = np.maximum(nu, z).astype(np.int64) + _MILLER_MARGIN
    return n + (n & 1)


def _miller_pair(nu: float, z: float) -> tuple[float, float]:
    """J_nu(z) and dJ_nu(z)/dnu by Miller's recurrence, for z >= 1.

    f_k, proportional to J_(nu+k)(z), runs down from f_(N+1) = 0, f_N = 1
    with f_(k-1) = 2 (nu+k)/z f_k - f_(k+1).  The Neumann sum
    (z/2)^nu / Gamma(nu+1) = sum_m w_m J_(nu+2m)(z), with w_0 = 1 and
    w_m = (nu+2m)/m prod_(j<m) (nu+j)/j, fixes the scale: it is summed
    in Horner form on the way down, tail_m = (nu+2m)/m f_2m + (nu+m)/m
    tail_(m+1), so no weight is stored.  g_k = df_k/dnu and dtail follow
    the same recurrences differentiated in nu.  With S = f_0 + tail_1 and
    t0 = (z/2)^nu / Gamma(nu+1), J = f_0 t0 / S and
    dJ/dnu = (g_0 t0 + f_0 dt0)/S - J dS/S, which stays finite at a zero
    of J.  The scalar ``bessel_j`` uses it too: a J-only twin of this loop
    would save about a third of a call that is not on a hot path.
    """
    f_next, f = 0.0, 1.0
    g_next = g = tail = dtail = 0.0
    two_over_z = 2.0 / z
    for k in range(int(_miller_start(nu, z)), 0, -1):
        c = 2.0 * (nu + k) / z
        f_next, f, g_next, g = (f, c * f - f_next,
                                g, c * g + two_over_z * f - g_next)
        if k & 1 and k > 1:
            m = k >> 1  # f is now f_2m
            a, r = (nu + 2 * m) / m, (nu + m) / m
            dtail = (f + tail) / m + a * g + r * dtail
            tail = a * f + r * tail
        if k & 15 == 0 and abs(f) > _RESCALE_AT:
            f_next, f, g_next, g, tail, dtail = (
                v * _RESCALE_BY for v in (f_next, f, g_next, g, tail, dtail))
    ratio = _leading_term(nu, z) / (f + tail)
    j = f * ratio
    log_t0_dnu = math.log(0.5 * z) - digamma(nu + 1.0)
    return j, g * ratio + j * (log_t0_dnu - (g + dtail) / (f + tail))


def _miller_array(nu, z: np.ndarray) -> np.ndarray:
    """J_nu(z) on a 1-D z >= 1, nu a float or an array like z.

    The recurrence of ``_miller_pair`` without the derivative.  Every lane
    starts at its own order N (lanes above it hold exact zeros) and is
    rescaled on its own, so its value does not depend on the other
    arguments of the call.
    """
    start = _miller_start(nu, z)
    seeds = set(np.unique(start).tolist())
    f_next, f, f_prev, tail = (np.zeros_like(z) for _ in range(4))
    for k in range(int(start.max()), 0, -1):
        if k in seeds:
            f[start == k] = 1.0
        # In place, as f_prev = c f - f_next: a quarter faster on the ~5k
        # arguments of one quadrature call than with fresh arrays.
        np.divide(2.0 * (nu + k), z, out=f_prev)
        f_prev *= f
        f_prev -= f_next
        f_next, f, f_prev = f, f_prev, f_next
        if k & 1 and k > 1:
            m = k >> 1
            tail *= (nu + m) / m
            tail += ((nu + 2 * m) / m) * f
        if k & 15 == 0:
            big = np.abs(f) > _RESCALE_AT
            if big.any():
                scale = np.where(big, _RESCALE_BY, 1.0)
                for v in (f_next, f, tail):
                    v *= scale
    return f * _leading_term(nu, z) / (f + tail)


def _is_scalar(x) -> bool:
    return np.isscalar(x) or getattr(x, "ndim", 1) == 0


def bessel_j(nu, z):
    """Bessel function of the first kind, real order nu.

    Miller's backward recurrence normalized by a Neumann sum for z >= 1,
    the power series below; see the module docstring.

    Parameters
    ----------
    nu : float or ndarray
        Order, 0 <= nu <= 60.
    z : float or ndarray
        Argument, 0 <= z <= 60.  nu and z broadcast against each other.

    Returns
    -------
    float or ndarray
        J_nu(z), scalar when both inputs are scalars.

    Raises
    ------
    DomainError
        Outside the [0, 60] x [0, 60] envelope of the model (see
        ``BESSEL_NU_MAX``).
    """
    order_error = f"bessel_j: order outside [0, {BESSEL_NU_MAX:g}]"
    argument_error = f"bessel_j: argument outside [0, {BESSEL_Z_MAX:g}]"
    if _is_scalar(nu) and _is_scalar(z):
        # Plain-float checks: numpy ones on 0-d arrays cost a third of a call.
        nu_f, z_f = float(nu), float(z)
        if not 0.0 <= nu_f <= BESSEL_NU_MAX:
            raise DomainError(order_error)
        if not 0.0 <= z_f <= BESSEL_Z_MAX:
            raise DomainError(argument_error)
        if z_f < _SERIES_Z:
            return float(_series_j(nu_f, z_f))
        return _miller_pair(nu_f, z_f)[0]
    nu_a = np.asarray(nu, dtype=float)
    z_a = np.asarray(z, dtype=float)
    if not (np.all(nu_a >= 0.0) and np.all(nu_a <= BESSEL_NU_MAX)):
        raise DomainError(order_error)
    if not (np.all(z_a >= 0.0) and np.all(z_a <= BESSEL_Z_MAX)):
        raise DomainError(argument_error)
    nu_b, z_b = np.broadcast_arrays(nu_a, z_a)
    z_f = z_b.ravel()
    out = np.empty_like(z_f)
    small = z_f < _SERIES_Z
    for lanes, kernel in ((small, _series_j), (~small, _miller_array)):
        if lanes.any():
            # A scalar order stays a Python float: one gamma call, and
            # scalar rather than array arithmetic on it in every step.
            nu_l = float(nu_a) if nu_a.ndim == 0 else nu_b.ravel()[lanes]
            out[lanes] = kernel(nu_l, z_f[lanes])
    return out.reshape(z_b.shape)


def bessel_j_dnu(nu: float, z: float) -> tuple[float, float]:
    """J_nu(z) and its derivative in the order, from one evaluation.

    For z >= 1, Miller's recurrence carries (f_k, df_k/dnu) pairs (see
    ``_miller_pair``).  Below, the power series differentiated term by
    term gives d/dnu J_nu(z) = J_nu(z) (ln(z/2) - psi(nu+1)) - sum_k t_k
    H_k, with t_k the k-th term and H_k = sum_{j<=k} 1/(nu+j).  Both have
    a relative error of a few 1e-15 over the envelope.

    Parameters
    ----------
    nu : float
        Order, 0 <= nu <= 60.
    z : float
        Argument, 0 < z <= 60 (the order derivative diverges at z = 0
        for nu = 0).

    Raises
    ------
    DomainError
        Outside that envelope.
    """
    nu, z = float(nu), float(z)
    if not 0.0 <= nu <= BESSEL_NU_MAX:
        raise DomainError(f"bessel_j_dnu: order outside [0, {BESSEL_NU_MAX:g}]")
    if not 0.0 < z <= BESSEL_Z_MAX:
        raise DomainError(
            f"bessel_j_dnu: argument outside (0, {BESSEL_Z_MAX:g}]")
    if z >= _SERIES_Z:
        return _miller_pair(nu, z)
    j, weighted = _series(nu, z)
    return j, j * (math.log(0.5 * z) - digamma(nu + 1.0)) - weighted


@dataclass(frozen=True)
class OrderZeroList:
    """Orders nu > 0 at which J_nu(z0) vanishes, for a fixed argument z0.

    ``zeros`` is strictly ascending and complete on (root_tol,
    search_ceiling]: since the first positive zero of J_nu exceeds nu, no
    solutions of J_nu(z0) = 0 exist for nu >= z0, and the scan ceiling is
    z0 itself.
    """

    z0: float
    zeros: tuple[float, ...]
    search_ceiling: float

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.zeros, self.zeros[1:])):
            raise ValueError("OrderZeroList: zeros must be strictly ascending")
        if any(not 0.0 < nu <= self.search_ceiling for nu in self.zeros):
            raise ValueError("OrderZeroList: zeros outside (0, ceiling]")


def find_nu_zeros(z0: float, cfg: SolverConfig = DEFAULT_CONFIG) -> OrderZeroList:
    """Scan nu in [0, z0] for zeros of nu -> J_nu(z0).

    Sign changes on a grid with step ``cfg.bracket_step``, starting at
    nu = 0, are refined to ``cfg.root_tol`` by safeguarded Newton steps,
    with the derivative in the order from ``bessel_j_dnu``: on 2400 depths
    z0 in [0.5, 60] that took 2 or 3 evaluations per zero.  A zero within
    ``root_tol`` of 0 is the non-normalizable nu = 0 threshold state and
    is not returned.  Returns an empty list when z0 is below the first
    zero of J_0 (~2.4048): no order can then satisfy the quantization
    condition.
    """
    z0 = float(z0)
    if not z0 > 0.0:  # also rejects NaN
        raise DomainError("find_nu_zeros: z0 must be positive")
    if z0 > BESSEL_Z_MAX:
        raise DomainError(f"find_nu_zeros: z0 outside [0, {BESSEL_Z_MAX:g}]")
    step = cfg.bracket_step
    grid = np.arange(0.0, z0 + 0.5 * step, step)
    grid = grid[grid <= min(z0, BESSEL_NU_MAX)]
    vals = np.atleast_1d(bessel_j(grid, z0))

    def newton(nu):
        j, dj = bessel_j_dnu(nu, z0)
        return j, (j / dj if dj != 0.0 else math.inf)

    zeros: list[float] = []
    for i in range(len(grid) - 1):
        a, b = float(grid[i]), float(grid[i + 1])
        fa, fb = float(vals[i]), float(vals[i + 1])
        if fa == 0.0:
            zeros.append(a)
        elif fa * fb < 0.0:
            zeros.append(refine_root(newton, a, b, fa, fb, cfg.root_tol))
    if float(vals[-1]) == 0.0:
        zeros.append(float(grid[-1]))
    zeros = [nu for nu in zeros if nu > cfg.root_tol]
    return OrderZeroList(z0=z0, zeros=tuple(zeros), search_ceiling=z0)
