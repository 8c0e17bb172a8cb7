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


def _miller_pair(nu: float, z: float) -> tuple[float, float, float]:
    """J_nu(z), dJ_nu(z)/dnu and J_(nu+1)(z) by Miller's recurrence, z >= 1.

    f_k, proportional to J_(nu+k)(z), runs down from f_(N+1) = 0, f_N = 1
    with f_(k-1) = 2 (nu+k)/z f_k - f_(k+1).  The Neumann sum
    (z/2)^nu / Gamma(nu+1) = sum_m w_m J_(nu+2m)(z), with w_0 = 1 and
    w_m = (nu+2m)/m prod_(j<m) (nu+j)/j, fixes the scale: it is summed
    in Horner form on the way down, tail_m = (nu+2m)/m f_2m + (nu+m)/m
    tail_(m+1), so no weight is stored.  g_k = df_k/dnu and dtail follow
    the same recurrences differentiated in nu.  With S = f_0 + tail_1 and
    t0 = (z/2)^nu / Gamma(nu+1), J = f_0 t0 / S and
    dJ/dnu = (g_0 t0 + f_0 dt0)/S - J dS/S, which stays finite at a zero
    of J.  The loop ends with f_1, so J_(nu+1) = f_1 t0 / S comes with
    them.  The scalar ``bessel_j`` uses it too: a J-only twin of this loop
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
    return (j, g * ratio + j * (log_t0_dnu - (g + dtail) / (f + tail)),
            f_next * ratio)


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
        return _miller_pair(nu, z)[:2]
    j, weighted = _series(nu, z)
    return j, j * (math.log(0.5 * z) - digamma(nu + 1.0)) - weighted


def _bessel_j_dnu_next(nu: float, z: float) -> tuple[float, float, float]:
    """``bessel_j_dnu`` and J_(nu+1)(z), from one Miller run for z >= 1.

    The first value is bit-identical to ``bessel_j(nu, z)``.  Outside the
    Miller range it falls back to the public functions and their errors.
    """
    nu, z = float(nu), float(z)
    if 0.0 <= nu <= BESSEL_NU_MAX and _SERIES_Z <= z <= BESSEL_Z_MAX:
        return _miller_pair(nu, z)
    return (*bessel_j_dnu(nu, z), bessel_j(nu + 1.0, z))


@dataclass(frozen=True)
class OrderZeroList:
    """Orders nu > 0 at which J_nu(z0) vanishes, for a fixed argument z0.

    ``zeros`` is strictly ascending and complete on (root_tol,
    search_ceiling]: since the first positive zero of J_nu exceeds nu, no
    solutions of J_nu(z0) = 0 exist for nu >= z0, and the search ceiling
    is z0 itself.
    """

    z0: float
    zeros: tuple[float, ...]
    search_ceiling: float

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.zeros, self.zeros[1:])):
            raise ValueError("OrderZeroList: zeros must be strictly ascending")
        if any(not 0.0 < nu <= self.search_ceiling for nu in self.zeros):
            raise ValueError("OrderZeroList: zeros outside (0, ceiling]")


def _order_ladder(z0: float) -> list[float]:
    """f_k, proportional to J_k(z0), for k = 0..N: Miller's ladder at nu = 0.

    The recurrence of ``_miller_pair`` from the same start N, without the
    derivative or the Neumann sum: only signs and ratios of neighbours are
    read.  For z0 >= 1 it peaks at ~5e63 (z0 = 1), so it needs no rescale.
    """
    f_next, f = 0.0, 1.0
    ladder = [f]
    for k in range(int(_miller_start(0.0, z0)), 0, -1):
        f_next, f = f, 2.0 * k / z0 * f - f_next
        ladder.append(f)
    ladder.reverse()
    return ladder


def find_nu_zeros(z0: float, cfg: SolverConfig = DEFAULT_CONFIG) -> OrderZeroList:
    """Orders nu in (0, z0] with J_nu(z0) = 0, bracketed by a count.

    The count (Ikebe, Kikuchi & Fujishiro, J. Comput. Appl. Math. 38
    (1991)): by J_(x+k-1) + J_(x+k+1) = 2 (x+k)/z0 J_(x+k), a zero x of
    J_x(z0) is an eigenvalue, with eigenvector y_k = J_(x+k)(z0), of the
    symmetric tridiagonal Jacobi matrix A with diagonal -1, -2, -3, ...
    and off-diagonal z0/2.  By Sylvester's law of inertia, the number of
    eigenvalues of its N x N section A_N above x is the number of negative
    pivots of x I - A_N.  Eliminated from the bottom (U D U^T, the
    L D L^T of the reversed matrix), they are d_N = x + N and
    d_k = x + k - (z0/2)^2 / d_(k+1).  Miller's recurrence
    f_(k-1) = 2 (x+k)/z0 f_k - f_(k+1) from f_(N+1) = 0, f_N = 1 obeys
    the same recursion in d_k = (z0/2) f_(k-1) / f_k, so the count is the
    number of sign changes of f_0, f_1, ..., f_N.

    One ladder at x = 0, f_k proportional to J_k(z0), serves every integer
    shift: its tail f_k, f_(k+1), ... is the ladder at x = k, cut at the
    same order N.  So the number of zeros above k falls by one from k to
    k + 1 exactly where f_k and f_(k+1) differ in sign, and [k, k+1] then
    holds one zero; elsewhere it holds none.  With Miller's start
    N = floor(z0) + 40, the counts equal scipy's on all 720 wells the
    tests try, 114 of them within 1e-8 to 1e-3 of a threshold.
    J_nu(z0) > 0 for nu >= z0, so no bracket lies above floor(z0) + 1.

    Each bracket is refined to ``cfg.root_tol`` by safeguarded Newton
    steps, with the derivative in the order from ``_miller_pair`` (the
    Miller branch of ``bessel_j_dnu``), about three evaluations per zero.  The secant start needs only
    f_k / (f_k - f_(k+1)), so the ladder is not normalized.  An exact zero
    f_k = 0 is the zero nu = k.  A zero within ``root_tol`` of 0 is the
    non-normalizable nu = 0 threshold state and is not returned.  Below
    z0 = 1 no ladder is run: the power series of J_nu(z0) alternates with
    terms that fall from the first, so J_nu(z0) > 0 for every nu.  The
    list is empty for z0 below the first zero of J_0 (~2.4048).
    """
    z0 = float(z0)
    if not z0 > 0.0:  # also rejects NaN
        raise DomainError("find_nu_zeros: z0 must be positive")
    if z0 > BESSEL_Z_MAX:
        raise DomainError(f"find_nu_zeros: z0 outside [0, {BESSEL_Z_MAX:g}]")
    if z0 < _SERIES_Z:
        return OrderZeroList(z0=z0, zeros=(), search_ceiling=z0)

    def newton(nu):
        j, dj, _ = _miller_pair(nu, z0)
        return j, (j / dj if dj != 0.0 else math.inf)

    ladder = _order_ladder(z0)
    zeros: list[float] = []
    for k in range(int(z0) + 1):
        fa, fb = ladder[k], ladder[k + 1]
        if fa == 0.0:
            zeros.append(float(k))
        elif fa * fb < 0.0:
            zeros.append(refine_root(newton, float(k), k + 1.0, fa, fb,
                                     cfg.root_tol))
    zeros = [nu for nu in zeros if nu > cfg.root_tol]
    return OrderZeroList(z0=z0, zeros=tuple(zeros), search_ceiling=z0)
