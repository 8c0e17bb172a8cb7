"""Self-contained special functions: Gamma, 1/Gamma, digamma, J_nu, its
derivative in the order, and order zeros.

Everything here is evaluated from embedded constants and plain arithmetic;
no external special-function library is used.  The Bessel series is summed
in double-double arithmetic because the terms of J_nu(z) grow to ~e^z before
cancelling: at z = 60 the largest term is ~1e23, so a plain double sum would
lose all significant digits.  With compensated arithmetic the absolute error
stays below ~2e-14 for z <= 45 and ~2e-8 at the z = 60 edge of the envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._dd import dd_add, dd_div, dd_mul, two_prod, two_sum
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

#: Supported evaluation envelope of the Bessel power series.
BESSEL_NU_MAX = 60.0
BESSEL_Z_MAX = 60.0

_SERIES_CUTOFF = 1e-17
_SERIES_MAX_TERMS = 400


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
    w = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, 15):
        acc += _LANCZOS_C[i] / (w + i)
    base = w + _LANCZOS_G + 0.5
    half_power = base ** (0.5 * (w + 0.5)) * math.exp(-0.5 * base)
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


def _gamma_array(x: np.ndarray) -> np.ndarray:
    return np.array([gamma(float(v)) for v in x.ravel()]).reshape(x.shape)


def _series_denominator(nu, k: int):
    """(k+1)*(nu+k+1) as an exact double-double (nu scalar or array)."""
    kp1 = float(k + 1)
    ah, al = two_sum(nu, kp1)
    dh, dl = two_prod(kp1, ah)
    return dh, dl + kp1 * al


def _bessel_series_scalar(nu: float, z: float) -> float:
    if z == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    half = 0.5 * z
    t0 = half ** nu / gamma(nu + 1.0)
    qh, ql = two_prod(half, half)  # (z/2)^2, exact
    sh, sl = t0, 0.0
    th, tl = t0, 0.0
    for k in range(_SERIES_MAX_TERMS):
        dh, dl = _series_denominator(nu, k)
        rh, rl = dd_div(qh, ql, dh, dl)
        th, tl = dd_mul(th, tl, -rh, -rl)
        sh, sl = dd_add(sh, sl, th, tl)
        if abs(th) <= _SERIES_CUTOFF * abs(sh):
            return sh + sl
    return sh + sl


def _bessel_series_array(nu: np.ndarray, z: np.ndarray,
                         gnu: np.ndarray) -> np.ndarray:
    """The scalar series, run on every lane of the broadcast (nu, z).

    Each lane stops at its own first |t_k| <= 1e-17 |s_k|, as the scalar
    path does, and leaves the working arrays once it has.  A 0-d nu stays
    a Python float, so the denominator (k+1)(nu+k+1) is built once per
    term rather than once per lane.
    """
    nu_b, z_b, gnu_b = np.broadcast_arrays(nu, z, gnu)
    shape = nu_b.shape
    # ravel gives contiguous arrays: numpy's power takes a different (not
    # bit-identical) loop for a stride-0 exponent such as 0.5 or 2.
    nu_f, z_f = nu_b.ravel(), z_b.ravel()
    half = 0.5 * z_f
    with np.errstate(invalid="ignore"):
        t0 = np.where(z_f == 0.0, np.where(nu_f == 0.0, 1.0, 0.0),
                      half ** nu_f / gnu_b.ravel())
    nu_w = float(nu) if nu.ndim == 0 else nu_f
    qh, ql = two_prod(half, half)
    out = np.empty_like(t0)
    lane = np.arange(t0.size)
    sh, sl, th, tl = t0, np.zeros_like(t0), t0, np.zeros_like(t0)
    for k in range(_SERIES_MAX_TERMS):
        if lane.size == 0:
            break
        dh, dl = _series_denominator(nu_w, k)
        rh, rl = dd_div(qh, ql, dh, dl)
        th, tl = dd_mul(th, tl, -rh, -rl)
        sh, sl = dd_add(sh, sl, th, tl)
        done = np.abs(th) <= _SERIES_CUTOFF * np.abs(sh)
        if done.any():
            out[lane[done]] = sh[done] + sl[done]
            keep = ~done
            lane, qh, ql, sh, sl, th, tl = (
                a[keep] for a in (lane, qh, ql, sh, sl, th, tl))
            if nu.ndim:
                nu_w = nu_w[keep]
    out[lane] = sh + sl
    return out.reshape(shape)


def bessel_j(nu, z):
    """Bessel function of the first kind, real order nu, by power series.

    Sums sum_k (-1)^k (z/2)^(nu+2k) / (k! Gamma(nu+k+1)) in double-double
    arithmetic until the next term falls below 1e-17 of the partial sum.

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
        Outside the [0, 60] x [0, 60] envelope (accuracy of the plain
        series degrades beyond it; see the module docstring).
    """
    nu_scalar = np.isscalar(nu) or getattr(nu, "ndim", 1) == 0
    z_scalar = np.isscalar(z) or getattr(z, "ndim", 1) == 0
    nu_a = np.asarray(nu, dtype=float)
    z_a = np.asarray(z, dtype=float)
    if not (np.all(nu_a >= 0.0) and np.all(nu_a <= BESSEL_NU_MAX)):
        raise DomainError(f"bessel_j: order outside [0, {BESSEL_NU_MAX:g}]")
    if not (np.all(z_a >= 0.0) and np.all(z_a <= BESSEL_Z_MAX)):
        raise DomainError(f"bessel_j: argument outside [0, {BESSEL_Z_MAX:g}]")
    if nu_scalar and z_scalar:
        return _bessel_series_scalar(float(nu_a), float(z_a))
    # Gamma(nu+1) is evaluated before broadcasting, so a scalar order paired
    # with a large argument array costs a single gamma call.
    if nu_a.ndim == 0:
        gnu = np.asarray(gamma(float(nu_a) + 1.0))
    else:
        gnu = _gamma_array(nu_a + 1.0)
    return _bessel_series_array(nu_a, z_a, gnu)


def bessel_j_dnu(nu: float, z: float) -> tuple[float, float]:
    """J_nu(z) and its derivative in the order, from one series.

    Differentiating the series term by term gives
    d/dnu J_nu(z) = J_nu(z) (ln(z/2) - psi(nu+1)) - sum_k t_k H_k, where
    t_k is the k-th term of J_nu and H_k = sum_{j<k} 1/(nu+j+1).  t_k, the
    partial sums and H_k are all carried in double-double: H_k multiplies
    terms as large as ~1e23 at z = 60.  psi(nu+1) multiplies only J_nu and
    is taken in double.  The absolute error of both values follows that of
    ``bessel_j``.

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
    half = 0.5 * z
    t0 = half ** nu / gamma(nu + 1.0)
    qh, ql = two_prod(half, half)  # (z/2)^2, exact
    sh, sl = t0, 0.0  # sum t_k
    th, tl = t0, 0.0  # t_k
    hh, hl = 0.0, 0.0  # H_k
    wh, wl = 0.0, 0.0  # sum t_k H_k
    for k in range(_SERIES_MAX_TERMS):
        ah, al = two_sum(nu, float(k + 1))
        ih, il = dd_div(1.0, 0.0, ah, al)
        hh, hl = dd_add(hh, hl, ih, il)
        dh, dl = _series_denominator(nu, k)
        rh, rl = dd_div(qh, ql, dh, dl)
        th, tl = dd_mul(th, tl, -rh, -rl)
        sh, sl = dd_add(sh, sl, th, tl)
        ph, pl = dd_mul(th, tl, hh, hl)
        wh, wl = dd_add(wh, wl, ph, pl)
        # Near a zero of J_nu the derivative sum sets the scale.
        if abs(th) <= _SERIES_CUTOFF * (abs(sh) + abs(wh)):
            break
    j = sh + sl
    return j, j * (math.log(half) - digamma(nu + 1.0)) - (wh + wl)


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


def _refine_zero(z0: float, a: float, b: float, fa: float, fb: float,
                 tol: float) -> float:
    """Zero of nu -> J_nu(z0) in a sign-change bracket [a, b].

    Newton steps from the secant point, with the derivative in the order
    from ``bessel_j_dnu``; each evaluation shrinks the bracket.  As in the
    classic safeguarded Newton (Press et al., Numerical Recipes, rtsafe), a
    step that leaves the bracket, or that is not at most half the step two
    iterations back, is replaced by bisection, which bounds the number of
    evaluations.  Returns the Newton update once the step is within
    ``tol``.  If the bracket closes to ``tol`` first, which happens only
    where the series' rounding noise (up to ~1e-8 near z0 = 60) exceeds
    |dJ/dnu| * tol, it returns the evaluated order with the smallest
    |J_nu(z0)|.
    """
    x = a - fa * (b - a) / (fb - fa)
    step = older_step = b - a
    best_x, best_j = x, math.inf
    while True:
        j, dj = bessel_j_dnu(x, z0)
        if abs(j) < best_j:
            best_x, best_j = x, abs(j)
        if (j < 0.0) == (fa < 0.0):
            a, fa = x, j
        else:
            b = x
        newton = j / dj if dj != 0.0 else math.inf
        if abs(newton) <= tol:
            return x - newton
        if b - a <= tol:
            return best_x
        if a < x - newton < b and abs(newton) <= 0.5 * abs(older_step):
            older_step, step = step, newton
            x -= newton
        else:
            older_step, step = step, 0.5 * (b - a)
            x = a + step


def find_nu_zeros(z0: float, cfg: SolverConfig = DEFAULT_CONFIG) -> OrderZeroList:
    """Scan nu in [0, z0] for zeros of nu -> J_nu(z0).

    Sign changes on a grid with step ``cfg.bracket_step``, starting at
    nu = 0, are refined by safeguarded Newton steps (``_refine_zero``) to
    ``cfg.root_tol``.  A zero within ``root_tol`` of 0 is the
    non-normalizable nu = 0 threshold state and is not returned.  Returns
    an empty list when z0 is below the first zero of J_0 (~2.4048): no
    order can then satisfy the quantization condition.
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
    zeros: list[float] = []
    for i in range(len(grid) - 1):
        a, b = float(grid[i]), float(grid[i + 1])
        fa, fb = float(vals[i]), float(vals[i + 1])
        if fa == 0.0:
            zeros.append(a)
        elif fa * fb < 0.0:
            zeros.append(_refine_zero(z0, a, b, fa, fb, cfg.root_tol))
    if float(vals[-1]) == 0.0:
        zeros.append(float(grid[-1]))
    zeros = [nu for nu in zeros if nu > cfg.root_tol]
    return OrderZeroList(z0=z0, zeros=tuple(zeros), search_ceiling=z0)
