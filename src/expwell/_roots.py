"""The package's one root finder: safeguarded steps inside a sign-change bracket."""

from __future__ import annotations

import math


def refine_root(f, a: float, b: float, fa: float, fb: float,
                tol: float) -> float:
    """Zero of f in a sign-change bracket [a, b], a < b.

    ``f(x)`` returns ``(value, step)``: ``step`` is value / derivative for
    Newton's method, or None for a secant step through x and the previous
    point.  The first point is the secant point of the bracket, and each
    evaluation shrinks the bracket.  As in the classic safeguarded Newton
    (Press et al., Numerical Recipes, rtsafe), a step that leaves the
    bracket, or that is not at most half the step two iterations back, is
    replaced by bisection, which bounds the number of evaluations.

    Returns x - step once the step is within ``tol``, or the last point
    once no double is left between the bracket ends, which can come first
    when ``tol`` is below the spacing of doubles near the zero.
    """
    x = a - fa * (b - a) / (fb - fa)
    prev, f_prev = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    step = older_step = b - a
    while True:
        fx, dx = f(x)
        if dx is None:
            dx = fx * (x - prev) / (fx - f_prev) if fx != f_prev else math.inf
            prev, f_prev = x, fx
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
        else:
            b = x
        if abs(dx) <= tol:
            return x - dx
        if math.nextafter(a, b) >= b:
            return x
        if a < x - dx < b and abs(dx) <= 0.5 * abs(older_step):
            older_step, step = step, dx
            x -= dx
        else:
            older_step, step = step, 0.5 * (b - a)
            x = a + step
