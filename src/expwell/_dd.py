"""Error-free transformations for compensated (double-double) summation.

A double-double value is a pair ``(hi, lo)`` of doubles representing
``hi + lo`` with roughly 32 significant decimal digits.  Every helper here
works unchanged on Python floats and on numpy arrays, because it only uses
``+ - * /``.  Those are correctly rounded in IEEE-754 for both, so a helper
gives bit-identical results on floats and, element by element, on arrays.

That does not make callers' scalar and array paths bit-identical.
``specfun.bessel_j`` feeds these helpers a first term (z/2)^nu that comes
from Python's ``**`` on scalars and from numpy's vectorized ``power`` on
arrays; the two differ in the last bit for a few percent of arguments, and
the series' cancellation amplifies that to ~1e-8 absolute near z = 60.
What the array path does guarantee is batch independence: each element is
bit-identical to the same (nu, z) evaluated in a one-element array.

two_sum / two_prod are the classical Knuth and Dekker transforms; the
splitting constant 2**27 + 1 is for binary64.
"""

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    """Exact sum: returns (s, e) with s = fl(a+b) and a + b = s + e."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def fast_two_sum(a, b):
    """two_sum variant assuming |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def two_prod(a, b):
    """Exact product: returns (p, e) with p = fl(a*b) and a * b = p + e."""
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_add(xh, xl, yh, yl):
    """Double-double addition (sloppy renormalization, ~106-bit accurate)."""
    sh, sl = two_sum(xh, yh)
    sl = sl + (xl + yl)
    return fast_two_sum(sh, sl)


def dd_mul(xh, xl, yh, yl):
    """Double-double multiplication."""
    ph, pl = two_prod(xh, yh)
    pl = pl + (xh * yl + xl * yh)
    return fast_two_sum(ph, pl)


def dd_div(xh, xl, yh, yl):
    """Double-double division via one Newton correction of the hi quotient."""
    q1 = xh / yh
    ph, pl = two_prod(q1, yh)
    pl = pl + q1 * yl
    rh, rl = dd_add(xh, xl, -ph, -pl)
    q2 = (rh + rl) / yh
    return fast_two_sum(q1, q2)
