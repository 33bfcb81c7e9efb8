"""Error-free transforms and double-double (hi, lo) arithmetic.

The library does not call this module: run_harmonic folds the oscillator
map in 34-digit decimal.  The tests build an independent double-double
reference fold from it (tests/oracle.py), and the benchmark harness imports
it as a layer.

A double-double is an unevaluated sum (hi, lo) with |lo| <= ulp(hi)/2,
giving roughly 32 significant decimal digits.
"""

from __future__ import annotations

SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant for binary64

DD = tuple  # (hi, lo)


def two_sum(a: float, b: float) -> DD:
    """a + b as (sum, exact rounding error)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def split(a: float) -> DD:
    """a as hi + lo with both halves holding at most 26 mantissa bits."""
    c = SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a: float, b: float) -> DD:
    """a * b as (product, exact rounding error)."""
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def from_float(a: float) -> DD:
    return (a, 0.0)


def to_float(x: DD) -> float:
    return x[0] + x[1]


def rational(n: int, d: int) -> DD:
    """n / d to double-double accuracy, for exactly representable n, d."""
    return div((float(n), 0.0), (float(d), 0.0))


def neg(x: DD) -> DD:
    return (-x[0], -x[1])


def add(x: DD, y: DD) -> DD:
    s, e = two_sum(x[0], y[0])
    e += x[1] + y[1]
    return two_sum(s, e)


def sub(x: DD, y: DD) -> DD:
    return add(x, neg(y))


def mul(x: DD, y: DD) -> DD:
    p, e = two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return two_sum(p, e)


def div(x: DD, y: DD) -> DD:
    # one Newton correction on the float64 quotient
    q1 = x[0] / y[0]
    r = add(x, neg(mul((q1, 0.0), y)))
    q2 = (r[0] + r[1]) / y[0]
    return two_sum(q1, q2)
