"""Arbitrary-precision binary floats on top of mpmath.

Every function takes the mantissa precision in bits explicitly; results are
rounded to that precision. mpmath's context is process-global, so the float
paths are single-threaded by design (the CLI runs one process; see README).
Sums that need more than rounding per operation are done in scaled integers
(fixed point) with one rounding at the end: truncated_power_sum here, and the
Fourier kernel of periodic, which needs no trigonometric helper from this
module.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

DEFAULT_PRECISION = 256

# extra working bits so the final rounding dominates the error budget
_GUARD = 16


def to_mpf(q, prec: int = DEFAULT_PRECISION):
    """Convert a Fraction/int to an mpf; relative error <= 2**(1-prec)."""
    if isinstance(q, (int, Fraction)):
        num, den = (q, 1) if isinstance(q, int) else (q.numerator, q.denominator)
        with mp.workprec(prec + _GUARD):
            v = mp.mpf(num) / den
        with mp.workprec(prec):
            return +v
    with mp.workprec(prec):
        return +mp.mpf(q)


def pi_const(prec: int = DEFAULT_PRECISION):
    """Pi at `prec` bits (relative error well below 2**(4-prec))."""
    if prec < 32:
        raise ValueError("precision must be at least 32 bits")
    with mp.workprec(prec):
        return +mp.pi


def decimal_str(x, digits: int = 30) -> str:
    """Decimal serialization with the requested significant digit count."""
    if not isinstance(x, mp.mpf):
        # never round through the ambient context
        x = to_mpf(x, int(digits * 3.33) + 16)
    return mp.nstr(x, digits, strip_zeros=False)


def frac_part(x):
    """x - floor(x), in [0, 1)."""
    return x - mp.floor(x)


def truncated_power_sum(t: int, K: int, prec: int = DEFAULT_PRECISION):
    """sum_{k=1}^{K} k**(-t) for integer t >= 2, deterministically.

    Scaled-integer summation: each term floor(2**B / k**t) errs by < 2**-B,
    so the total error is < (K+1) * 2**-B with B = prec + 64.
    """
    if t < 2:
        raise ValueError("need t >= 2")
    B = prec + 64
    one = 1 << B
    total = 0
    for k in range(1, K + 1):
        total += one // k**t
    with mp.workprec(prec + _GUARD):
        v = mp.mpf(total) / one
    with mp.workprec(prec):
        return +v
