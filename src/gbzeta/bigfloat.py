"""Arbitrary-precision binary floats on top of mpmath.

Every function takes the mantissa precision in bits explicitly; results are
rounded to that precision. An exact value becomes a binary float by one
rounding: to_mpf rounds an int or Fraction to nearest, once. mpmath's context
is process-global, so the float paths are single-threaded by design (the CLI
runs one process; see README). Sums that need more than rounding per
operation are done in scaled integers (fixed point) with one rounding at the
end: the exact kernel scaled_power, summed by _power_sums, feeds series'
partial sums of x^-s, power tails and regularized tail and the Parseval sums
of quadrature; periodic's Fourier kernel is the other fixed-point user.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import mpmath as mp
from mpmath.libmp import MPZ, from_rational, normalize, round_nearest

DEFAULT_PRECISION = 256


def to_mpf(q, prec: int = DEFAULT_PRECISION):
    """Convert to an mpf at `prec` bits; an int or Fraction is correctly rounded
    (to nearest), anything else mpmath accepts is rounded once to `prec` bits."""
    if isinstance(q, (int, Fraction)):
        return mp.make_mpf(from_rational(q.numerator, q.denominator, prec, round_nearest))
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


def _round_fixed(v: int, W: int, prec=None, rnd=round_nearest):
    # v 2^-W rounded once, by rnd (to nearest) at prec; exact without prec
    u = abs(v)
    bc = u.bit_length()
    return mp.make_mpf(normalize(int(v < 0), MPZ(u), -W, bc, prec or bc + 1, rnd))


def scaled_power(s, j: int, W: int) -> int:
    """An integer V within one unit of 2^W j^-s, for rational s = a/b >= 0, j >= 1.

    For b <= 4 V is floor(2^W j^-s), exactly: the b-th root of
    x = floor(2^(bW)/j^a), floored, since n <= y^(1/b) iff n^b <= floor(y)
    for an integer n: math.isqrt for b = 2, else integer Newton from
    2^ceil(bitlen(x)/b), whose steps stay at or above the floored root (AM-GM)
    and fall until they reach it. That route costs integers of bW bits and
    about b ln 2 linear Newton steps, so for b > 4 V is the nearest integer to
    2^W j^e, e = -s rounded to w = W + 64 bits, an mpf power at w bits, at a
    cost that does not depend on b. |e + s| <= s 2^(1-w) moves j^-s by a
    relative 2 s ln(j) 2^-w at most, and mpmath's power, exp(e log j) with
    guard bits, is taken to be within 2^8 units in its last place: the power
    is within (2 s ln j + 2^8) 2^-64 units of 2^-W of 2^W j^-s, which is
    below 1/2 for any j and s that fit in memory, and rounding to an integer
    adds at most 1/2.
    """
    a, b = s.numerator, s.denominator
    if b > 4:
        w = W + 64
        with mp.workprec(w):
            return int(mp.nint(mp.ldexp(mp.mpf(j) ** to_mpf(-s, w), W)))
    x = (1 << b * W) // j**a
    if b <= 2 or not x:
        return isqrt(x) if b == 2 else x
    y = 1 << -(-x.bit_length() // b)
    while (z := ((b - 1) * y + x // y ** (b - 1)) // b) < y:
        y = z
    return y


def _power_sums(s, js, ks, W: int) -> dict:
    """{k: sum_{j in js} V_jk} for orders k >= 1, |V_jk - 2^W j^-(s+k-1)| < 1.

    V_j = scaled_power(s, j, W), then V_j <- V_j // j^(k - k_prev) per order.
    If |V - x| < 1 and n >= 1, then x/n - 1 < (V - n + 1)/n <= V // n
    <= V/n < x/n + 1, so every order stays within one unit; for the exact
    floors of b <= 4 it stays floor(2^W j^-(s+k-1)), as floor(floor(x)/n) =
    floor(x/n).
    """
    V = [scaled_power(s, j, W) for j in js]
    out, k_prev = {}, 1
    for k in sorted(set(ks)):
        if k > k_prev:
            V = [v // j ** (k - k_prev) for v, j in zip(V, js)]
        out[k], k_prev = sum(V), k
    return out
