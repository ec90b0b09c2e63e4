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

_power_sums takes a block J <= j < J0 of a fractional s with 2J <= J0 from
a sieve: j^-s is completely multiplicative, so only the primes take
scaled_power (one unit, E_p = 1) and a composite j = q (j/q) is a product
of two row entries shifted down, within E_j <= E_q + E_(j/q) + 2 units, so
E_j <= 3 Omega(j) - 2 < E = 3 bitlen(J0 - 1). The row runs at W' = W + g
bits, g = 2 bitlen(E), so 2^g > E^2: the cross term E_q E_(j/q) 2^-W' of
a product stays under one unit, and an order's sum over n terms, within
n E units of 2^-W', shifted down by g, is within n/E + 1 <= n units of
2^-W for n >= 2 (and exact for j = 1 alone), as on the direct route,
where each term is within one unit.
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


def _power_row(s, n: int, W: int) -> list:
    """[0, V_1, ..., V_n], V_j within E_j units of 2^W j^-s (see _power_sums).

    j^-s is completely multiplicative, so only a prime takes
    scaled_power(s, j, W); a composite j is V_q V_(j/q) >> W for q its
    smallest prime factor, from a sieve: writing q down the multiples of q
    from q^2, for q = isqrt(n), ..., 2, leaves each composite its least q.
    """
    spf = list(range(n + 1))
    for q in range(isqrt(n), 1, -1):
        spf[q * q::q] = [q] * len(range(q * q, n + 1, q))
    V = [0, 1 << W]
    for j in range(2, n + 1):
        q = spf[j]
        V.append(scaled_power(s, j, W) if q == j else V[q] * V[j // q] >> W)
    return V


def _power_sums(s, js, ks, W: int) -> dict:
    """{k: sum_{j in js} V_jk} for orders k >= 1, each within len(js) units of
    2^W sum_{j in js} j^-(s+k-1); js ascending.

    Direct route: V_j = scaled_power(s, j, W), then V_j <- V_j // j^(k - k_prev)
    per order. If |V - x| < E for an integer E >= 1 and n >= 1, then
    x/n - E < (V - n + 1)/n <= V // n <= V/n < x/n + E, so every order keeps
    its term's error: one unit; for the exact floors of b <= 4 it stays
    floor(2^W j^-(s+k-1)), as floor(floor(x)/n) = floor(x/n).

    Sieved route, for s not an integer and js from J to J0 - 1 with 2J <= J0:
    the row V_1..V_(J0-1) of _power_row at W' = W + g, then the same orders,
    each sum shifted down by g. V_1 = 2^W' is exact, a prime is within
    E_p = 1 unit, and a composite j = q (j/q) within
    E_j = E_q + E_(j/q) + 2: with V_i = 2^W' x_i + e_i, x_i = i^-s <= 1,
    V_q V_(j/q) 2^-W' is within E_(j/q) + E_q + E_q E_(j/q) 2^-W' of
    2^W' x_j, the shift adds under one unit, and E_q E_(j/q) <= 2^W' below.
    So E_j <= 3 Omega(j) - 2 < E = 3 bitlen(J0 - 1), Omega(j) <= log2(j)
    counting prime factors with multiplicity. g = 2 bitlen(E) makes
    2^W' >= 2^g > E^2. An order's sum T over n = J0 - J terms is within n E
    units of 2^W' X, so T >> g is within n E 2^-g + 1 < n/E + 1 <= n units of
    2^W X for n >= 2 (E >= 3), and exact for js = [1]. Integer s keeps
    the direct floors (one division per term beats a W-bit product), and so
    do blocks with 2J > J0, where the row would cost over twice the terms.
    """
    g = 0
    if s.denominator > 1 and js and 2 * js[0] <= js[-1] + 1:
        g = 2 * (3 * js[-1].bit_length()).bit_length()
        row = _power_row(s, js[-1], W + g)
        V = [row[j] for j in js]
    else:
        V = [scaled_power(s, j, W) for j in js]
    out, k_prev = {}, 1
    for k in sorted(set(ks)):
        if k > k_prev:
            V = [v // j ** (k - k_prev) for v, j in zip(V, js)]
        out[k], k_prev = sum(V) >> g, k
    return out
