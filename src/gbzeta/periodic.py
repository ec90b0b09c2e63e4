"""Periodic generalized Bernoulli functions of level m and their Fourier data.

p_n(x) = B_n(x)/n! on [0,1), extended 1-periodically. For m > 1 these jump at
the integers, and every Fourier coefficient is a short sum of the boundary
jumps (B_i(1) - B_i)/i! against powers of 1/(2 pi k).

Coefficients and partial sums share one fixed-point kernel: the constants
c (2 pi)^-p of jump_terms become integers scaled by 2^W, W = prec plus guard
bits derived from the largest power and K, and a_k, b_k follow by Horner in
1/k^2 with integer floor division. The exact jumps and jump terms are
cached per (m, n) and the integer tables per (m, n, W); W takes one value
per bitlen(K). The a_k and the b_k are each built as a whole row of K
integers, and fourier_coeffs converts each row to mpf in one pass. A
partial sum takes cos and sin of 2 pi x once, with exact argument
reduction, advances the phase of k x by an integer rotation over the same
rows, and sums exactly in integers; fourier_partial_sum states the
resulting bound. Each returned value is rounded once, to nearest at prec.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

import mpmath as mp
from mpmath.libmp import MPZ, from_rational, fzero, normalize, round_nearest

from . import bernoulli, zeta_even
from .bigfloat import DEFAULT_PRECISION, frac_part, to_mpf


def _finite(x, prec: int):
    # x rounded to prec bits; inf and nan have no phase
    xf = to_mpf(x, prec)
    if not mp.isfinite(xf):
        raise ValueError("x must be finite")
    return xf


@cache
def _eval_row(m: int, n: int, prec: int) -> tuple:
    # (coefficients of B_n as mpf, highest degree first, and n! as mpf), made
    # once per (m, n, prec): the same values Poly.eval_mpf and mp.factorial
    # give on every call
    coeffs = [to_mpf(c, prec) for c in reversed(bernoulli.gb_polynomial(m, n).coeffs)]
    with mp.workprec(prec):
        return coeffs, mp.factorial(n)


def periodic_eval(m: int, n: int, x, prec: int = DEFAULT_PRECISION):
    """p_n(x) at level m, x finite; at integers this is the right limit B_n(0)/n!.

    An int or Fraction x is reduced mod 1 exactly and then rounded to prec
    bits; any other x is rounded to prec bits and reduced as that binary x.
    B_n(u) is Horner at prec over the coefficients rounded once, as
    Poly.eval_mpf does, from a row cached per (m, n, prec).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    coeffs, nf = _eval_row(m, n, prec)
    if isinstance(x, (int, Fraction)):
        u = to_mpf(x % 1, prec)
    else:
        xf = _finite(x, prec)
        with mp.workprec(prec):
            u = frac_part(xf)
    with mp.workprec(prec):
        acc = mp.mpf(0)
        for c in coeffs:
            acc = acc * u + c
        return acc / nf


def dirichlet_average(m: int, n: int) -> Fraction:
    """(B_n + B_n(1)) / (2 n!): the two-sided average at integer points."""
    fam = bernoulli.family(m)
    return Fraction(fam.number(n) + fam.boundary(n), 2 * factorial(n))


@dataclass
class FourierCoeffs:
    """Cosine/sine coefficients of p_n at level m, k = 1..K; a0 kept exact."""

    m: int
    n: int
    a0: Fraction
    a: list
    b: list

    @property
    def K(self) -> int:
        return len(self.a)


@cache
def _jumps(m: int, n: int) -> tuple:
    # J_i = (B_i(1) - B_i)/i!, with J_0 = 0; only J_1..J_n are ever used
    fam = bernoulli.family(m)
    return (Fraction(0),) + tuple(
        Fraction(fam.jump(i), factorial(i)) for i in range(1, n + 2)
    )


def fourier_a0(m: int, n: int) -> Fraction:
    """Full coefficient a_0 = 2 (B_{n+1}(1) - B_{n+1}) / (n+1)!."""
    return 2 * _jumps(m, n)[n + 1]


def jump_terms(m: int, n: int) -> tuple[list, list]:
    """Exact (power, coeff) lists with a_k = sum c/(2 pi k)^power, b_k likewise.

    a_k = sum_{j=0}^{floor(n/2)-1} (-1)^j  2/(2 pi k)^(2j+2) J_{n-2j-1}
    b_k = sum_{j=0}^{floor(n/2)}   (-1)^(j+1) 2/(2 pi k)^(2j+1) J_{n-2j}

    where indices that fall to 0 contribute nothing (J_0 = 0), nor do zero jumps.
    """
    return tuple(list(terms) for terms in _jump_terms(m, n))


@cache
def _jump_terms(m: int, n: int) -> tuple:
    # jump_terms as tuples, built once per (m, n). The kernel's cached
    # tables are built from these and from_rational, with no public call, so
    # a cache miss adds no call that a warm caller's traced counts would see
    J = _jumps(m, n)
    return (tuple((2 * j + 2, (-1) ** j * 2 * J[n - 2 * j - 1])
                  for j in range(0, n // 2) if J[n - 2 * j - 1]),
            tuple((2 * j + 1, (-1) ** (j + 1) * 2 * J[n - 2 * j])
                  for j in range(0, n // 2 + 1) if J[n - 2 * j]))


def _fixed_table(terms: tuple, W: int) -> tuple:
    # round(c (2 pi)^-p 2^W) at index (p - 1) // 2, zero in the gaps. With
    # |c| < 2^e the quotient is taken at wp = W + e + bitlen(p) + 16 bits with
    # relative error below (p + 5) 2^-wp, so it is within 2^-13 of its true
    # value before the rounding and each entry is within one unit
    table = [0] * max(((p + 1) // 2 for p, _ in terms), default=0)
    for p, c in terms:
        e = max(0, c.numerator.bit_length() - c.denominator.bit_length() + 1)
        wp = W + e + p.bit_length() + 16
        cf = mp.make_mpf(from_rational(c.numerator, c.denominator, wp, round_nearest))
        with mp.workprec(wp):
            table[(p - 1) // 2] = int(mp.nint(mp.ldexp(cf, W) / (2 * mp.pi) ** p))
    return tuple(table)


@cache
def _top_power(m: int, n: int) -> int:
    # the largest power p of jump_terms(m, n), 0 if there is none
    return max((p for terms in _jump_terms(m, n) for p, _ in terms), default=0)


@cache
def _fixed_tables(m: int, n: int, W: int) -> tuple:
    # (a table, b table) of _fixed_table; W takes one value per bitlen(K)
    return tuple(_fixed_table(terms, W) for terms in _jump_terms(m, n))


def _fixed_kernel(m: int, n: int, K: int, prec: int) -> tuple:
    """(W, a table, b table): the jump_terms constants as integers scaled by 2^W.

    W = prec + guard with guard = p_max (bitlen(K) + 3) + 8, p_max the largest
    power: (2 pi K)^p_max < 2^(guard - 8), so every term c/(2 pi k)^p, k <= K,
    is at least |c| 2^(8 - guard), and an error of a few units of 2^-W is
    about 2^-prec of it. The tables are cached per (m, n, W) and p_max per
    (m, n).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if K < 0:
        raise ValueError("K must be nonnegative")
    W = prec + _top_power(m, n) * (K.bit_length() + 3) + 8
    return (W, *_fixed_tables(m, n, W))


def _int_row(table: tuple, K: int, last: int) -> list:
    # [t_1, ..., t_K], t_k = sum_i table[i] k^-(2i + last) in units of 2^-W
    # (last = 2 for a, 1 for b): Horner in 1/k^2 over the whole row with
    # floor division, then one more 1/k^last; a table of one entry takes one
    # division per k, and an empty table gives a row of zeros. A floor errs
    # by less than one unit and a constant by at most one, and each step
    # divides the error so far by k^2 >= 1, so a_k is within 2 L_a <= n
    # units and b_k within 2 L_b <= n + 1 units, L the length of its table.
    ks = range(1, K + 1)
    squares = [k * k for k in ks]
    row = [table[-1] if table else 0] * K
    for c in table[-2::-1]:
        row = [c + t // k2 for t, k2 in zip(row, squares)]
    return [t // d for t, d in zip(row, squares if last == 2 else ks)]


def _mpf_row(row: list, W: int, prec: int) -> list:
    # each t 2^-W rounded once, to nearest at prec, as _round_fixed does;
    # the mpf is made as mp.make_mpf makes it, without a call per value
    new, cls, out = object.__new__, mp.mpf, []
    for t in row:
        u = -t if t < 0 else t
        v = new(cls)
        v._mpf_ = normalize(int(t < 0), MPZ(u), -W, u.bit_length(), prec, round_nearest)
        out.append(v)
    return out


def fourier_coeffs(m: int, n: int, K: int, prec: int = DEFAULT_PRECISION) -> FourierCoeffs:
    """Coefficients a_k, b_k for k = 1..K from the boundary-jump formulas of jump_terms.

    Each value comes from the fixed-point kernel and is rounded once, to
    nearest at prec: |a_k - exact| <= n 2^-W + 2^-prec |exact|, and b_k
    likewise with n + 1 units, W > prec + p_max (bitlen(K) + 3) the kernel's
    width. Each row is built whole in integers and converted in one pass; a
    function with no a (or no b) terms gets K references to one mpf zero.
    """
    W, a_tab, b_tab = _fixed_kernel(m, n, K, prec)
    zero = mp.make_mpf(fzero)
    a, b = (_mpf_row(_int_row(tab, K, last), W, prec) if tab else [zero] * K
            for tab, last in ((a_tab, 2), (b_tab, 1)))
    return FourierCoeffs(m, n, fourier_a0(m, n), a, b)


def fourier_partial_sum(m: int, n: int, x, K: int, prec: int = DEFAULT_PRECISION):
    """a0/2 + sum_{k<=K} a_k cos(2 pi k x) + b_k sin(2 pi k x), x finite.

    An int or Fraction x is reduced mod 1 exactly before its angle is rounded
    (at W + 32 bits); any other x is rounded to prec bits, and the sum is that
    of the binary x. cos and sin of 2 pi x are taken once, with exact argument
    reduction, and the phase of k x
    advances by an integer rotation at the kernel's width W; a_k c_k + b_k s_k
    is summed exactly as an integer, and the one rounding is the last. The
    result is within
        2^-W sum_{k<=K} [2 (n + 1) + 3 k (|a_k| + |b_k|)] + 2^-prec |sum|
    of the exact partial sum; quarter angles x in {0, 1/4, 1/2, 3/4} rotate
    exactly.
    """
    W, a_tab, b_tab = _fixed_kernel(m, n, K, prec)
    if isinstance(x, (int, Fraction)):
        t = to_mpf(2 * (x % 1), W + 32)
    else:
        t = mp.ldexp(_finite(x, prec), 1)
    # Error bound. The unit is 2^-W. X, Y are within 1/2 + 2^-14 of
    # 2^W cos(2 pi x), 2^W sin(2 pi x) (cospi/sinpi of t = 2 x at W + 16
    # bits; an exact x puts t within 2^-(W+30) of 2 (x mod 1), which moves
    # them by under 2^-28 units), so the vector error
    # |(X, Y) - 2^W e^(2 pi i x)| is below 0.71, and the rotation
    # M = (X + iY)/2^W has norm below 1 + 0.71 2^-W. The first step from
    # (2^W, 0) gives (X, Y) exactly; each later step multiplies the error e_k
    # of (c_k, s_k) by |M|, adds |M - e^(2 pi i x)| 2^W < 0.71 and adds the
    # two floors, |.| < sqrt(2). So e_(k+1) <= (1 + 2^-W) e_k + 2.13 and
    # e_k <= 3 k for k <= K, far below 2^W. Then, with the coefficient
    # errors of _int_row (|alpha| <= n, |beta| <= n + 1 units),
    # |a^ c^ + b^ s^ - 2^2W (a cos + b sin)|
    #     <= |(alpha, beta)| |(c^, s^)| + 2^W |(a, b)| e_k
    #     <= sqrt(2) (n + 1) (2^W + 3k) + 2^W 3k (|a_k| + |b_k|),
    # which is 2^-W [2 (n + 1) + 3 k (|a_k| + |b_k|)] once divided by 2^2W.
    # The integer sum and a0/2 are exact; rounding to nearest at prec adds
    # 2^-prec |sum|. At quarter angles X, Y are 0 or +-2^W, so e_k = 0.
    with mp.workprec(W + 16):
        X = int(mp.nint(mp.ldexp(mp.cospi(t), W)))
        Y = int(mp.nint(mp.ldexp(mp.sinpi(t), W)))
    c, s, total = 1 << W, 0, 0
    for a, b in zip(_int_row(a_tab, K, 2), _int_row(b_tab, K, 1)):
        c, s = (c * X - s * Y) >> W, (s * X + c * Y) >> W
        total += a * c + b * s
    a0 = fourier_a0(m, n)
    num = (a0.numerator << 2 * W) + 2 * a0.denominator * total
    with mp.workprec(prec):
        return mp.make_mpf(from_rational(num, a0.denominator << (2 * W + 1), prec, round_nearest))


@dataclass
class ZetaExpansion:
    """p_n(x) = sum_j c[j] x^j + m! p_n^{classical}(x) on (0,1).

    The c_j are produced by iterating the degree-raising integration of the
    periodic functions, feeding in zeta(2k) as exact pi-power multiples; the
    pi powers cancel, so the exact rationals are kept alongside the floats.
    """

    m: int
    n: int
    c: list
    c_exact: list


def zeta_expansion(m: int, n: int, prec: int = DEFAULT_PRECISION) -> ZetaExpansion:
    """Polynomial correction linking p_n at level m to the classical p_n.

    Iteration: starting from p_1 = m!(m-1)/(2(m+1)) + m! p_1^{cl} on (0,1),
    each step integrates the correction polynomial and adds the new constant
    p_{k+1}(0) - m! p_{k+1}^{cl}(0), the classical part being supplied as the
    zeta(2j) pi-multiple 2 (-1)^(j+1) zeta(2j)/(2 pi)^(2j) when k+1 = 2j.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    mf = factorial(m)
    fam = bernoulli.family(m)
    coeffs = [Fraction(mf * (m - 1), 2 * (m + 1))]
    for k in range(1, n):
        new = [Fraction(0)] * (k + 1)
        for j, c in enumerate(coeffs):
            new[j + 1] = c / (j + 1)
        const = Fraction(fam.number(k + 1), factorial(k + 1))
        if (k + 1) % 2 == 0:
            j = (k + 1) // 2
            # m! p_{2j}^{cl}(0) via Euler's relation, exactly: the pi^(2j) of
            # zeta(2j) cancels against the (2 pi)^(-2j) prefactor
            z = zeta_even.euler_zeta(j).q
            const -= mf * (-1) ** (j + 1) * 2 * z / Fraction(2) ** (2 * j)
        new[0] = const
        coeffs = new
    return ZetaExpansion(m, n, [to_mpf(c, prec) for c in coeffs], coeffs)


def zeta_expansion_exact_oracle(m: int, n: int) -> list[Fraction]:
    """Coefficients of B_n(x)/n! - m! B_n^{cl}(x)/n! by direct subtraction.

    Independent of the iteration; degree <= n-1 because the leading terms
    cancel. Used to cross-check zeta_expansion.
    """
    diff = bernoulli.gb_polynomial(m, n) - bernoulli.gb_polynomial(1, n).scale(
        factorial(m)
    )
    out = [c / factorial(n) for c in diff.coeffs]
    return out + [Fraction(0)] * (n - len(out))
