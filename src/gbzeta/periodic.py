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
reduction, and sums each row by Goertzel's backward (Clenshaw) recurrence
in integers, at a width with 2 bitlen(K) more guard bits;
fourier_partial_sum states the resulting bound. Each returned value is
rounded once, to nearest at prec.
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


def _partial_sum_kernel(m: int, n: int, K: int, prec: int) -> tuple:
    # _fixed_kernel at prec + 2 bitlen(K): the width of fourier_partial_sum,
    # whose guard bits its bound derives
    return _fixed_kernel(m, n, K, prec + 2 * K.bit_length())


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
    of the binary x. X and Y, cos and sin of 2 pi x scaled by 2^W, are taken
    once, with exact argument reduction, at the kernel's width W for
    prec + 2 bitlen(K). Two backward recurrences (Goertzel; Clenshaw) run over
    the integer rows a_k, b_k in units of 2^-W, from u_(K+1) = u_(K+2) = 0:
        u_k = a_k + floor(2 X u_(k+1) / 2^W) - u_(k+2),  and v_k likewise on b_k;
    the sum is the integer floor(u_1 X / 2^W) - u_2 + floor(v_1 Y / 2^W), and
    the one rounding is the last. The result is within
        2^-W sum_{k<=K} [(n + 2)(k + 1) + k^2 (|a_k| + k |b_k|)] + 2^-prec |sum|
    of the exact partial sum: the row errors, the rounding of X and Y and each
    floor, amplified by |U_(k-1)| <= k. At the quarter angles x in
    {0, 1/4, 1/2, 3/4}, where X and Y are exact, it is within
    2^-W (2 n + 1) K + 2^-prec |sum|. Neither bound is looser than the rotation
    bound 2^-W0 sum_{k<=K} [2 (n + 1) + 3 k (|a_k| + |b_k|)] + 2^-prec |sum|
    at the width W0 = W - 2 bitlen(K) for prec.
    """
    W, a_tab, b_tab = _partial_sum_kernel(m, n, K, prec)
    if isinstance(x, (int, Fraction)):
        t = to_mpf(2 * (x % 1), W + 32)
    else:
        t = mp.ldexp(_finite(x, prec), 1)
    # Error bound. The unit is 2^-W; c, s are cos, sin of 2 pi x, and
    # c' = X/2^W, s' = Y/2^W. X, Y are within d = 1/2 + 2^-13 of 2^W c, 2^W s
    # (cospi/sinpi of t = 2 x at W + 16 bits; an exact x puts t within
    # 2^-(W+30) of 2 (x mod 1), which moves them by under 2^-28 units), and
    # |c'|, |s'| <= 1. A floor errs by e in (-1, 0], and the recurrence is
    # linear, so a floor error in u_k acts as e added to row entry k; by
    # Clenshaw's identities, with A, B the integer rows,
    #     u_1 c' - u_2 = sum_k (A_k + e_k) T_k(c'),
    #     v_1 = sum_k (B_k + e'_k) U_(k-1)(c'),
    # where |T_k| <= 1 and |U_(k-1)| <= k on [-1, 1], and the step at k = K
    # floors 0 exactly. The row errors of _int_row (|A_k - 2^W a_k| <= n,
    # |B_k - 2^W b_k| <= n + 1) and the K floors of the a part cost at most
    # (n + 1) K; those of the b part, amplified by |s' U_(k-1)(c')| <= k,
    # and its last floor cost at most (n + 2) sum_k k - K + 1. Together that
    # is below sum_k (n + 2)(k + 1). What remains is 2^W sum_k of
    # a_k (T_k(c') - T_k(c)) + b_k (s' U_(k-1)(c') - s U_(k-1)(c)), since
    # T_k(c) = cos(2 pi k x) and s U_(k-1)(c) = sin(2 pi k x). On [-1, 1],
    # |T_k'| <= k^2 (Markov) and |U_(k-1)'| <= U_(k-1)'(1) = (k^3 - k)/3, so
    # term k is at most d (k^2 |a_k| + (k + (k^3 - k)/3) |b_k|), which is
    # below k^2 |a_k| + k^3 |b_k|. a0/2 and the sum are exact; rounding to
    # nearest at prec adds 2^-prec |sum|. At quarter angles X, Y are 0 or
    # +-2^W, so c' = c and s' = s, every floor is exact, and only the row
    # errors remain: n K in the a part and (n + 1) K in the b part, as s' is
    # nonzero only at c' = 0, where |U_(k-1)(0)| <= 1.
    # Guard bits. Against the rotation bound at W0 = W - g, term by term for
    # k <= K: (n + 2)(k + 1) 2^-g <= 2 (n + 1) holds once 2^g >= 3 (K + 1)/4,
    # k^2 |a_k| 2^-g <= 3 k |a_k| once 2^g >= K/3, and k^3 |b_k| 2^-g <=
    # 3 k |b_k| once 2^g >= K^2/3. g = 2 bitlen(K) gives 2^g >= (K + 1)^2.
    with mp.workprec(W + 16):
        X = int(mp.nint(mp.ldexp(mp.cospi(t), W)))
        Y = int(mp.nint(mp.ldexp(mp.sinpi(t), W)))
    (u1, u2), (v1, _) = (_clenshaw(_int_row(tab, K, last), 2 * X, W) if tab else (0, 0)
                         for tab, last in ((a_tab, 2), (b_tab, 1)))
    a0 = fourier_a0(m, n)
    num = (a0.numerator << W) + 2 * a0.denominator * ((u1 * X >> W) - u2 + (v1 * Y >> W))
    with mp.workprec(prec):
        return mp.make_mpf(from_rational(num, a0.denominator << (W + 1), prec, round_nearest))


def _clenshaw(row: list, X2: int, W: int) -> tuple:
    # (u_1, u_2) of u_k = row[k-1] + floor(X2 u_(k+1) / 2^W) - u_(k+2), from
    # u_(K+1) = u_(K+2) = 0 with K = len(row)
    u1 = u2 = 0
    for t in reversed(row):
        u1, u2 = t + (X2 * u1 >> W) - u2, u1
    return u1, u2


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
