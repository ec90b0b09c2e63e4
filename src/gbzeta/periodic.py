"""Periodic generalized Bernoulli functions of level m and their Fourier data.

p_n(x) = B_n(x)/n! on [0,1), extended 1-periodically. For m > 1 these jump at
the integers, and every Fourier coefficient is a short sum of the boundary
jumps (B_i(1) - B_i)/i! against powers of 1/(2 pi k).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath as mp

from . import bernoulli, zeta_even
from .bigfloat import DEFAULT_PRECISION, cos_sin_2pi, frac_part, to_mpf


def periodic_eval(m: int, n: int, x, prec: int = DEFAULT_PRECISION):
    """p_n(x) at level m; at integers this is the right limit B_n(0)/n!."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = bernoulli.gb_polynomial(m, n)
    with mp.workprec(prec):
        u = frac_part(mp.mpf(x))
        return +(p.eval_mpf(u, prec) / mp.factorial(n))


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


def _jumps(m: int, n: int) -> list[Fraction]:
    # J_i = (B_i(1) - B_i)/i!, with J_0 = 0; only J_1..J_n are ever used
    fam = bernoulli.family(m)
    fam.numbers(n + 1)
    return [Fraction(0)] + [
        Fraction(fam.jump(i), factorial(i)) for i in range(1, n + 2)
    ]


def fourier_a0(m: int, n: int) -> Fraction:
    """Full coefficient a_0 = 2 (B_{n+1}(1) - B_{n+1}) / (n+1)!."""
    return 2 * _jumps(m, n)[n + 1]


def jump_terms(m: int, n: int) -> tuple[list, list]:
    """Exact (power, coeff) lists with a_k = sum c/(2 pi k)^power, b_k likewise.

    a_k = sum_{j=0}^{floor(n/2)-1} (-1)^j  2/(2 pi k)^(2j+2) J_{n-2j-1}
    b_k = sum_{j=0}^{floor(n/2)}   (-1)^(j+1) 2/(2 pi k)^(2j+1) J_{n-2j}

    where indices that fall to 0 contribute nothing (J_0 = 0), nor do zero jumps.
    """
    J = _jumps(m, n)
    a_terms = [(2 * j + 2, (-1) ** j * 2 * J[n - 2 * j - 1])
               for j in range(0, n // 2) if J[n - 2 * j - 1]]
    b_terms = [(2 * j + 1, (-1) ** (j + 1) * 2 * J[n - 2 * j])
               for j in range(0, n // 2 + 1) if J[n - 2 * j]]
    return a_terms, b_terms


def fourier_coeffs(m: int, n: int, K: int, prec: int = DEFAULT_PRECISION) -> FourierCoeffs:
    """Coefficients a_k, b_k for k = 1..K from the boundary-jump formulas of jump_terms."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if K < 0:
        raise ValueError("K must be nonnegative")
    with mp.workprec(prec):
        # the exact coefficients are converted once, not once per k
        a_terms, b_terms = ([(p, to_mpf(c, prec)) for p, c in terms] for terms in jump_terms(m, n))
        twopi = 2 * mp.pi
        a_list, b_list = [], []
        for k in range(1, K + 1):
            inv = 1 / (twopi * k)
            a_list.append(+sum((c * inv**p for p, c in a_terms), mp.mpf(0)))
            b_list.append(+sum((c * inv**p for p, c in b_terms), mp.mpf(0)))
    return FourierCoeffs(m, n, fourier_a0(m, n), a_list, b_list)


def fourier_partial_sum(m: int, n: int, x, K: int, prec: int = DEFAULT_PRECISION):
    """a0/2 + sum_{k<=K} a_k cos(2 pi k x) + b_k sin(2 pi k x)."""
    fc = fourier_coeffs(m, n, K, prec)
    with mp.workprec(prec):
        xf = mp.mpf(x)
        total = to_mpf(fc.a0, prec) / 2
        for k in range(1, K + 1):
            t = frac_part(k * xf)
            c, s = cos_sin_2pi(t, prec)
            total += fc.a[k - 1] * c + fc.b[k - 1] * s
        return +total


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
