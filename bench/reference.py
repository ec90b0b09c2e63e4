"""Independent references for checking gbzeta outputs.

Nothing here imports gbzeta. The level-m numbers come from the reciprocal
of the generating series G(t) = sum_k t^k/(m+k)! (so sum_n B_n t^n/n! =
1/G(t)), a different recurrence from the library's binomial form; at m = 1
`level_one_mismatches` compares it with sympy's Bernoulli numbers and
polynomials. Floats come from mpmath at a precision above the one under
test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import mpmath as mp

_numbers: dict[int, list[Fraction]] = {}


def gb_numbers(m: int, nmax: int) -> list[Fraction]:
    """B_0..B_nmax of level m, with B_n = n! b_n and sum b_n t^n = 1/G(t)."""
    b = _numbers.setdefault(m, [Fraction(factorial(m))])
    mf = factorial(m)
    g = [Fraction(1, factorial(m + k)) for k in range(nmax + 1)]
    for n in range(len(b), nmax + 1):
        b.append(-mf * sum(g[k] * b[n - k] for k in range(1, n + 1)))
    return [factorial(n) * b[n] for n in range(nmax + 1)]


@lru_cache(maxsize=None)
def gb_polynomial(m: int, n: int) -> tuple[Fraction, ...]:
    """Ascending coefficients of B_n(x) = sum_j C(n,j) B_{n-j} x^j at level m."""
    B = gb_numbers(m, n)
    return tuple(comb(n, j) * B[n - j] for j in range(n + 1))


def level_one_mismatches(poly_ns, nmax: int) -> list[str]:
    """Where the m = 1 recurrence disagrees with sympy's Bernoulli numbers/polynomials."""
    import sympy

    x = sympy.Symbol("x")
    bad = []
    for n in poly_ns:
        cs = sympy.Poly(sympy.bernoulli(n, x), x).all_coeffs()[::-1]
        if tuple(Fraction(int(c.p), int(c.q)) for c in cs) != gb_polynomial(1, n):
            bad.append(f"B_{n}(x)")
    B = gb_numbers(1, nmax)
    for n in range(nmax + 1):
        # B_n(0), the B_1 = -1/2 convention; for n != 1 it is the Bernoulli
        # number, which sympy gives far faster than by building B_n(x)
        q = sympy.bernoulli(n, 0) if n == 1 else sympy.bernoulli(n)
        if Fraction(int(q.p), int(q.q)) != B[n]:
            bad.append(f"B_{n}")
    return bad


def poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_deriv(coeffs) -> tuple[Fraction, ...]:
    return tuple(i * c for i, c in enumerate(coeffs))[1:]


def l2_norm_sq(m: int, n: int) -> Fraction:
    """int_0^1 B_n(x)^2 dx, from the exact square of the polynomial."""
    c = gb_polynomial(m, n)
    return sum((c[i] * c[j] / (i + j + 1) for i in range(len(c)) for j in range(len(c))),
               Fraction(0))


def sup_norm(m: int, n: int, prec: int):
    """max |B_n| on [0,1]: endpoints plus the real roots of B_n' in (0,1)."""
    c = gb_polynomial(m, n)
    d = poly_deriv(c)
    with mp.workprec(prec):
        def ev(x):
            return mp.polyval([mp.mpf(q.numerator) / q.denominator for q in reversed(c)], x)

        cands = [mp.mpf(0), mp.mpf(1)]
        if len(d) >= 2:
            roots = mp.polyroots([mp.mpf(q.numerator) / q.denominator for q in reversed(d)],
                                 maxsteps=400, extraprec=2 * prec)
            cands += [mp.re(z) for z in roots
                      if abs(mp.im(z)) < mp.mpf(2) ** (-prec // 4) and 0 < mp.re(z) < 1]
        return max(abs(ev(x)) for x in cands)


def fourier_weights(m: int, n: int):
    """Rational (power, weight) lists with a_k = sum w (2 pi k)^-power, same for b_k.

    Repeated integration by parts of p(x) = B_n(x)/n! against exp(-2 pi i k x):
    int_0^1 p e^{-i w x} dx = sum_j d_j / (i w)^(j+1), d_j = p^(j)(0) - p^(j)(1).
    """
    p = tuple(c / factorial(n) for c in gb_polynomial(m, n))
    a_terms, b_terms = [], []
    j = 0
    while p:
        d = poly_eval(p, Fraction(0)) - poly_eval(p, Fraction(1))
        if d:
            if j % 2:
                a_terms.append((j + 1, 2 * (-1) ** ((j + 1) // 2) * d))
            else:
                b_terms.append((j + 1, 2 * (-1) ** (j // 2) * d))
        p = poly_deriv(p)
        j += 1
    return a_terms, b_terms


def fourier_a0(m: int, n: int) -> Fraction:
    """a_0 = 2 int_0^1 B_n(x)/n! dx."""
    c = gb_polynomial(m, n)
    return 2 * sum((ci / (i + 1) for i, ci in enumerate(c)), Fraction(0)) / factorial(n)


@lru_cache(maxsize=None)
def _fourier_weights_mpf(m: int, n: int, prec: int):
    a_terms, b_terms = fourier_weights(m, n)
    with mp.workprec(prec):
        return ([(p, mp.mpf(w.numerator) / w.denominator) for p, w in a_terms],
                [(p, mp.mpf(w.numerator) / w.denominator) for p, w in b_terms])


def fourier_coeffs(m: int, n: int, ks, prec: int) -> dict:
    """{k: (a_k, b_k)} for the given k >= 1, at `prec` bits."""
    aw, bw = _fourier_weights_mpf(m, n, prec)
    out = {}
    with mp.workprec(prec):
        twopi = 2 * mp.pi
        for k in ks:
            inv = 1 / (twopi * k)
            out[k] = (mp.fsum(w * inv**p for p, w in aw), mp.fsum(w * inv**p for p, w in bw))
    return out


def fourier_by_quad(m: int, n: int, k: int, prec: int):
    """(a_k, b_k) by numerical quadrature of 2 p(x) cos/sin(2 pi k x) on [0,1]."""
    c = gb_polynomial(m, n)
    with mp.workprec(prec):
        cf = [mp.mpf(q.numerator) / q.denominator / factorial(n) for q in reversed(c)]
        pts = mp.linspace(0, 1, k + 1)
        a = 2 * mp.quad(lambda x: mp.polyval(cf, x) * mp.cospi(2 * k * x), pts)
        b = 2 * mp.quad(lambda x: mp.polyval(cf, x) * mp.sinpi(2 * k * x), pts)
    return a, b


def fourier_partial_sum(m: int, n: int, x: Fraction, K: int, prec: int):
    """a0/2 + sum_{k<=K} a_k cos(2 pi k x) + b_k sin(2 pi k x) for rational x."""
    coeffs = fourier_coeffs(m, n, range(1, K + 1), prec)
    q = x.denominator
    a0 = fourier_a0(m, n)
    with mp.workprec(prec):
        # the phase of k x depends only on k mod q
        ts = [mp.mpf(2 * j * x.numerator % (2 * q)) / q for j in range(q)]
        cs = [(mp.cospi(t), mp.sinpi(t)) for t in ts]
        total = mp.mpf(a0.numerator) / a0.denominator / 2
        for k in range(1, K + 1):
            c, s = cs[k % q]
            a, b = coeffs[k]
            total += a * c + b * s
        return total


def periodic_value(m: int, n: int, x: Fraction) -> Fraction:
    """p_n(x) = B_n(x - floor x)/n!, exactly."""
    u = x - (x.numerator // x.denominator)
    return poly_eval(gb_polynomial(m, n), u) / factorial(n)


def zeta(s: Fraction, prec: int):
    with mp.workprec(prec):
        return mp.zeta(mp.mpf(s.numerator) / s.denominator)


def zeta_even_over_pi(r: int) -> Fraction:
    """zeta(2r)/pi^(2r) as an exact rational, from sympy."""
    import sympy

    q = sympy.zeta(2 * r) / sympy.pi ** (2 * r)
    if not q.is_Rational:
        raise ValueError(f"sympy did not reduce zeta({2 * r}) to a pi power")
    return Fraction(int(q.p), int(q.q))


def integral(f: str, a: Fraction, b: Fraction, prec: int):
    """int_a^b of exp or x^-s ('power:S'), in closed form."""
    with mp.workprec(prec):
        A = mp.mpf(a.numerator) / a.denominator
        Bv = mp.mpf(b.numerator) / b.denominator
        if f == "exp":
            return mp.exp(Bv) - mp.exp(A)
        s = Fraction(f.split(":", 1)[1])
        if s == 1:
            return mp.log(Bv) - mp.log(A)
        sv = mp.mpf(s.numerator) / s.denominator
        return (A ** (1 - sv) - Bv ** (1 - sv)) / (sv - 1)
