"""Generalized Bernoulli numbers and polynomials of level m, exactly.

For a fixed level m >= 1 the family has the generating function

    sum_n B_n(x) z^n/n! = z^m e^(xz) / (e^z - T_(m-1)(z)),

T_(m-1) the Taylor polynomial of e^z of degree m-1. Since
e^z - T_(m-1)(z) = z^m sum_k z^k/(m+k)!, the scaled numbers b_n = B_n/n!
are the coefficients of the reciprocal of sum_k z^k/(m+k)!, so b_0 = m! and,
with R_k = (m+1)(m+2)...(m+k),

    b_n = -sum_{k=1}^{n} b_(n-k) / R_k        (n >= 1).

This is the inversion formula x^n = sum_k C(n,k) k!/(m+k)! B_(n-k)(x) at
x = 0, divided by n!. The b_n are kept as integers over one common
denominator, so a step is one integer sum (Horner in k, multiplying by
m+k) and one gcd; B_n = n! b_n. Level m = 1 reproduces the classical
Bernoulli numbers and polynomials.

Boundary values: at x = 1, z^m e^z = z^m (e^z - T_(m-1)) + z^m T_(m-1), so
the generating function is z^m + T_(m-1)(z) sum_n B_n z^n/n!, which reads

    B_n(1) = n! [n = m] + sum_{i=0}^{min(m-1, n)} C(n,i) B_(n-i),

O(m) work per n in place of the full sum_j C(n,j) B_j.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial, gcd

from .polyrat import Poly


class GBFamily:
    """Grow-on-demand table of one level's numbers, the only store of its exact values.

    The table (a, d, jump, boundary) holds three integer rows over one common
    d: b_n = B_n/n! = a[n]/d, and (m-1)! d times (B_n(1) - B_n)/n! and
    B_n(1)/n!, the last two O(m) work per n from a (_extend). Number, jump,
    boundary and the weight rows of _weights are read from it; the Fractions
    are built when read. Extension is serialized by a lock and replaces the
    table as a whole, new tuples every time (the derived rows are scaled, not
    recomputed, when d grows), so a reader holding one table keeps a
    consistent one, and a row once handed out is never mutated.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("level m must be a positive integer")
        self.m = m
        # (m-1)!/i! for i < m: the boundary identity over the denominator (m-1)! d
        self._fact_ratios = [factorial(m - 1) // factorial(i) for i in range(m)]
        # b_0 = B_0(1) = m!, and no jump at n = 0
        self._table = ((factorial(m),), 1, (0,), (factorial(m) * self._fact_ratios[0],))
        self._lock = threading.Lock()

    def _extend(self, nmax: int) -> None:
        with self._lock:
            m, w = self.m, self._fact_ratios
            a, d, jump, bnd = self._table
            n0 = len(a)
            if nmax < n0:
                return  # grown by another thread meanwhile
            a, d0 = list(a), d
            R = factorial(m + n0 - 1) // factorial(m)
            for n in range(n0, nmax + 1):
                R *= m + n
                # sum_{k=1}^{n} a[n-k] R_n/R_k, Horner in k
                acc = a[n - 1]
                for k in range(2, n + 1):
                    acc = acc * (m + k) + a[n - k]
                # b_n = -acc/(d R_n) = p/q in lowest terms; d grows to lcm(d, q)
                q = d * R
                g = gcd(acc, q)
                p, q = -acc // g, q // g
                f = q // gcd(q, d)
                if f > 1:
                    a = [x * f for x in a]
                    d *= f
                a.append(p * (d // q))
            jump, bnd = list(jump), list(bnd)
            if d != d0:
                # the derived rows are linear in (a, d): the old entries scale
                # by the factor d gained
                f = d // d0
                jump, bnd = [x * f for x in jump], [x * f for x in bnd]
            # jump: (m-1)! d ([n = m] + sum_{1<=i<m} b_(n-i)/i!); boundary adds (m-1)! a[n]
            for n in range(n0, nmax + 1):
                j = sum(a[n - i] * w[i] for i in range(1, min(m - 1, n) + 1))
                if n == m:
                    j += w[0] * d
                jump.append(j)
                bnd.append(a[n] * w[0] + j)
            self._table = (tuple(a), d, tuple(jump), tuple(bnd))

    def _grown(self, nmax: int) -> tuple:
        """The table, grown to hold every n <= nmax."""
        if nmax < 0:
            raise ValueError("n must be nonnegative")
        t = self._table
        if nmax >= len(t[0]):
            self._extend(nmax)
            t = self._table
        return t

    def _scaled(self, nmax: int) -> tuple[tuple[int, ...], int]:
        """(a, d) with B_n/n! = a[n]/d for every n <= nmax, one common d."""
        return self._grown(nmax)[:2]

    def _weights(self, kind: str, nmax: int) -> tuple[tuple[int, ...], int]:
        """(c, e) with W_k/(m! k!) = c[k]/e for k <= nmax, W_k = B_k, B_k(1)
        or B_k(1) - B_k for kind "number", "boundary" or "jump".

        c is the table's own row, an immutable tuple that may run past nmax;
        nothing is built per call. An unknown kind raises before the table grows.
        """
        if kind not in ("number", "jump", "boundary"):
            raise ValueError(f"unknown weight kind {kind!r}")
        a, d, jump, bnd = self._grown(nmax)
        mf = factorial(self.m)
        if kind == "number":
            return a, mf * d
        return (jump if kind == "jump" else bnd), mf * self._fact_ratios[0] * d

    def numbers(self, nmax: int) -> list[Fraction]:
        """[B_0, ..., B_nmax] for this level."""
        a, d = self._scaled(nmax)
        return [Fraction(factorial(n) * a[n], d) for n in range(nmax + 1)]

    def number(self, n: int) -> Fraction:
        a, d = self._scaled(n)
        return Fraction(factorial(n) * a[n], d)

    def jump(self, n: int) -> Fraction:
        """B_n(1) - B_n, the boundary jump entering every Fourier coefficient."""
        _, d, jump, _ = self._grown(n)
        return Fraction(factorial(n) * jump[n], self._fact_ratios[0] * d)

    def boundary(self, n: int) -> Fraction:
        """B_n(1), from the O(m) boundary identity."""
        _, d, _, bnd = self._grown(n)
        return Fraction(factorial(n) * bnd[n], self._fact_ratios[0] * d)

    def polynomial(self, n: int) -> Poly:
        """B_n(x) = sum_k C(n,k) B_k x^{n-k}; degree n, leading coefficient m!."""
        a, d = self._scaled(n)
        # C(n,k) B_k = a[k] n!/(n-k)! / d, the coefficient of x^(n-k)
        return Poly(Fraction(factorial(n) // factorial(n - k) * a[k], d)
                    for k in range(n, -1, -1))


_families: dict[int, GBFamily] = {}
_families_lock = threading.Lock()


def family(m: int) -> GBFamily:
    """Memoized per-level family cache."""
    try:
        return _families[m]
    except KeyError:
        with _families_lock:
            return _families.setdefault(m, GBFamily(m))


def gb_numbers(m: int, nmax: int) -> list[Fraction]:
    """Exact generalized Bernoulli numbers B_0 .. B_nmax of level m."""
    return family(m).numbers(nmax)


def gb_boundary_values(m: int, nmax: int) -> list[Fraction]:
    """Exact boundary values B_0(1) .. B_nmax(1) of level m."""
    fam = family(m)
    return [fam.boundary(n) for n in range(nmax + 1)]


def gb_polynomial(m: int, n: int) -> Poly:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return family(m).polynomial(n)


def classical_bernoulli(nmax: int) -> list[Fraction]:
    """Classical Bernoulli numbers (the m = 1 family, B_1 = -1/2)."""
    return gb_numbers(1, nmax)


def expand_in_gb_basis(p: Poly, m: int) -> list[Fraction]:
    """Coefficients c_0..c_n with p(x) = sum_k c_k B_k(x) at level m.

    Rewrites each monomial through the inversion formula; the basis property
    makes the expansion unique.
    """
    if m < 1:
        raise ValueError("level m must be a positive integer")
    if p.is_zero():
        return []
    n = p.degree
    out = [Fraction(0)] * (n + 1)
    for d, coeff in enumerate(p.coeffs):
        if coeff == 0:
            continue
        # x^d = sum_{k=0}^{d} C(d,k) k!/(m+k)! B_{d-k}(x)
        for k in range(d + 1):
            out[d - k] += coeff * comb(d, k) * Fraction(factorial(k), factorial(m + k))
    return out


def combine_gb_basis(coeffs: list[Fraction], m: int) -> Poly:
    """sum_k coeffs[k] * B_k(x); inverse of expand_in_gb_basis."""
    acc = Poly.zero()
    for k, c in enumerate(coeffs):
        if c:
            acc = acc + gb_polynomial(m, k).scale(c)
    return acc


def recurrence_residual(m: int, n: int) -> Poly:
    """Residual of the three-term recurrence; the zero polynomial when it holds.

    B_n(x) = (x - 1/(m+1)) B_{n-1}(x)
             - (1/(n (m-1)!)) sum_{k=0}^{n-2} C(n,k) B_{n-k} B_k(x),
    the sum being empty for n = 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    fam = family(m)
    B = fam.numbers(n)
    rhs = Poly([Fraction(-1, m + 1), Fraction(1)]) * fam.polynomial(n - 1)
    acc = Poly.zero()
    for k in range(0, n - 1):
        acc = acc + fam.polynomial(k).scale(comb(n, k) * B[n - k])
    rhs = rhs - acc.scale(Fraction(1, n * factorial(m - 1)))
    return fam.polynomial(n) - rhs


def ode_residual(m: int, n: int) -> Poly:
    """Residual of the level-m differential equation for y = B_n(x).

    sum_{k=2}^{n} (B_k/k!) y^(k) + (m-1)! (1/(m+1) - x) y' + n (m-1)! y,
    with every derivative exact; the zero polynomial when the ODE holds.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    fam = family(m)
    B = fam.numbers(n)
    y = fam.polynomial(n)
    derivs = [y]
    for _ in range(n):
        derivs.append(derivs[-1].derivative())
    acc = Poly.zero()
    for k in range(2, n + 1):
        acc = acc + derivs[k].scale(Fraction(B[k], factorial(k)))
    fm1 = factorial(m - 1)
    acc = acc + (Poly([Fraction(1, m + 1), Fraction(-1)]) * derivs[1]).scale(fm1)
    acc = acc + y.scale(n * fm1)
    return acc
