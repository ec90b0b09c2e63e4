"""Even zeta values through level-m Bernoulli identities, kept exact.

zeta(2r) is always a rational multiple of pi^(2r); everything here carries
that rational exactly so the m-independence of the generalized Euler relation
can be tested as an identity of fractions, not floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import bernoulli
from .bigfloat import DEFAULT_PRECISION, decimal_str, pi_const
from .polyrat import format_rational


@dataclass(frozen=True)
class PiMultiple:
    """The exact statement value = q * pi**(2r)."""

    r: int
    q: Fraction

    def to_mpf(self, prec: int = DEFAULT_PRECISION):
        from mpmath import workprec

        with workprec(prec):
            pi = pi_const(prec)
            num = pi ** (2 * self.r) * self.q.numerator
            return +(num / self.q.denominator)

    def decimal(self, digits: int = 30, prec: int = DEFAULT_PRECISION) -> str:
        return decimal_str(self.to_mpf(prec), digits)

    def __repr__(self) -> str:
        return f"({format_rational(self.q)})*pi^{2 * self.r}"


def euler_zeta(r: int) -> PiMultiple:
    """Euler's relation: zeta(2r) = (-1)^(r-1) 2^(2r-1) B_2r / (2r)! * pi^2r."""
    if r < 1:
        raise ValueError("r must be at least 1")
    B2r = bernoulli.classical_bernoulli(2 * r)[2 * r]
    q = Fraction((-1) ** (r - 1) * 2 ** (2 * r - 1)) * Fraction(B2r, factorial(2 * r))
    return PiMultiple(r, q)


def delta_term(m: int, r: int) -> PiMultiple:
    """Level-m correction Delta_r in the generalized Euler relation.

    Computed from the boundary jumps B_i(1) - B_i against the classical B_2j.
    The tests check it against a second route that expands every boundary
    value into level-m numbers.
    """
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    fam = bernoulli.family(m)
    Bcl = bernoulli.classical_bernoulli(2 * r)
    s = Fraction(fam.jump(2 * r), 2 * factorial(2 * r))
    s -= Fraction(fam.jump(2 * r + 1), factorial(2 * r + 1))
    for j in range(1, r):
        i = 2 * r - 2 * j + 1
        s -= Fraction(fam.jump(i), factorial(i)) * Fraction(Bcl[2 * j], factorial(2 * j))
    return PiMultiple(r, Fraction((-1) ** (r - 1) * 2 ** (2 * r - 1), factorial(m)) * s)


def zeta_even_via_gb(m: int, r: int) -> PiMultiple:
    """zeta(2r) from the level-m relation: main B_2r term plus Delta_r."""
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    B2r = bernoulli.gb_numbers(m, 2 * r)[2 * r]
    main = Fraction((-1) ** (r - 1) * 2 ** (2 * r - 1)) * Fraction(
        B2r, factorial(m) * factorial(2 * r)
    )
    return PiMultiple(r, main + delta_term(m, r).q)


def zeta2_via_peri12(m: int) -> PiMultiple:
    """zeta(2) from the midpoint identity of the degree-2 Fourier comparison."""
    if m < 1:
        raise ValueError("level m must be a positive integer")
    mf = factorial(m)
    B2 = bernoulli.gb_numbers(m, 2)[2]
    inner = (
        Fraction(B2, 2)
        + Fraction(mf, 4) * Fraction(m - 1, m + 1)
        - Fraction(mf, 6)
        * Fraction(m - 1, (m + 1) ** 2)
        * Fraction(m * m + 2 * m - 2, m + 2)
    )
    return PiMultiple(1, Fraction(2, mf) * inner)
