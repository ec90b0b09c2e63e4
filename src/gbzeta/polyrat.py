"""Exact rational scalars and dense univariate polynomials over them.

A polynomial is a list of Fraction coefficients in ascending degree;
trailing zeros are trimmed, so the zero polynomial has an empty list.
All arithmetic, differentiation and integration here is exact.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

RationalLike = Fraction | int | str


def rational(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction or a "p/q" string to a Fraction in lowest terms."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not a rational value: {x!r}")


def format_rational(q: Fraction) -> str:
    """Serialize in lowest terms: "3", "-1/2"."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class Poly:
    """Dense polynomial with exact Fraction coefficients, ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def monomial(cls, k: int, c: RationalLike = 1) -> "Poly":
        return cls([0] * k + [c])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly(out)

    def scale(self, c: RationalLike) -> "Poly":
        c = rational(c)
        return Poly([c * a for a in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "Poly":
        """Antiderivative with zero constant term."""
        return Poly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def definite_integral(self, a: RationalLike, b: RationalLike) -> Fraction:
        F = self.antiderivative()
        return F(rational(b)) - F(rational(a))

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = rational(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mpf(self, x, prec: int = 256):
        """Horner evaluation at a binary float, at `prec` mantissa bits."""
        import mpmath as mp  # here, so that exact use never loads mpmath

        from .bigfloat import to_mpf

        xf = to_mpf(x, prec)
        with mp.workprec(prec):
            acc = mp.mpf(0)
            for c in reversed(self.coeffs):
                acc = acc * xf + to_mpf(c, prec)
            return +acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = format_rational(c)
            if i == 1:
                term += "*x"
            elif i > 1:
                term += f"*x^{i}"
            parts.append(term)
        return "Poly(" + " + ".join(parts) + ")"
