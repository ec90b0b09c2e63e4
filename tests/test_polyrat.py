"""Exact polynomial/rational layer and the float conversions."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_rational, round_nearest

from gbzeta.bigfloat import decimal_str, pi_const, to_mpf
from gbzeta.polyrat import Poly, format_rational, rational

# published reference digits
PI_80 = ("3.14159265358979323846264338327950288419716939937510"
         "582097494459230781640628620899")


def test_rational_canonical_form():
    q = Fraction(2, 4)
    assert q.numerator == 1 and q.denominator == 2
    assert Fraction(-3, -6) == Fraction(1, 2)
    assert rational("7") == 7
    assert rational(" -2/4 ") == Fraction(-1, 2)


def test_rational_serialization():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert rational(format_rational(Fraction(22, -8))) == Fraction(-11, 4)


def test_poly_add_inverse_pair():
    p = Poly([Fraction(-1, 2), 1])
    assert p + Poly.constant(Fraction(1, 2)) == Poly([0, 1])


def test_poly_mul_and_scale():
    x = Poly([0, 1])
    assert x * x == Poly([0, 0, 1])
    p = Poly([Fraction(1, 6), -1, 1])
    assert p.scale(6) == Poly([1, -6, 6])


def test_poly_mul_degree():
    p = Poly([1, 2, 3])
    q = Poly([0, 0, 5])
    assert (p * q).degree == p.degree + q.degree


def test_derivative_example():
    p = Poly([Fraction(1, 6), -1, 1])
    assert p.derivative() == Poly([-1, 2])


def test_definite_integrals():
    assert Poly([0, 0, 1]).definite_integral(0, 1) == Fraction(1, 3)
    p = Poly([Fraction(-1, 2), 1])
    assert (p * p).definite_integral(0, 1) == Fraction(1, 12)


def test_eval_examples():
    p = Poly([Fraction(1, 6), -1, 1])
    assert p(0) == Fraction(1, 6)
    assert p(Fraction(1, 2)) == Fraction(-1, 12)
    assert Poly.zero()(Fraction(123, 7)) == 0


def test_zero_poly_canonical():
    assert Poly([0, 0, 0]).coeffs == []
    assert Poly([1, 0, 0]).degree == 0


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@given(st.lists(rationals, max_size=8))
@settings(max_examples=60)
def test_derivative_of_antiderivative_is_identity(coeffs):
    p = Poly(coeffs)
    assert p.antiderivative().derivative() == p
    assert p.antiderivative()(0) == 0


@given(st.lists(rationals, max_size=6), st.lists(rationals, max_size=6))
@settings(max_examples=60)
def test_integral_is_additive(ca, cb):
    p, q = Poly(ca), Poly(cb)
    a, b = Fraction(-1, 3), Fraction(5, 4)
    assert (p + q).definite_integral(a, b) == p.definite_integral(
        a, b
    ) + q.definite_integral(a, b)


def test_pi_const_digits():
    with mp.workprec(300):
        ref = mp.mpf(PI_80)
        assert abs(pi_const(64) - ref) <= ref * mp.mpf(2) ** -60
        # 256 bits carry at least 75 decimal digits
        assert abs(pi_const(256) - ref) <= ref * mp.mpf(10) ** -75
    with pytest.raises(ValueError):
        pi_const(16)


def test_zeta2_pi_squared_sanity():
    from gbzeta.zeta_even import euler_zeta

    with mp.workprec(300):
        val = 6 * euler_zeta(1).to_mpf(256) / pi_const(256) ** 2
        assert abs(val - 1) <= mp.mpf(2) ** -240


# quotients within a hair of a rounding boundary at 53 and 256 bits: rounding
# first at a few guard bits and then at prec misses them by 0.500002 and
# 0.500005 units in the last place
_NEAR_TIES = [
    (53, Fraction(510360890621466401607017482022148345520018957425,
                  8342748206726314948643)),
    (256, Fraction(
        int("1052058224734555160546511849181058336682440241982264410034915185042456985159"
            "9424088090131155002994576242962261244155954787171534518045379488771576202646"
            "5941447082247324575962045987060269200031134077849646964194111306283946227093"
            "4009"),
        18046879835998384388678025644981695126248198388788962735076638280977504488366799039038613)),
]


def test_to_mpf_accuracy():
    q = Fraction(10**40 + 1, 3**50)
    cases = [(prec, q) for prec in (64, 128, 256)] + _NEAR_TIES
    for prec, q in cases:
        with mp.workprec(prec + 80):
            exact = mp.mpf(q.numerator) / q.denominator
            got = to_mpf(q, prec)
            assert abs(got - exact) <= abs(exact) * mp.mpf(2) ** (1 - prec)
        # correctly rounded: the one rounding to nearest of the exact quotient
        assert got._mpf_ == from_rational(q.numerator, q.denominator, prec, round_nearest)


def test_decimal_str_uses_full_precision():
    v = to_mpf(Fraction(1, 3), 256)
    s = decimal_str(v, 40)
    assert s.startswith("0.333333333333333333333333333333333")


def test_decimal_str_of_exact_numbers():
    # an int or Fraction is rounded once at about 3.33 bits a digit, never
    # through the ambient precision
    with mp.workprec(20):
        assert decimal_str(Fraction(2, 3), 30) == "0." + "6" * 29 + "7"
        assert decimal_str(Fraction(1, 3), 40) == "0." + "3" * 40
        assert decimal_str(7, 5) == "7.0000"
        assert decimal_str(10**40 + 1, 45) == "1" + "0" * 39 + "1.0000"


def test_poly_repr_and_hash():
    assert repr(Poly.zero()) == "Poly(0)"
    assert repr(Poly([Fraction(-2, 3), 0, 2])) == "Poly(-2/3 + 2*x^2)"
    assert repr(Poly([Fraction(1, 2), -1])) == "Poly(1/2 + -1*x)"
    assert repr(Poly([0, 1])) == "Poly(1*x)"
    # equal polynomials hash alike, trailing zeros and coefficient types aside
    assert hash(Poly([1, Fraction(1, 2), 0])) == hash(Poly([Fraction(2, 2), Fraction(1, 2)]))
    assert len({Poly([1, 2]), Poly([1, 2, 0]), Poly([2, 1]), Poly.zero(), Poly([0])}) == 3


def test_eval_mpf_matches_exact():
    p = Poly([Fraction(1, 7), Fraction(-3, 5), 0, 2])
    x = Fraction(9, 13)
    with mp.workprec(200):
        diff = abs(p.eval_mpf(x, 192) - to_mpf(p(x), 192))
        assert diff <= abs(to_mpf(p(x), 192)) * mp.mpf(2) ** -180
