"""Even zeta values: Euler's relation and its level-m generalization."""

from fractions import Fraction
from math import comb, factorial

import mpmath as mp
import pytest

from gbzeta import bernoulli
from gbzeta.zeta_even import (
    PiMultiple,
    delta_term,
    euler_zeta,
    zeta2_via_peri12,
    zeta_even_via_gb,
)

F = Fraction


def _delta_from_numbers(m: int, r: int) -> Fraction:
    # Delta_r with every jump expanded by the Appell property,
    # B_i(1) - B_i = sum_{k<i} C(i,k) B_k, so only level-m numbers appear
    B = bernoulli.gb_numbers(m, 2 * r + 1)
    Bcl = bernoulli.classical_bernoulli(2 * r)
    t1 = Fraction(sum(comb(2 * r, k) * B[k] for k in range(2 * r)), 2 * factorial(2 * r))
    t2 = Fraction(
        sum(comb(2 * r + 1, k) * B[k] for k in range(2 * r + 1)), factorial(2 * r + 1)
    )
    t3 = Fraction(0)
    for j in range(1, r):
        i = 2 * r - 2 * j + 1
        t3 += Fraction(sum(comb(i, k) * B[k] for k in range(i)), factorial(i)) * Fraction(
            Bcl[2 * j], factorial(2 * j)
        )
    return Fraction((-1) ** (r - 1) * 2 ** (2 * r - 1), factorial(m)) * (t1 - t2 - t3)


def test_euler_zeta_small():
    assert euler_zeta(1).q == F(1, 6)
    assert euler_zeta(2).q == F(1, 90)
    assert euler_zeta(3).q == F(1, 945)


def test_delta_level_one_vanishes():
    for r in range(1, 9):
        assert delta_term(1, r).q == 0


def test_delta_m2_r1_closes_the_relation():
    d = delta_term(2, 1)
    main = zeta_even_via_gb(2, 1).q - d.q
    assert main + d.q == F(1, 6)


def test_delta_two_routes_agree():
    for m in range(1, 7):
        for r in range(1, 9):
            assert delta_term(m, r).q == _delta_from_numbers(m, r)


def test_via_gb_examples():
    assert zeta_even_via_gb(1, 1).q == F(1, 6)
    assert zeta_even_via_gb(2, 1).q == F(1, 6)
    assert zeta_even_via_gb(4, 3).q == F(1, 945)
    assert zeta_even_via_gb(5, 2).q == F(1, 90)


def test_m_independence_grid():
    for m in range(1, 7):
        for r in range(1, 9):
            assert zeta_even_via_gb(m, r).q == euler_zeta(r).q


def test_peri12_examples():
    for m in (1, 2, 7):
        assert zeta2_via_peri12(m).q == F(1, 6)


def test_peri12_agrees_with_r1_relation():
    for m in range(1, 11):
        assert zeta2_via_peri12(m).q == zeta_even_via_gb(m, 1).q


def test_numeric_sanity_70_digits():
    # independent oracle: mpmath's zeta at higher working precision
    with mp.workprec(400):
        ref = mp.zeta(2)
        val = euler_zeta(1).to_mpf(256)
        assert abs(val - ref) <= ref * mp.mpf(10) ** -70
        assert mp.nstr(val, 17) == "1.6449340668482264"


def test_pi_multiple_interface():
    pm = PiMultiple(2, F(1, 90))
    assert repr(pm) == "(1/90)*pi^4"
    with mp.workprec(300):
        assert abs(pm.to_mpf(256) - mp.pi**4 / 90) <= mp.mpf(2) ** -240
    assert pm.decimal(10).startswith("1.082323234")


def test_argument_validation():
    with pytest.raises(ValueError):
        euler_zeta(0)
    with pytest.raises(ValueError):
        delta_term(0, 1)
    with pytest.raises(ValueError):
        zeta2_via_peri12(0)
