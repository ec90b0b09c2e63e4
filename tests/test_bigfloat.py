"""The fixed-point power kernel: scaled_power and the sums of _power_sums."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbzeta import bigfloat
from gbzeta.bigfloat import _power_sums, _round_fixed, scaled_power
from gbzeta.series import PowerFunction


@settings(max_examples=400, deadline=None)
@given(a=st.integers(0, 40), b=st.integers(1, 4), j=st.integers(1, 10**4),
       W=st.integers(0, 2048))
def test_scaled_power_is_the_floor(a, b, j, W):
    # V = floor(2^W j^(-a/b)) iff V^b j^a <= 2^(bW) < (V+1)^b j^a; this holds
    # for a/b as given, reduced or not
    V = scaled_power(Fraction(a, b), j, W)
    assert V**b * j**a <= 1 << b * W < (V + 1) ** b * j**a


@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, 400), b=st.integers(5, 40), j=st.integers(1, 10**4),
       W=st.integers(0, 512))
def test_scaled_power_is_within_one_unit_for_large_denominators(a, b, j, W):
    # past b = 4 V comes from an mpf power, at a cost that does not grow
    # with b; |V - 2^W j^(-a/b)| < 1 iff (V-1)^b j^a < 2^(bW) < (V+1)^b j^a
    V = scaled_power(Fraction(a, b), j, W)
    assert V < 1 or (V - 1) ** b * j**a < 1 << b * W < (V + 1) ** b * j**a


@pytest.mark.parametrize("s,j,W,V", [
    (Fraction(1, 2), 4, 10, 512),
    (Fraction(3, 2), 4, 10, 128),
    (Fraction(1, 3), 8, 6, 32),
    (Fraction(5, 3), 3, 0, 0),
    (2, 3, 8, 28),
    (0, 7, 5, 32),
])
def test_scaled_power_small_cases(s, j, W, V):
    assert scaled_power(s, j, W) == V


def _truncated_power_sum_reference(t, K, prec):
    # the direct scaled-integer loop: one floor division per k
    B = prec + 64
    one = 1 << B
    total = 0
    for k in range(1, K + 1):
        total += one // k**t
    with mp.workprec(prec + 16):
        v = mp.mpf(total) / one
    with mp.workprec(prec):
        return +v


@pytest.mark.parametrize("prec", [64, 256, 1024])
@pytest.mark.parametrize("t,K", [(2, 1), (2, 2000), (3, 777), (4, 50), (10, 31)])
def test_truncated_power_sum_is_bit_identical_to_the_direct_loop(t, K, prec):
    # quadrature.parseval_partial_sum's route: every power 2..t from one
    # _power_sums call on j^-2 at prec + 64 bits, each rounded once
    B = prec + 64
    sums = _power_sums(2, range(1, K + 1), range(1, t), B)
    for u in range(2, t + 1):
        got = _round_fixed(sums[u - 1], B, prec)
        assert got._mpf_ == _truncated_power_sum_reference(u, K, prec)._mpf_, u


@st.composite
def _exponents(draw):
    # s = a/b in (0, 8], b <= 6 (the integer roots) or 10^4 (the mpf route)
    b = draw(st.sampled_from([2, 3, 4, 5, 6, 10**4]))
    return Fraction(draw(st.integers(1, 8 * b)), b)


@st.composite
def _blocks(draw):
    # range(J, J0) with 2J <= J0 <= 600, the sieved route for fractional s;
    # J0 <= 1 gives the empty ranges
    J0 = draw(st.integers(0, 600))
    return range(draw(st.integers(1, max(1, J0 // 2))), J0)


@settings(max_examples=60, deadline=None)
@given(s=_exponents(), js=_blocks(), ks=st.sets(st.integers(1, 8), min_size=1),
       W=st.integers(0, 2048))
@example(s=Fraction(3, 2), js=range(1, 2), ks={1, 8}, W=0)
@example(s=Fraction(5, 3), js=range(1, 1), ks={1}, W=64)
@example(s=Fraction(5, 3), js=range(1, 600), ks={1, 2, 8}, W=2048)
def test_power_sums_within_one_unit_per_term(s, js, ks, W):
    # each order's sum against 2^W sum j^-(s+k-1) at W + 64 bits
    sums = _power_sums(s, js, ks, W)
    with mp.workprec(W + 64):
        x = [mp.ldexp(mp.mpf(j) ** -(mp.mpf(s.numerator) / s.denominator), W) for j in js]
        for k in sorted(ks):
            ref = mp.fsum(v / mp.mpf(j) ** (k - 1) for v, j in zip(x, js))
            assert abs(sums[k] - ref) < len(js) if js else sums[k] == 0, k


@pytest.mark.parametrize("s", [Fraction(1), Fraction(2), Fraction(3), Fraction(3, 2),
                               Fraction(10001, 10000)])
def test_power_sums_of_order_one_are_the_kernel_terms(s):
    # a lone order 1, summed as it comes, is the sum of the direct terms:
    # the kernel's own floors for integer s and for a block past half its
    # end, within one unit per term of them on the sieved row
    for js in (range(1, 1), range(1, 2), range(1, 300), range(200, 300)):
        got = _power_sums(s, js, [1], 700)[1]
        direct = sum(scaled_power(s, j, 700) for j in js)
        sieved = s.denominator > 1 and js and 2 * js[0] <= js[-1] + 1
        assert abs(got - direct) <= 2 * len(js) if sieved else got == direct, js


def test_power_sums_take_a_root_per_prime(monkeypatch):
    # a fractional s builds the row from 1 up: a root per prime, pi(99) = 25
    # for S(99); integer s takes its floors floor(2^W/j^s) in one pass with
    # no kernel call, and blocks past half their end take one per term
    calls = []

    def power(s, j, W):
        calls.append(j)
        return scaled_power(s, j, W)

    monkeypatch.setattr(bigfloat, "scaled_power", power)
    for s, l, n in ((Fraction(3, 2), 99, 25), (Fraction(2), 99, 0)):
        calls.clear()
        PowerFunction(s).partial_sum(l, 1024)
        assert len(calls) == n, s
    calls.clear()
    _power_sums(Fraction(3, 2), range(100, 101), [1], 1100)
    assert calls == [100]
