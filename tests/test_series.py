"""Series estimator: notation pieces, certified tails, worked examples."""

import gc
import math
import signal
import weakref
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest

from gbzeta import bernoulli, quadrature, series
from gbzeta.bigfloat import _round_fixed, scaled_power, to_mpf
from gbzeta.quadrature import FunctionStack, em_composite, exp_stack, sup_norm
from gbzeta.series import (
    BOTH_CONVERGE,
    BOTH_DIVERGE,
    PowerFunction,
    TailNotCertifiableError,
    convergence_verdict,
    cos_sqrt_over_x_stack,
    delta_tail,
    estimate_series,
    euler_constant,
    exp_decay_stack,
    finite_identity_residual,
    partial_sum,
    remainder_R,
    rho,
    rho_tail,
    sigma,
    sigma_infinity,
    sigma_tilde,
)

F = Fraction
P = 256

# frozen reference digits for the worked zeta(3)/zeta(5) computations
S99_REF = "1.2020064006596776104"
S19_REF = "1.2007428419584369581"
S29_REF = "1.0369274253541474188"
SIGMA_E1_REF = "8.4345238095238095238e-7"
SIGMA_TILDE_E1_REF = "8.3345238095238095238e-7"
E_TAIL_E1_REF = "3.2836666500022217224e-7"


@pytest.fixture(scope="module")
def pf3():
    return PowerFunction(3, P)


@pytest.fixture(scope="module")
def pf5():
    return PowerFunction(5, P)


def test_power_function_derivatives_match_finite_differences():
    # the generic constructor check accepts the closed-form derivatives
    pf = PowerFunction(3, P)
    FunctionStack(
        f=pf.f, derivs=pf._make_deriv, r_max=4, check=True,
        check_points=(0.4, 1.7, 3.2), prec=P,
    )


def test_partial_sums_match_references(pf3, pf5):
    with mp.workprec(P):
        assert abs(partial_sum(pf3, 99, P) - mp.mpf(S99_REF)) <= mp.mpf("1e-19")
        assert abs(partial_sum(pf3, 19, P) - mp.mpf(S19_REF)) <= mp.mpf("1e-19")
        assert abs(partial_sum(pf5, 29, P) - mp.mpf(S29_REF)) <= mp.mpf("1e-19")
        assert partial_sum(pf3, 0, P) == 0


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("l", [0, 1, 99, 10**4])
def test_power_partial_sum_within_one_rounding(l, prec):
    # the fixed-point sum is within l 2^-W < 2^-(prec+64) before one rounding
    # to nearest at prec; l = 10^4 is well past the ~4000 terms a float
    # loop's 2^12 rounding slack would cover
    for s in (F(3, 2), F(5, 3), F(3), F(7, 2)):
        got = partial_sum(PowerFunction(s, prec), l, prec)
        with mp.workprec(prec + 64):
            t = mp.mpf(s.numerator) / s.denominator
            ref = mp.zeta(t) - mp.zeta(t, l + 1)
            assert abs(got - ref) <= abs(ref) * mp.mpf(2) ** -prec + mp.mpf(2) ** -(prec + 56), s


@contextmanager
def _time_limit(seconds):
    def fail(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    old = signal.signal(signal.SIGALRM, fail)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("prec", [256, 1024])
def test_power_sums_with_a_large_denominator_stay_fast(prec):
    # s = 1.0001 (the CLI parses decimals) must not cost integers of b W
    # bits or b Newton steps per term; each part takes about 1 s here
    s = F(10001, 10000)
    pf = PowerFunction(s, prec)
    with _time_limit(30):
        got = partial_sum(pf, 10**4, prec)
        ests = [estimate_series(pf, m, r, p, prec) for m, r, p in ((1, 2, 1), (2, 3, 10), (5, 6, 100))]
    with mp.workprec(prec + 64):
        t = to_mpf(s, prec + 64)
        ref = mp.zeta(t) - mp.zeta(t, 10**4 + 1)
        assert abs(got - ref) <= abs(ref) * mp.mpf(2) ** -prec + mp.mpf(2) ** -(prec + 56)
        for est in ests:
            assert abs(est.value - mp.zeta(t)) <= est.error_bound


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("s", [F(1), F(3, 2), F(3), F(7, 2)])
def test_power_integrals_take_fraction_ends(s, prec):
    # exact_integral and exact_tail_integral at Fraction ends, against the
    # closed form at prec + 64
    pf = PowerFunction(s, prec)
    wp = prec + 64

    def antiderivative(x):
        x = to_mpf(x, wp)
        return mp.log(x) if s == 1 else -x ** (1 - to_mpf(s, wp)) / to_mpf(s - 1, wp)

    for a, b in ((F(1, 8), 1), (F(1, 3), F(7, 2)), (F(5, 2), F(11, 3)), (2, F(1001, 10))):
        got = pf.exact_integral(a, b, prec)
        with mp.workprec(wp):
            ref = antiderivative(b) - antiderivative(a)
            assert abs(got - ref) <= abs(ref) * mp.mpf(2) ** (8 - prec), (a, b)
        if s > 1:
            got = pf.exact_tail_integral(a, prec)
            with mp.workprec(wp):
                ref = -antiderivative(a)
                assert abs(got - ref) <= abs(ref) * mp.mpf(2) ** (8 - prec), a


def test_sigma_values_example_one(pf3):
    with mp.workprec(P):
        sig = sigma(pf3, 5, 2, 100, P)
        ref = to_mpf(F(5, 6) / 10**6 + F(85, 84) / 10**8, P)
        assert abs(sig - ref) <= abs(ref) * mp.mpf(2) ** (16 - P)
        assert abs(sig - mp.mpf(SIGMA_E1_REF)) <= mp.mpf("1e-26")
        st = sigma_tilde(pf3, 5, 2, 100, P)
        ref_t = to_mpf(F(5, 6) / 10**6 + F(1, 84) / 10**8, P)
        assert abs(st - ref_t) <= abs(ref_t) * mp.mpf(2) ** (16 - P)
        assert abs(st - mp.mpf(SIGMA_TILDE_E1_REF)) <= mp.mpf("1e-26")


def test_sigma_values_example_two(pf3):
    # sigma_2^[1](p) = 2/(3p^3) + 7/(12p^4), also at a Fraction point
    with mp.workprec(P):
        for p in (20, F(5, 2)):
            sig = sigma(pf3, 2, 2, p, P)
            ref = to_mpf(F(2, 3) / p**3 + F(7, 12) / p**4, P)
            assert abs(sig - ref) <= abs(ref) * mp.mpf(2) ** (16 - P)
        # sigma~ at the Fraction point: f(q) plus the exact coefficients
        q = F(5, 2)
        til = pf3.sigma_coefficients(2, 2, boundary=False)
        ref = to_mpf(q**-3 + sum(c / q ** (k + 2) for k, c in til), P)
        assert abs(sigma_tilde(pf3, 2, 2, q, P) - ref) <= abs(ref) * mp.mpf(2) ** (16 - P)


def test_sigma_coefficients_example_three(pf5):
    # known closed forms of sigma_6^[1] and sigma~_6^[1] for f = x^-5
    sig = pf5.sigma_coefficients(2, 6, boundary=True)
    assert [c for _, c in sig] == [
        F(2, 3), F(35, 36), F(8, 9), F(77, 216), F(-26, 81), F(-151, 270)]
    til = pf5.sigma_coefficients(2, 6, boundary=False)
    full = [til[0][1] + 1] + [c for _, c in til[1:]]  # k=1 absorbs the f(q) term
    assert full == [F(2, 3), F(5, 36), F(1, 18), F(-7, 216), F(-5, 81), F(-1, 270)]


def test_sigma_infinity(pf3):
    assert sigma_infinity(pf3, 5, 2, P) == 0


def _power_tail_sum(t, J, prec, tol=None):
    # sum_{j>=J} j^-t: the k = 1 tail of the batched power tails, rounded once
    with mp.workprec(prec):
        if tol is None:
            tol = series._default_tol(prec)
        W = prec + 64 + J.bit_length()
        return series._certified(*series._power_tails(t, [1], J, tol, W)[0], W, prec)


def test_power_tail_sum_certified():
    with mp.workprec(320):
        for t, J in ((F(4), 101), (F(4), 21), (F(2), 2), (F(10), 31)):
            cv = _power_tail_sum(t, J, 300)
            ref = mp.zeta(int(t), J)  # independent oracle: Hurwitz zeta
            assert abs(cv.value - ref) <= cv.bound + abs(ref) * mp.mpf(2) ** -290
        # brute-force oracle at low accuracy
        brute = sum(mp.mpf(j) ** -4 for j in range(21, 40000))
        cv = _power_tail_sum(F(4), 21, 300)
        assert abs(cv.value - brute) <= mp.mpf("1e-13")
    # non-integer and integer exponents; J < 64 exercises the direct terms.
    # tol = 0 makes every order scan fall back to its smallest bound, and
    # 10001/10000 takes scaled_power's mpf route
    for prec in (256, 1024):
        for t, tol in ((F(3, 2), None), (F(7, 2), None), (F(5, 3), None), (F(2), None),
                       (F(5), None), (F(3, 2), 0), (F(5), 0), (F(10001, 10000), None)):
            for J in (1, 21, 64, 165):
                cv = _power_tail_sum(t, J, prec, tol)
                with mp.workprec(prec + 64):
                    ref = mp.zeta(mp.mpf(t.numerator) / t.denominator, J)
                    assert abs(cv.value - ref) <= cv.bound, (prec, t, J, tol)


@pytest.mark.parametrize("W", [256, 1024])
@pytest.mark.parametrize("s", [F(3, 2), F(5, 3), F(3), F(10001, 10000)])
def test_scaled_rising_within_its_error_count(s, W):
    # U_n against 2^W (s)_n J^-(s+n) at W + 64 bits, for n <= 200; the
    # exponents take both scaled_power routes (exact floor, and mpf for b > 4)
    pf = PowerFunction(s)
    for J in (64, 165, 613):
        seq = series._ScaledRising(s, J, W)
        seq.extend(200)
        with mp.workprec(W + 64):
            sv = mp.mpf(s.numerator) / s.denominator
            for n in range(201):
                assert seq.P[n] == s.denominator ** n * pf.pochhammer(n)
                x = mp.ldexp(mp.rf(sv, n) * mp.mpf(J) ** -(sv + n), W)
                assert abs(seq.U[n] - x) <= seq.err[n], (J, n)


@pytest.mark.parametrize("s", [F(3, 2), F(5, 3), F(3)])
def test_power_sums_chain_equals_one_floor_per_order(s):
    # dividing floor(2^W j^-s) by j^(k - k_prev) order by order gives
    # exactly floor(2^W j^-(s+k-1)) for every order
    js = range(1, 64)
    ks = [1, 2, 5, 6, 40]
    sums = series._power_sums(s, js, ks, 1100)
    for k in ks:
        assert sums[k] == sum(scaled_power(s + k - 1, j, 1100) for j in js), k


def test_power_tails_near_block_to_order_40():
    # every order k <= 40 from J = 1, 2, 63, so the near block J <= j < 64
    # carries the tail, against Hurwitz zeta at prec + 64
    s, prec = F(3, 2), 1024
    pf = PowerFunction(s, prec)
    ks = range(1, 41)
    for J in (1, 2, 63):
        with mp.workprec(prec):
            W = prec + 64 + J.bit_length()
            tails = [series._certified(T, err, W, prec)
                     for T, err in series._power_tails(s, ks, J, series._default_tol(prec), W)]
        with mp.workprec(prec + 64):
            for k, cv in zip(ks, tails):
                ref = to_mpf(pf.pochhammer(k - 1), prec + 64) * mp.zeta(mp.mpf(1) / 2 + k, J)
                assert abs(cv.value - ref) <= cv.bound, (J, k)


def _power_tails_reference(s, ks, J, tol, W):
    # the one-row route: every order's dot product over the one denominator e
    # of the level-1 weights B_i/i! = c_i/e for i up to the top tail order,
    # c'_1 = c_1 + e
    top = series._TAIL_ORDERS[-1]
    c, e = bernoulli.family(1)._weights("number", top)
    g1, g_even = c[1] + e, c[2:top + 1:2]
    g_even_abs = tuple(map(abs, g_even))
    a, b = s.numerator, s.denominator
    J0 = max(J, 64)
    near = series._power_sums(s, range(J, J0), ks, W)
    seq = series._ScaledRising(s, J0, W)
    U, err, limit = seq.U, seq.err, int(mp.ldexp(tol, W - 2))
    out = []
    for k in ks:
        r, far = series._far_bound(seq, k, 1, series._TAIL_ORDERS, limit)
        P, bk, d = seq.P[k - 1], b ** (k - 1), a + (k - 2) * b
        st = g1 * U[k - 1] + sum(x * u for x, u in zip(g_even, U[k:k + r - 1:2]))
        st_err = g1 * err[k - 1] + sum(x * u for x, u in zip(g_even_abs, err[k:k + r - 1:2]))
        T = P * near[k] // bk + J0 * b * U[k - 1] // d + st // e
        out.append((T, far + -(-P * (J0 - J) // bk) + -(-J0 * b * err[k - 1] // d)
                    + -(-st_err // e) + 3))
    return out


@pytest.mark.parametrize("W", [320, 1088])
@pytest.mark.parametrize("s", [F(3, 2), F(5, 3), F(3), F(10001, 10000), F(21)])
def test_power_tails_match_one_row_reference(s, W):
    # each order's own least row gives the bits of the one row over the lcm
    # of all orders: st_r/e_r and st/e are the same rationals. tol = 0 makes
    # every order scan fall back to its smallest bound, up to order 96
    ks = range(1, 101)
    for tol in (series._default_tol(W - 64), 0):
        for J in (1, 2, 63, 64, 165, 613):
            assert (series._power_tails(s, ks, J, tol, W)
                    == _power_tails_reference(s, ks, J, tol, W)), (J, tol)


def test_tail_rows_are_exact_and_least():
    # row r holds c'_1 and the even c_i, i <= r, over the least denominator
    # e_r of the level-1 weights B_i/i!, with c'_1/e_r = B_1 + 1 = 1/2
    for r in series._TAIL_ORDERS:
        g1, even, even_abs, e = series._tail_row(r)
        assert F(g1, e) == F(1, 2)
        assert [F(x, e) for x in even] == [bernoulli.family(1).number(i) / factorial(i)
                                           for i in range(2, r + 1, 2)]
        assert even_abs == tuple(map(abs, even))
        assert math.gcd(e, g1, *even) == 1, r
    assert series._tail_row(8)[3] == 1209600  # 8!/(-B_8) = 8!/(1/30)


def _float_far_bound_reference(pf, m, orders, J, tol, prec):
    # the per-exponent order choice in mpf: one fractional power of J per order tried
    mf = factorial(m)
    best = None
    for r in orders:
        c = Fraction(series._coeff_abs_sum(m, r), mf * factorial(r)) * pf.pochhammer(r) / (pf.s + r - 1)
        bound = to_mpf(c, prec) * pf._pow(J, 1 - pf.s - r)
        if best is None or bound < best[1]:
            best = (r, bound)
        if bound <= tol / 4:
            break
    return best


def _far_bound_reference(seq, k, m, orders, limit):
    # the divide-every-order loop: each order's bound A_r J b (U_n + err_n) /
    # (a + (n-1) b) with the exact Fraction A_r, rounded up, and compared as
    # bound b^(k-1) <= limit P_(k-1); the first order that meets it, else the
    # smallest bound, the first on ties
    a, b, U, err = seq.a, seq.b, seq.U, seq.err
    seq.extend(k - 1)
    lim, scale = limit * seq.P[k - 1], b ** (k - 1)
    best = None
    for r in orders:
        n = k - 1 + r
        seq.extend(n)
        A = Fraction(series._coeff_abs_sum(m, r), factorial(m) * factorial(r))
        bound = -(-A.numerator * seq.J * b * (U[n] + err[n])
                  // (A.denominator * (a + (n - 1) * b)))
        if best is None or bound < best[1]:
            best = (r, bound)
        if bound * scale <= lim:
            break
    return best


def _far_bound_cases():
    # (s, k, m, orders): level 1 at the power-tail orders, level m > 1 at
    # delta_tail's orders r + 8, ..., r + 96; b = 1, 2, 3 and 10000
    # (scaled_power's mpf route)
    for s in (F(3, 2), F(3), F(5, 3), F(10001, 10000), F(21)):
        for k in (1, 2, 7, 40):
            yield s, k, 1, series._TAIL_ORDERS
        for m, r in ((2, 1), (3, 6), (5, 2)):
            yield s, 1, m, range(r + 8, r + 97, 8)


@pytest.mark.parametrize("W", [320, 1088])
def test_far_bound_matches_divide_every_order_reference(W):
    # the same (order, bound) as the loop that divides for every order tried,
    # at limit 0 (no order meets), a limit the first order meets, and the
    # estimator's own floor(2^W tol/4), which some orders meet late and some
    # not at all
    rules = set()
    for s, k, m, orders in _far_bound_cases():
        for J in (64, 613):
            huge = 1 << (W + 64)
            for limit in (0, huge, int(mp.ldexp(series._default_tol(W - 64), W - 2))):
                ref = _far_bound_reference(series._ScaledRising(s, J, W), k, m, orders, limit)
                seq = series._ScaledRising(s, J, W)
                assert series._far_bound(seq, k, m, orders, limit) == ref, (s, k, m, J, limit)
                meets = ref[1] * s.denominator ** (k - 1) <= limit * seq.P[k - 1]
                rule = "none" if not meets else "first" if ref[0] == orders[0] else "later"
                assert rule == {0: "none", huge: "first"}.get(limit, rule)
                rules.add(rule)
    assert rules == {"none", "first", "later"}
    for seq, limit, expected in _pinned_far_bound_cases(W):
        ref = _far_bound_reference(seq, 1, 1, series._TAIL_ORDERS, limit)
        assert ref == expected
        assert series._far_bound(seq, 1, 1, series._TAIL_ORDERS, limit) == ref


def _order_estimate(seq, r):
    # (e, X, Y) of order r at k = 1, level 1, as _far_bound sees them:
    # X = N Z, Z = J b (U_r + err_r), Y = D (a + (r-1) b), e = lx - ly
    seq.extend(r)
    N, D = series._far_coeff(1, r)
    Z, Y = seq.J * seq.b * (seq.U[r] + seq.err[r]), D * (seq.a + (r - 1) * seq.b)
    return N.bit_length() + Z.bit_length() - Y.bit_length(), N * Z, Y


def _pin_z(seq, r, t):
    # set U_r so that Z = J b t, and return the order's (e, X, Y)
    seq.extend(r)
    seq.U[r] = t - seq.err[r]
    return _order_estimate(seq, r)


def _pinned_far_bound_cases(W):
    # (seq, limit, (order, bound)) at k = 1, level 1, s = 3/2, where the bit
    # length tests of _far_bound sit at their edges
    s = F(3, 2)
    if W == 320:
        # none meets limit 0 from J = 613, and the bounds of orders 48 to 96
        # all round up to 1, with estimates e far below -1: the -1 floor of the
        # cut keeps order 48, the first of the ties
        seq = series._ScaledRising(s, 613, W)
        assert max(_order_estimate(seq, r)[0] for r in range(48, 97, 8)) < -40
        yield seq, 0, (48, 1)
    # none meets limit 0, and the smallest bound, of order 40, has the estimate
    # e = min e + 2 >= 1: order 96 has the least e, with a bound near the top
    # of its range, order 40 e two above it, with a bound near the bottom
    seq = series._ScaledRising(s, 64, W)
    for r in series._TAIL_ORDERS:
        _pin_z(seq, r, 1 << 400)
    e96, X96, Y96 = _pin_z(seq, 96, (1 << 260) - 1)
    i = next(i for i in range(400) if _pin_z(seq, 40, 1 << i)[0] == e96 + 2)
    e40, X40, Y40 = _pin_z(seq, 40, 1 << i)
    assert e96 >= -1 and -(-X40 // Y40) < -(-X96 // Y96)
    yield seq, 0, (40, -(-X40 // Y40))
    # order 24 meets its limit ceil(X/Y) with bitlen(X) = lx - 1 =
    # bitlen(M) + ly, the first length at which a pre-test may not skip it;
    # orders 8 and 16 are far above it
    seq = series._ScaledRising(s, 64, W)
    for r in (8, 16):
        _pin_z(seq, r, 1 << 600)
    e, X, Y = _pin_z(seq, 24, 1 << 300)
    limit = -(-X // Y)
    assert X.bit_length() == e + Y.bit_length() - 1 and limit.bit_length() == e - 1
    yield seq, limit, (24, limit)


def test_far_bound_meets_a_limit_equal_to_its_bound():
    # an order whose bound is exactly the limit meets it: U_8 is set so that
    # the unrounded bound X/Y of order 8 (k = 1, level 1) is the integer limit
    s, J, W = F(3, 2), 64, 320
    N, D = series._far_coeff(1, 8)
    t = 1 << 200
    limit = N * J * s.denominator * t
    for far_bound in (_far_bound_reference, series._far_bound):
        seq = series._ScaledRising(s, J, W)
        seq.extend(8)
        seq.U[8] = D * (s.numerator + 7 * s.denominator) * t - seq.err[8]
        assert far_bound(seq, 1, 1, series._TAIL_ORDERS, limit) == (8, limit)
        assert far_bound(seq, 1, 1, series._TAIL_ORDERS, limit - 1)[0] != 8


def _power_tail_reference(t, J, tol, prec):
    # one exponent at a time: a fresh PowerFunction(t) and the generic sigma~;
    # (value, far bound, rounding slack of the value)
    J0 = max(J, 64)
    pf = PowerFunction(t, prec)
    direct = mp.mpf(0)
    for j in range(J, J0):
        direct += pf._pow(j, -t)
    r, far = _float_far_bound_reference(pf, 1, range(8, 97, 8), J0, tol, prec)
    integral = pf._pow(J0, 1 - t) / to_mpf(t - 1, prec)
    value = direct + integral + sigma_tilde(pf, 1, r, J0, prec)
    return value, far, series._rounding_slack(value, prec)


def _jump_weights(m, orders):
    # exact [(k, (-1)^(k+1) (B_k(1)-B_k)/(m! k!))] over the orders with a nonzero jump
    fam = bernoulli.family(m)
    weights = [(k, (-1) ** (k + 1) * Fraction(fam.jump(k), factorial(m) * factorial(k)))
               for k in orders]
    return [(k, c) for k, c in weights if c]


def _jump_tail_reference(pf, m, orders, J, tol, prec):
    # (value, bound, summed far bounds) of the per-exponent route, each tail
    # certified to an equal share of tol under the float rounding slack
    weights = _jump_weights(m, orders)
    per = tol / max(len(weights), 1)
    total = bound = far_sum = mp.mpf(0)
    for k, c in weights:
        cf = to_mpf(c * (-1) ** (k - 1) * pf.pochhammer(k - 1), prec)
        value, far, slack = _power_tail_reference(pf.s + k - 1, J, per, prec)
        total += cf * value
        bound += abs(cf) * (far + slack)
        far_sum += abs(cf) * far
    return total, bound, far_sum


def _rounded_jump_tail(s, m, orders, J, tol, prec):
    # the batched jump tail as rho_tail takes it: one integer, rounded once
    W = prec + 64 + J.bit_length()
    return series._certified(*series._jump_tail(s, m, orders, J, tol, W), W, prec)


def _assert_matches_reference(got, reference, prec):
    # the far bounds dominate, so a bound between the reference's summed far
    # bounds and its far-plus-slack bound is what the same orders give; the
    # fixed-point tails stay within the reference's rounding slack
    value, bound, far_sum = reference
    assert far_sum <= got.bound <= bound
    assert abs(got.value - value) <= series._rounding_slack(value, prec)


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("s", [F(3, 2), F(2), F(3), F(7, 2), F(5)])
def test_batched_jump_tail_matches_per_exponent_route(s, prec):
    pf = PowerFunction(s, prec)
    with mp.workprec(prec):
        tol = series._default_tol(prec) / 2
        for J in (2, 21, 165):
            got = _rounded_jump_tail(s, 2, range(2, 41), J, tol, prec)
            _assert_matches_reference(got, _jump_tail_reference(pf, 2, range(2, 41), J, tol, prec),
                                      prec)


@pytest.mark.parametrize("s", [F(3, 2), F(3)])
def test_batched_jump_tail_over_delta_tail_orders(s, monkeypatch):
    # delta_tail's widest jump tail: orders up to r + 96 = 102 from
    # J = q1 + 512 + 1 = 613. At the default tolerance the chosen orders stay
    # below the cap; at 2^-1325 the order-96 cap binds for most orders, so
    # the shared sequence runs past index 190.
    prec = 1024
    # sigma~ leaves out the odd level-1 weights, which must all be 0
    fam = bernoulli.family(1)
    assert all(fam.number(i) == 0 for i in range(3, 96, 2))
    pf = PowerFunction(s, prec)
    orders = range(2, 103)
    seqs = []

    class Recording(series._ScaledRising):
        def __init__(self, *args):
            super().__init__(*args)
            seqs.append(self)

    monkeypatch.setattr(series, "_ScaledRising", Recording)
    with mp.workprec(prec):
        tiny = mp.mpf(2) ** -1325
        weights = _jump_weights(2, orders)
        chosen = {_float_far_bound_reference(PowerFunction(s + k - 1, prec), 1,
                                             series._TAIL_ORDERS, 613, tiny / len(weights),
                                             prec)[0] for k, _ in weights}
        assert 96 in chosen and min(chosen) < 96
        for tol in (series._default_tol(prec) / 2, tiny):
            got = _rounded_jump_tail(s, 2, orders, 613, tol, prec)
            _assert_matches_reference(got, _jump_tail_reference(pf, 2, orders, 613, tol, prec),
                                      prec)
        assert len(seqs[-1].U) > 191


def test_rho_tail_example_one(pf3):
    e = rho_tail(pf3, 5, 2, 100, None, P)
    with mp.workprec(300):
        assert abs(e.value - mp.mpf(E_TAIL_E1_REF)) <= mp.mpf("1e-26")
        # the weight collapses to exactly 1, so e = sum_{j>=101} j^-4
        assert abs(e.value - mp.zeta(4, 101)) <= e.bound + mp.mpf(2) ** -240


def test_rho_tail_example_two_start_index(pf3):
    # e_2^[1](20) = (1/2) sum_{j>=21} j^-4: the jump series starts one past
    # the cut; starting at j=20 instead gives the alternate value 2.2447...e-5
    e = rho_tail(pf3, 2, 2, 20, None, P)
    with mp.workprec(300):
        assert abs(e.value - mp.zeta(4, 21) / 2) <= e.bound + mp.mpf(2) ** -240
        alt = mp.mpf("0.00002244785177830327")
        # the j=20 term is 3.125e-6; the 2.7e-20 residual is last-digit
        # rounding in the alternate figure
        assert abs(e.value + mp.mpf(20) ** -4 / 2 - alt) <= mp.mpf("1e-19")
        assert abs(e.value - alt) > mp.mpf("3e-6")


def test_rho_tail_r1_is_zero(pf3):
    e = rho_tail(pf3, 3, 1, 10, None, P)
    assert e.value == 0 and e.bound == 0


def test_rho_level_one_vanishes(pf3):
    assert rho(pf3, 1, 6, 5, 50, P) == 0
    e = rho_tail(pf3, 1, 6, 5, None, P)
    assert e.value == 0


def test_rho_matches_brute_force(pf3):
    from gbzeta.bernoulli import family

    fam = family(2)
    with mp.workprec(P):
        got = rho(pf3, 2, 4, 5, 12, P)
        brute = mp.mpf(0)
        for j in range(6, 12):
            for k in range(2, 5):
                w = to_mpf(F((-1) ** (k + 1) * fam.jump(k), factorial(2) * factorial(k)), P)
                brute += w * pf3.deriv(k - 1)(mp.mpf(j))
        assert abs(got - brute) <= abs(brute) * mp.mpf(2) ** (16 - P)


def _per_term_sigma(fs, m, r, q, prec, boundary):
    # the per-term formula: (1/m!) sum_k ((-1)^(k+1)/k!) f^(k-1)(q) W_k
    fam = bernoulli.family(m)
    with mp.workprec(prec):
        q = to_mpf(q, prec)
        acc = mp.mpf(0)
        for k in range(1, r + 1):
            w = fam.boundary(k) if boundary else fam.number(k)
            acc += (-1) ** (k + 1) / mp.factorial(k) * fs.deriv(k - 1)(q) * to_mpf(w, prec)
        return acc / factorial(m) + (0 if boundary else fs.f(q))


def _per_term_rho(fs, m, r, q1, q2, prec):
    # one weight and one fresh evaluator per (j, k)
    with mp.workprec(prec):
        total = mp.mpf(0)
        for j in range(q1 + 1, q2):
            for k, c in _jump_weights(m, range(2, r + 1)):
                total += to_mpf(c, prec) * fs.deriv(k - 1)(mp.mpf(j))
        return total


def _per_cell_main_sum(fs, a, b, n_sub, m, r, prec):
    # the per-cell boundary terms, each node evaluated from both of its cells
    fam = bernoulli.family(m)
    with mp.workprec(prec):
        a, b = to_mpf(a, prec), to_mpf(b, prec)
        h = (b - a) / n_sub
        xs = [a + j * h for j in range(n_sub + 1)]
        main = mp.mpf(0)
        for j in range(n_sub):
            for k in range(1, r + 1):
                fk = fs.deriv(k - 1)
                main += ((-1) ** (k + 1) / (factorial(m) * mp.factorial(k)) * h**k
                         * (fk(xs[j + 1]) * to_mpf(fam.boundary(k), prec)
                            - fk(xs[j]) * to_mpf(fam.number(k), prec)))
        return main


@pytest.mark.parametrize("prec", [256, 1024])
def test_weight_table_and_weighted_derivative_sums(prec):
    from gbzeta.quadrature import _weight_row

    # the rows are the exact level-m weights over m! k!, each rounded once
    for m in (1, 2, 3, 5):
        fam = bernoulli.family(m)
        for kind in ("number", "boundary", "jump"):
            row = _weight_row(m, kind, 40, prec)
            for k in range(41):
                exact = Fraction(getattr(fam, kind)(k), factorial(m) * factorial(k))
                assert row[k] == to_mpf(exact, prec), (m, kind, k)
    # the one weighted sum against the per-term and per-cell formulas
    pf = PowerFunction(F(3, 2), prec)
    tol = mp.mpf(2) ** (16 - prec)

    def close(got, ref):
        return abs(got - ref) <= abs(ref) * tol

    for m in (1, 2, 3, 5):
        for r in range(1, 9):
            assert close(sigma(pf, m, r, F(7, 3), prec), _per_term_sigma(pf, m, r, F(7, 3), prec, True))
            assert close(sigma_tilde(pf, m, r, 3, prec), _per_term_sigma(pf, m, r, 3, prec, False))
            assert close(rho(pf, m, r, 2, 9, prec), _per_term_rho(pf, m, r, 2, 9, prec))
            for fs, a, b in ((pf, 1, F(5, 2)), (exp_stack(prec), -1, 1)):
                for n_sub in (1, 3, 8):
                    got = em_composite(fs, a, b, n_sub, m, r, prec).main_sum
                    assert close(got, _per_cell_main_sum(fs, a, b, n_sub, m, r, prec)), (m, r, n_sub)


def test_remainder_zero_for_low_degree_poly():
    from gbzeta.quadrature import poly_stack
    from gbzeta.polyrat import Poly

    fs = poly_stack(Poly([1, F(1, 2), 3]), P)
    assert remainder_R(fs, 2, 4, 1, 9, P) == 0


def test_delta_example_one_value_and_bound(pf3):
    d = delta_tail(pf3, 5, 2, 100, None, P)
    with mp.workprec(300):
        # independent route: solve the convergent identity using mpmath's zeta
        ident = (mp.mpf(100) ** -2 / 2 + partial_sum(pf3, 99, 300)
                 + sigma_tilde(pf3, 5, 2, 100, 300)
                 - mp.zeta(4, 101) - mp.zeta(3))
        assert abs(d.value - ident) <= d.bound + mp.mpf(2) ** -240
        # without the 1/m! normalization the value is ours times m! = 120
        assert abs(d.value * 120 - mp.mpf("3.10296e-7")) <= mp.mpf("1e-11")
    # cdr3-style bound: mu_2/(m! 2!) int_100^inf 12 t^-5 = (850/7)/120 * 1e-8
    bound_exact = F(850, 7) / F(120) / 10**8
    with mp.workprec(P):
        tail = pf3.abs_deriv_tail(2, 100, P)
        mu = sup_norm(5, 2, P)
        cdr3 = mu / (120 * 2) * tail
        assert abs(cdr3 - to_mpf(bound_exact, P)) <= to_mpf(bound_exact, P) * mp.mpf(2) ** -40
        # dropping the 1/m! gives the un-normalized bound 1.2142857e-6
        assert abs(cdr3 * 120 - mp.mpf("0.000001214285714")) <= mp.mpf("1e-15")
        assert abs(d.value) <= cdr3


def test_finite_identity_examples(pf3):
    with mp.workprec(P):
        assert finite_identity_residual(pf3, 2, 2, 5, 40, P) <= mp.mpf("1e-30")
        assert finite_identity_residual(pf3, 5, 4, 10, 50, P) <= mp.mpf("1e-30")
        fs = exp_decay_stack(P)
        assert finite_identity_residual(fs, 1, 2, 2, 20, P) <= mp.mpf("1e-25")


def test_finite_identity_grid(pf3):
    with mp.workprec(P):
        tol = mp.mpf(2) ** (40 - P)
        for m in (1, 2, 5):
            for r in (1, 2, 4, 6):
                for (p, n) in ((5, 40), (10, 80)):
                    res = finite_identity_residual(pf3, m, r, p, n, P)
                    scale = abs(pf3.exact_integral(p, n, P))
                    assert res <= tol * scale


def test_euler_constant_values():
    pf1 = PowerFunction(1, P)
    with mp.workprec(320):
        ref = mp.euler
        g1 = euler_constant(pf1, 1, 6, P).value
        g2 = euler_constant(pf1, 2, 6, P).value
        assert abs(g1 - ref) <= mp.mpf("1e-13")
        assert abs(g2 - ref) <= mp.mpf("1e-13")
        assert abs(g1 - g2) <= mp.mpf("1e-20")


def test_euler_constant_x_squared_closed_form():
    # gamma(x^-2) = zeta(2) - 1 since int_1^n t^-2 -> 1
    from gbzeta.zeta_even import euler_zeta

    pf2 = PowerFunction(2, P)
    g = euler_constant(pf2, 2, 6, P).value
    with mp.workprec(P):
        ref = euler_zeta(1).to_mpf(P) - 1
        assert abs(g - ref) <= mp.mpf("1e-30")


@pytest.mark.parametrize("prec", (256, 1024))
def test_euler_constant_certified_grid(prec):
    # gamma(x^-s) is Euler's constant at s = 1 and zeta(s) - 1/(s-1) above;
    # every value lies within its bound, e.bound + d.bound + rounding
    for s in (F(1), F(3, 2), F(2), F(3)):
        pf = PowerFunction(s, prec)
        with mp.workprec(prec + 64):
            x = to_mpf(s, prec + 64)
            ref = mp.euler if s == 1 else mp.zeta(x) - 1 / (x - 1)
        for m in (1, 2, 3, 5):
            for r in (1, 2, 3, 6):
                g = euler_constant(pf, m, r, prec)
                assert list(g.components) == ["limit_at_infinity", "partial_sum", "sigma_tilde",
                                              "sigma_inf", "e_tail", "delta_tail"]
                with mp.workprec(prec + 64):
                    assert abs(g.value - ref) <= g.error_bound, (s, m, r, prec)


def test_estimate_zeta3_example_one(pf3):
    est = estimate_series(pf3, 5, 2, 100, P)
    with mp.workprec(320):
        z3 = mp.zeta(3)
        assert abs(est.value - z3) <= est.error_bound
        assert abs(est.value - z3) <= mp.mpf("1e-30")


def test_estimate_components_recombine(pf3):
    est = estimate_series(pf3, 5, 2, 100, P)
    c = est.components
    with mp.workprec(P):
        recomb = (c["integral_tail"] + c["partial_sum"] - c["sigma_inf"]
                  + c["sigma_tilde"] - c["e_tail"] - c["delta_tail"])
        assert abs(est.value - recomb) <= abs(est.value) * mp.mpf(2) ** (8 - P)


def test_estimate_zeta3_example_two(pf3):
    est = estimate_series(pf3, 2, 2, 20, P)
    with mp.workprec(320):
        assert abs(est.value - mp.zeta(3)) <= est.error_bound
        assert abs(est.value - mp.zeta(3)) <= mp.mpf("1e-30")


def test_estimate_zeta5_example_three(pf5):
    est = estimate_series(pf5, 2, 6, 30, P)
    with mp.workprec(320):
        assert abs(est.value - mp.zeta(5)) <= est.error_bound
        assert abs(est.value - mp.zeta(5)) <= mp.mpf("1e-30")


@pytest.fixture(scope="module")
def zeta_1088():
    # independent reference at prec+64 for the 1024-bit estimates
    with mp.workprec(1088):
        return {s: mp.zeta(mp.mpf(s.numerator) / s.denominator) for s in (F(3, 2), F(3), F(7, 2))}


@pytest.mark.parametrize("r", [2, 6])
@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("s", [F(3, 2), F(3), F(7, 2)])
def test_estimate_1024_bits_contains_zeta(s, m, r, zeta_1088):
    est = estimate_series(PowerFunction(s, 1024), m, r, 100, 1024)
    with mp.workprec(1088):
        assert abs(est.value - zeta_1088[s]) <= est.error_bound


SWEEP_S = (F(3, 2), F(2), F(3), F(7, 2), F(5))


@pytest.fixture(scope="module")
def zeta_sweep_refs():
    # mpmath.zeta at prec+64, once per precision of the sweep
    refs = {}
    for prec in (256, 512, 1024):
        with mp.workprec(prec + 64):
            refs[prec] = {s: mp.zeta(mp.mpf(s.numerator) / s.denominator) for s in SWEEP_S}
    return refs


@pytest.mark.parametrize("prec", [256, 512, 1024])
@pytest.mark.parametrize("s", SWEEP_S)
def test_estimate_contains_zeta_on_the_grid(s, prec, zeta_sweep_refs):
    # every cell of m, r and p, including p = 1 next to the pole of x^-s
    misses = []
    for m in (1, 2, 3, 5):
        for r in (1, 2, 3, 6):
            for p in (1, 2, 10, 100):
                est = estimate_series(PowerFunction(s, prec), m, r, p, prec)
                with mp.workprec(prec + 64):
                    err = abs(est.value - zeta_sweep_refs[prec][s])
                if err > est.error_bound:
                    misses.append((m, r, p, mp.nstr(err, 5), mp.nstr(est.error_bound, 5)))
    assert misses == []


def _tail_references(s, m, r, q1, wp):
    # e_r(q1) and delta_r(q1) for x^-s from Hurwitz zeta at wp bits:
    # e = sum_k (B_k(1)-B_k)/(m! k!) (s)_(k-1) zeta(s+k-1, q1+1) and
    # delta = q1^(1-s)/(s-1) + sigma~_r(q1) - e - zeta(s, q1)
    pf = PowerFunction(s, wp)
    fam = bernoulli.family(m)
    with mp.workprec(wp):
        sv, q = to_mpf(s, wp), mp.mpf(q1)
        e = mp.mpf(0)
        for k in range(2, r + 1):
            w = Fraction(fam.jump(k), factorial(m) * factorial(k)) * pf.pochhammer(k - 1)
            e += to_mpf(w, wp) * mp.zeta(sv + k - 1, q1 + 1)
        st = q ** -sv + sum(to_mpf(c, wp) * q ** -(sv + k - 1)
                            for k, c in pf.sigma_coefficients(m, r, boundary=False))
        return e, q ** (1 - sv) / (sv - 1) + st - e - mp.zeta(sv, q)


@pytest.mark.parametrize("q1", [1, 2, 10, 100, 10**40])
@pytest.mark.parametrize("prec", [256, 1024])
def test_power_tails_within_their_own_bounds(q1, prec):
    # rho_tail and delta_tail each within its own bound, not only their sum in
    # the estimate; far out, at q1 = 10^40, each bound is also below
    # 2^-(prec+32), which a 2^-prec rounding floor would not meet
    wp = prec + (1200 if q1 > 100 else 128)
    misses = []
    for s in (F(3, 2), F(3), F(5)):
        pf = PowerFunction(s, prec)
        for m in (2, 5):
            for r in (2, 3, 6):
                refs = _tail_references(s, m, r, q1, wp)
                tails = (rho_tail(pf, m, r, q1, None, prec), delta_tail(pf, m, r, q1, None, prec))
                for name, cv, ref in zip(("e", "delta"), tails, refs):
                    with mp.workprec(wp):
                        err = abs(cv.value - ref)
                    if err > cv.bound or (q1 > 100 and cv.bound > mp.ldexp(1, -(prec + 32))):
                        misses.append((name, s, m, r, mp.nstr(err, 5), mp.nstr(cv.bound, 5)))
    assert misses == []


def _remainder_quad_reference(s, m, r, q1, Q, wp):
    # R_r(q1, Q) cell by cell with mp.quad at wp bits
    pf = PowerFunction(s, wp)
    br = bernoulli.family(m).polynomial(r)
    with mp.workprec(wp):
        fr = pf.deriv(r)
        total = mp.mpf(0)
        for c in range(q1, Q):
            total += mp.quad(lambda x, c=c: fr(x) * br.eval_mpf(x - c, wp), [c, c + 1])
        return total * (-1) ** r / (factorial(m) * mp.factorial(r))


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("s,m,r,q1", [
    (F(1), 2, 3, 1),
    (F(5, 3), 3, 2, 2),
    (F(3), 1, 1, 1),
    (F(7, 2), 5, 6, 100),
    (F(1), 2, 1, 100),
])
def test_remainder_block_matches_quad_reference(s, m, r, q1, prec):
    W = prec + 64
    V, units = series._remainder_block(PowerFunction(s, prec), m, r, q1, q1 + 3, W)
    value, err = _round_fixed(V, W), mp.ldexp(units, -W)
    ref = _remainder_quad_reference(s, m, r, q1, q1 + 3, prec + 192)
    with mp.workprec(prec + 192):
        assert abs(value - ref) <= err
    # the rounding term is of the order of the w = prec + 64 bit unit
    assert err <= abs(ref) * mp.mpf(2) ** (24 - prec - 64) + mp.mpf(2) ** (24 - prec - 64)


def _sigma_coefficient_reference(pf, m, r):
    # the sigma~ and sigma coefficients (s)_(k-1) W_k/(m! k!), k = 1..r, as
    # Fractions from the level's exact numbers
    fam = bernoulli.family(m)
    w = [pf.pochhammer(k - 1) / (factorial(m) * factorial(k)) for k in range(1, r + 1)]
    return ([x * fam.number(k) for k, x in enumerate(w, 1)],
            [x * fam.boundary(k) for k, x in enumerate(w, 1)])


def _remainder_block_reference(pf, m, r, q1, Q, W):
    # the finite identity in Fractions: the exact sigma coefficients summed
    # with the _power_sums and floored once, the error units a Fraction
    s, orders = pf.s, range(1, r + 1)
    ctil, cbar = _sigma_coefficient_reference(pf, m, r)
    a = [cb - ct for cb, ct in zip(cbar, ctil)]
    inner = series._power_sums(s, range(q1 + 1, Q), [k for k in orders if a[k - 1]], W)
    far, near = series._power_sums(s, [Q], orders, W), series._power_sums(s, [q1], orders, W)
    if s == 1:
        with mp.workprec(W + 16):
            integral = int(mp.nint(mp.ldexp(mp.log(Q) - mp.log(q1), W)))
        units = 1 + Q.bit_length()
    else:
        u, v = (s - 1).numerator, (s - 1).denominator
        integral = (scaled_power(s - 1, q1, W) - scaled_power(s - 1, Q, W)) * v // u
        units = 2 * Fraction(v, u) + 1
    value = integral + math.floor(sum(ct * near[k] - cb * far[k] - a[k - 1] * inner.get(k, 0)
                                      for k, cb, ct in zip(orders, cbar, ctil)))
    units += 1 + sum((Q - q1 - 1) * abs(ak) + abs(cb) + abs(ct)
                     for ak, cb, ct in zip(a, cbar, ctil))
    return value, math.ceil(units)


@pytest.mark.parametrize("W", [320, 1088])
@pytest.mark.parametrize("s", [F(1), F(10001, 10000), F(3, 2), F(5, 3), F(3), F(21)])
def test_remainder_block_matches_fraction_formula(s, W):
    # the same (V, err) as the Fraction route, for s = 1 (the log branch),
    # 10001/10000 (scaled_power's mpf route), b = 1, 2, 3, and blocks with an
    # empty, a short and a longer interior; the integer coefficients give the
    # same sigma_coefficients
    pf = PowerFunction(s)
    for m in (1, 2, 3, 5):
        for r in (1, 2, 3, 6):
            ctil, cbar = _sigma_coefficient_reference(pf, m, r)
            assert [c for _, c in pf.sigma_coefficients(m, r, boundary=False)] == ctil
            assert [c for _, c in pf.sigma_coefficients(m, r, boundary=True)] == cbar
            for q1, Q in ((1, 2), (2, 66), (100, 164), (1000, 1200)):
                assert (series._remainder_block(pf, m, r, q1, Q, W)
                        == _remainder_block_reference(pf, m, r, q1, Q, W)), (m, r, q1, Q)


@pytest.mark.parametrize("s,m,r", [(F(3, 2), 1, 6), (F(3), 2, 3), (F(7, 2), 5, 1), (F(1), 3, 2)])
def test_remainder_R_agrees_with_block_far_out(s, m, r):
    # em_composite's closed form (int f - main_sum) and the finite identity
    # in scaled integers (_remainder_block) agree to rounding
    pf = PowerFunction(s, P)
    V, _ = series._remainder_block(pf, m, r, 100, 164, P + 64)
    value = _round_fixed(V, P + 64)
    closed = remainder_R(pf, m, r, 100, 164, P)
    with mp.workprec(P):
        assert abs(value - closed) <= series._rounding_slack(value, P)


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("m,r", [(1, 2), (2, 6), (5, 4)])
@pytest.mark.parametrize("stack", ["x^-3", "x^-3/2", "exp(-x)"])
def test_remainder_R_is_em_composite_remainder(stack, m, r, prec):
    # remainder_R is em_composite's remainder on unit cells
    fs = {"x^-3": lambda: PowerFunction(3, prec),
          "x^-3/2": lambda: PowerFunction(F(3, 2), prec),
          "exp(-x)": lambda: exp_decay_stack(prec)}[stack]()
    assert remainder_R(fs, m, r, 2, 9, prec) == em_composite(fs, 2, 9, 7, m, r, prec).remainder
    assert remainder_R(fs, m, r, 4, 4, prec) == 0


def test_power_stack_rejects_cells_at_or_below_zero():
    # x^-s is defined for x > 0 only; cells reaching 0 are argument errors
    with pytest.raises(ValueError):
        em_composite(PowerFunction(F(3, 2), P), -2, -1, 2, 1, 2, P)
    with pytest.raises(ValueError):
        remainder_R(PowerFunction(3, P), 1, 2, 0, 3, P)
    with pytest.raises(ValueError):
        em_composite(PowerFunction(3, P), 0, 1, 1, 2, 2, P)
    with pytest.raises(ValueError):
        delta_tail(PowerFunction(3, P), 1, 2, 0, None, P)
    # a stack without a domain end still takes cells below 0
    rep = em_composite(exp_stack(P), -2, -1, 2, 1, 2, P)
    with mp.workprec(P):
        assert abs(rep.total - (mp.e ** -1 - mp.e ** -2)) <= rep.remainder_bound


def test_power_stack_rejects_points_at_or_below_zero():
    # the point sums evaluate x^-s at q1 + 1 (rho, rho_tail) or at q (sigmas)
    pf = PowerFunction(3, P)
    with pytest.raises(ValueError):
        rho(pf, 2, 3, -3, 4, P)
    with pytest.raises(ValueError):
        rho_tail(pf, 2, 3, -3, None, P)
    with pytest.raises(ValueError):
        sigma_tilde(pf, 2, 3, 0, P)
    with pytest.raises(ValueError):
        sigma(pf, 2, 3, 0, P)


def test_em_composite_takes_fraction_ends():
    pf = PowerFunction(F(3, 2), P)
    got = em_composite(pf, F(1, 10), 1, 4, 2, 3, P)
    assert got == em_composite(pf, to_mpf(F(1, 10), P), 1, 4, 2, 3, P)


def test_estimate_exponential_series_via_generic_tails():
    # sum_{j>=1} e^-j = 1/(e-1): exercises the generic envelope/cell paths
    fs = exp_decay_stack(P)
    est = estimate_series(fs, 2, 3, 4, P, tol=mp.mpf("1e-35"))
    with mp.workprec(P):
        ref = 1 / (mp.e - 1)
        assert abs(est.value - ref) <= est.error_bound + abs(ref) * mp.mpf(2) ** (16 - P)
        assert abs(est.value - ref) <= mp.mpf("1e-30")


def test_error_bound_monotone_in_tolerance(pf3):
    loose = estimate_series(pf3, 5, 2, 100, P, tol=mp.mpf("1e-18"))
    tight = estimate_series(pf3, 5, 2, 100, P, tol=mp.mpf("1e-30"))
    assert tight.error_bound <= loose.error_bound


def test_error_bound_monotone_in_precision(pf3):
    lo = estimate_series(PowerFunction(3, 128), 5, 2, 100, 128)
    hi = estimate_series(pf3, 5, 2, 100, P)
    assert hi.error_bound <= lo.error_bound


def test_tail_not_certifiable_paths():
    def f(x):
        return 1 / mp.mpf(x)

    bare = FunctionStack(f=f, derivs=lambda k: (lambda x: -1 / mp.mpf(x) ** 2),
                         r_max=2, check=False)
    with pytest.raises(TailNotCertifiableError):
        estimate_series(bare, 2, 2, 5, P)
    with pytest.raises(TailNotCertifiableError):
        rho_tail(bare, 2, 2, 5, None, P)
    with pytest.raises(TailNotCertifiableError):
        delta_tail(bare, 2, 2, 5, None, P)
    with pytest.raises(TailNotCertifiableError):
        sigma_infinity(bare, 2, 2, P)
    # without exact_integral and abs_deriv_integral there is no remainder
    with pytest.raises(ValueError, match="abs_deriv_integral"):
        em_composite(bare, 1, 3, 2, 2, 2, P)
    with pytest.raises(ValueError, match="abs_deriv_integral"):
        remainder_R(bare, 2, 2, 1, 3, P)


def test_delta_tail_without_closed_forms_is_its_bound(monkeypatch):
    # a stack with abs_deriv_tail alone steps no cells: delta_2(10) is 0
    # within mu_2/(2! 2!) int_10^inf |f''| plus the rounding slack
    monkeypatch.setattr(series, "remainder_R", None)
    fs = cos_sqrt_over_x_stack(P)
    d = delta_tail(fs, 2, 2, 10, None, P)
    with mp.workprec(P):
        bound = sup_norm(2, 2, P) / 4 * fs.abs_deriv_tail(2, 10, P) + mp.ldexp(1, -P)
    assert d.value == 0
    assert d.bound == bound


def test_convergence_verdicts():
    assert convergence_verdict(PowerFunction(3, P), 2, 2, P) == BOTH_CONVERGE
    assert convergence_verdict(PowerFunction(1, P), 2, 2, P) == BOTH_DIVERGE
    # user-asserted integral convergence for cos(sqrt x)/x
    assert convergence_verdict(cos_sqrt_over_x_stack(P), 2, 2, P) == BOTH_CONVERGE

    def f(x):
        return 1 / mp.mpf(x)

    bare = FunctionStack(f=f, derivs=lambda k: (lambda x: -1 / mp.mpf(x) ** 2),
                         r_max=2, check=False)
    assert convergence_verdict(bare, 2, 2, P) == series.UNDETERMINED


def test_generic_rho_tail_matches_direct_block():
    # rho_tail takes its block from rho; the reference sums the same orders
    # over the same points directly, up to the first J whose envelope meets tol
    fs = exp_decay_stack(P)
    for m, r, q1, tol in ((2, 3, 5, mp.mpf("1e-40")), (3, 6, 1, mp.mpf("1e-30")),
                          (5, 2, 4, None)):
        cv = rho_tail(fs, m, r, q1, tol, P)
        with mp.workprec(P):
            tol = series._default_tol(P) if tol is None else tol
            row = quadrature._weight_row(m, "jump", r, P)
            orders = range(2, r + 1)

            def envelope(J):
                env = mp.mpf(0)
                for k in orders:
                    if row[k]:
                        env += abs(row[k]) * (abs(fs.deriv(k - 1)(mp.mpf(J)))
                                              + fs.abs_deriv_tail(k - 1, J, P))
                return env

            J = q1 + 1
            while envelope(J) > tol:
                J += 1
            total = +quadrature._derivative_sum(fs, row, orders,
                                                [mp.mpf(j) for j in range(q1 + 1, J)])
            bound = +(envelope(J) + series._rounding_slack(total, P))
        assert (cv.value, cv.bound) == (total, bound), (m, r, q1)


def test_generic_rho_tail_matches_brute_force():
    fs = exp_decay_stack(P)
    cv = rho_tail(fs, 2, 3, 5, mp.mpf("1e-40"), P)
    from gbzeta.bernoulli import family

    fam = family(2)
    with mp.workprec(P):
        brute = mp.mpf(0)
        for j in range(6, 300):
            for k in (2, 3):
                w = to_mpf(F((-1) ** (k + 1) * fam.jump(k), 2 * factorial(k)), P)
                brute += w * fs.deriv(k - 1)(mp.mpf(j))
        assert abs(cv.value - brute) <= cv.bound + mp.mpf("1e-38")


def test_power_function_validation():
    with pytest.raises(ValueError):
        PowerFunction(F(1, 2), P)
    pf = PowerFunction(1, P)
    assert pf.exact_tail_integral is None  # harmonic tail diverges


_HOT_PATHS = {
    "estimate_series": lambda pf: estimate_series(pf, 5, 2, 100, P),
    "em_composite": lambda pf: em_composite(pf, 1, 4, 8, 3, 6, P),
    "euler_constant": lambda pf: euler_constant(pf, 2, 3, P),
}


# the harmonic series (s = 1) has no tail integral, so no estimate_series
@pytest.mark.parametrize("s,path", [(s, path) for s in (F(1), F(3, 2), F(3)) for path in _HOT_PATHS
                                    if s > 1 or path != "estimate_series"], ids=str)
def test_power_stacks_leave_no_cyclic_garbage(s, path):
    # a stack holds no bound method of itself, so with warm caches a hot path
    # frees everything by reference counting and leaves the cyclic collector
    # nothing; the stack dies with its last reference
    run = _HOT_PATHS[path]
    run(PowerFunction(s, P))  # warm the module caches
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            run(PowerFunction(s, P))
            assert gc.collect() == 0
        pf = PowerFunction(s, P)
        run(pf)
        ref = weakref.ref(pf)
        del pf
        assert ref() is None
    finally:
        gc.enable()
