"""Series estimator: notation pieces, certified tails, worked examples."""

import ast
import gc
import math
import os
import signal
import subprocess
import sys
import weakref
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import factorial
from pathlib import Path

import mpmath as mp
import pytest
from mpmath.libmp import round_ceiling

from gbzeta import bernoulli, bigfloat, quadrature, series
from gbzeta.bigfloat import scaled_power, to_mpf
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
# the directory that holds the imported package, so child processes find it
PACKAGE_ROOT = str(Path(series.__file__).resolve().parents[1])

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


def _live(m, r):
    # the level's jump weights (c, e) and its live orders, the k = 2..r with
    # c_k != 0, as _tail_start reads them
    c, e = bernoulli.family(m)._weights("jump", r)
    return c, e, [k for k in range(2, r + 1) if c[k]]


def _cut_at(t, J, tol, prec):
    # the cut of a lone tail sum_{j>=J} j^-t: D's at q1 = J - 1 with no
    # live jump order, as at level 1
    return series._cut(t, [], J - 1, tol, prec)


def _limits(tol, W, ks):
    # one far-sum limit floor(2^W tol/4) for each tail of _power_tails
    return [int(mp.ldexp(tol, W - 2))] * len(ks)


def _power_tail_sum(t, J, prec, tol=None):
    # sum_{j>=J} j^-t: the k = 1 tail of the batched power tails, rounded once
    with mp.workprec(prec):
        if tol is None:
            tol = series._default_tol(prec)
        W = prec + 64 + J.bit_length()
        seq = series._ScaledRising(t, _cut_at(t, J, tol, prec), W, 0)
        tail = series._power_tails(seq, [1], J, _limits(tol, W, [1]))[0]
        return series._certified(*tail, W, prec)


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
    # tol = 0 makes every order scan fall back to its smallest bound at a
    # finite cut, and 10001/10000 takes scaled_power's mpf route
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
        seq = series._ScaledRising(s, J, W, 200)
        with mp.workprec(W + 64):
            sv = mp.mpf(s.numerator) / s.denominator
            for n in range(201):
                assert seq.P[n] == s.denominator ** n * pf.pochhammer(n)
                x = mp.ldexp(mp.rf(sv, n) * mp.mpf(J) ** -(sv + n), W)
                assert abs(seq.U[n] - x) <= seq.err[n], (J, n)


@pytest.mark.parametrize("s", [F(3, 2), F(5, 3), F(3)])
def test_power_sums_chain_equals_one_floor_per_order(s):
    # dividing floor(2^W j^-s) by j^(k - k_prev) order by order gives
    # exactly floor(2^W j^-(s+k-1)) for every order, on the direct route:
    # integer s is never sieved, and for fractional s a block from 33 to 63
    # starts above half its end (the sieved route is test_bigfloat's)
    js = range(33, 64) if s.denominator > 1 else range(1, 64)
    ks = [1, 2, 5, 6, 40]
    sums = series._power_sums(s, js, ks, 1100)
    for k in ks:
        assert sums[k] == sum(scaled_power(s + k - 1, j, 1100) for j in js), k


def test_power_tails_near_block_to_order_40():
    # every order k <= 40 from J = 1, 2, 63, so the near block J <= j < J0
    # carries the tail, against Hurwitz zeta at prec + 64
    s, prec = F(3, 2), 1024
    pf = PowerFunction(s, prec)
    ks = range(1, 41)
    for J in (1, 2, 63):
        with mp.workprec(prec):
            W, tol = prec + 64 + J.bit_length(), series._default_tol(prec)
            seq = series._ScaledRising(s, _cut_at(s, J, tol, prec), W, max(ks) - 1)
            tails = [series._certified(*tail, W, prec)
                     for tail in series._power_tails(seq, ks, J, _limits(tol, W, ks))]
        with mp.workprec(prec + 64):
            for k, cv in zip(ks, tails):
                ref = to_mpf(pf.pochhammer(k - 1), prec + 64) * mp.zeta(mp.mpf(1) / 2 + k, J)
                assert abs(cv.value - ref) <= cv.bound, (J, k)


def _power_tails_reference(s, ks, J, J0, tol, W):
    # the one-row route in exact rationals, from the same integers (near
    # block, U_(k-1) and the order _far_bound picks): every order's far sum
    # sum_{i<=r} c'_i u_i over the one denominator e of the level-1 weights
    # B_i/i! = c_i/e for i up to the top order, c'_1 = c_1 + e, with
    # u_i = U_(k-1) (t)_(i-1) J0^-(i-1) = U_(k-1) Q_(i-1)/(b J0)^(i-1) exact;
    # [(T, far bound)] with T a Fraction
    top = series._TAIL_ORDERS[-1]
    c, e = bernoulli.family(1)._weights("number", top)
    a, b = s.numerator, s.denominator
    near = series._power_sums(s, range(J, J0), ks, W)
    seq = series._ScaledRising(s, J0, W, max(ks) - 1)
    limit, L = int(mp.ldexp(tol, W - 2)), b * J0
    out = []
    for k in ks:
        r, far, _ = series._far_bound(seq, k, limit)
        a1, X = a + (k - 1) * b, seq.U[k - 1]
        num, Q = 0, 1
        for i in range(1, r + 1):
            num = num * L + (c[i] + (e if i == 1 else 0)) * Q
            Q *= a1 + (i - 1) * b
        P, bk, d = seq.P[k - 1], b ** (k - 1), a + (k - 2) * b
        T = P * near[k] // bk + J0 * b * X // d + Fraction(X * num, e * L ** (r - 1))
        out.append((T, far))
    return out


@pytest.mark.parametrize("W", [320, 1088])
@pytest.mark.parametrize("s", [F(3, 2), F(5, 3), F(3), F(10001, 10000), F(21)])
def test_power_tails_match_one_row_reference(s, W):
    # the Horner far sums against the exact one-row dot product from the same
    # integers: within 2 units (the last floor, and the Horner floors that 2^G
    # puts near 2^-4 units), and within each tail's error count less its far
    # bound. tol = 0 makes every order scan fall back to its smallest bound,
    # up to order 192, where the factors (t+i-1)(t+i)/J0^2 exceed 1 at J0 = 64
    ks = range(1, 101)
    for tol in (series._default_tol(W - 64), 0):
        for J in (1, 2, 63, 64, 165, 613):
            J0 = max(J, 64)
            seq = series._ScaledRising(s, J0, W, max(ks) - 1)
            got = series._power_tails(seq, ks, J, _limits(tol, W, ks))
            ref = _power_tails_reference(s, ks, J, J0, tol, W)
            for k, (T, err, _), (T_ref, far) in zip(ks, got, ref):
                assert abs(T - T_ref) < 2 and abs(T - T_ref) <= err - far, (J, tol, k)


def test_tail_rows_are_exact_and_least():
    # row r holds c'_1 and the even c_i, i <= r, over the least denominator
    # e_r of the level-1 weights B_i/i!, with c'_1/e_r = B_1 + 1 = 1/2
    for r in series._TAIL_ORDERS:
        g1, even, e = series._tail_row(r)
        assert F(g1, e) == F(1, 2)
        assert [F(x, e) for x in even] == [bernoulli.family(1).number(i) / factorial(i)
                                           for i in range(2, r + 1, 2)]
        assert math.gcd(e, g1, *even) == 1, r
    assert series._tail_row(8)[2] == 1209600  # 8!/(-B_8) = 8!/(1/30)


def test_cut_reads_the_cap_coefficient_from_its_closed_form():
    # _cut takes log2 A_R at the order cap R = 192 from 1 - R log2(2 pi),
    # the level-1 identity |B_R|/R! = 2 zeta(R) (2 pi)^-R, where zeta(R)
    # leaves the double as it is; that double is log2(N) - log2(D) of the
    # exact pair, so no cut moves
    N, D = series._far_coeff(series._TAIL_ORDERS[-1])
    assert series._LOG2_CAP_COEFF == math.log2(N) - math.log2(D) == -508.08725685868524
    cap = series._TAIL_ORDERS[-1]
    assert series._LOG2_CAP_COEFF == series._log2_far_coeff(cap) == 1 - cap * math.log2(2 * math.pi)


def test_far_order_floats_match_the_exact_coefficients():
    # the closed form 1 - r log2(2 pi) + log2 zeta(r) is within 2^-20 of
    # log2(N) - log2(D) of the exact A_r = N/D at every order, far inside the
    # 1/64 margin of _far_bound's filter; zeta(r) is kept, as log2 zeta(8)
    # is 0.0059; the scan reads the orders' values from one table
    assert series._LOG2_FAR_COEFFS == tuple(map(series._log2_far_coeff, series._TAIL_ORDERS))
    for r in series._TAIL_ORDERS:
        N, D = series._far_coeff(r)
        assert abs(series._log2_far_coeff(r) - (math.log2(N) - math.log2(D))) <= 2 ** -20, r
    assert abs(series._log2_far_coeff(8) - (1 - 8 * math.log2(2 * math.pi)) - 0.0059) < 1e-4


def _run_fresh(code):
    # stdout of code run in a fresh interpreter that imports this package
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_cold_estimate_grows_level_one_rows_to_the_order_taken():
    # a first estimate at 256 bits in a fresh interpreter builds the level-1
    # rows only up to the order its far sums take (24 here), not up to the
    # cap that _cut reads
    code = ("from gbzeta import bernoulli, series\n"
            "series.estimate_series(series.PowerFunction(3), 5, 2, 100)\n"
            "print(len(bernoulli.family(1)._table[0]) - 1)\n")
    assert int(_run_fresh(code)) == 24


def test_cold_scan_reads_exact_coefficients_only_where_it_checks():
    # a first 1024-bit estimate in a fresh interpreter reads _far_coeff only
    # for the orders its far sums check exactly, here the one each takes,
    # not for every order its scans pass from 8 to 144
    code = ("from gbzeta import series\n"
            "real_coeff, real_bound = series._far_coeff, series._far_bound\n"
            "coeffs, taken = [], []\n"
            "def coeff(r):\n"
            "    coeffs.append(r)\n"
            "    return real_coeff(r)\n"
            "def far_bound(*args):\n"
            "    taken.append(real_bound(*args))\n"
            "    return taken[-1]\n"
            "series._far_coeff, series._far_bound = coeff, far_bound\n"
            "series.estimate_series(series.PowerFunction('3/2', 1024), 5, 6, 100, 1024)\n"
            "print([coeffs, [(r, met) for r, _, met in taken]])\n")
    coeffs, taken = ast.literal_eval(_run_fresh(code))
    assert taken == [(152, True)] + [(144, True)] * 5
    assert coeffs == [r for r, _ in taken]


def _far_bound_reference(seq, k, limit):
    # the divide-every-order loop in exact rationals: each order's bound
    # A_r J (U_(k-1) + err_(k-1)) (t)_r J^-r / (t+r-1), t = s+k-1, with A_r
    # from _far_coeff, rounded up, and compared as bound b^(k-1) <= limit
    # P_(k-1); the first order that meets it, else the smallest bound, the
    # first on ties; (order, bound, met)
    a, b, J = seq.a, seq.b, seq.J
    t, x = F(a, b) + k - 1, seq.U[k - 1] + seq.err[k - 1]
    lim, scale = limit * seq.P[k - 1], b ** (k - 1)
    best = None
    for r in series._TAIL_ORDERS:
        N, D = series._far_coeff(r)
        rising = F(math.prod(range(a + (k - 1) * b, a + (k - 1 + r) * b, b)), b ** r)
        bound = math.ceil(F(N, D) * x * rising / J ** (r - 1) / (t + r - 1))
        if best is None or bound < best[1]:
            best = (r, bound)
        if bound * scale <= lim:
            return r, bound, True
    return best + (False,)


def _far_bound_cases():
    # (s, k): b = 1, 2, 3 and 10000 (scaled_power's mpf route)
    for s in (F(3, 2), F(3), F(5, 3), F(10001, 10000), F(21)):
        for k in (1, 2, 7, 40):
            yield s, k


def _pin_orders(monkeypatch, seq, k, targets):
    # give each order r of _far_bound at (seq, k) the unrounded bound X/Y =
    # targets[r], and every other order 2^4000, through _far_coeff's N/D,
    # and the scan's float log2 A_r the log2 of that N/D
    a1, b, J = seq.a + (k - 1) * seq.b, seq.b, seq.J
    Z = J * b * (seq.U[k - 1] + seq.err[k - 1])

    def coeff(r):
        x = F(targets.get(r, 2 ** 4000))
        Q = math.prod(range(a1, a1 + r * b, b))
        return x.numerator * (b * J) ** r * (a1 + (r - 1) * b), x.denominator * Z * Q

    monkeypatch.setattr(series, "_far_coeff", coeff)
    monkeypatch.setattr(series, "_LOG2_FAR_COEFFS", tuple(
        math.log2(N) - math.log2(D) for N, D in map(coeff, series._TAIL_ORDERS)))


def _pinned_far_bound_cases():
    # (targets, limit, (order, bound, met)) at the edges of _far_bound's
    # float pre-selection: bounds equal to the limit, a hair above it, ties
    # below 1, and a least bound at an order whose estimate is not the least
    L = 1 << 100
    yield {8: L << 100, 16: L << 50, 24: F(L)}, L, (24, L, True)
    yield {8: L << 100, 16: L << 50, 24: F(L)}, L - 1, (24, L, False)
    yield {24: L + F(1, 1 << 40)}, L, (24, L + 1, False)
    yield {24: L + F(1, 1 << 40), 32: F(L - 5)}, L, (32, L - 5, True)
    yield {r: F(1, 1 << (r + 1)) for r in series._TAIL_ORDERS}, 0, (8, 1, False)
    yield {8: F(11, 2), 16: F(39, 10), 24: F(16, 5)}, 0, (16, 4, False)


@pytest.mark.parametrize("W", [320, 1088])
def test_far_bound_matches_divide_every_order_reference(W, monkeypatch):
    # the same (order, bound, met) as the loop that divides for every order,
    # at limit 0 (no order meets), a limit the first order meets, and the
    # estimator's own floor(2^W tol/4), which some orders meet late and some
    # not at all; then with _far_coeff pinned at the edges of the float
    # pre-selection
    rules = set()
    for s, k in _far_bound_cases():
        for J in (64, 613):
            huge = 1 << (W + 64)
            for limit in (0, huge, int(mp.ldexp(series._default_tol(W - 64), W - 2))):
                ref = _far_bound_reference(series._ScaledRising(s, J, W, k - 1), k, limit)
                got = series._far_bound(series._ScaledRising(s, J, W, k - 1), k, limit)
                assert got == ref, (s, k, J)
                rule = "none" if not ref[2] else "first" if ref[0] == 8 else "later"
                assert rule == {0: "none", huge: "first"}.get(limit, rule)
                rules.add(rule)
    assert rules == {"none", "first", "later"}
    for targets, limit, expected in _pinned_far_bound_cases():
        seq = series._ScaledRising(F(3, 2), 64, W, 0)
        _pin_orders(monkeypatch, seq, 1, targets)
        assert _far_bound_reference(seq, 1, limit) == expected
        assert series._far_bound(seq, 1, limit) == expected


def test_rising_row_grows_to_the_product_of_its_factors():
    # P_n = prod_{i<n} (a+ib), s = a/b, for n <= 200, from a row built to
    # N = 0 and grown on demand in uneven steps, over the exponents of
    # _far_bound_cases
    for s in dict.fromkeys(s for s, _ in _far_bound_cases()):
        a, b = s.numerator, s.denominator
        seq = series._ScaledRising(s, 64, 320, 0)
        assert seq.P == [1]
        for n in (3, 1, 40, 200, 17):
            assert seq.rising(n) == math.prod(range(a, a + n * b, b)), (s, n)
        assert seq.P == [math.prod(range(a, a + n * b, b)) for n in range(201)], s


def _em_far_reference(seq, k, limit):
    # _em_far with its eta taken from the rising product itself,
    # prod_{m=1}^{r-4} (a'+mb), built with math.prod for every call
    r, far, met = series._far_bound(seq, k, limit)
    g1, g_even, e = series._tail_row(r)
    a, b = seq.a, seq.b
    a1, X, X_err, bJ = a + (k - 1) * b, seq.U[k - 1], seq.err[k - 1], b * seq.J
    n = eta = (r - 2) // 2
    if a1 + (r - 4) * b > bJ:
        eta = max(n, -(-n * math.prod(range(a1 + b, a1 + (r - 3) * b, b)) // bJ ** (r - 4)))
    G = max(0, X.bit_length() + a1.bit_length() + eta.bit_length() + 7
            - e.bit_length() - bJ.bit_length())
    h = g_even[-1] << G
    for i in range(r - 2, 0, -2):
        h = (g_even[i // 2 - 1] << G) + h * ((a1 + (i - 1) * b) * (a1 + i * b)) // (bJ * bJ)
    Hn, den = (g1 * bJ << G) + a1 * h, e * bJ << G
    err = -(-(X_err * abs(Hn) + (X + X_err) * a1 * eta) // den)
    return X * Hn // den, far + err + 1, not met


@pytest.mark.parametrize("W", [320, 1088])
def test_em_far_matches_its_rising_product_reference(W):
    # _em_far, whose eta reads the rising row P_(k+r-4)/P_k, equals the
    # reference that multiplies the factors out, at the estimator's limit
    # and at limit 0 (every order scanned, the smallest bound taken); the
    # rising-product branch of eta is taken in some cases and not in others
    branches = set()
    for s, k in _far_bound_cases():
        for J in (64, 613):
            for limit in (int(mp.ldexp(series._default_tol(W - 64), W - 2)), 0):
                seq = series._ScaledRising(s, J, W, k - 1)
                ref = _em_far_reference(seq, k, limit)
                assert series._em_far(series._ScaledRising(s, J, W, k - 1), k, limit) == ref
                r = series._far_bound(seq, k, limit)[0]
                branches.add(s + k - 1 + r - 4 > J)
    assert branches == {True, False}


def test_far_bound_meets_a_limit_equal_to_its_bound(monkeypatch):
    # an order whose unrounded bound X/Y is exactly the integer limit meets
    # it, at k = 1 and k = 3; one unit less and it does not
    for k in (1, 3):
        seq = series._ScaledRising(F(3, 2), 64, 320, k - 1)
        limit = 1 << 200
        M = limit * seq.P[k - 1] // seq.b ** (k - 1)  # exact: P_2/b^2 = 15/4
        _pin_orders(monkeypatch, seq, k, {8: F(M)})
        for far_bound in (_far_bound_reference, series._far_bound):
            assert far_bound(seq, k, limit) == (8, M, True)
            assert far_bound(seq, k, limit - 1)[2] is False


def _jump_weights(m, orders):
    # exact [(k, (-1)^(k+1) (B_k(1)-B_k)/(m! k!))] over the orders with a nonzero jump
    fam = bernoulli.family(m)
    weights = [(k, (-1) ** (k + 1) * Fraction(fam.jump(k), factorial(m) * factorial(k)))
               for k in orders]
    return [(k, c) for k, c in weights if c]


def _hurwitz(t, J, wp):
    # zeta(t, J) to wp bits relative: mpmath's error is absolute, near 2^-p
    # at working precision p, so p takes the J^-t scale of the value too
    p = wp + math.ceil(t * math.log2(J))
    with mp.workprec(p):
        return mp.zeta(to_mpf(t, p), J)


def _jump_tail_hurwitz(s, m, orders, J, wp):
    # sum_k (B_k(1)-B_k)/(m! k!) (s)_(k-1) zeta(s+k-1, J): the per-exponent
    # route through mpmath's Hurwitz zeta at wp bits
    pf, fam = PowerFunction(s, wp), bernoulli.family(m)
    terms = [(F(fam.jump(k), factorial(m) * factorial(k)) * pf.pochhammer(k - 1), s + k - 1)
             for k in orders]
    with mp.workprec(wp):
        return mp.fsum(to_mpf(w, wp) * _hurwitz(t, J, wp) for w, t in terms)


def _rounded_jump_tail(s, m, orders, J, J0, tol, prec):
    # the batched jump tail as rho_tail takes it: one integer, rounded once
    W = prec + 64 + J.bit_length()
    seq = series._ScaledRising(s, J0, W, max(orders) - 1)
    c, e, ks = _live(m, max(orders))
    return series._certified(*series._jump_tail(seq, c, e, ks, J, int(mp.ldexp(tol, W - 2))),
                             W, prec)


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("s", [F(3, 2), F(2), F(3), F(7, 2), F(5)])
def test_batched_jump_tail_matches_per_exponent_route(s, prec):
    # the 39 orders 2 to 40 of level 2 from J = 2, 21, 165, cut as rho_tail
    # cuts them at q1 = J - 1, within their bound of the per-exponent Hurwitz
    # zeta route, and no far sum capped
    orders = range(2, 41)
    with mp.workprec(prec):
        tol = series._default_tol(prec)
        for J in (2, 21, 165):
            J0 = series._cut(s, _live(2, 40)[2], J - 1, tol, prec)
            got = _rounded_jump_tail(s, 2, orders, J, J0, tol / 2, prec)
            ref = _jump_tail_hurwitz(s, 2, orders, J, prec + 64)
            with mp.workprec(prec + 64):
                assert abs(got.value - ref) <= got.bound, J
            assert got.caps_hit == (), J


@pytest.mark.parametrize("s", [F(3, 2), F(3)])
def test_batched_jump_tail_over_delta_tail_orders(s, monkeypatch):
    # a jump tail over the 101 orders 2 to 102 from J = J0 = 613, as wide as
    # the former order rewrite of delta_tail took, within its bound of the
    # Hurwitz zeta route. Its one sequence runs only to U_101, the largest
    # k - 1, since the far bounds grow only its exact rising row. At the default
    # tolerance no far sum is capped; at 2^-1325, below the unit 2^-1098,
    # every order takes its smallest bound
    prec = 1024
    # Horner and sigma~ leave out the odd level-1 weights, which must all be 0
    fam = bernoulli.family(1)
    assert all(fam.number(i) == 0 for i in range(3, 192, 2))
    orders = range(2, 103)
    seqs = []

    class Recording(series._ScaledRising):
        def __init__(self, *args):
            super().__init__(*args)
            seqs.append(self)

    monkeypatch.setattr(series, "_ScaledRising", Recording)
    ref = _jump_tail_hurwitz(s, 2, orders, 613, prec + 64)
    with mp.workprec(prec):
        tiny = mp.mpf(2) ** -1325
        for tol, caps in ((series._default_tol(prec) / 2, ()), (tiny, ("order_cap",))):
            got = _rounded_jump_tail(s, 2, orders, 613, 613, tol, prec)
            with mp.workprec(prec + 64):
                assert abs(got.value - ref) <= got.bound
            assert got.caps_hit == caps
            assert seqs[-1].J == 613 and len(seqs[-1].U) == 102


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
    # at q1 = 0 the series starts at j = 1: e_2^[1](0) = zeta(4)/2
    e = rho_tail(pf3, 2, 2, 0, None, P)
    with mp.workprec(300):
        assert abs(e.value - mp.zeta(4) / 2) <= e.bound


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
    # the value is int + S(p-1) + D(p), one integer rounded once, and no
    # longer the mpf sum of the six components; the components still close
    # the identity on zeta(3), within the bounds of the certified ones (the
    # integral and S(p-1) as _certified takes them, rho_tail's and
    # delta_tail's) and the rounding of the float sigma~ and of the sum
    est = estimate_series(pf3, 5, 2, 100, P)
    c = est.components
    W, ints = _estimate_integers(pf3, 5, 2, 100, est.tol, P)
    bounds = [series._certified(*ints[k], False, W, P).bound
              for k in ("integral_tail", "partial_sum")]
    bounds += [rho_tail(pf3, 5, 2, 100, None, P).bound, delta_tail(pf3, 5, 2, 100, None, P).bound]
    with mp.workprec(P + 64):
        recomb = (c["integral_tail"] + c["partial_sum"] - c["sigma_inf"]
                  + c["sigma_tilde"] - c["e_tail"] - c["delta_tail"])
        assert abs(recomb - mp.zeta(3)) <= sum(bounds) + abs(est.value) * mp.mpf(2) ** (8 - P)


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


SWEEP_S = (F(3, 2), F(2), F(3), F(7, 2), F(5), F(21))


@pytest.fixture(scope="module")
def zeta_sweep_refs():
    # mpmath.zeta at prec+64, once per precision of the sweep
    refs = {}
    for prec in (256, 512, 1024, 2048):
        with mp.workprec(prec + 64):
            refs[prec] = {s: mp.zeta(mp.mpf(s.numerator) / s.denominator) for s in SWEEP_S}
    return refs


@pytest.mark.parametrize("prec", [256, 512, 1024, 2048])
@pytest.mark.parametrize("s", SWEEP_S)
def test_estimate_contains_zeta_on_the_grid(s, prec, zeta_sweep_refs):
    # every cell of m, r and p, including p = 1 next to the pole of x^-s;
    # each also meets the default tolerance 2^-(prec/2), with no cap hit
    tol = series._default_tol(prec)
    misses = []
    for m in (1, 2, 3, 5):
        for r in (1, 2, 3, 6):
            for p in (1, 2, 10, 100):
                est = estimate_series(PowerFunction(s, prec), m, r, p, prec)
                with mp.workprec(prec + 64):
                    err = abs(est.value - zeta_sweep_refs[prec][s])
                assert est.tol == tol and est.tol_met == (est.error_bound <= tol)
                if err > est.error_bound or not est.tol_met or est.caps_hit:
                    misses.append((m, r, p, mp.nstr(err, 5), mp.nstr(est.error_bound, 5)))
    assert misses == []


@pytest.mark.parametrize("prec", [1024, 2048])
def test_estimate_meets_tol_at_large_s_and_high_order(prec):
    # the cells where the jump tails carry weights |w_k| (s)_(k-1) far above
    # 1: each far sum is asked for its weighted share of tol (_jump_tail),
    # whatever cut _cut plans, so every cell meets tol with a true bound.
    # At r = 80, p = 1 the jump tail's own bound misses tol (its far sums
    # cap), but the value is int + S(p-1) + D(p), which reads no jump tail
    tol = series._default_tol(prec)
    misses = []
    for s in (F(21), F(51)):
        with mp.workprec(prec + 64):
            ref = mp.zeta(s.numerator)
        for m in (2, 5):
            for r in (12, 20, 40, 80):
                for p in (1, 100):
                    est = estimate_series(PowerFunction(s, prec), m, r, p, prec)
                    with mp.workprec(prec + 64):
                        err = abs(est.value - ref)
                    if err > est.error_bound or not est.tol_met or est.caps_hit:
                        misses.append((s, m, r, p, mp.nstr(est.error_bound, 5), est.caps_hit))
                    assert est.tol == tol
    assert misses == []


@pytest.mark.parametrize("s,m,r,p,prec", [
    (101, 3, 12, 1, 256), (51, 3, 40, 1, 256), (201, 2, 12, 1, 512), (101, 2, 80, 3, 256),
    (201, 5, 80, 2, 256), (101, 5, 12, 1, 256), (51, 2, 80, 2, 256), (201, 5, 40, 1, 512)])
def test_estimate_at_large_s_lands_within_its_bound(s, m, r, p, prec):
    # cells whose value, as the mpf sum of six pieces with a slack scaled by
    # |value|, missed zeta(s) by up to 4.4 times its bound: the value is now
    # one integer, int + S(p-1) + D(p), rounded once, and meets tol
    est = estimate_series(PowerFunction(s, prec), m, r, p, prec)
    with mp.workprec(prec + 64):
        assert abs(est.value - mp.zeta(s)) <= est.error_bound
    assert est.tol_met and est.caps_hit == ()


def test_tol_missed_is_reported():
    # at 2048 bits and p = 100 the cut follows the tolerance, so the default
    # 2^-1024 is met; a caller tol below the rounding floor 2^-prec cannot be
    # met: the bound stays true and tol_met says it is missed; a looser
    # tolerance passed by the caller is met and reported as met
    for prec, tol in ((2048, None), (256, mp.ldexp(1, -(256 + 16))),
                      (1024, mp.ldexp(1, -(1024 + 16)))):
        for s, m, r in ((F(3), 1, 2), (F(3, 2), 5, 6)):
            est = estimate_series(PowerFunction(s, prec), m, r, 100, prec, tol=tol)
            with mp.workprec(prec + 64):
                assert abs(est.value - mp.zeta(to_mpf(s, prec + 64))) <= est.error_bound
            assert est.tol == (tol or mp.ldexp(1, -prec // 2))
            assert est.tol_met == (tol is None), (prec, s, m, r)
    g = euler_constant(PowerFunction(1, 2048), 2, 3, 2048, tol=mp.mpf("1e-40"))
    assert g.tol_met and g.error_bound <= mp.mpf("1e-40")


@pytest.mark.parametrize("prec", [256, 1024])
def test_tolerance_below_the_floor_keeps_a_finite_cut(prec):
    # tol = 0 and tolerances below 2^-prec cut where 2^-prec does, a finite
    # J0, and take each far sum's smallest bound (order_cap); the bound stays
    # true, and tol_met is False
    floor = mp.ldexp(1, -prec)
    for s, m, r in ((F(3), 1, 2), (F(3, 2), 5, 6), (F(1), 2, 3)):
        pf = PowerFunction(s, prec)
        ks = _live(m, r)[2]
        J0 = series._cut(s, ks, 1, floor, prec)
        assert J0 >= 64
        for tol in (0, mp.ldexp(1, -2 * prec)):
            assert series._cut(s, ks, 1, tol, prec) == J0
            if s == 1:
                est = euler_constant(pf, m, r, prec, tol=tol)
            else:
                est = estimate_series(pf, m, r, 1, prec, tol=tol)
            with mp.workprec(prec + 64):
                ref = +mp.euler if s == 1 else mp.zeta(to_mpf(s, prec + 64))
                assert abs(est.value - ref) <= est.error_bound, (s, tol)
            assert est.caps_hit == ("order_cap",) and not est.tol_met, (s, tol)


def test_cut_stays_within_the_precision():
    # the tolerance cut grows like 2^(prec/(2 (192+t))): about 460 at 2048
    # bits, 2 10^4 at 4096 and 3 10^7 at 8192, so past prec the cut is prec,
    # the order cap binds, and the estimate reports the missed tol with a
    # true bound
    for prec in (4096, 8192):
        tol = series._default_tol(prec)
        assert series._cut(F(3, 2), _live(5, 6)[2], 100, tol, prec) == prec
        assert series._cut(F(3), _live(1, 2)[2], 10**6, tol, prec) == 10**6 + 1
    prec = 4096
    est = estimate_series(PowerFunction(3, prec), 1, 2, 100, prec)
    with mp.workprec(prec + 64):
        assert abs(est.value - mp.zeta(3)) <= est.error_bound < mp.mpf(10) ** -450
    assert est.caps_hit == ("order_cap",) and not est.tol_met


def test_caps_hit_names_the_generic_caps(monkeypatch):
    # a generic stack names the cap that stopped each tail: rho_tail's 200000
    # terms and delta_tail's 4096 cells, for a stack whose tail bounds never
    # drop below tol (its blocks are cut to 40 cells, by patching, to stay
    # cheap), and a stack with abs_deriv_tail only; the caps stay out of
    # as_dict
    est = estimate_series(exp_decay_stack(P), 2, 3, 4, P, tol=mp.mpf("1e-35"))
    assert est.caps_hit == () and est.tol_met and "caps_hit" not in est.as_dict()
    blocks = []

    def cut_block(real):
        def block(fs, m, r, q1, q2, prec):
            blocks.append(q2 - q1)
            return real(fs, m, r, q1, min(q2, q1 + 40), prec)
        return block

    monkeypatch.setattr(series, "rho", cut_block(series.rho))
    monkeypatch.setattr(series, "remainder_R", cut_block(series.remainder_R))
    flat = FunctionStack(f=lambda x: mp.exp(-x), derivs=lambda k: (lambda x: mp.mpf(0)), r_max=8,
                         exact_integral=lambda a, b, prec=P: mp.mpf(0),
                         abs_deriv_integral=lambda k, a, b, prec=P: mp.mpf(0),
                         abs_deriv_tail=lambda k, p, prec=P: mp.mpf(1), check=False)
    assert rho_tail(flat, 2, 2, 4, None, P).caps_hit == ("rho_terms",)
    assert delta_tail(flat, 2, 2, 4, None, P).caps_hit == ("delta_cells",)
    assert blocks == [200001, 4096]
    d = delta_tail(cos_sqrt_over_x_stack(P), 2, 2, 10, None, P)
    assert d.caps_hit == ("abs_deriv_tail_only",)


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


def test_far_out_tails_keep_their_digits():
    # zeta-odd --s 21 --m 5 --r 2 --p 100000: the tails lie near 3.3e-106
    # and 1.8e-110, far below 2^-(prec+64), and each is within its bound of
    # the mpmath reference, a bound below 2^-64 of the tail, so neither
    # prints 0.0
    s, m, r, q1 = F(21), 5, 2, 10**5
    pf = PowerFunction(s, P)
    tails = (rho_tail(pf, m, r, q1, None, P), delta_tail(pf, m, r, q1, None, P))
    refs = _tail_references(s, m, r, q1, P + 1200)
    for cv, ref in zip(tails, refs):
        with mp.workprec(P + 1200):
            assert abs(cv.value - ref) <= cv.bound <= abs(ref) * mp.ldexp(1, -64)
    payload = estimate_series(pf, m, r, q1, P).as_dict()
    assert payload["e_tail"].startswith("3.33298334616")
    assert payload["delta_tail"].startswith("1.83320500147")


def _estimate_integers(pf, m, r, p, tol, prec):
    # the pieces of an x^-s estimate as _solve takes them: W and
    # {name: (integer, counted error)}, the tail integral from the power x
    # that D's integral reads (not at s = 1), S(p-1) from _power_sums in the
    # same unit, and D
    with mp.workprec(prec):
        _, _, W, D, x = series._power_identity_tails(pf, m, r, p, tol, prec)
    u, v = (pf.s - 1).numerator, (pf.s - 1).denominator
    ints = {} if x is None else {"integral_tail": (x * v // u, series._cdiv(v, u) + 1)}
    ints["partial_sum"] = (series._power_sums(pf.s, range(1, p), [1], W)[1], p - 1)
    ints["regularized_tail"] = D[:2]
    return W, ints


@pytest.mark.parametrize("prec", [256, 1024])
def test_estimate_tails_are_the_standalone_tails(prec):
    # estimate_series and euler_constant take both x^-s tails from one
    # shared pass at one cut; each is exactly rho_tail's and delta_tail's,
    # value, bound and caps. S(p-1) and the tail integral are integers in
    # the tails' unit, rounded once each. The value is one integer,
    # int + S(p-1) + D(p) (no integral for euler_constant), rounded once:
    # value and error_bound are exactly _certified's, and error_parts holds
    # the counted error of each piece and the rounding, each rounded up, in
    # that order, and sums to error_bound. m = 1 and r = 1 have no jump
    # order, so e and its bound are exactly 0. The cut is past p, also at
    # p = 100, where the far sums of D (from p) and of e (from p + 1) once
    # started at different cuts
    for s in (F(1), F(3, 2), F(3), F(21)):
        pf = PowerFunction(s, prec)
        for m in (1, 2, 5):
            for r in (1, 2, 6):
                for p in ((1,) if s == 1 else (1, 2, 100)):
                    if s == 1:
                        est = euler_constant(pf, m, r, prec)
                    else:
                        est = estimate_series(pf, m, r, p, prec)
                    e, d = rho_tail(pf, m, r, p, None, prec), delta_tail(pf, m, r, p, None, prec)
                    with mp.workprec(prec):
                        shared = series._power_identity_tails(pf, m, r, p, est.tol, prec)
                    W, ints = _estimate_integers(pf, m, r, p, est.tol, prec)
                    names = ["integral_tail", "partial_sum", "regularized_tail"][s == 1:]
                    assert list(ints) == names, (s, m, r, p)
                    V, err = map(sum, zip(*ints.values()))
                    total = series._certified(V, err, False, W, prec)
                    ps = series._certified(*ints["partial_sum"], False, W, prec)
                    assert shared[:2] == (e, d), (s, m, r, p)
                    assert est.components["e_tail"] == e.value, (s, m, r, p)
                    assert est.components["delta_tail"] == d.value, (s, m, r, p)
                    assert est.components["partial_sum"] == ps.value, (s, m, r, p)
                    if s != 1:
                        integral = series._certified(*ints["integral_tail"], False, W, prec)
                        assert est.components["integral_tail"] == integral.value, (s, m, r, p)
                    assert (est.value, est.error_bound) == (total.value, total.bound), (s, m, r, p)
                    parts = {k: series._round_fixed(n, W, prec, round_ceiling)
                             for k, (_, n) in ints.items()}
                    parts["rounding"] = series._round_fixed((abs(V) >> prec) + 1, W, prec,
                                                            round_ceiling)
                    assert est.error_parts == parts, (s, m, r, p)
                    with mp.workprec(prec):
                        assert est.error_bound == sum(parts.values()), (s, m, r, p)
                    assert est.caps_hit == e.caps_hit == d.caps_hit == (), (s, m, r, p)
                    if m == 1 or r == 1:
                        assert e.value == 0 and e.bound == 0, (s, m, r, p)
                    assert series._cut(s, _live(m, r)[2], p, est.tol, prec) >= max(p + 1, 64)


@pytest.mark.parametrize("prec", [256, 1024])
def test_estimate_pieces_in_the_tolerance_unit(prec):
    # an x^-s estimate takes S(p-1) and int_p^inf x^-s as integers in the
    # tails' unit W, which tol sets: each printed piece lies within its own
    # certified bound (_certified of its integer and counted error) of the
    # mpmath reference at prec + 64, also at the coarse unit of tol = 1e-20,
    # and error_bound is exactly the sum of its named parts. A tol at or
    # below 2^-prec keeps the unit prec + 64 + bitlen(p) (ceil(s) + r + 2);
    # the default tol takes prec/2 in place of prec, and the counted errors
    # of both pieces stay far below tol
    wp, m, r = prec + 64, 5, 6
    for s in (F(1), F(3, 2), F(3), F(21), F(10001, 10000)):
        pf = PowerFunction(s, prec)
        for p in ((1,) if s == 1 else (1, 2, 100)):
            spill = p.bit_length() * (math.ceil(s) + r + 2)
            assert series._tail_unit(s, r, p, mp.ldexp(1, -(prec + 8)), prec) == prec + 64 + spill
            assert series._tail_unit(s, r, p, 0, prec) == prec + 64 + spill
            assert series._tail_unit(s, r, p, series._default_tol(prec), prec) == (
                prec // 2 + 64 + spill)
            for tol in (None, mp.mpf("1e-20")):
                if s == 1:
                    est = euler_constant(pf, m, r, prec, tol)
                else:
                    est = estimate_series(pf, m, r, p, prec, tol)
                parts, c = est.error_parts, est.components
                W, ints = _estimate_integers(pf, m, r, p, est.tol, prec)
                own = {k: series._certified(*ints[k], False, W, prec).bound for k in ints}
                with mp.workprec(prec):
                    assert est.error_bound == sum(parts.values()), (s, p, tol)
                assert est.tol_met and parts["rounding"] > 0, (s, p, tol)
                with mp.workprec(wp):
                    t = to_mpf(s, wp)
                    ref = mp.fsum(mp.mpf(j) ** -t for j in range(1, p))
                    assert abs(c["partial_sum"] - ref) <= own["partial_sum"], (s, p, tol)
                    if s == 1:
                        assert c["partial_sum"] == parts["partial_sum"] == 0
                        assert "integral_tail" not in parts
                    else:
                        ref = mp.mpf(p) ** (1 - t) / (t - 1)
                        assert abs(c["integral_tail"] - ref) <= own["integral_tail"], (s, p, tol)
                    # p - 1 and ceil(v/u) + 1 < 2^14 units (v/u = 10^4 at s =
                    # 10001/10000) of 2^-W <= tol 2^-73, and the rounding
                    assert own["partial_sum"] <= est.tol * mp.ldexp(1, -56), (s, p, tol)
                    assert own.get("integral_tail", 0) <= est.tol * mp.ldexp(1, -56), (s, p, tol)


@pytest.mark.parametrize("prec,p", [(256, 2), (256, 100), (1024, 1), (1024, 100)])
def test_one_estimate_sums_its_jump_tail_once(prec, p, monkeypatch):
    # exact work counts of one x^-s estimate: one cut, one _power_tails call
    # for the jump orders, serving both tails, and one U_n sequence at the
    # cut for D and every jump order, read only up to U_(r-1), the largest
    # k - 1 (U_0 without jumps). So no scaled power (s, j, W) runs more than
    # twice: D's near block still repeats the jump tails' powers. The
    # standalone rho_tail and delta_tail build one cut and one sequence each
    powers, seqs, tails, cuts = Counter(), [], [], []
    real_power, real_tails, real_cut = series.scaled_power, series._power_tails, series._cut

    def power(s, j, W):
        powers[s, j, W] += 1
        return real_power(s, j, W)

    def power_tails(*args):
        tails.append(args)
        return real_tails(*args)

    def cut(*args):
        cuts.append(real_cut(*args))
        return cuts[-1]

    class Counting(series._ScaledRising):
        def __init__(self, *args):
            super().__init__(*args)
            seqs.append(self)

    monkeypatch.setattr(bigfloat, "scaled_power", power)
    monkeypatch.setattr(series, "scaled_power", power)
    monkeypatch.setattr(series, "_power_tails", power_tails)
    monkeypatch.setattr(series, "_cut", cut)
    monkeypatch.setattr(series, "_ScaledRising", Counting)
    for s in ((F(1),) if p == 1 else ()) + (F(3, 2), F(3), F(5, 3)):
        pf = PowerFunction(s, prec)
        for m, r in ((1, 3), (2, 1), (2, 3), (5, 6)):
            for counts in (powers, seqs, tails, cuts):
                counts.clear()
            if s == 1:
                euler_constant(pf, m, r, prec)
            else:
                estimate_series(pf, m, r, p, prec)
            jumps = m > 1 and r > 1
            assert max(powers.values()) <= 2, (s, m, r)
            assert len(tails) == jumps, (s, m, r)
            assert len(cuts) == 1 and [q.J for q in seqs] == cuts, (s, m, r)
            assert len(seqs[0].U) == (r if jumps else 1), (s, m, r)
            # the standalone tails: one cut and one sequence per call, none
            # for a jump tail that is exactly 0
            for tail, calls in ((rho_tail, int(jumps)), (delta_tail, 1)):
                seqs.clear()
                cuts.clear()
                tail(pf, m, r, p, None, prec)
                assert len(cuts) == calls and [q.J for q in seqs] == cuts, (tail, s, m, r)


@pytest.mark.parametrize("s", [F(1), F(10001, 10000), F(3, 2), F(5, 3), F(3), F(21)])
def test_sigma_coefficients_match_the_level_numbers(s):
    # the integer coefficients of _sigma_ints give the sigma~ and sigma
    # coefficients (s)_(k-1) W_k/(m! k!), k = 1..r, of the level's exact
    # numbers, W_k = B_k and B_k(1)
    pf = PowerFunction(s)
    for m in (1, 2, 3, 5):
        fam = bernoulli.family(m)
        for r in (1, 2, 3, 6):
            w = [pf.pochhammer(k - 1) / (factorial(m) * factorial(k)) for k in range(1, r + 1)]
            assert (pf.sigma_coefficients(m, r, boundary=False)
                    == [(k, x * fam.number(k)) for k, x in enumerate(w, 1)]), (m, r)
            assert (pf.sigma_coefficients(m, r, boundary=True)
                    == [(k, x * fam.boundary(k)) for k, x in enumerate(w, 1)]), (m, r)


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("s,m,r", [(F(3, 2), 1, 6), (F(3), 2, 3), (F(7, 2), 5, 1), (F(1), 3, 2),
                                   (F(5, 3), 3, 6)])
def test_delta_tail_difference_is_remainder_R(s, m, r, prec):
    # delta_r(q1) - delta_r(Q) = R_r(q1, Q): the tails solved from the
    # identity against em_composite's closed form on the block, within the
    # two bounds
    pf = PowerFunction(s, prec)
    for q1, Q in ((1, 3), (2, 66), (100, 164)):
        near, far = delta_tail(pf, m, r, q1, None, prec), delta_tail(pf, m, r, Q, None, prec)
        block = remainder_R(pf, m, r, q1, Q, prec)
        with mp.workprec(prec + 64):
            assert abs(near.value - far.value - block) <= near.bound + far.bound, (q1, Q)


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("s", [F(1), F(3, 2), F(2), F(3), F(10001, 10000), F(21)])
def test_regularized_tail_matches_hurwitz(s, prec):
    # D(J) = sum_{j>=J} j^-s - int_J^inf x^-s is zeta(s, J) - J^(1-s)/(s-1),
    # and log J - digamma(J) at s = 1, at prec + 64
    wp = prec + 64
    for J in (1, 2, 63, 64, 165, 613):
        with mp.workprec(prec):
            W, tol = prec + 64 + J.bit_length(), series._default_tol(prec)
            J0 = _cut_at(s, J, tol, prec)
            seq, limit = series._ScaledRising(s, J0, W, 0), int(mp.ldexp(tol, W - 2))
            at_J = scaled_power(s - 1, J, W) if s > 1 else None
            cv = series._certified(*series._regularized_tail(seq, J, limit, at_J), W, prec)
        with mp.workprec(wp):
            if s == 1:
                ref = mp.log(J) - mp.digamma(J)
            else:
                t = to_mpf(s, wp)
                ref = mp.zeta(t, J) - mp.mpf(J) ** (1 - t) / (t - 1)
            assert abs(cv.value - ref) <= cv.bound, J
            assert cv.bound <= series._default_tol(prec) / 2, J


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


def test_tail_unit_limit():
    # the tails' unit W grows linearly in s and may reach 2^18 bits: an
    # estimate at s = 87000, p = 5 keeps W = 261204, and a larger s raises
    # ValueError before any W-bit integer is built
    tol = series._default_tol(256)
    assert series._tail_unit(F(87000), 2, 5, tol, 256) == 261204 <= series._MAX_TAIL_UNIT
    for s in (F(87500), F(10**7), F(10**400)):
        with pytest.raises(ValueError, match="smaller s or p"):
            series._tail_unit(s, 2, 5, tol, 256)
        with pytest.raises(ValueError, match="smaller s or p"):
            estimate_series(PowerFunction(s), 1, 2, 5)
