"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s`). Reference
zeta/gamma digits are the published values, cross-checked against mpmath at
higher working precision where an independent numeric oracle helps.
"""

import time
from fractions import Fraction
from math import comb, factorial

import mpmath as mp
import pytest

from gbzeta import bernoulli, periodic, quadrature, series, zeta_even
from gbzeta.bigfloat import to_mpf
from gbzeta.polyrat import Poly

F = Fraction
P = 256

ZETA3_REF = "1.2020569031595942854"
ZETA5_REF = "1.0369277551433699263"
GAMMA_REF = "0.577215664901532860"

# classical Bernoulli numbers, published table
CLASSICAL = {
    0: F(1), 1: F(-1, 2), 2: F(1, 6), 4: F(-1, 30), 6: F(1, 42), 8: F(-1, 30),
    10: F(5, 66), 12: F(-691, 2730), 14: F(7, 6), 16: F(-3617, 510),
    18: F(43867, 798), 20: F(-174611, 330),
}


def report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_classical_reduction():
    t0 = time.perf_counter()
    nums = bernoulli.gb_numbers(1, 20)
    elapsed = time.perf_counter() - t0
    expected = [CLASSICAL.get(n, F(0)) for n in range(21)]
    ok = nums == expected and elapsed < 1.0
    report(1, "classical Bernoulli numbers, exact", ok, f"{elapsed:.3f}s")


def test_criterion_02_polynomial_table():
    ok = True
    for m in range(1, 7):
        mf = factorial(m)
        ok &= bernoulli.gb_polynomial(m, 0) == Poly([mf])
        ok &= bernoulli.gb_polynomial(m, 1) == Poly([F(-mf, m + 1), mf])
        ok &= bernoulli.gb_polynomial(m, 2) == Poly(
            [F(2 * mf, (m + 1) ** 2 * (m + 2)), F(-2 * mf, m + 1), mf])
        ok &= bernoulli.gb_polynomial(m, 3) == Poly(
            [F(6 * (m - 1) * mf, (m + 1) ** 3 * (m + 2) * (m + 3)),
             F(6 * mf, (m + 1) ** 2 * (m + 2)), F(-3 * mf, m + 1), mf])
    report(2, "displayed closed forms n<=3, m in 1..6, exact", ok)


def test_criterion_03_m_independence():
    t0 = time.perf_counter()
    ok = all(zeta_even.zeta_even_via_gb(m, r).q == zeta_even.euler_zeta(r).q
             for m in range(1, 7) for r in range(1, 9))
    ok &= all(zeta_even.delta_term(1, r).q == 0 for r in range(1, 9))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(3, "zeta(2r) independent of the level, exact", ok, f"{elapsed:.3f}s")


def test_criterion_04_zeta2_midpoint_identity():
    ok = all(zeta_even.zeta2_via_peri12(m).q == F(1, 6) for m in range(1, 11))
    report(4, "midpoint identity yields 1/6 for m in 1..10, exact", ok)


def test_criterion_05_product_and_norm_formulas():
    ok = True
    for m in range(1, 5):
        for r in range(1, 9):
            for n in range(1, 9):
                closed = quadrature.product_integral(m, r, n)
                ok &= closed == quadrature.product_integral_oracle(m, r, n)
    for m in range(1, 5):
        for n in range(1, 9):
            ok &= quadrature.l2_norm_sq(m, n) == quadrature.product_integral(m, n, n)
    B = bernoulli.classical_bernoulli(16)
    for s in range(1, 9):
        for r in range(1, 9):
            ok &= quadrature.product_integral(1, s, r) == F(
                (-1) ** (s + 1) * factorial(s) * factorial(r), factorial(s + r)) * B[s + r]
    report(5, "product integrals and norms match the exact oracle", ok)


def test_criterion_06_fourier_reduction():
    ok = True
    worst = mp.mpf(0)
    with mp.workprec(P):
        twopi = 2 * mp.pi
        tol = mp.mpf(2) ** (20 - P)
        for n in range(2, 8):
            fc = periodic.fourier_coeffs(1, n, 100, P)
            for k in range(1, 101):
                if n % 2 == 0:
                    r = n // 2
                    ref = (-1) ** (r - 1) * 2 / (twopi * k) ** (2 * r)
                    err = abs(fc.a[k - 1] - ref) / abs(ref)
                    ok &= fc.b[k - 1] == 0
                else:
                    r = (n - 1) // 2
                    ref = (-1) ** (r - 1) * 2 / (twopi * k) ** (2 * r + 1)
                    err = abs(fc.b[k - 1] - ref) / abs(ref)
                    ok &= fc.a[k - 1] == 0
                worst = max(worst, err)
                ok &= err <= tol
        for m in (1, 2, 5):
            for n in (2, 4):
                ps = periodic.fourier_partial_sum(m, n, mp.mpf(0), 10**4, P)
                avg = to_mpf(periodic.dirichlet_average(m, n), P)
                ok &= abs(ps - avg) <= mp.mpf("1e-3")
        report(6, "level-1 Fourier reduction and Dirichlet averages", ok,
               f"worst rel err {mp.nstr(worst, 3)}")


def test_criterion_07_zeta_expansion_cross_check():
    ok = True
    with mp.workprec(P):
        tol = mp.mpf(2) ** (20 - P)
        for m in range(1, 6):
            for n in range(1, 11):
                ze = periodic.zeta_expansion(m, n, P)
                oracle = periodic.zeta_expansion_exact_oracle(m, n)
                ok &= ze.c_exact == oracle
                for c, o in zip(ze.c, oracle):
                    ok &= abs(c - to_mpf(o, P)) <= (abs(c) + 1) * tol
    report(7, "zeta-built expansion coefficients match exact subtraction", ok)


def test_criterion_08_finite_identity():
    pf3 = series.PowerFunction(3, P)
    t0 = time.perf_counter()
    ok = True
    worst = mp.mpf(0)
    with mp.workprec(P):
        for m in (2, 5):
            for r in (2, 4):
                for (p, n) in ((5, 40), (10, 80)):
                    res = series.finite_identity_residual(pf3, m, r, p, n, P)
                    worst = max(worst, res)
                    ok &= res <= mp.mpf("1e-30")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(8, "finite Euler-Maclaurin identity residual <= 1e-30", ok,
           f"worst {mp.nstr(worst, 3)}, {elapsed:.2f}s")


def test_criterion_09_example_one_intermediates():
    pf3 = series.PowerFunction(3, P)
    with mp.workprec(P):
        pairs = [
            (series.partial_sum(pf3, 99, P), "1.2020064006596776104"),
            (series.sigma(pf3, 5, 2, 100, P), "8.4345238095238095238e-7"),
            (series.sigma_tilde(pf3, 5, 2, 100, P), "8.3345238095238095238e-7"),
            (series.rho_tail(pf3, 5, 2, 100, None, P).value, "3.2836666500022217224e-7"),
        ]
        ok = True
        worst = mp.mpf(0)
        for got, ref in pairs:
            rel = abs(got - mp.mpf(ref)) / abs(mp.mpf(ref))
            worst = max(worst, rel)
            ok &= rel <= mp.mpf("1e-15")
    report(9, "worked intermediates to >= 15 significant digits", ok,
           f"worst rel {mp.nstr(worst, 3)}")


def test_criterion_10_zeta3_example_one():
    pf3 = series.PowerFunction(3, P)
    t0 = time.perf_counter()
    est = series.estimate_series(pf3, 5, 2, 100, P)
    elapsed = time.perf_counter() - t0
    with mp.workprec(P):
        err = abs(est.value - mp.mpf(ZETA3_REF))
        ok = err <= mp.mpf("1.25e-6") and err <= mp.mpf("1e-8") and elapsed < 5.0
    report(10, "zeta(3) at m=5, r=2, p=100 within both tolerances", ok,
           f"err {mp.nstr(err, 3)}, {elapsed:.2f}s")


def test_criterion_11_zeta3_example_two():
    pf3 = series.PowerFunction(3, P)
    est = series.estimate_series(pf3, 2, 2, 20, P)
    with mp.workprec(P):
        err = abs(est.value - mp.mpf(ZETA3_REF))
        ok = err <= mp.mpf("5e-3") and err <= mp.mpf("1e-6")
    report(11, "zeta(3) at m=2, r=2, p=20 within both tolerances", ok,
           f"err {mp.nstr(err, 3)}")


def test_criterion_12_zeta5_example_three():
    pf5 = series.PowerFunction(5, P)
    est = series.estimate_series(pf5, 2, 6, 30, P)
    with mp.workprec(P):
        err = abs(est.value - mp.mpf(ZETA5_REF))
        ok = err <= mp.mpf("5e-8")
    coeffs = [c for _, c in pf5.sigma_coefficients(2, 6, boundary=True)]
    ok &= coeffs == [F(2, 3), F(35, 36), F(8, 9), F(77, 216), F(-26, 81), F(-151, 270)]
    report(12, "zeta(5) estimate and exact sigma coefficient list", ok,
           f"err {mp.nstr(err, 3)}")


def test_criterion_13_euler_constant():
    pf1 = series.PowerFunction(1, P)
    with mp.workprec(P):
        g1 = series.euler_constant(pf1, 1, 6, P).value
        g2 = series.euler_constant(pf1, 2, 6, P).value
        ref = mp.mpf(GAMMA_REF)
        ok = abs(g1 - ref) <= abs(ref) * mp.mpf("1e-12")
        ok &= abs(g2 - ref) <= abs(ref) * mp.mpf("1e-12")
        ok &= abs(g1 - g2) <= mp.mpf("1e-20")
    report(13, "Euler's constant to 12 digits, levels agree to 20", ok)


def test_criterion_14_composite_order():
    fs = quadrature.exp_stack(P)
    with mp.workprec(P):
        target = mp.e - 1
        import math

        xs, ys = [], []
        ok = True
        for nsub in (4, 8, 16, 32, 64):
            rep = quadrature.em_composite(fs, 0, 1, nsub, 2, 2, P)
            xs.append(math.log(1.0 / nsub))
            ys.append(math.log(float(abs(rep.main_sum - target))))
            ok &= abs(rep.total - target) <= mp.mpf("1e-25")
        n = len(xs)
        xm, ym = sum(xs) / n, sum(ys) / n
        slope = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sum(
            (x - xm) ** 2 for x in xs)
        ok &= 1.8 <= slope <= 2.2
    report(14, "composite rule: empirical order 2, total to 1e-25", ok,
           f"slope {slope:.3f}")


def test_criterion_15_parseval():
    ok = True
    worst = mp.mpf(0)
    with mp.workprec(P):
        for (m, n) in ((1, 2), (2, 1), (2, 2), (5, 3)):
            rhs = to_mpf(quadrature.parseval_rhs(m, n), P)
            res = quadrature.parseval_residual(m, n, 10**5, P)
            worst = max(worst, res / rhs)
            ok &= res <= mp.mpf("1e-4") * rhs
    report(15, "Parseval residual at K=1e5 below 1e-4 of the exact value", ok,
           f"worst {mp.nstr(worst, 3)}")
