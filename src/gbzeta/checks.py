"""Runnable invariant suites, one per subsystem.

Each suite returns (name, ok, detail) triples; the CLI's `check` subcommand
prints them and fails the process if any invariant is violated. The pytest
suite runs the same checks plus the acceptance criteria.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import mpmath as mp

from . import bernoulli, periodic, quadrature, series, zeta_even
from .bigfloat import DEFAULT_PRECISION, to_mpf
from .polyrat import Poly

# 20-30 digit reference constants (independently published values)
ZETA2_REF = "1.6449340668482264364724151666"
ZETA3_REF = "1.2020569031595942854"
ZETA5_REF = "1.0369277551433699263"
EULER_GAMMA_REF = "0.577215664901532860606512090082"


def _result(name, ok, detail=""):
    return (name, bool(ok), detail)


def check_core(prec: int = DEFAULT_PRECISION) -> list:
    out = []
    Bcl = bernoulli.classical_bernoulli(20)
    out.append(_result("classical odd numbers vanish",
                       all(Bcl[n] == 0 for n in range(3, 20, 2))))
    rec = all(sum(comb(n, k) * Bcl[k] for k in range(n)) == 0 for n in range(2, 21))
    out.append(_result("classical recurrence sum C(n,k)B_k = 0", rec))

    ok = True
    for m in range(1, 7):
        mf = factorial(m)
        ok &= bernoulli.gb_polynomial(m, 0) == Poly([mf])
        ok &= bernoulli.gb_polynomial(m, 1) == Poly([Fraction(-mf, m + 1), mf])
        ok &= bernoulli.gb_polynomial(m, 2) == Poly(
            [Fraction(2 * mf, (m + 1) ** 2 * (m + 2)), Fraction(-2 * mf, m + 1), mf])
        ok &= bernoulli.gb_polynomial(m, 3) == Poly(
            [Fraction(6 * (m - 1) * mf, (m + 1) ** 3 * (m + 2) * (m + 3)),
             Fraction(6 * mf, (m + 1) ** 2 * (m + 2)), Fraction(-3 * mf, m + 1), mf])
    out.append(_result("first four polynomials match closed forms, m<=6", ok))

    ok = all(
        bernoulli.gb_polynomial(m, n).derivative()
        == bernoulli.gb_polynomial(m, n - 1).scale(n)
        for m in range(1, 7) for n in range(1, 21)
    )
    out.append(_result("Appell derivative property, n<=20, m<=6", ok))

    ok = True
    for m in (1, 2, 5):
        for n in (1, 3, 6):
            p = bernoulli.gb_polynomial(m, n)
            q = bernoulli.gb_polynomial(m, n + 1)
            for (x0, x1) in ((Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(3, 4))):
                ok &= p.definite_integral(x0, x1) == (q(x1) - q(x0)) / (n + 1)
    out.append(_result("integral formula", ok))

    ok = True
    for m in (1, 2, 5):
        for p in (Poly([Fraction(1, 3), 0, 2]), bernoulli.gb_polynomial(m, 3),
                  Poly([5]), Poly.zero()):
            c = bernoulli.expand_in_gb_basis(p, m)
            ok &= bernoulli.combine_gb_basis(c, m) == p
    out.append(_result("basis expansion round trip", ok))

    ok = all(bernoulli.recurrence_residual(m, n).is_zero()
             for m, n in ((1, 2), (2, 3), (5, 6), (3, 8)))
    out.append(_result("recurrence residual is zero", ok))
    ok = all(bernoulli.ode_residual(m, n).is_zero()
             for m, n in ((1, 1), (2, 4), (4, 7), (5, 5)))
    out.append(_result("differential equation residual is zero", ok))

    fam = bernoulli.family(3)
    ok = all(fam.boundary(k) == bernoulli.gb_polynomial(3, k)(1) for k in range(15))
    out.append(_result("boundary cache equals polynomial at 1", ok))
    return out


def check_fourier(prec: int = DEFAULT_PRECISION) -> list:
    out = []
    # the classical references 2/(2 pi k)^n at prec + 64 bits, so the worst
    # relative error is the library's and not the references' own rounding
    with mp.workprec(prec + 64):
        twopi = 2 * mp.pi
        ok = True
        worst = mp.mpf(0)
        tol = mp.mpf(2) ** (20 - prec)
        for n in range(2, 8):
            fc = periodic.fourier_coeffs(1, n, 25, prec)
            for k in range(1, 26):
                if n % 2 == 0:
                    r = n // 2
                    ref_a = (-1) ** (r - 1) * 2 / (twopi * k) ** (2 * r)
                    ref_b = mp.mpf(0)
                else:
                    r = (n - 1) // 2
                    ref_a = mp.mpf(0)
                    ref_b = (-1) ** (r - 1) * 2 / (twopi * k) ** (2 * r + 1)
                da = abs(fc.a[k - 1] - ref_a)
                db = abs(fc.b[k - 1] - ref_b)
                scale = max(abs(ref_a), abs(ref_b))
                worst = max(worst, da / scale, db / scale)
                ok &= da <= tol * scale and db <= tol * scale
        out.append(_result("level-1 coefficients reduce to classical forms",
                           ok, f"worst rel err {mp.nstr(worst, 3)}"))

    with mp.workprec(prec):
        ok = True
        for m, n in ((2, 1), (5, 2), (3, 3)):
            a0 = periodic.fourier_a0(m, n)
            direct = bernoulli.gb_polynomial(m, n).definite_integral(0, 1)
            ok &= a0 == 2 * Fraction(direct, factorial(n))
        out.append(_result("a0 equals twice the mean of p_n", ok))

        ok = True
        for m, n in ((2, 2), (5, 4)):
            ps = periodic.fourier_partial_sum(m, n, 0, 10**4, prec)
            avg = to_mpf(periodic.dirichlet_average(m, n), prec)
            ok &= abs(ps - avg) <= mp.mpf("1e-3")
        out.append(_result("partial sums approach the Dirichlet average at 0", ok))

        ok = True
        for m, n in ((2, 2), (4, 5)):
            x = mp.mpf("0.37")
            errs = []
            for h in (mp.mpf("1e-3"), mp.mpf("1e-4")):
                fd = (periodic.periodic_eval(m, n + 1, x + h, prec)
                      - periodic.periodic_eval(m, n + 1, x - h, prec)) / (2 * h)
                errs.append(abs(fd - periodic.periodic_eval(m, n, x, prec)))
            # central difference is O(h^2): two decades of h^2 gain, with slack
            ok &= errs[1] <= errs[0] * mp.mpf("0.02") + mp.mpf(2) ** (-prec // 2)
        out.append(_result("derivative relation off the integers", ok))

        ok = True
        for m in range(1, 6):
            for n in range(1, 11):
                ze = periodic.zeta_expansion(m, n, prec)
                ok &= ze.c_exact == periodic.zeta_expansion_exact_oracle(m, n)
        out.append(_result("zeta-built expansion equals exact subtraction", ok))
    return out


def check_zeta(prec: int = DEFAULT_PRECISION) -> list:
    out = []
    ok = all(zeta_even.zeta_even_via_gb(m, r).q == zeta_even.euler_zeta(r).q
             for m in range(1, 7) for r in range(1, 9))
    out.append(_result("m-independence of zeta(2r), m<=6, r<=8", ok))
    ok = all(zeta_even.delta_term(1, r).q == 0 for r in range(1, 9))
    out.append(_result("level-1 correction term vanishes", ok))
    ok = all(zeta_even.zeta2_via_peri12(m).q == Fraction(1, 6) for m in range(1, 11))
    out.append(_result("midpoint identity gives zeta(2) = pi^2/6, m<=10", ok))
    ok = all(zeta_even.zeta_even_via_gb(m, 1).q == zeta_even.zeta2_via_peri12(m).q
             for m in range(1, 11))
    out.append(_result("r=1 relation agrees with the midpoint identity", ok))
    with mp.workprec(prec):
        ref = mp.mpf(ZETA2_REF)
        val = zeta_even.euler_zeta(1).to_mpf(prec)
        out.append(_result("zeta(2) numeric sanity", abs(val - ref) <= mp.mpf("1e-27")))
    return out


def check_quad(prec: int = DEFAULT_PRECISION) -> list:
    out = []
    with mp.workprec(prec):
        ok = True
        poly = Poly([Fraction(1, 3), -2, 0, Fraction(5, 7), 0, 1, Fraction(-1, 2)])
        for m in (1, 2, 5):
            fs = quadrature.poly_stack(poly, prec)
            rep = quadrature.em_unit(fs, m, 7, prec)
            exact = to_mpf(poly.definite_integral(0, 1), prec)
            ok &= rep.remainder == 0
            ok &= abs(rep.total - exact) <= mp.mpf(2) ** (16 - prec)
        out.append(_result("unit rule exact for degree-6 polynomials at r=7", ok))

        ok = all(quadrature.product_integral(m, r, n)
                 == quadrature.product_integral_oracle(m, r, n)
                 for m in range(1, 5) for r in range(1, 9) for n in range(1, 9))
        out.append(_result("product integral equals polynomial oracle", ok))

        Bcl = bernoulli.classical_bernoulli(16)
        ok = all(quadrature.product_integral(1, s, r)
                 == Fraction((-1) ** (s + 1) * factorial(s) * factorial(r),
                             factorial(s + r)) * Bcl[s + r]
                 for s in range(1, 9) for r in range(1, 9))
        out.append(_result("classical product-integral reduction", ok))

        ok = all(quadrature.l2_norm_sq(m, n) == quadrature.product_integral(m, n, n)
                 for m in range(1, 5) for n in range(1, 9))
        out.append(_result("L2 norm equals self product integral", ok))

        fs = quadrature.exp_stack(prec)
        target = mp.e - 1
        ok = True
        for m in (1, 2, 5):
            for r in (1, 2, 4):
                for nsub in (4, 16):
                    rep = quadrature.em_composite(fs, 0, 1, nsub, m, r, prec)
                    ok &= abs(rep.total - target) <= mp.mpf(2) ** (40 - prec)
                    ok &= abs(rep.remainder) <= rep.remainder_bound
        out.append(_result("composite rule self-consistency on exp", ok))

        ok = True
        for (m, n) in ((1, 2), (2, 1), (2, 2)):
            rhs = to_mpf(quadrature.parseval_rhs(m, n), prec)
            res = quadrature.parseval_residual(m, n, 20000, prec)
            ok &= res <= mp.mpf("1e-3") * rhs
            ok &= quadrature.parseval_residual(m, n, 2000, prec) > res
        out.append(_result("Parseval partial sums close on the exact value", ok))

        mu = quadrature.sup_norm(5, 2, prec)
        ok = abs(mu - to_mpf(Fraction(1700, 21), prec)) <= mp.mpf(2) ** (8 - prec) * mu
        mu2 = quadrature.sup_norm(1, 1, prec)
        ok &= abs(mu2 - mp.mpf("0.5")) <= mp.mpf(2) ** (8 - prec)
        # the label names the method sup_norm used once; check stdout keeps it
        out.append(_result("sup norms at exact critical points", ok))
    return out


def check_series(prec: int = DEFAULT_PRECISION) -> list:
    out = []
    with mp.workprec(prec):
        pf3 = series.PowerFunction(3, prec)
        ok = True
        worst = mp.mpf(0)
        for m in (1, 2, 5):
            for r in (1, 2, 4, 6):
                for (p, n) in ((5, 40), (10, 80)):
                    res = series.finite_identity_residual(pf3, m, r, p, n, prec)
                    rel = res / abs(pf3.exact_integral(p, n, prec))
                    worst = max(worst, rel)
                    ok &= rel <= mp.mpf(2) ** (40 - prec)
        out.append(_result("finite identity closes across the grid", ok,
                           f"worst rel residual {mp.nstr(worst, 3)}"))

        e = series.rho_tail(pf3, 1, 6, 10, None, prec)
        ok = e.value == 0 and series.rho(pf3, 1, 6, 5, 50, prec) == 0
        out.append(_result("level-1 jump series vanishes", ok))

        est3 = series.estimate_series(pf3, 5, 2, 100, prec)
        ref3 = mp.mpf(ZETA3_REF)
        ok = abs(est3.value - ref3) <= max(est3.error_bound, mp.mpf("5e-19"))
        out.append(_result("zeta(3) estimate lands within its bound", ok))

        pf5 = series.PowerFunction(5, prec)
        est5 = series.estimate_series(pf5, 2, 6, 30, prec)
        ok = abs(est5.value - mp.mpf(ZETA5_REF)) <= max(est5.error_bound, mp.mpf("5e-19"))
        out.append(_result("zeta(5) estimate lands within its bound", ok))

        loose = series.estimate_series(pf3, 5, 2, 100, prec, tol=mp.mpf("1e-20"))
        tight = series.estimate_series(pf3, 5, 2, 100, prec, tol=mp.mpf("1e-30"))
        out.append(_result("tighter tolerance never worsens the bound",
                           tight.error_bound <= loose.error_bound))

        pf1 = series.PowerFunction(1, prec)
        g1 = series.euler_constant(pf1, 1, 6, prec).value
        g2 = series.euler_constant(pf1, 2, 6, prec).value
        ref = mp.mpf(EULER_GAMMA_REF)
        ok = abs(g1 - ref) <= mp.mpf("1e-13") and abs(g1 - g2) <= mp.mpf("1e-20")
        out.append(_result("Euler's constant, two levels agree", ok))

        v1 = series.convergence_verdict(pf3, 2, 2, prec)
        v2 = series.convergence_verdict(pf1, 2, 2, prec)
        v3 = series.convergence_verdict(series.cos_sqrt_over_x_stack(prec), 2, 2, prec)
        ok = (v1 == series.BOTH_CONVERGE and v2 == series.BOTH_DIVERGE
              and v3 == series.BOTH_CONVERGE)
        out.append(_result("convergence verdicts", ok, f"{v1}/{v2}/{v3}"))
    return out


SUITES = {
    "core": check_core,
    "fourier": check_fourier,
    "zeta": check_zeta,
    "quad": check_quad,
    "series": check_series,
}


def run_suite(name: str, prec: int = DEFAULT_PRECISION) -> list:
    if name == "all":
        results = []
        for key, suite in SUITES.items():
            results += [(f"{key}: {n}", ok, d) for n, ok, d in suite(prec)]
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](prec)
