"""Euler-Maclaurin rules, product integrals, Parseval, sup norms."""

from fractions import Fraction
from math import comb, factorial, lcm

import mpmath as mp
import pytest
from mpmath.libmp import from_rational, round_ceiling

from gbzeta import quadrature
from gbzeta.bernoulli import classical_bernoulli, family, gb_polynomial
from gbzeta.bigfloat import to_mpf
from gbzeta.periodic import fourier_a0, fourier_coeffs
from gbzeta.polyrat import Poly
from gbzeta.quadrature import (
    FunctionStack,
    em_composite,
    em_unit,
    exp_stack,
    l2_norm_sq,
    parseval_residual,
    parseval_rhs,
    poly_stack,
    product_integral,
    product_integral_oracle,
    sup_norm,
)
from gbzeta.series import PowerFunction, exp_decay_stack

F = Fraction
P = 256


def test_em_unit_constant():
    rep = em_unit(poly_stack(Poly([1]), P), 2, 1, P)
    with mp.workprec(P):
        assert rep.remainder == 0
        assert abs(rep.main_sum - 1) <= mp.mpf(2) ** (8 - P)
        assert abs(rep.total - 1) <= mp.mpf(2) ** (8 - P)


def test_em_unit_linear():
    rep = em_unit(poly_stack(Poly([0, 1]), P), 2, 1, P)
    with mp.workprec(P):
        assert abs(rep.main_sum - to_mpf(F(2, 3), P)) <= mp.mpf(2) ** (8 - P)
        assert abs(rep.remainder - to_mpf(F(-1, 6), P)) <= mp.mpf(2) ** (8 - P)
        assert abs(rep.total - to_mpf(F(1, 2), P)) <= mp.mpf(2) ** (8 - P)


def test_em_unit_poly_below_order():
    p = Poly([F(1, 3), -2, 0, F(5, 7)])
    rep = em_unit(poly_stack(p, P), 3, 5, P)
    with mp.workprec(P):
        assert rep.remainder == 0
        assert abs(rep.total - to_mpf(p.definite_integral(0, 1), P)) <= mp.mpf(2) ** (10 - P)


@pytest.mark.parametrize("m", (1, 2, 5))
def test_em_unit_exactness_grid(m):
    p = Poly([F(1, 3), -2, 0, F(5, 7), 0, 1, F(-1, 2)])
    rep = em_unit(poly_stack(p, P), m, 7, P)
    with mp.workprec(P):
        assert rep.remainder == 0
        assert abs(rep.total - to_mpf(p.definite_integral(0, 1), P)) <= mp.mpf(2) ** (16 - P)
        assert abs(rep.remainder) <= rep.remainder_bound


def test_em_composite_exp():
    fs = exp_stack(P)
    rep = em_composite(fs, 0, 1, 4, 3, 3, P)
    with mp.workprec(P):
        assert abs(rep.total - (mp.e - 1)) <= abs(mp.e - 1) * mp.mpf(2) ** (30 - P)
        assert abs(rep.remainder) <= rep.remainder_bound


def test_em_composite_cubic_exact():
    p = Poly([1, F(-3, 2), 0, F(7, 3)])
    for m in (1, 4):
        rep = em_composite(poly_stack(p, P), 0, 2, 3, m, 4, P)
        with mp.workprec(P):
            assert rep.remainder == 0
            assert abs(rep.total - to_mpf(p.definite_integral(0, 2), P)) <= mp.mpf(2) ** (16 - P)


def _poly_remainder_exact(p, a, b, n_sub, m, r):
    # int_a^b p minus the composite main sum, all in Fraction: the weights
    # W_k/(m! k!) = c_k/e from the level's table, at the nodes a + j h
    h = F(b - a, n_sub)
    ders = [p]
    for _ in range(r):
        ders.append(ders[-1].derivative())

    def dsum(kind, xs):
        c, e = family(m)._weights(kind, r)
        return sum((-1) ** (k + 1) * F(c[k], e) * h**k * sum(ders[k - 1](x) for x in xs)
                   for k in range(1, r + 1))

    inner = [a + j * h for j in range(1, n_sub)]
    main = dsum("boundary", [b]) - dsum("number", [a]) + dsum("jump", inner)
    return p.definite_integral(a, b) - main


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("a,b,n_sub,m,r", [(0, 2, 4, 2, 3), (-1, 1, 2, 5, 4), (0, 2, 8, 3, 6),
                                           (1, 3, 4, 1, 2), (0, 1, 1, 2, 5)])
def test_poly_remainder_within_one_unit(a, b, n_sub, m, r, prec):
    # the derivatives evaluate at em_composite's working precision, prec + 32,
    # so the remainder, which cancels the leading bits of int p and the main
    # sum, is within one unit in its last place of the exact one; evaluated
    # at prec they were off by up to 34598 units here
    p = Poly([F(1, 3), -2, 0, F(5, 7), 0, 1, F(-1, 2)])
    rep = em_composite(poly_stack(p, prec), a, b, n_sub, m, r, prec)
    exact = _poly_remainder_exact(p, a, b, n_sub, m, r)
    with mp.workprec(prec + 64):
        x = to_mpf(exact, prec + 64)
        assert abs(rep.remainder - x) <= mp.ldexp(1, mp.mag(x) - prec)


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("a,b", [(0, 2), (-1, F(1, 2))])
def test_em_composite_poly_at_orders_up_to_degree(a, b, prec):
    # r <= degree: the remainder is int p - main_sum, and remainder_bound
    # must cover it. The coefficient bound (b - a) sum |c_i| max(|a|,|b|)^i
    # on int |p^(k)| lies above a quadrature of |p^(k)|, and is exactly 0
    # past the degree; on [-1, 1/2], max(|a|,|b|) comes from a, and max(a, b)
    # in its place falls below the quadrature at k = 2, 3
    p = Poly([F(1, 3), -2, 0, F(5, 7), 0, 1, F(-1, 2)])
    fs = poly_stack(p, prec)
    lo, hi = to_mpf(a, prec), to_mpf(b, prec)
    assert fs.abs_deriv_integral(7, lo, hi, prec) == 0
    for k in range(7):
        got = fs.abs_deriv_integral(k, lo, hi, prec)
        with mp.workprec(64):
            fk = fs.deriv(k)
            ref = mp.quad(lambda x: abs(fk(x)), mp.linspace(lo, hi, 31))
            assert got >= ref * (1 - mp.mpf(2) ** -30), (k, got, ref)
    for m in (1, 2, 5):
        for r in (1, 3, 6):
            rep = em_composite(fs, a, b, 3, m, r, prec)
            with mp.workprec(prec + 64):
                exact = to_mpf(p.definite_integral(a, b), prec + 64)
                assert abs(rep.total - exact) <= mp.mpf(2) ** (16 - prec), (m, r)
                assert abs(exact - rep.main_sum) <= rep.remainder_bound, (m, r)


def test_em_composite_order_two():
    fs = exp_stack(P)
    with mp.workprec(P):
        target = mp.e - 1
        errs = []
        for nsub in (4, 8, 16, 32):
            rep = em_composite(fs, 0, 1, nsub, 2, 2, P)
            errs.append(abs(rep.main_sum - target))
        for lo, hi in zip(errs[1:], errs[:-1]):
            ratio = hi / lo
            assert 2**1.8 <= ratio <= 2**2.2


@pytest.mark.parametrize("m", (1, 2, 5))
@pytest.mark.parametrize("r", (1, 2, 4))
def test_em_composite_self_consistency(m, r):
    fs = exp_stack(P)
    with mp.workprec(P):
        target = mp.e - 1
        for nsub in (4, 16):
            rep = em_composite(fs, 0, 1, nsub, m, r, P)
            assert abs(rep.total - target) <= abs(target) * mp.mpf(2) ** (40 - P)


def _power_integral(s, a, b, wp):
    # int_a^b x^-s in closed form at wp bits, s > 1
    with mp.workprec(wp):
        t = to_mpf(s, wp)
        return (to_mpf(a, wp) ** (1 - t) - to_mpf(b, wp) ** (1 - t)) / (t - 1)


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("s,a,b,n_sub,m,r", [
    (F(3), 1, 2, 1, 1, 6),
    (F(3, 2), F(1, 8), 1, 4, 2, 3),
    (F(2), 1, 4, 1, 1, 2),
])
def test_em_composite_total_is_the_closed_form(s, a, b, n_sub, m, r, prec):
    # x^-s has an exact integral, so the remainder is int f - main_sum: total
    # is the integral to rounding, and remainder_bound bounds the true
    # remainder I - main_sum
    rep = em_composite(PowerFunction(s, prec), a, b, n_sub, m, r, prec)
    exact = _power_integral(s, a, b, prec + 64)
    with mp.workprec(prec + 64):
        assert abs(rep.total - exact) <= mp.mpf(2) ** (8 - prec) * abs(exact)
        assert abs(exact - rep.main_sum) <= rep.remainder_bound


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("stack,a,b", [
    ("x^-1", F(1, 2), 3),
    ("x^-3/2", F(1, 2), 3),
    ("x^-3", 1, F(7, 2)),
    ("exp", -1, 2),
    ("exp(-x)", F(1, 4), 5),
])
def test_abs_deriv_integral_against_quad(stack, a, b, prec):
    fs = {"x^-1": lambda: PowerFunction(1, prec),
          "x^-3/2": lambda: PowerFunction(F(3, 2), prec),
          "x^-3": lambda: PowerFunction(3, prec),
          "exp": lambda: exp_stack(prec),
          "exp(-x)": lambda: exp_decay_stack(prec)}[stack]()
    a, b = to_mpf(a, prec), to_mpf(b, prec)
    for k in range(7):
        got = fs.abs_deriv_integral(k, a, b, prec)
        # the evaluators follow the working precision, so the reference is
        # mpmath's quadrature of |f^(k)| at prec + 32 bits
        with mp.workprec(prec + 32):
            fk = fs.deriv(k)
            ref = mp.quad(lambda x: abs(fk(x)), [a, b])
            assert abs(got - ref) <= mp.mpf(2) ** (8 - prec) * ref, (k, got, ref)


def test_exp_stack_follows_the_working_precision():
    # the evaluator is not tied to the precision the stack was built with
    fs = exp_stack(128)
    with mp.workprec(512):
        assert fs.f(1) == +mp.e
        assert fs.deriv(3)(mp.mpf(-2)) == mp.exp(-2)
        ref = mp.e - 1
    # and its integrals are taken at the precision they are asked for
    with mp.workprec(128):
        got = fs.abs_deriv_integral(4, 0, 1, 512)
    with mp.workprec(512):
        assert abs(got - ref) <= mp.mpf(2) ** -500


def test_product_integral_examples():
    assert product_integral(1, 1, 1) == F(1, 12)
    assert product_integral(1, 1, 2) == 0
    assert product_integral(2, 2, 2) == product_integral_oracle(2, 2, 2)


def test_product_integral_oracle_grid():
    for m in range(1, 5):
        for r in range(1, 9):
            for n in range(1, 9):
                assert product_integral(m, r, n) == product_integral_oracle(m, r, n)


def test_product_integral_classical_reduction():
    B = classical_bernoulli(16)
    for s in range(1, 9):
        for r in range(1, 9):
            ref = F((-1) ** (s + 1) * factorial(s) * factorial(r), factorial(s + r)) * B[s + r]
            assert product_integral(1, s, r) == ref


def test_l2_norm_examples():
    assert l2_norm_sq(1, 1) == F(1, 12)
    assert l2_norm_sq(1, 2) == F(1, 180)
    assert l2_norm_sq(5, 3) == product_integral_oracle(5, 3, 3)


def test_l2_norm_grid():
    for m in range(1, 5):
        for n in range(1, 9):
            assert l2_norm_sq(m, n) == product_integral(m, n, n)


def test_parseval_residual_decreases():
    with mp.workprec(P):
        r_small = parseval_residual(2, 1, 2000, P)
        r_big = parseval_residual(2, 1, 10**5, P)
        assert r_big < r_small


@pytest.mark.parametrize("m,n", [(1, 2), (2, 1), (2, 2), (5, 3)])
def test_parseval_residual_small(m, n):
    with mp.workprec(P):
        rhs = to_mpf(parseval_rhs(m, n), P)
        assert parseval_residual(m, n, 10**5, P) <= mp.mpf("1e-4") * rhs


def test_parseval_consistency_with_l2():
    # l2 = (n!)^2 [a0^2/4 + (1/2) sum (a_k^2+b_k^2)] up to the K-truncation
    for m, n in ((2, 1), (2, 2)):
        with mp.workprec(P):
            K = 20000
            partial = quadrature.parseval_partial_sum(m, n, K, P)
            a0 = to_mpf(fourier_a0(m, n), P)
            lhs = factorial(n) ** 2 * (a0**2 / 4 + 2 * partial)
            # A,B are the half coefficients: (1/2) sum a^2+b^2 = 2 sum A^2+B^2
            ref = to_mpf(l2_norm_sq(m, n), P)
            assert abs(lhs - ref) <= abs(ref) * mp.mpf("1e-3")


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parseval_partial_sum_matches_fourier_coeffs(m, n):
    # both are built from periodic.jump_terms; A_k = a_k/2, B_k = b_k/2
    K = 50
    with mp.workprec(P):
        fc = fourier_coeffs(m, n, K, P)
        ref = sum((a * a + b * b for a, b in zip(fc.a, fc.b)), mp.mpf(0)) / 4
        partial = quadrature.parseval_partial_sum(m, n, K, P)
        assert abs(partial - ref) <= mp.mpf(2) ** (16 - P) * ref


def test_sup_norm_examples():
    with mp.workprec(P):
        tol = mp.mpf(2) ** (8 - P)
        assert abs(sup_norm(1, 2, P) - to_mpf(F(1, 6), P)) <= tol
        v = sup_norm(5, 2, P)
        assert abs(v - to_mpf(F(1700, 21), P)) <= tol * v
        assert abs(sup_norm(1, 1, P) - mp.mpf("0.5")) <= tol
        assert abs(sup_norm(3, 0, P) - 6) <= tol * 6


def _exact(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _interior_max(p, wp):
    # max |p| over the real roots of p' in (0, 1), located by mpmath.polyroots
    d = p.derivative()
    best = mp.mpf(0)
    if d.degree < 1:
        return best
    with mp.workprec(wp):
        for z in mp.polyroots([to_mpf(q, wp) for q in reversed(d.coeffs)],
                              maxsteps=200, extraprec=wp):
            if abs(mp.im(z)) < mp.mpf(2) ** (-wp // 2) and 0 < mp.re(z) < 1:
                best = max(best, abs(p.eval_mpf(mp.re(z), wp)))
    return best


def test_sup_norm_dominates_samples():
    # an upper bound: exactly at the points i/200, which include both ends, and
    # against the largest |B_r| at a critical point; tight: within 2^(2-prec).
    # (3,6), (5,12) and (5,16) have interior maxima that need more than 100
    # halvings at 256 bits
    grid = [(m, r, P) for m in (1, 2, 3, 5, 7) for r in (*range(13), 16, 20)]
    grid += [(1, 3, 1024), (3, 6, 1024), (5, 12, 1024), (5, 16, 1024)]
    for m, r, prec in grid:
        mu = sup_norm(m, r, prec)
        p = gb_polynomial(m, r)
        mu_exact = _exact(mu)
        assert all(abs(p(F(i, 200))) <= mu_exact for i in range(201)), (m, r, prec)
        wp = 2 * prec + 64
        with mp.workprec(wp):
            ends = max(abs(to_mpf(p(0), wp)), abs(to_mpf(p(1), wp)))
            inner = _interior_max(p, wp)
            assert inner <= mu, (m, r, prec)
            assert mu <= max(ends, inner) * (1 + mp.mpf(2) ** (2 - prec)), (m, r, prec)


def _sup_norm_fraction(m, r, prec):
    # the Fraction route: Bernstein coefficients from the exact polynomial's
    # coefficients, C(k,i)/C(r,i) a_i, over the lcm of their denominators, then
    # the same halving as sup_norm
    a = gb_polynomial(m, r).coeffs
    b = [sum(F(comb(k, i), comb(r, i)) * a[i] for i in range(k + 1)) for k in range(r + 1)]
    den = lcm(*(q.denominator for q in b))
    c = [int(q * den) for q in b]
    pieces, scale = [c], 0
    best, top = max(abs(c[0]), abs(c[-1])), max(map(abs, c))
    while top << prec > best * ((1 << prec) + 1):
        halves = [h for p in pieces for h in quadrature._halves(p)]
        scale += r
        best = max(best << r, *(abs(h[0]) for h in halves))
        bounds = [max(map(abs, h)) for h in halves]
        top = max(best, *bounds)
        pieces = [h for h, u in zip(halves, bounds) if u > best]
    return mp.make_mpf(from_rational(top, den << scale, prec, round_ceiling))


@pytest.mark.parametrize("prec,rs", [(64, (*range(41), 51, 64, 77, 90, 102)),
                                     (256, (*range(0, 41, 3), 64, 102)),
                                     (1024, (0, 1, 2, 9, 20, 33))])
def test_sup_norm_matches_fraction_route(prec, rs):
    # the coefficients from the integer table are the same rationals, so every
    # bit of the bound is the same
    for m in (1, 2, 3, 5, 7):
        for r in rs:
            assert sup_norm(m, r, prec) == _sup_norm_fraction(m, r, prec), (m, r, prec)


def test_function_stack_spot_check_rejects_bad_derivative():
    def f(x):
        return mp.mpf(x) ** 3

    def bad_derivs(k):
        return lambda x: mp.mpf(x)  # wrong on purpose

    with pytest.raises(ValueError):
        FunctionStack(f=f, derivs=bad_derivs, r_max=2, check=True, prec=P)


def test_function_stack_spot_check_accepts_good_derivative():
    def f(x):
        return mp.mpf(x) ** 3

    derivs = {1: lambda x: 3 * mp.mpf(x) ** 2, 2: lambda x: 6 * mp.mpf(x)}
    fs = FunctionStack(f=f, derivs=lambda k: derivs[k], r_max=2, check=True, prec=P)
    assert fs.deriv(0) is f
    with pytest.raises(ValueError):
        fs.deriv(3)


def test_em_rejects_excessive_order():
    def f(x):
        return mp.mpf(x)

    fs = FunctionStack(f=f, derivs=lambda k: (lambda x: mp.mpf(1)), r_max=1, check=False)
    with pytest.raises(ValueError):
        em_unit(fs, 2, 2, P)
    with pytest.raises(ValueError):
        em_composite(fs, 0, 1, 2, 2, 2, P)
    with pytest.raises(ValueError, match="at least 1"):
        em_composite(fs, 0, 1, 2, 2, 0, P)
