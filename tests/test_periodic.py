"""Periodic functions, Fourier coefficients, and the zeta-linked expansion."""

from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest
from mpmath.libmp import from_rational, round_nearest

from gbzeta import bernoulli, periodic
from gbzeta.bigfloat import _round_fixed, to_mpf
from gbzeta.periodic import (
    dirichlet_average,
    fourier_a0,
    fourier_coeffs,
    fourier_partial_sum,
    jump_terms,
    periodic_eval,
    zeta_expansion,
    zeta_expansion_exact_oracle,
)

F = Fraction
P = 256


def test_periodic_eval_level_one():
    with mp.workprec(P):
        assert abs(periodic_eval(1, 1, mp.mpf("0.25"), P) + mp.mpf("0.25")) <= mp.mpf(2) ** -240
        # periodicity
        assert abs(periodic_eval(1, 1, mp.mpf("7.25"), P) + mp.mpf("0.25")) <= mp.mpf(2) ** -230


def test_periodic_eval_right_limit_at_integers():
    with mp.workprec(P):
        v = periodic_eval(2, 1, mp.mpf(0), P)
        assert abs(v - to_mpf(F(-2, 3), P)) <= mp.mpf(2) ** -240
        # same value one period later
        assert periodic_eval(2, 1, mp.mpf(3), P) == v


def test_periodic_eval_equals_polynomial_route():
    # the cached coefficient row gives B_n(u)/n! bit for bit as Poly.eval_mpf
    # and mp.factorial do, at every precision, for mpf and exact x
    for prec in (64, 256, 1024):
        for m, n in ((1, 0), (1, 3), (2, 1), (3, 20), (5, 7)):
            p = bernoulli.gb_polynomial(m, n)
            for x in (mp.mpf("0.37"), mp.mpf("-7.25"), 3, F(2, 5)):
                with mp.workprec(prec):
                    u = to_mpf(x % 1, prec) if isinstance(x, (int, F)) else x - mp.floor(x)
                    ref = +(p.eval_mpf(u, prec) / mp.factorial(n))
                assert periodic_eval(m, n, x, prec) == ref, (prec, m, n, x)


def test_fourier_level_one_even():
    fc = fourier_coeffs(1, 2, 1, P)
    with mp.workprec(P):
        assert abs(fc.a[0] - 2 / (2 * mp.pi) ** 2) <= mp.mpf(2) ** (20 - P)
        assert fc.b[0] == 0
    assert fc.a0 == 0


def test_fourier_degree_one_any_level():
    for m in (1, 2, 5):
        fc = fourier_coeffs(m, 1, 3, P)
        mf = factorial(m)
        assert fc.a0 == 2 * F(mf * (m - 1), 2 * (m + 1))
        with mp.workprec(P):
            for k in (1, 2, 3):
                assert fc.a[k - 1] == 0
                ref = -2 * mf / (2 * mp.pi * k)
                assert abs(fc.b[k - 1] - ref) <= abs(ref) * mp.mpf(2) ** (20 - P)


def test_fourier_m2_n2():
    fc = fourier_coeffs(2, 2, 1, P)
    with mp.workprec(P):
        assert abs(fc.a[0] - 2 * 2 / (2 * mp.pi) ** 2) <= mp.mpf(2) ** (20 - P)
        ref_b = -(mp.mpf(2) / (2 * mp.pi)) * F(1, 3).numerator / F(1, 3).denominator / 1
        ref_b = -(2 / (2 * mp.pi)) / 3
        assert abs(fc.b[0] - ref_b) <= abs(ref_b) * mp.mpf(2) ** (20 - P)


def test_fourier_m1_reduction_grid():
    with mp.workprec(P):
        twopi = 2 * mp.pi
        tol = mp.mpf(2) ** (20 - P)
        for n in range(2, 8):
            fc = fourier_coeffs(1, n, 40, P)
            for k in range(1, 41):
                if n % 2 == 0:
                    r = n // 2
                    ref = (-1) ** (r - 1) * 2 / (twopi * k) ** (2 * r)
                    assert abs(fc.a[k - 1] - ref) <= abs(ref) * tol
                    assert fc.b[k - 1] == 0
                else:
                    r = (n - 1) // 2
                    ref = (-1) ** (r - 1) * 2 / (twopi * k) ** (2 * r + 1)
                    assert fc.a[k - 1] == 0
                    assert abs(fc.b[k - 1] - ref) <= abs(ref) * tol


def test_coefficient_decay():
    # |a_k| <= C_a/k^2 and |b_k| <= C_b/k with constants built from the jumps
    from gbzeta.bernoulli import family

    for m, n in ((2, 3), (5, 2), (3, 6)):
        fam = family(m)
        fc = fourier_coeffs(m, n, 50, P)
        with mp.workprec(P):
            twopi = 2 * mp.pi
            c_a = sum(
                2 * abs(to_mpf(F(fam.jump(n - 2 * j - 1), factorial(n - 2 * j - 1)), P))
                / twopi ** (2 * j + 2)
                for j in range(n // 2) if n - 2 * j - 1 >= 1
            )
            c_b = sum(
                2 * abs(to_mpf(F(fam.jump(n - 2 * j), factorial(n - 2 * j)), P))
                / twopi ** (2 * j + 1)
                for j in range(n // 2 + 1) if n - 2 * j >= 1
            )
            slack = 1 + mp.mpf(2) ** (16 - P)
            for k in range(1, 51):
                assert abs(fc.a[k - 1]) <= c_a / k**2 * slack
                assert abs(fc.b[k - 1]) <= c_b / k * slack


def test_a0_is_twice_the_mean():
    from gbzeta.bernoulli import gb_polynomial

    for m, n in ((2, 1), (3, 4), (5, 2)):
        mean = F(gb_polynomial(m, n).definite_integral(0, 1), factorial(n))
        assert fourier_a0(m, n) == 2 * mean


def test_partial_sum_at_zero_level_one():
    with mp.workprec(P):
        ps = fourier_partial_sum(1, 2, mp.mpf(0), 10**4, P)
        # tail bound sum_{k>K} 2/(2 pi k)^2 < 1/(2 pi^2 K)
        assert abs(ps - to_mpf(F(1, 12), P)) <= mp.mpf("2e-5")
        # odd case: the series value at 0 is the midpoint of the jump, i.e. 0
        ps1 = fourier_partial_sum(1, 1, mp.mpf(0), 37, P)
        assert ps1 == 0


def test_partial_sum_interior_point():
    with mp.workprec(P):
        ps = fourier_partial_sum(2, 2, mp.mpf("0.5"), 10**4, P)
        direct = periodic_eval(2, 2, mp.mpf("0.5"), P)
        assert abs(ps - direct) <= mp.mpf("1e-4")


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (5, 4)])
def test_dirichlet_average_at_integers(m, n):
    with mp.workprec(P):
        ps = fourier_partial_sum(m, n, mp.mpf(0), 10**4, P)
        assert abs(ps - to_mpf(dirichlet_average(m, n), P)) <= mp.mpf("1e-3")


def test_derivative_relation_off_integers():
    with mp.workprec(P):
        x = mp.mpf("0.37")
        for m, n in ((2, 2), (5, 3)):
            errs = []
            for h in (mp.mpf("1e-3"), mp.mpf("1e-4")):
                fd = (periodic_eval(m, n + 1, x + h, P) - periodic_eval(m, n + 1, x - h, P)) / (2 * h)
                errs.append(abs(fd - periodic_eval(m, n, x, P)))
            # O(h^2) Richardson behaviour: 100x drop expected, allow 50x
            assert errs[1] <= errs[0] / 50


def test_zeta_expansion_examples():
    for m in (2, 3, 5):
        ze = zeta_expansion(m, 2, P)
        mf = factorial(m)
        assert ze.c_exact[1] == F(mf * (m - 1), 2 * (m + 1))
        # c0 = p_2(0) - m! * 2 zeta(2)/(2 pi)^2 = B_2/2 - m!/12
        from gbzeta.bernoulli import gb_numbers

        assert ze.c_exact[0] == F(gb_numbers(m, 2)[2], 2) - F(mf, 12)


def test_zeta_expansion_level_one_vanishes():
    for n in (1, 2, 5, 9):
        ze = zeta_expansion(1, n, P)
        assert all(c == 0 for c in ze.c_exact)
        assert all(c == 0 for c in ze.c)


def test_zeta_expansion_cross_check_grid():
    for m in range(1, 6):
        for n in range(1, 11):
            ze = zeta_expansion(m, n, P)
            oracle = zeta_expansion_exact_oracle(m, n)
            assert ze.c_exact == oracle
            with mp.workprec(P):
                for c, o in zip(ze.c, oracle):
                    assert abs(c - to_mpf(o, P)) <= (abs(c) + 1) * mp.mpf(2) ** (20 - P)


def test_zeta_expansion_evaluates_periodic_function():
    # both sides independently computable at an interior point
    m, n = 3, 5
    ze = zeta_expansion(m, n, P)
    with mp.workprec(P):
        x = mp.mpf("0.3")
        poly_part = mp.mpf(0)
        for j, c in enumerate(ze.c):
            poly_part += c * x**j
        total = poly_part + factorial(m) * periodic_eval(1, n, x, P)
        direct = periodic_eval(m, n, x, P)
        assert abs(total - direct) <= abs(direct) * mp.mpf(2) ** (20 - P)


def test_argument_validation():
    with pytest.raises(ValueError):
        fourier_coeffs(2, 0, 5, P)
    with pytest.raises(ValueError):
        fourier_coeffs(2, 2, -1, P)
    with pytest.raises(ValueError):
        periodic_eval(2, -1, mp.mpf(0), P)
    with pytest.raises(ValueError):
        zeta_expansion(2, 0, P)


@pytest.mark.parametrize("call", [
    lambda: fourier_partial_sum(1, 2, mp.inf, 5, P),
    lambda: periodic_eval(2, 2, mp.nan, P),
    lambda: fourier_partial_sum(2, 0, mp.mpf("0.3"), 5, P),
    lambda: fourier_partial_sum(2, 2, mp.mpf("0.3"), -1, P),
], ids=["partial-sum-inf", "eval-nan", "partial-sum-n0", "partial-sum-K-negative"])
def test_partial_sum_and_eval_reject_bad_arguments(call):
    with pytest.raises(ValueError):
        call()


def _ref_coeffs(m, n, ks, wp):
    # {k: (a_k, b_k, sum of |terms|)}: c/(2 pi k)^p summed directly at wp bits
    a_terms, b_terms = jump_terms(m, n)
    out = {}
    with mp.workprec(wp):
        a_w = [(p, to_mpf(c, wp)) for p, c in a_terms]
        b_w = [(p, to_mpf(c, wp)) for p, c in b_terms]
        twopi = 2 * mp.pi
        for k in ks:
            inv = 1 / (twopi * k)
            ta = [c * inv**p for p, c in a_w]
            tb = [c * inv**p for p, c in b_w]
            out[k] = (mp.fsum(ta), mp.fsum(tb), mp.fsum(map(abs, ta + tb)))
    return out


@pytest.mark.parametrize("prec", [256, 1024])
def test_fourier_coeffs_within_fixed_point_bound(prec):
    # |a_k - exact| <= n 2^-W + 2^-prec |exact|, b_k likewise with n + 1
    # units; the reference at prec + 64 is within 2^-(prec+56) of its sum of
    # |terms|
    for m in (1, 2, 3, 5):
        for n in range(1, 9):
            a_terms, b_terms = jump_terms(m, n)
            for K in (40, 3000):
                W, a_tab, b_tab = periodic._fixed_kernel(m, n, K, prec)
                if m == 1 and n >= 3:
                    # level 1 has one jump, so its Horner list has gaps
                    assert 0 in a_tab + b_tab
                fc = fourier_coeffs(m, n, K, prec)
                assert fc.K == K
                ks = sorted({*range(1, min(K, 40) + 1), *range(K, 0, -97)})
                with mp.workprec(prec + 64):
                    unit = mp.mpf(2) ** -W
                    for k, (ra, rb, mass) in _ref_coeffs(m, n, ks, prec + 64).items():
                        slack = mass * mp.mpf(2) ** -(prec + 56)
                        bound_a = n * unit + abs(ra) * mp.mpf(2) ** -prec + slack
                        bound_b = (n + 1) * unit + abs(rb) * mp.mpf(2) ** -prec + slack
                        assert abs(fc.a[k - 1] - ra) <= bound_a, (m, n, K, k)
                        assert abs(fc.b[k - 1] - rb) <= bound_b, (m, n, K, k)
                        # the guard bits keep prec bits against the terms
                        near = mass * mp.mpf(2) ** (1 - prec)
                        assert abs(fc.a[k - 1] - ra) <= near and abs(fc.b[k - 1] - rb) <= near
                        if not a_terms:
                            assert fc.a[k - 1] == 0
                        if not b_terms:
                            assert fc.b[k - 1] == 0


XS = [F(0), F(1, 2), F(1, 4), F(3, 4), F(1, 3), F(2, 5), F(1, 7), F(-3, 7), 10**6 + F(2, 5)]
KS = (0, 1, 37, 1000, 3000)


def _ref_partial_sums(m, n, x, coeffs, wp):
    # {K: S_K} with the phase of k x from k p mod q, exactly reduced
    p, q = x.numerator, x.denominator
    out = {}
    with mp.workprec(wp):
        phase = [(mp.cospi(mp.mpf(2 * j) / q), mp.sinpi(mp.mpf(2 * j) / q)) for j in range(q)]
        total = to_mpf(fourier_a0(m, n), wp) / 2
        out[0] = total
        for k in range(1, KS[-1] + 1):
            c, s = phase[k * p % q]
            a, b, _ = coeffs[k]
            total += a * c + b * s
            if k in KS:
                out[k] = total
    return out


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("m,n", [(1, 1), (3, 4)])
def test_partial_sum_within_rotation_bound(m, n, prec):
    # the bound of fourier_partial_sum for its binary x,
    #     2^-W sum_{k<=K} [2 (n + 1) + 3 k (|a_k| + |b_k|)] + 2^-prec |S_K|,
    # plus 2 pi |x - x_prec| sum_k k (|a_k| + |b_k|) for rounding x to prec
    # bits; an exact (Fraction) x is reduced mod 1 before any rounding, so it
    # gets the bound without that phase term. Quarter angles rotate exactly,
    # so their 3 k term is dropped
    wp = prec + 64
    coeffs = _ref_coeffs(m, n, range(1, KS[-1] + 1), wp)
    for x in XS:
        ref = _ref_partial_sums(m, n, x, coeffs, wp)
        xf = to_mpf(x, prec)
        quarter = (4 * x).denominator == 1
        for K in KS:
            W = periodic._fixed_kernel(m, n, K, prec)[0]
            with mp.workprec(wp):
                moment = mp.fsum(k * (abs(coeffs[k][0]) + abs(coeffs[k][1]))
                                 for k in range(1, K + 1))
                mass = mp.fsum(coeffs[k][2] for k in range(1, K + 1))
                rotation = 0 if quarter else 3 * moment
                bound = (mp.mpf(2) ** -W * (2 * (n + 1) * K + rotation)
                         + abs(ref[K]) * mp.mpf(2) ** -prec
                         + (1 + mass) * mp.mpf(2) ** -(prec + 48))
                phase = 2 * mp.pi * abs(xf - to_mpf(x, wp)) * moment
            got = fourier_partial_sum(m, n, xf, K, prec)
            assert abs(got - ref[K]) <= bound + phase, (x, K)
            got = fourier_partial_sum(m, n, x, K, prec)
            assert abs(got - ref[K]) <= bound, ("exact", x, K)
    # every a_k is 0 at level 1 and odd n, and the phases at 0 and 1/2 are
    # exact, so these partial sums are exactly 0
    if (m, n) == (1, 1):
        for K in KS:
            assert fourier_partial_sum(1, 1, 0, K, prec) == 0
            assert fourier_partial_sum(1, 1, F(1, 2), K, prec) == 0


def test_exact_x_is_reduced_before_rounding():
    # an exact x and its fractional part are the same point of p_n
    for prec in (256, 1024):
        for m, n in ((1, 3), (3, 2)):
            x = 10**6 + F(2, 5)
            assert periodic_eval(m, n, x, prec) == periodic_eval(m, n, F(2, 5), prec)
            assert (fourier_partial_sum(m, n, x, 37, prec)
                    == fourier_partial_sum(m, n, F(2, 5), 37, prec))


def _per_value_ints(a_tab, b_tab, K):
    # the per-value route the whole rows replaced: (a_k 2^W, b_k 2^W) for
    # k = 1..K, Horner in 1/k^2 with floor division, one k at a time
    for k in range(1, K + 1):
        k2 = k * k
        a = b = 0
        for c in reversed(a_tab):
            a = c + a // k2
        for c in reversed(b_tab):
            b = c + b // k2
        yield a // k2, b // k


def _per_value_kernel(m, n, K, prec):
    # W and both tables built afresh, past the caches
    W = periodic._fixed_kernel(m, n, K, prec)[0]
    return (W, *(periodic._fixed_table(terms, W) for terms in jump_terms(m, n)))


def _per_value_coeffs(m, n, K, prec):
    W, a_tab, b_tab = _per_value_kernel(m, n, K, prec)
    pairs = list(_per_value_ints(a_tab, b_tab, K))
    return ([_round_fixed(a, W, prec) for a, _ in pairs],
            [_round_fixed(b, W, prec) for _, b in pairs])


def _per_value_partial_sum(m, n, x, K, prec):
    # the former route of fourier_partial_sum: the phase of k x rotated at the
    # width for prec, with an exact sum over the per-value integers
    W, a_tab, b_tab = _per_value_kernel(m, n, K, prec)
    if isinstance(x, (int, F)):
        t = to_mpf(2 * (x % 1), W + 32)
    else:
        t = mp.ldexp(to_mpf(x, prec), 1)
    with mp.workprec(W + 16):
        X = int(mp.nint(mp.ldexp(mp.cospi(t), W)))
        Y = int(mp.nint(mp.ldexp(mp.sinpi(t), W)))
    c, s, total = 1 << W, 0, 0
    for a, b in _per_value_ints(a_tab, b_tab, K):
        c, s = (c * X - s * Y) >> W, (s * X + c * Y) >> W
        total += a * c + b * s
    a0 = fourier_a0(m, n)
    num = (a0.numerator << 2 * W) + 2 * a0.denominator * total
    return mp.make_mpf(from_rational(num, a0.denominator << (2 * W + 1), prec, round_nearest))


@pytest.mark.parametrize("prec", [256, 1024])
def test_rows_equal_the_per_value_route(prec):
    # whole integer rows, one conversion pass and cached tables give every
    # a_k, b_k bit for bit as the per-value route. The partial sums are
    # compared with the former rotation route, which rounds other
    # intermediates at a narrower width: both round the sums at these angles
    # alike, but that is not assured elsewhere (next to 0 or 1/2 at level 1,
    # odd n, where the sum is tiny, the two can differ in their last bits)
    xs = [F(0), F(1, 3), F(1, 4), 10**6 + F(2, 5), to_mpf(F(1, 7), prec)]
    for m in (1, 2, 3, 5):
        for n in range(1, 9):
            for K in (0, 1, 40, 3000):
                fc = fourier_coeffs(m, n, K, prec)
                ref_a, ref_b = _per_value_coeffs(m, n, K, prec)
                assert [v._mpf_ for v in fc.a] == [v._mpf_ for v in ref_a], (m, n, K)
                assert [v._mpf_ for v in fc.b] == [v._mpf_ for v in ref_b], (m, n, K)
                for x in xs:
                    got = fourier_partial_sum(m, n, x, K, prec)
                    assert got._mpf_ == _per_value_partial_sum(m, n, x, K, prec)._mpf_, (m, n, K, x)


def test_tables_are_cached_tuples_per_width():
    # W depends on K only through bitlen(K), so K = 1000 and 1023 share one
    # table, and K = 1024 takes a wider one
    W, a_tab, b_tab = periodic._fixed_kernel(3, 5, 1000, P)
    assert type(a_tab) is tuple and type(b_tab) is tuple
    W2, a2, b2 = periodic._fixed_kernel(3, 5, 1023, P)
    assert W2 == W and a2 is a_tab and b2 is b_tab
    W3, a3, _ = periodic._fixed_kernel(3, 5, 1024, P)
    assert W3 > W and a3 is not a_tab
    # the exact jump row is cached too; jump_terms still hands out new lists
    assert periodic._jumps(3, 5) is periodic._jumps(3, 5)
    assert jump_terms(3, 5) == jump_terms(3, 5) and jump_terms(3, 5)[0] is not jump_terms(3, 5)[0]


@pytest.mark.parametrize("prec", [256, 1024])
def test_partial_sum_within_recurrence_bound(prec):
    # fourier_partial_sum's stated bound at its width W for prec + 2 bitlen(K),
    #     2^-W sum_{k<=K} [(n + 2)(k + 1) + k^2 (|a_k| + k |b_k|)] + 2^-prec |S_K|,
    # against a direct sum at prec + 64 bits, and never above the rotation
    # bound 2^-W0 sum_{k<=K} [2 (n + 1) + 3 k (|a_k| + |b_k|)] at the width W0
    # for prec. The mpf angles next to 0 and 1/2 are where |U_k(cos 2 pi x)|
    # peaks; their phases come from rotating e^(2 pi i x) at prec + 80 bits
    wp = prec + 64
    ks = (0, 1, 2, 37, 1000, 3000)
    tiny = mp.ldexp(mp.mpf(1), -30)
    xs = [tiny, mp.mpf(0.5) + tiny, 1 - tiny, to_mpf(F(1, 7), prec),
          F(1, 3), F(-3, 7), 10**6 + F(2, 5)]
    phases = []
    for x in xs:
        if isinstance(x, F):
            p, q = x.numerator, x.denominator
            with mp.workprec(wp):
                cs = [(mp.cospi(mp.mpf(2 * j) / q), mp.sinpi(mp.mpf(2 * j) / q)) for j in range(q)]
            phases.append([cs[k * p % q] for k in range(1, ks[-1] + 1)])
        else:
            with mp.workprec(wp + 16):
                z, w, row = mp.expjpi(2 * x), mp.mpc(1), []
                for _ in range(ks[-1]):
                    w *= z
                    row.append((w.real, w.imag))
            phases.append(row)
    for m, n in ((1, 1), (1, 2), (3, 4), (5, 6)):
        coeffs = _ref_coeffs(m, n, range(1, ks[-1] + 1), wp)
        for K in ks:
            W = periodic._partial_sum_kernel(m, n, K, prec)[0]
            W0 = periodic._fixed_kernel(m, n, K, prec)[0]
            with mp.workprec(wp):
                ab = [(abs(coeffs[k][0]), abs(coeffs[k][1])) for k in range(1, K + 1)]
                new = mp.ldexp(mp.fsum((n + 2) * (k + 1) + k * k * (a + k * b)
                                       for k, (a, b) in enumerate(ab, 1)), -W)
                old = mp.ldexp(mp.fsum(2 * (n + 1) + 3 * k * (a + b)
                                       for k, (a, b) in enumerate(ab, 1)), -W0)
                assert new <= old, (m, n, K)
                mass = mp.fsum(coeffs[k][2] for k in range(1, K + 1))
            for x, phase in zip(xs, phases):
                with mp.workprec(wp):
                    ref = to_mpf(fourier_a0(m, n), wp) / 2 + mp.fsum(
                        coeffs[k][0] * c + coeffs[k][1] * s
                        for k, (c, s) in enumerate(phase[:K], 1))
                    bound = new + abs(ref) * mp.mpf(2) ** -prec + (1 + mass) * mp.mpf(2) ** -(prec + 48)
                got = fourier_partial_sum(m, n, x, K, prec)
                assert abs(got - ref) <= bound, (m, n, K, x)
