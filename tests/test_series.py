"""Series estimator: notation pieces, certified tails, worked examples."""

from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest

from gbzeta import bernoulli, series
from gbzeta.bigfloat import to_mpf
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


def _power_tail_sum(t, J, prec):
    # sum_{j>=J} j^-t: the k = 1 tail of the batched power tails
    with mp.workprec(prec):
        return series._power_tails(PowerFunction(t, prec), [1], J,
                                   series._default_tol(prec), prec)[0]


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
    # non-integer and integer exponents; J < 64 exercises the direct terms
    for prec in (256, 1024):
        for t in (F(3, 2), F(7, 2), F(5, 3), F(2), F(5)):
            for J in (1, 21, 64, 165):
                cv = _power_tail_sum(t, J, prec)
                with mp.workprec(prec + 64):
                    ref = mp.zeta(mp.mpf(t.numerator) / t.denominator, J)
                    assert abs(cv.value - ref) <= cv.bound, (prec, t, J)


def _far_bound_reference(pf, m, orders, J, tol, prec):
    # the per-exponent order choice: one fractional power of J per order tried
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


def _power_tail_reference(t, J, tol, prec):
    # one exponent at a time: a fresh PowerFunction(t) and the generic sigma~
    J0 = max(J, 64)
    pf = PowerFunction(t, prec)
    direct = mp.mpf(0)
    for j in range(J, J0):
        direct += pf._pow(j, -t)
    r, bound = _far_bound_reference(pf, 1, range(8, 97, 8), J0, tol, prec)
    integral = pf._pow(J0, 1 - t) / to_mpf(t - 1, prec)
    value = direct + integral + sigma_tilde(pf, 1, r, J0, prec)
    return value, bound + series._rounding_slack(value, prec)


def _jump_weights(m, orders):
    # exact [(k, (-1)^(k+1) (B_k(1)-B_k)/(m! k!))] over the orders with a nonzero jump
    fam = bernoulli.family(m)
    weights = [(k, (-1) ** (k + 1) * Fraction(fam.jump(k), factorial(m) * factorial(k)))
               for k in orders]
    return [(k, c) for k, c in weights if c]


def _jump_tail_reference(pf, m, orders, J, tol, prec):
    weights = _jump_weights(m, orders)
    per = tol / max(len(weights), 1)
    total = mp.mpf(0)
    bound = mp.mpf(0)
    for k, c in weights:
        cf = to_mpf(c * (-1) ** (k - 1) * pf.pochhammer(k - 1), prec)
        value, b = _power_tail_reference(pf.s + k - 1, J, per, prec)
        total += cf * value
        bound += abs(cf) * b
    return total, bound


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("s", [F(3, 2), F(2), F(3), F(7, 2), F(5)])
def test_batched_jump_tail_matches_per_exponent_route(s, prec):
    pf = PowerFunction(s, prec)
    with mp.workprec(prec):
        tol = series._default_tol(prec) / 2
        for J in (2, 21, 165):
            got = series._jump_tail(pf, 2, range(2, 41), J, tol, prec)
            value, bound = _jump_tail_reference(pf, 2, range(2, 41), J, tol, prec)
            # equal bounds up to rounding mean the same orders were chosen
            assert abs(got.bound - bound) <= bound * mp.mpf(2) ** (16 - prec), J
            assert abs(got.value - value) <= series._rounding_slack(value, prec), J


@pytest.mark.parametrize("s", [F(3, 2), F(3)])
def test_batched_jump_tail_over_delta_tail_orders(s):
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
    with mp.workprec(prec):
        tiny = mp.mpf(2) ** -1325
        n = len(_jump_weights(2, orders))
        pw = series._RisingPowers(s, 613, pf._pow(613, 1 - s))
        chosen = {series._far_bound(pw, k, 1, series._TAIL_ORDERS, tiny / n, prec)[0]
                  for k in orders}
        assert 96 in chosen and min(chosen) < 96 and len(pw.U) > 191
        for tol in (series._default_tol(prec) / 2, tiny):
            got = series._jump_tail(pf, 2, orders, 613, tol, prec)
            value, bound = _jump_tail_reference(pf, 2, orders, 613, tol, prec)
            assert abs(got.bound - bound) <= bound * mp.mpf(2) ** (16 - prec)
            assert abs(got.value - value) <= series._rounding_slack(value, prec)


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
        g1 = euler_constant(pf1, 1, 6, P)
        g2 = euler_constant(pf1, 2, 6, P)
        assert abs(g1 - ref) <= mp.mpf("1e-13")
        assert abs(g2 - ref) <= mp.mpf("1e-13")
        assert abs(g1 - g2) <= mp.mpf("1e-20")


def test_euler_constant_x_squared_closed_form():
    # gamma(x^-2) = zeta(2) - 1 since int_1^n t^-2 -> 1
    from gbzeta.zeta_even import euler_zeta

    pf2 = PowerFunction(2, P)
    g = euler_constant(pf2, 2, 6, P)
    with mp.workprec(P):
        ref = euler_zeta(1).to_mpf(P) - 1
        assert abs(g - ref) <= mp.mpf("1e-30")


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
    for prec in (256, 512):
        with mp.workprec(prec + 64):
            refs[prec] = {s: mp.zeta(mp.mpf(s.numerator) / s.denominator) for s in SWEEP_S}
    return refs


@pytest.mark.parametrize("prec", [256, 512])
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
    value, err = series._remainder_block(PowerFunction(s, prec), m, r, q1, q1 + 3, prec)
    ref = _remainder_quad_reference(s, m, r, q1, q1 + 3, prec + 192)
    with mp.workprec(prec + 192):
        assert abs(value - ref) <= err
    # the rounding term is of the order of the w = prec + 64 bit unit
    assert err <= abs(ref) * mp.mpf(2) ** (24 - prec - 64) + mp.mpf(2) ** (24 - prec - 64)


@pytest.mark.parametrize("s,m,r", [(F(3, 2), 1, 6), (F(3), 2, 3), (F(7, 2), 5, 1), (F(1), 3, 2)])
def test_remainder_R_agrees_with_block_far_out(s, m, r):
    # far from the pole the Gauss cells and the identity agree to rounding
    pf = PowerFunction(s, P)
    value, _ = series._remainder_block(pf, m, r, 100, 164, P)
    gauss = remainder_R(pf, m, r, 100, 164, P)
    with mp.workprec(P):
        assert abs(value - gauss) <= series._rounding_slack(value, P)


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("m,r", [(1, 2), (2, 6), (5, 4)])
@pytest.mark.parametrize("stack", ["x^-3", "x^-3/2", "exp(-x)"])
def test_remainder_R_is_em_composite_remainder(stack, m, r, prec):
    # remainder_R runs no Gauss loop of its own: it is em_composite's remainder
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
