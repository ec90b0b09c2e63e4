"""Generalized Bernoulli numbers/polynomials: tables, identities, caching."""

import sys
import threading
from fractions import Fraction
from math import comb, factorial

import pytest

from gbzeta import bernoulli
from gbzeta.bernoulli import (
    GBFamily,
    classical_bernoulli,
    combine_gb_basis,
    expand_in_gb_basis,
    gb_numbers,
    gb_polynomial,
    ode_residual,
    recurrence_residual,
)
from gbzeta.polyrat import Poly

F = Fraction


def test_number_tables():
    assert gb_numbers(1, 4) == [1, F(-1, 2), F(1, 6), 0, F(-1, 30)]
    assert gb_numbers(2, 3) == [2, F(-2, 3), F(1, 9), F(1, 45)]
    assert gb_numbers(5, 3) == [120, -20, F(20, 21), F(5, 21)]


def test_number_generic_start():
    for m in range(1, 8):
        B = gb_numbers(m, 1)
        assert B[0] == factorial(m)
        assert B[1] == F(-factorial(m), m + 1)


def test_polynomial_examples():
    assert gb_polynomial(1, 2) == Poly([F(1, 6), -1, 1])
    assert gb_polynomial(2, 1) == Poly([F(-2, 3), 2])
    assert gb_polynomial(5, 2) == Poly([F(20, 21), -40, 120])


@pytest.mark.parametrize("m", range(1, 7))
def test_first_four_closed_forms(m):
    mf = factorial(m)
    assert gb_polynomial(m, 0) == Poly([mf])
    assert gb_polynomial(m, 1) == Poly([F(-mf, m + 1), mf])
    assert gb_polynomial(m, 2) == Poly(
        [F(2 * mf, (m + 1) ** 2 * (m + 2)), F(-2 * mf, m + 1), mf]
    )
    assert gb_polynomial(m, 3) == Poly(
        [
            F(6 * (m - 1) * mf, (m + 1) ** 3 * (m + 2) * (m + 3)),
            F(6 * mf, (m + 1) ** 2 * (m + 2)),
            F(-3 * mf, m + 1),
            mf,
        ]
    )


def test_classical_reduction_against_recurrence():
    # the m = 1 stream must satisfy the independent classical recurrence
    B = classical_bernoulli(20)
    for n in range(2, 21):
        assert sum(comb(n, k) * B[k] for k in range(n)) == 0
    assert all(B[n] == 0 for n in range(3, 20, 2))


def test_inversion_formula_direct():
    # x^n = sum_k C(n,k) k!/(m+k)! B_{n-k}(x), checked as polynomials
    for m in (1, 2, 5):
        for n in (0, 1, 2, 5):
            acc = Poly.zero()
            for k in range(n + 1):
                c = comb(n, k) * F(factorial(k), factorial(m + k))
                acc = acc + gb_polynomial(m, n - k).scale(c)
            assert acc == Poly.monomial(n)


def test_expand_basis_element():
    for m in (1, 3, 6):
        assert expand_in_gb_basis(gb_polynomial(m, 3), m) == [0, 0, 0, 1]


def test_expand_x_squared_level_one():
    # solved by hand from the 3x3 triangular system
    assert expand_in_gb_basis(Poly.monomial(2), 1) == [F(1, 3), 1, 1]


def test_expand_zero():
    assert expand_in_gb_basis(Poly.zero(), 4) == []


@pytest.mark.parametrize("m", (1, 2, 4))
def test_expand_round_trip(m):
    p = Poly([F(3, 7), F(-1, 2), 0, 5, F(2, 9)])
    assert combine_gb_basis(expand_in_gb_basis(p, m), m) == p


@pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (5, 6), (3, 9)])
def test_recurrence_residual_zero(m, n):
    assert recurrence_residual(m, n).is_zero()


@pytest.mark.parametrize("m,n", [(1, 1), (2, 4), (4, 7), (6, 3)])
def test_ode_residual_zero(m, n):
    assert ode_residual(m, n).is_zero()


def test_appell_property_grid():
    for m in range(1, 7):
        for n in range(1, 21):
            assert gb_polynomial(m, n).derivative() == gb_polynomial(m, n - 1).scale(n)


def test_integral_formula():
    for m in (1, 2, 5):
        for n in (1, 4, 7):
            p = gb_polynomial(m, n)
            q = gb_polynomial(m, n + 1)
            for x0, x1 in ((F(0), F(1)), (F(-2, 3), F(7, 5))):
                assert p.definite_integral(x0, x1) == (q(x1) - q(x0)) / (n + 1)


def test_boundary_cache_coherence():
    fam = bernoulli.family(4)
    for k in range(12):
        assert fam.boundary(k) == gb_polynomial(4, k)(1)
        assert fam.jump(k) == gb_polynomial(4, k)(1) - gb_polynomial(4, k)(0)


def test_argument_validation():
    with pytest.raises(ValueError):
        gb_numbers(0, 5)
    with pytest.raises(ValueError):
        gb_numbers(2, -1)
    with pytest.raises(ValueError):
        gb_polynomial(3, -2)
    with pytest.raises(ValueError):
        recurrence_residual(2, 0)
    # a negative index must not wrap around the cached lists
    fam = GBFamily(2)
    fam.numbers(5)
    for get in (fam.number, fam.boundary, fam.jump):
        with pytest.raises(ValueError):
            get(-1)


def test_concurrent_growth():
    fam = GBFamily(3)
    errs = []

    def grow(n):
        try:
            fam.numbers(n)
        except Exception as exc:  # pragma: no cover
            errs.append(exc)

    threads = [threading.Thread(target=grow, args=(60 + 5 * i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errs
    assert fam.numbers(60) == bernoulli.family(3).numbers(60)


def test_scaled_table_consistent_under_concurrent_growth():
    # readers of the scaled table (a, d) race writers that rescale it; each
    # pair a reader holds, and each value read through number, boundary and
    # jump, must give the numbers of the level exactly
    ref = GBFamily(2).numbers(120)
    ref_jump = [gb_polynomial(2, k)(1) - ref[k] for k in range(121)]
    fam = GBFamily(2)
    errs = []

    def work(i):
        try:
            for n in range(10 + i, 121, 7):
                a, d = fam._scaled(n)
                for k in (0, n // 2, n):
                    if F(factorial(k) * a[k], d) != ref[k]:
                        errs.append((i, n, k))
                # each read may grow the table past what the reader holds
                k = min(n + 3, 120)
                if (fam.number(k), fam.jump(k), fam.boundary(k)) != (
                        ref[k], ref_jump[k], ref[k] + ref_jump[k]):
                    errs.append((i, n, k, "views"))
        except Exception as exc:  # pragma: no cover
            errs.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errs


def _weight_reference(m, nmax):
    # {kind: [W_k/(m! k!)]} uncached: B_k from the inversion formula, B_k(1)
    # from the full sum over C(k,j) B_j, the jump their difference
    B = _inversion_reference(m, nmax)
    bnd = [sum((comb(k, j) * B[j] for j in range(k + 1)), F(0)) for k in range(nmax + 1)]
    scale = [F(1, factorial(m) * factorial(k)) for k in range(nmax + 1)]
    return {"number": [x * w for x, w in zip(B, scale)],
            "boundary": [x * w for x, w in zip(bnd, scale)],
            "jump": [(x - y) * w for x, y, w in zip(bnd, B, scale)]}


@pytest.mark.parametrize("m", (1, 2, 5))
def test_weight_rows_grow_with_the_table(m):
    # a row read at nmax = 10, then the table grown to 200, which rescales d:
    # the rows equal the uncached weights, and a row handed out earlier is
    # left as it was
    ref = _weight_reference(m, 200)
    fam = GBFamily(m)
    early = {kind: fam._weights(kind, 10) for kind in ref}
    copies = {kind: list(c) for kind, (c, _) in early.items()}
    d10 = fam._scaled(10)[1]
    assert fam._scaled(200)[1] != d10
    for kind, (c, e) in early.items():
        assert list(c) == copies[kind]
        assert [F(x, e) for x in c[:11]] == ref[kind][:11], kind
        c, e = fam._weights(kind, 200)
        assert [F(x, e) for x in c[:201]] == ref[kind], kind
        assert fam._weights(kind, 150) == (c, e)  # served from the table, not rebuilt


def test_unknown_weight_kind_raises_before_growth():
    fam = GBFamily(3)
    table = fam._table
    with pytest.raises(ValueError, match="unknown weight kind"):
        fam._weights("bogus", 50)
    assert fam._table is table


def test_weight_rows_consistent_under_concurrent_growth():
    # readers take weight rows while another thread grows the table in steps,
    # each of which may rescale d; every (row, e) a reader holds gives the
    # exact weights
    ref = _weight_reference(3, 160)
    fam = GBFamily(3)
    errs, reads = [], []
    done, start = threading.Event(), threading.Barrier(5)

    def grow():
        try:
            start.wait()
            for n in range(5, 161, 3):
                fam.numbers(n)
        except Exception as exc:  # pragma: no cover
            errs.append(exc)
        finally:
            done.set()

    def read(i):
        try:
            start.wait()
            while not done.is_set():
                reads.append(i)
                for kind in ref:
                    n = len(fam._table[0]) - 1
                    c, e = fam._weights(kind, n)
                    for k in (0, n // 2, n):
                        if F(c[k], e) != ref[kind][k]:
                            errs.append((i, kind, n, k))
        except Exception as exc:  # pragma: no cover
            errs.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow)]
        threads += [threading.Thread(target=read, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errs
    assert len(reads) > 4


def _inversion_reference(m, nmax):
    # the inversion formula at x = 0, term by term in Fractions:
    # B_n = -m! sum_{k=1}^{n} C(n,k) k!/(m+k)! B_{n-k}
    mf = factorial(m)
    B = [F(mf)]
    for n in range(1, nmax + 1):
        s = F(0)
        for k in range(1, n + 1):
            s += comb(n, k) * F(factorial(k), factorial(m + k)) * B[n - k]
        B.append(-mf * s)
    return B


@pytest.mark.parametrize("m", range(1, 8))
def test_scaled_recurrence_equals_inversion_formula(m):
    assert GBFamily(m).numbers(150) == _inversion_reference(m, 150)


def test_level_one_against_sympy():
    sympy = pytest.importorskip("sympy")
    B = GBFamily(1).numbers(200)
    assert B[1] == F(-1, 2)  # sympy's B_1 is +1/2
    for n in (0, *range(2, 201)):
        ref = sympy.Rational(sympy.bernoulli(n))
        assert B[n] == F(int(ref.p), int(ref.q)), n


@pytest.mark.parametrize("m", range(1, 8))
def test_boundary_identity_equals_full_sum(m):
    # B_n(1) from the O(m) identity against sum_j C(n,j) B_j
    fam = GBFamily(m)
    B = fam.numbers(120)
    for n in range(121):
        assert fam.boundary(n) == sum((comb(n, j) * B[j] for j in range(n + 1)), F(0)), n


@pytest.mark.parametrize("m", (1, 2, 3, 5, 7))
def test_coeff_abs_sum_from_table(m):
    from gbzeta import series

    for r in range(131):
        assert series._coeff_abs_sum(m, r) == gb_polynomial(m, r).coeff_abs_sum(), r


@pytest.mark.parametrize("m", (1, 4))
def test_growth_in_steps_equals_cold(m):
    stepped, cold = GBFamily(m), GBFamily(m)
    stepped.numbers(10)
    assert stepped.numbers(150) == cold.numbers(150)
    assert ([stepped.boundary(n) for n in range(151)]
            == [cold.boundary(n) for n in range(151)])
