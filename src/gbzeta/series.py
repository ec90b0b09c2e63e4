"""Series-versus-integral machinery built on the level-m composite rule.

With h = 1 the composite rule ties sum_{j} f(j) to int f through four pieces:
boundary sums sigma/sigma~ weighted by B_k, B_k(1), the interior jump series
rho (vanishing at level 1), and the periodized integral remainder R. Solving
the identity at infinity estimates convergent series such as zeta(2k+1); all
infinite tails are certified, each carrying an explicit error bound.

Normalization: R and its tail delta carry the 1/m! of the composite rule, the
only choice under which the finite identity closes, to rounding: R is
quadrature.em_composite's remainder, int f minus the main sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, gcd
from operator import mul
from typing import Optional

import mpmath as mp
from mpmath.libmp import round_ceiling

from . import bernoulli
from .bigfloat import (DEFAULT_PRECISION, _power_sums, _round_fixed, decimal_str, scaled_power,
                       to_mpf)
from .quadrature import (FunctionStack, _check_order, _derivative_sum, _weight_row, em_composite,
                         sup_norm)


class TailNotCertifiableError(RuntimeError):
    """Raised when an infinite tail cannot be bounded from the given stack."""


@dataclass
class CertifiedValue:
    """A numeric value together with a rigorous bound on its error."""

    value: object
    bound: object


def _default_tol(prec: int):
    return mp.mpf(2) ** (-(prec // 2))


def _rounding_slack(value, prec: int):
    # chosen, not derived, for float work: the tails of generic stacks and the
    # mpf sum that assembles the estimate. Fixed-point sums of j^-s and the
    # power tails (_certified) derive their own bounds
    return abs(value) * mp.ldexp(1, 12 - prec) + mp.ldexp(1, -prec)


def _certified(V: int, err: int, W: int, prec: int) -> CertifiedValue:
    # V 2^-W within err units, rounded once to nearest at prec, which moves it
    # by at most |V| 2^-prec <= (|V| >> prec) + 1 units; the bound rounds up
    return CertifiedValue(_round_fixed(V, W, prec),
                          _round_fixed(err + (abs(V) >> prec) + 1, W, prec, round_ceiling))


def _exponent(e: Fraction, prec: int):
    # an integer exponent stays an int, so x**e takes mpmath's integer power
    return int(e) if e.denominator == 1 else to_mpf(e, prec)


class PowerFunction(FunctionStack):
    """f(x) = x^(-s) for rational s >= 1, with everything in closed form.

    Derivatives are (-1)^k (s)_k x^(-s-k) with the rising factorial (s)_k
    kept exact; tail integrals and the sigma coefficient lists are exact
    rationals, so the estimator's boundary sums can be reported exactly.
    The stack's capabilities are its own methods and class attributes, so it
    holds no bound method of itself and dies with its last reference; it
    skips FunctionStack.__init__, which only stores callables and spot-checks.
    """

    r_max = 10**9
    limit_at_infinity = 0
    derivatives_vanish = True
    domain_lo = 0

    def __init__(self, s, prec: int = DEFAULT_PRECISION):
        s = Fraction(s)
        if s < 1:
            raise ValueError("need exponent s >= 1")
        self.s = s
        self.prec = prec
        self._poch_cache = [Fraction(1)]
        self.f = self._make_deriv(0)
        self.integral_converges = s > 1
        if s == 1:
            self.exact_tail_integral = None  # the harmonic tail diverges

    def pochhammer(self, k: int) -> Fraction:
        """(s)_k = s (s+1) ... (s+k-1)."""
        while len(self._poch_cache) <= k:
            i = len(self._poch_cache)
            self._poch_cache.append(self._poch_cache[-1] * (self.s + i - 1))
        return self._poch_cache[k]

    def _pow(self, x, e: Fraction):
        return to_mpf(x, mp.mp.prec) ** _exponent(e, mp.mp.prec)

    def _make_deriv(self, k: int):
        c = (-1) ** k * self.pochhammer(k)
        e = -(self.s + k)
        consts: dict = {}  # working precision -> (c, e) converted once

        def ev(x):
            prec = mp.mp.prec
            ce = consts.get(prec)
            if ce is None:
                ce = consts[prec] = (to_mpf(c, prec), _exponent(e, prec))
            return ce[0] * mp.mpf(x) ** ce[1]

        return ev

    _derivs = _make_deriv  # the factory FunctionStack.deriv calls

    def exact_tail_integral(self, p, prec: int = DEFAULT_PRECISION):
        with mp.workprec(prec):
            return +(self._pow(p, 1 - self.s) / to_mpf(self.s - 1, prec))

    def exact_integral(self, a, b, prec: int = DEFAULT_PRECISION):
        with mp.workprec(prec):
            if self.s == 1:
                return +(mp.log(to_mpf(b, prec)) - mp.log(to_mpf(a, prec)))
            e = 1 - self.s
            return +((self._pow(a, e) - self._pow(b, e)) / to_mpf(self.s - 1, prec))

    def abs_deriv_integral(self, k: int, a, b, prec: int = DEFAULT_PRECISION):
        # f^(k) keeps one sign on x > 0, so for k >= 1 int_a^b |f^(k)| is
        # |f^(k-1)(b) - f^(k-1)(a)| = (s)_(k-1) (a^-(s+k-1) - b^-(s+k-1)), a < b
        if k == 0:
            return self.exact_integral(a, b, prec)
        with mp.workprec(prec):
            e = -(self.s + k - 1)
            return +(to_mpf(self.pochhammer(k - 1), prec) * (self._pow(a, e) - self._pow(b, e)))

    def abs_deriv_tail(self, k: int, p, prec: int = DEFAULT_PRECISION):
        # int_p^inf |f^(k)| = (s)_k p^(1-s-k) / (s+k-1)
        with mp.workprec(prec):
            c = Fraction(self.pochhammer(k), 1) / (self.s + k - 1)
            return +(to_mpf(c, prec) * self._pow(p, 1 - self.s - k))

    def partial_sum(self, l: int, prec: int = DEFAULT_PRECISION):
        W = prec + 64 + l.bit_length()  # within l 2^-W, see the module's partial_sum
        return _round_fixed(_power_sums(self.s, range(1, l + 1), [1], W)[1], W, prec)

    def sigma_coefficients(self, m: int, r: int, boundary: bool) -> list[tuple[int, Fraction]]:
        """Exact [(k, c_k)] with sigma-type sum = sum c_k q^-(s+k-1).

        boundary=True weights with B_k(1) (the sigma of the far endpoint),
        False with B_k (the sigma~ of the near endpoint, without the f(q)).
        """
        ctil, cbar, D = self._sigma_ints(m, r)
        return [(k, Fraction(c, D)) for k, c in enumerate(cbar if boundary else ctil, 1)]

    def _sigma_ints(self, m: int, r: int) -> tuple:
        """(Ct, Cb, D): the sigma~ and sigma coefficients of sigma_coefficients
        as integers over one denominator, Ct[k-1]/D and Cb[k-1]/D for k = 1..r.

        With s = a/b and P_n = b^n (s)_n, (s)_(k-1) W_k/(m! k!) is
        P_(k-1) b^(r-k) w_k / D, D = m! (m-1)! d b^(r-1), where
        w_k = (m-1)! d W_k/k! is the level's boundary row for W_k = B_k(1) and
        (m-1)! a_k for W_k = B_k, from one read of the level's table.
        """
        a, d, _, bnd = bernoulli.family(m)._grown(r)
        sa, b, mm1f = self.s.numerator, self.s.denominator, factorial(m - 1)
        scale, P = [], 1
        for k in range(1, r + 1):
            scale.append(P * b ** (r - k))  # P_(k-1) b^(r-k)
            P *= sa + (k - 1) * b
        return ([x * mm1f * a[k] for k, x in enumerate(scale, 1)],
                [x * bnd[k] for k, x in enumerate(scale, 1)],
                factorial(m) * mm1f * d * b ** (r - 1))


def exp_decay_stack(prec: int = DEFAULT_PRECISION) -> FunctionStack:
    """f(x) = exp(-x): classical Euler-Maclaurin sanity stack.

    The evaluators work at the ambient precision, the integrals at `prec`.
    Every |f^(k)| is exp(-x), so int_a^b |f^(k)| = e^-a - e^-b, the exact
    integral, and int_p^inf |f^(k)| = e^-p.
    """

    def dk(k):
        sign = (-1) ** k

        def ev(x, sign=sign):
            return sign * mp.exp(-x)

        return ev

    def integral(a, b, prec=prec):
        with mp.workprec(prec):
            return mp.exp(-a) - mp.exp(-b)

    def tail(k, p, prec=prec):
        with mp.workprec(prec):
            return mp.exp(-p)

    return FunctionStack(
        f=dk(0),
        derivs=dk,
        r_max=10**9,
        exact_tail_integral=lambda p, prec=prec: tail(0, p, prec),
        exact_integral=integral,
        abs_deriv_integral=lambda k, a, b, prec=prec: integral(a, b, prec),
        abs_deriv_tail=tail,
        limit_at_infinity=0,
        derivatives_vanish=True,
        integral_converges=True,
        check=False,
    )


def cos_sqrt_over_x_stack(prec: int = DEFAULT_PRECISION) -> FunctionStack:
    """f(x) = cos(sqrt(x))/x with hand-derived first two derivatives.

    The tail integral of f is asserted convergent by the caller's analysis
    (integration by parts); only decreasing envelope bounds for |f'|, |f''|
    are supplied, which is all the convergence verdict needs.
    """

    def f0(x):
        x = mp.mpf(x)
        return mp.cos(mp.sqrt(x)) / x

    def f1(x):
        x = mp.mpf(x)
        u = mp.sqrt(x)
        return -mp.sin(u) / (2 * x * u) - mp.cos(u) / x**2

    def f2(x):
        x = mp.mpf(x)
        u = mp.sqrt(x)
        return -mp.cos(u) / (4 * x**2) + 5 * mp.sin(u) / (4 * x**2 * u) + 2 * mp.cos(u) / x**3

    def dk(k):
        return {1: f1, 2: f2}[k]

    def abs_tail(k, p, prec=prec):
        p = mp.mpf(p)
        if k == 1:
            # |f'| <= 1/(2 x^{3/2}) + 1/x^2
            return 1 / mp.sqrt(p) + 1 / p
        if k == 2:
            # |f''| <= 1/(4 x^2) + 5/(4 x^{5/2}) + 2/x^3
            return 1 / (4 * p) + 5 / (6 * p ** mp.mpf(1.5)) + 1 / p**2
        raise TailNotCertifiableError("tail not certifiable")

    return FunctionStack(
        f=f0,
        derivs=dk,
        r_max=2,
        abs_deriv_tail=abs_tail,
        limit_at_infinity=0,
        derivatives_vanish=True,
        integral_converges=True,
        check=True,
        check_points=(1.3, 2.7, 5.1),
        prec=prec,
    )


# ---------------------------------------------------------------------------
# the notation pieces

def partial_sum(fs: FunctionStack, l: int, prec: int = DEFAULT_PRECISION):
    """S(l) = f(1) + ... + f(l); S(0) = 0.

    A stack's partial_sum entry takes it if present: for x^-s the sum of
    scaled_power(s, j, W), W = prec + 64 + bitlen(l), each within one unit of
    2^-W, so within l 2^-W < 2^-(prec+64) before one rounding to nearest at
    prec. Others are summed in ascending order at prec.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if fs.partial_sum is not None:
        return fs.partial_sum(l, prec)
    with mp.workprec(prec):
        total = mp.mpf(0)
        for j in range(1, l + 1):
            total += fs.f(mp.mpf(j))
        return +total


def sigma_tilde(fs: FunctionStack, m: int, r: int, q, prec: int = DEFAULT_PRECISION):
    """f(q) + (1/m!) sum_{k=1}^r ((-1)^(k+1)/k!) f^(k-1)(q) B_k."""
    _check_order(fs, r)
    fs.check_domain(q, point=True)
    with mp.workprec(prec):
        q = to_mpf(q, prec)
        # the k >= 1 terms carry the 1/m!; f(q) does not
        return +(fs.f(q) + _derivative_sum(fs, _weight_row(m, "number", r, prec),
                                           range(1, r + 1), [q]))


def sigma(fs: FunctionStack, m: int, r: int, q, prec: int = DEFAULT_PRECISION):
    """(1/m!) sum_{k=1}^r ((-1)^(k+1)/k!) f^(k-1)(q) B_k(1)."""
    _check_order(fs, r)
    fs.check_domain(q, point=True)
    with mp.workprec(prec):
        q = to_mpf(q, prec)
        return +_derivative_sum(fs, _weight_row(m, "boundary", r, prec), range(1, r + 1), [q])


def sigma_infinity(fs: FunctionStack, m: int, r: int, prec: int = DEFAULT_PRECISION):
    """Limit of sigma at the far endpoint; 0 when every f^(k-1) decays."""
    if fs.derivatives_vanish and (fs.limit_at_infinity == 0):
        return mp.mpf(0)
    raise TailNotCertifiableError("sigma at infinity is not certifiable for this stack")


def rho(fs: FunctionStack, m: int, r: int, q1: int, q2: int, prec: int = DEFAULT_PRECISION):
    """(1/m!) sum_{j=q1+1}^{q2-1} sum_{k=2}^r ((-1)^(k+1)/k!)(B_k(1)-B_k) f^(k-1)(j)."""
    _check_order(fs, r)
    if q2 <= q1:
        raise ValueError("need q1 < q2")
    fs.check_domain(q1 + 1, point=True)
    with mp.workprec(prec):
        xs = [mp.mpf(j) for j in range(q1 + 1, q2)]
        return +_derivative_sum(fs, _weight_row(m, "jump", r, prec), range(2, r + 1), xs)


# ---------------------------------------------------------------------------
# certified tails

# _far_bound keeps this loose sum although quadrature.sup_norm is tight, for
# two reasons: sup_norm at the orders _far_bound tries (up to r + 96) is slow
# from a cold cache (the 80 estimates at 1024 bits and p = 100, with the far
# part of the tails then in mpf, took 161 s with it against 3.3 s, one cold
# run each, with 0 bound violations either way), and it changes the reported
# error bounds (zeta-odd --s 3 --m 5 --r 2 --p 100: 1.6239025e-42 ->
# 8.3280271e-42, since _far_bound then stops at a lower order whose bound
# just meets tol/4). So it stays loose on purpose until a 64-bit sup bound
# replaces it (ROADMAP item 2), but it builds no polynomial: it is one
# integer sum over the level's scaled number table.
def _coeff_abs_sum(m: int, r: int) -> Fraction:
    # sum_k C(r,k) |B_k| >= max_{[0,1]} |B_r|; with B_k = k! a_k/d this is
    # sum_k |a_k| r!/(r-k)! over d, Horner in k
    a, d = bernoulli.family(m)._scaled(r)
    acc = abs(a[r])
    for k in range(r - 1, -1, -1):
        acc = acc * (r - k) + abs(a[k])
    return Fraction(acc, d)


@cache
def _far_coeff(m: int, r: int) -> tuple[int, int]:
    # A_r = coeff-sum(B_r)/(m! r!) in lowest terms, as (numerator,
    # denominator), built once per (m, r)
    A = Fraction(_coeff_abs_sum(m, r), factorial(m) * factorial(r))
    return A.numerator, A.denominator


def _cdiv(x: int, y: int) -> int:
    # ceil(x/y) for y > 0
    return -(-x // y)


class _ScaledRising:
    """U_n within err_n units of 2^W (s)_n J^-(s+n), and P_n = b^n (s)_n, s = a/b.

    U_n 2^-W is |f^(n)(J)| for f = x^-s, and J b U_n/(a+(n-1)b) is
    int_J^inf |f^(n)| in units of 2^-W. U_0 = scaled_power(s, J, W), within one
    unit, and U_(n+1) = U_n (a+nb) // (bJ): if U_n is within err_n of x, then
    U_n (a+nb)/(bJ) is within err_n (a+nb)/(bJ) of x (a+nb)/(bJ), and the
    floor takes under one unit more, so err_(n+1) = ceil(err_n (a+nb)/(bJ)) + 1.
    P_n is exact. Entries are made on demand (extend); one sequence serves
    every tail of one call.
    """

    def __init__(self, s: Fraction, J: int, W: int):
        self.a, self.b, self.J = s.numerator, s.denominator, J
        self.U, self.err, self.P = [scaled_power(s, J, W)], [1], [1]

    def extend(self, n: int) -> None:
        a, b, U, err, P = self.a, self.b, self.U, self.err, self.P
        bJ = b * self.J
        for i in range(len(U) - 1, n):
            c = a + i * b
            U.append(U[i] * c // bJ)
            err.append(_cdiv(err[i] * c, bJ) + 1)
            P.append(P[i] * c)


def _far_bound(seq: _ScaledRising, k: int, m: int, orders, limit: int) -> tuple:
    """(order, bound in units of 2^-W) for the level-m remainder of
    sum_{j>=J} |f^(k-1)(j)|.

    seq holds f = x^-s at J. The bound of order r is A_r int_J^inf |f^(n)|,
    n = k-1+r, that is A_r J b U_n/(a+(n-1)b) with the exact A_r = N/D of
    _far_coeff; taken with U_n + err_n and rounded up, ceil(X/Y) with
    X = N Z, Z = J b (U_n + err_n), and Y = D (a+(n-1)b), it is an upper
    bound. limit = floor(2^W tol/4), where tol applies to
    sum_{j>=J} j^-(s+k-1), the tail divided by (s)_(k-1) = P_(k-1)/b^(k-1):
    an order meets it when ceil(X/Y) b^(k-1) <= limit P_(k-1), that is
    ceil(X/Y) <= M = floor(limit P_(k-1) / b^(k-1)), that is X <= M Y. The
    first order in `orders` that meets it is taken, with its one ceil
    division; if none does, the smallest bound is taken, the first on ties.

    Bit lengths spare most of the multiplies and divisions. With
    lx = bitlen(N) + bitlen(Z) and ly = bitlen(Y), 2^(lx-2) <= X < 2^lx and
    2^(ly-1) <= Y < 2^ly. An order with lx - 2 >= bitlen(M) + ly has
    X >= 2^(bitlen(M)+ly) > M Y, so it fails without either multiply. And
    ceil(X/Y), at least 1, lies in (2^(e-2), 2^(max(e,-1)+1)], e = lx - ly;
    so when none meets, an order with e >= max(min e, -1) + 3 has a bound
    above the smallest one, and only the other orders are divided out.
    """
    a, b, U, err = seq.a, seq.b, seq.U, seq.err
    seq.extend(k - 1)
    M, Jb = limit * seq.P[k - 1] // b ** (k - 1), seq.J * b
    lm = M.bit_length()
    tried = []
    for r in orders:
        n = k - 1 + r
        if n >= len(U):
            seq.extend(n)
        N, D = _far_coeff(m, r)
        Z, Y = Jb * (U[n] + err[n]), D * (a + (n - 1) * b)
        e = N.bit_length() + Z.bit_length() - Y.bit_length()
        if e - 2 < lm and (X := N * Z) <= M * Y:
            return r, _cdiv(X, Y)
        tried.append((e, r, N, Z, Y))
    cut = max(min(t[0] for t in tried), -1) + 3
    return min(((r, _cdiv(N * Z, Y)) for e, r, N, Z, Y in tried if e < cut),
               key=lambda rb: rb[1])


_TAIL_ORDERS = range(8, 97, 8)


@cache
def _tail_row(r: int) -> tuple:
    # (c'_1, (c_2, c_4, ..., c_r), their absolute values, e_r): the level-1
    # weights B_i/i! = c_i/e_r that _power_tails uses at order r, over their
    # least denominator e_r, with c'_1 = c_1 + e_r for the f(J0) term;
    # B_i = 0 for odd i >= 3, so those are left out
    c, e = bernoulli.family(1)._weights("number", r)
    g = gcd(e, c[1], *c[2:r + 1:2])
    even = tuple(x // g for x in c[2:r + 1:2])
    return (c[1] + e) // g, even, tuple(map(abs, even)), e // g


def _power_tails(s: Fraction, ks, J: int, tol, W: int) -> list[tuple]:
    """[(T, err)]: sum_{j>=J} |f^(k-1)(j)| within err units of T 2^-W, for
    each k in ks and f = x^-s.

    That is (s)_(k-1) sum_{j>=J} j^-(s+k-1), each with t = s+k-1 > 1; tol
    applies to the sum without the (s)_(k-1). All tails share J0 =
    max(J, 64), the near block J <= j < J0 (_power_sums, within J0 - J units)
    and one _ScaledRising sequence U_n at J0, s = a/b. Beyond J0 each tail is
    the level-1 rule at the order r that _far_bound picks for tol, with
    B_i/i! = c_i/e_r from that order's module-level row (_tail_row), over
    the least denominator e_r of its weights:
        T = P_(k-1) near // b^(k-1) + J0 b U_(k-1) // (a+(k-2)b)
            + (sum_{i<=r} c'_i U_(k-2+i)) // e_r,
    c'_1 = c_1 + e_r for the f(J0) term. B_i = 0 for odd i >= 3, so the dot
    product runs over i = 1 and even i only. Its error, in units, is the far
    bound plus (s)_(k-1)(J0 - J) + J0 b err_(k-1)/(a+(k-2)b)
    + sum|c'_i| err_(k-2+i)/e_r from the sequence and the near block, rounded
    up, plus 3 for the floors. The two dot products over e_r are the same
    rationals over any common denominator of the weights, so their floor and
    ceil give the bits that one row over the lcm of all orders gives, from
    shorter integers (e_8 has 21 bits, e_96 524).
    """
    a, b = s.numerator, s.denominator
    J0 = max(J, 64)
    near = _power_sums(s, range(J, J0), ks, W)
    seq = _ScaledRising(s, J0, W)
    U, err, limit = seq.U, seq.err, int(mp.ldexp(tol, W - 2))
    out = []
    for k in ks:
        r, far = _far_bound(seq, k, 1, _TAIL_ORDERS, limit)
        g1, g_even, g_even_abs, e = _tail_row(r)
        P, bk, d = seq.P[k - 1], b ** (k - 1), a + (k - 2) * b
        # i = 1 takes U_(k-1); i = 2, 4, ..., r take U_k, U_(k+2), ..., U_(k+r-2)
        st = g1 * U[k - 1] + sum(map(mul, g_even, U[k:k + r - 1:2]))
        st_err = g1 * err[k - 1] + sum(map(mul, g_even_abs, err[k:k + r - 1:2]))
        T = P * near[k] // bk + J0 * b * U[k - 1] // d + st // e
        out.append((T, far + _cdiv(P * (J0 - J), bk) + _cdiv(J0 * b * err[k - 1], d)
                    + _cdiv(st_err, e) + 3))
    return out


def _jump_tail(s: Fraction, m: int, orders, J: int, tol, W: int) -> tuple:
    """(V, err): sum_k w_k sum_{j>=J} f^(k-1)(j) over `orders`, for f = x^-s,
    within err units of V 2^-W.

    w_k are the jump weights of rho, (B_k(1)-B_k)/(m! k!) = c_k/e from the
    level's integer table, and f^(k-1)(j) = (-1)^(k-1) |f^(k-1)(j)|, so an
    order adds w_k times its tail of |f^(k-1)|. The orders with a nonzero jump
    take those tails from one _power_tails call at the same J, each certified
    to an equal share of tol; V = (sum_k c_k T_k) // e, within
    sum |c_k| err_k / e units, rounded up, plus one for the floor.
    """
    c, e = bernoulli.family(m)._weights("jump", max(orders, default=0))
    ks = [k for k in orders if c[k]]
    tails = _power_tails(s, ks, J, tol / max(len(ks), 1), W)
    V = sum(c[k] * T for k, (T, _) in zip(ks, tails)) // e
    return V, _cdiv(sum(abs(c[k]) * n for k, (_, n) in zip(ks, tails)), e) + 1


def rho_tail(fs: FunctionStack, m: int, r: int, q1: int,
             tol=None, prec: int = DEFAULT_PRECISION) -> CertifiedValue:
    """e_r(q1) = rho(q1, infinity), with a certified error bound.

    Power stacks reduce to certified power tail sums (_jump_tail), one
    integer in units of 2^-W, W = prec + 64 + bitlen(q1), rounded once: the
    integral terms multiply the one-unit error of U_n by J. Generic stacks take
    the block rho(q1, J) directly, up to the first J whose decreasing-envelope
    integral-test bound meets tol, and need abs_deriv_tail for every order
    below r.
    """
    _check_order(fs, r)
    fs.check_domain(q1 + 1, point=True)
    with mp.workprec(prec):
        if tol is None:
            tol = _default_tol(prec)
        orders = range(2, r + 1)
        c, _ = bernoulli.family(m)._weights("jump", r)
        if not any(c[k] for k in orders):
            return CertifiedValue(mp.mpf(0), mp.mpf(0))
        if isinstance(fs, PowerFunction):
            W = prec + 64 + q1.bit_length()
            return _certified(*_jump_tail(fs.s, m, orders, q1 + 1, tol / 2, W), W, prec)
        # generic: direct summation with an integral-test envelope
        if fs.abs_deriv_tail is None:
            raise TailNotCertifiableError("tail not certifiable")
        row = _weight_row(m, "jump", r, prec)
        terms = [(abs(row[k]), k - 1, fs.deriv(k - 1)) for k in orders if row[k]]

        def envelope(J):
            env = mp.mpf(0)
            for w, n, fn in terms:
                env += w * (abs(fn(mp.mpf(J))) + fs.abs_deriv_tail(n, J, prec))
            return env

        # sum directly up to the first J whose envelope is within tol
        J = q1 + 1
        while J - q1 <= 200000 and envelope(J) > tol:
            J += 1
        total = rho(fs, m, r, q1, J, prec)
        return CertifiedValue(total, +(envelope(J) + _rounding_slack(total, prec)))


def remainder_R(fs: FunctionStack, m: int, r: int, q1: int, q2: int,
                prec: int = DEFAULT_PRECISION):
    """R_r(q1,q2) = (1/m!)((-1)^r/r!) int f^(r)(t) B_r(t - floor t) dt.

    em_composite's remainder on [q1, q2] with unit cells, int f minus the
    main sum, so the stack needs exact_integral and abs_deriv_integral
    (ValueError otherwise). delta_tail uses it only for generic stacks; for
    power stacks it takes the exact _remainder_block. R_r(q, q) = 0.
    """
    _check_order(fs, r)
    if q2 < q1:
        raise ValueError("need q1 <= q2")
    fs.check_domain(q1)
    if q1 == q2:
        return mp.mpf(0)
    return em_composite(fs, q1, q2, q2 - q1, m, r, prec).remainder


def _remainder_block(pf: PowerFunction, m: int, r: int, q1: int, Q: int,
                     W: int) -> tuple:
    """(V, err): R_r(q1, Q) within err units of V 2^-W, for f = x^-s, from the
    finite identity.

    The finite identity between q1 and Q, solved for the remainder:
    R_r(q1,Q) = int_q1^Q f - sum_{q1<j<Q} j^-s sum_{k=1}^r a_k j^-(k-1)
                - sigma_r(Q) + [sigma~_r(q1) - f(q1)],
    with a_k = cbar_k - ctil_k, the exact difference of the sigma and sigma~
    coefficients: (s)_(k-1) (B_k(1)-B_k)/(m! k!), so a_1 = 1. It is summed in
    units of 2^-W. The sum over the n = Q - q1 - 1 integers and the two sigmas
    are exact combinations of _power_sums, with the coefficients as integers
    over one denominator D (PowerFunction._sigma_ints), within n sum|a_k|,
    sum|cbar_k| and sum|ctil_k| units, floor-divided by D once (one unit).
    The integral (q1^(1-s) - Q^(1-s))/(s-1), s - 1 = u/v, is
    a difference of two scaled_power(s-1, .), times v floor-divided by u:
    within 2v/u + 1 units. For s = 1 it is mp.log at W + 16 bits, whose error
    is mpmath's: at 16 units in the last place of each log it is below
    bitlen(Q) 2^-8 units, and 1 + bitlen(Q) are counted.
    """
    s = pf.s
    orders = range(1, r + 1)
    ctil, cbar, D = pf._sigma_ints(m, r)  # the coefficients over one denominator D
    a = [cb - ct for cb, ct in zip(cbar, ctil)]
    inner = _power_sums(s, range(q1 + 1, Q), [k for k in orders if a[k - 1]], W)
    far, near = _power_sums(s, [Q], orders, W), _power_sums(s, [q1], orders, W)
    value = sum(ct * near[k] - cb * far[k] - ak * inner.get(k, 0)
                for k, ak, cb, ct in zip(orders, a, cbar, ctil)) // D
    units = sum((Q - q1 - 1) * abs(ak) + abs(cb) + abs(ct) for ak, cb, ct in zip(a, cbar, ctil))
    if s == 1:
        with mp.workprec(W + 16):
            integral = int(mp.nint(mp.ldexp(mp.log(Q) - mp.log(q1), W)))
        # 1 + bitlen(Q) for the logs, 1 for the floor, the sums over D
        return integral + value, 2 + Q.bit_length() + _cdiv(units, D)
    u, v = (s - 1).numerator, (s - 1).denominator
    integral = (scaled_power(s - 1, q1, W) - scaled_power(s - 1, Q, W)) * v // u
    # 2v/u + 1 for the integral, 1 for the floor, the sums over D
    return integral + value, 2 + _cdiv(2 * v * D + u * units, u * D)


def delta_tail(fs: FunctionStack, m: int, r: int, q1: int,
               tol=None, prec: int = DEFAULT_PRECISION) -> CertifiedValue:
    """delta_r(q1) = R_r(q1, infinity) with a certified bound.

    The block R_r(q1, Q) is taken directly. For power stacks it comes from the
    finite identity (_remainder_block), and the far tail is rewritten through
    the identity at a higher order r':
    delta_r(Q) = [sigma~_r(Q) - sigma~_r'(Q)] + [e_r'(Q) - e_r(Q)] + delta_r'(Q),
    and r', Q are raised until the sup-norm bound on delta_r'(Q) is below tol.
    The order scan and the sigma~ difference run on one _ScaledRising sequence
    at Q. The block, the sigma~ difference, the far bound and the jump tail
    are integers in units of 2^-W, W = prec + 64 + bitlen(q1) as in rho_tail,
    each with its error counted; their sum is rounded once (_certified).
    Generic stacks need abs_deriv_tail, whose bound C int_Q^inf |f^(r)|,
    C = mu_r/(m! r!), covers delta_r(Q). With exact_integral and
    abs_deriv_integral (exp(-x)) they step Q by 16 cells (at most 4096) until
    that bound drops below tol, then take the block with one remainder_R
    call. Without them the value is 0 and the bound C int_q1^inf |f^(r)|.
    """
    _check_order(fs, r)
    fs.check_domain(q1)
    with mp.workprec(prec):
        if tol is None:
            tol = _default_tol(prec)
        if isinstance(fs, PowerFunction):
            s, W = fs.s, prec + 64 + q1.bit_length()
            limit = int(mp.ldexp(tol, W - 2))
            ext = 64
            while True:
                Q = q1 + ext
                seq = _ScaledRising(s, Q, W)
                rp, far = _far_bound(seq, 1, m, range(r + 8, r + 97, 8), limit)
                if far <= limit or ext >= 512:
                    break
                ext *= 2
            direct, direct_err = _remainder_block(fs, m, r, q1, Q, W)
            # sigma~ difference: the orders r+1..rp seen from Q, where the term
            # (s)_(k-1) B_k/(m! k!) Q^-(s+k-1) is c_k U_(k-1)/e in units of
            # 2^-W: within sum |c_k| err_(k-1)/e units, and one more for the floor
            c, e = bernoulli.family(m)._weights("number", rp)
            sdiff = -(sum(map(mul, c[r + 1:], seq.U[r:rp])) // e)
            sdiff_err = _cdiv(sum(abs(x) * n for x, n in zip(c[r + 1:], seq.err[r:rp])), e) + 1
            # e difference: certified tail sums of the new jump orders
            jt, jt_err = _jump_tail(s, m, range(r + 1, rp + 1), Q + 1, tol / 4, W)
            return _certified(direct + sdiff + jt, direct_err + sdiff_err + far + jt_err, W, prec)
        # generic: integrate cells until the remaining tail bound is small
        if fs.abs_deriv_tail is None:
            raise TailNotCertifiableError("tail not certifiable")
        mu = sup_norm(m, r, prec)
        coef = mu / (factorial(m) * mp.factorial(r))

        def tail_bound(Q):
            return coef * fs.abs_deriv_tail(r, Q, prec)

        if fs.exact_integral is None or fs.abs_deriv_integral is None:
            return CertifiedValue(mp.mpf(0), +(tail_bound(q1) + _rounding_slack(0, prec)))
        Q = q1
        while tail_bound(Q) > tol and Q - q1 < 4096:
            Q += 16
        total = remainder_R(fs, m, r, q1, Q, prec)
        return CertifiedValue(+total, +(tail_bound(Q) + _rounding_slack(total, prec)))


def finite_identity_residual(fs: FunctionStack, m: int, r: int, p: int, n: int,
                             prec: int = DEFAULT_PRECISION):
    """|int_p^n f - [S(n-1)-S(p-1) + sigma(n) - sigma~(p) + rho(p,n) + R(p,n)]|.

    The five right-hand pieces reassemble the composite rule with h = 1, so
    the residual pins down the consistent normalization of every component.
    remainder_R is int f minus the main sum, so the residual is rounding
    alone; the stack needs exact_integral and abs_deriv_integral.
    """
    if not (1 <= p <= n):
        raise ValueError("need 1 <= p <= n")
    if fs.exact_integral is None:
        raise ValueError("the stack must provide an exact integral")
    with mp.workprec(prec):
        integral = fs.exact_integral(p, n, prec)
        rhs = (partial_sum(fs, n - 1, prec) - partial_sum(fs, p - 1, prec)
               + sigma(fs, m, r, n, prec) - sigma_tilde(fs, m, r, p, prec)
               + rho(fs, m, r, p, n, prec) + remainder_R(fs, m, r, p, n, prec))
        return +abs(integral - rhs)


@dataclass
class SeriesEstimate:
    """Estimate of S(inf) with its components and certified error bound."""

    value: object
    components: dict
    error_bound: object

    def as_dict(self, digits: int = 30) -> dict:
        out = {"value": decimal_str(self.value, digits)}
        out.update({k: decimal_str(v, digits) for k, v in self.components.items()})
        out["error_bound"] = decimal_str(self.error_bound, 8)
        return out


def _solve(fs: FunctionStack, m: int, r: int, p: int, name: str, lead,
           prec: int, tol) -> SeriesEstimate:
    """lead + S(p-1) - sigma(inf) + sigma~(p) - e(p) - delta(p), the identity of
    level m at p solved for its left side, with the component `name` = lead.

    The pieces are summed in mpf at prec in this order; the error bound is the
    bounds of the two tails plus _rounding_slack of the sum.
    """
    with mp.workprec(prec):
        if tol is None:
            tol = _default_tol(prec)
        psum = partial_sum(fs, p - 1, prec)
        st = sigma_tilde(fs, m, r, p, prec)
        si = sigma_infinity(fs, m, r, prec)
        e = rho_tail(fs, m, r, p, tol, prec)
        d = delta_tail(fs, m, r, p, tol, prec)
        value = lead + psum - si + st - e.value - d.value
        bound = e.bound + d.bound + _rounding_slack(value, prec)
        return SeriesEstimate(
            value=+value,
            components={
                name: +lead,
                "partial_sum": +psum,
                "sigma_tilde": +st,
                "sigma_inf": +si,
                "e_tail": +e.value,
                "delta_tail": +d.value,
            },
            error_bound=+bound,
        )


def estimate_series(fs: FunctionStack, m: int, r: int, p: int,
                    prec: int = DEFAULT_PRECISION, tol=None) -> SeriesEstimate:
    """S(inf) = int_p^inf f + S(p-1) - sigma(inf) + sigma~(p) - e(p) - delta(p).

    This is the convergent identity solved for the series value, with the
    component "integral_tail" = int_p^inf f; the error bound collects the two
    tail certifications plus a rounding budget.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if fs.exact_tail_integral is None:
        raise TailNotCertifiableError("tail integral of f is not available")
    return _solve(fs, m, r, p, "integral_tail", fs.exact_tail_integral(p, prec), prec, tol)


def euler_constant(fs: FunctionStack, m: int, r: int,
                   prec: int = DEFAULT_PRECISION, tol=None) -> SeriesEstimate:
    """gamma(f) = lim (sum_{i<=n} f(i) - int_1^n f), via the identity at 1.

    gamma(f) = lambda0 + sigma~_r(1) - sigma_r(inf) - e_r(1) - delta_r(1),
    lambda0 = lim f, the identity of estimate_series at p = 1 with lambda0 in
    place of the tail integral (S(0) = 0). The components name lambda0
    "limit_at_infinity"; error_bound is the bounds of e_r(1) and delta_r(1)
    plus the rounding slack of the mpf sum.
    """
    if fs.limit_at_infinity is None:
        raise TailNotCertifiableError("limit of f at infinity is unknown")
    return _solve(fs, m, r, 1, "limit_at_infinity", to_mpf(fs.limit_at_infinity, prec),
                  prec, tol)


BOTH_CONVERGE = "both_converge"
BOTH_DIVERGE = "both_diverge"
UNDETERMINED = "undetermined"


def convergence_verdict(fs: FunctionStack, m: int, r: int,
                        prec: int = DEFAULT_PRECISION) -> str:
    """Transfer convergence between sum f(j) and int f under the hypotheses.

    Needs: a finite limit of f at infinity, a certifiable rho tail, and a
    bound for int |f^(r)|; then the series converges iff the integral does.
    The integral's convergence comes from the stack (closed-form tail or a
    caller assertion); anything missing yields "undetermined".
    """
    _check_order(fs, r)
    if fs.limit_at_infinity is None:
        return UNDETERMINED
    if fs.abs_deriv_tail is None:
        return UNDETERMINED
    try:
        # existence only: a finite envelope at the first point certifies
        # absolute convergence of the rho tail
        with mp.workprec(prec):
            row = _weight_row(m, "jump", r, prec)
            for k in range(2, r + 1):
                if row[k] and not mp.isfinite(fs.abs_deriv_tail(k - 1, 2, prec)):
                    return UNDETERMINED
        fs.abs_deriv_tail(r, 2, prec)
    except TailNotCertifiableError:
        return UNDETERMINED
    converges = fs.integral_converges
    if converges is None:
        return UNDETERMINED
    return BOTH_CONVERGE if converges else BOTH_DIVERGE
