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
from math import ceil, factorial, gcd
from operator import mul

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

# _far_bound's coefficients A_r (_far_coeff) come from this loose sum at
# level 1, once for each of the orders 8, 16, ..., 192 of _TAIL_ORDERS,
# although quadrature.sup_norm is tight: sup_norm is slow from a cold cache
# at such orders (under the former level-m scan over orders up to r + 96,
# the 80 estimates at 1024 bits and p = 100 took 161 s with it against 3.3 s,
# one cold run each, with 0 bound violations either way). So it stays loose
# until a closed-form level-1 bound replaces it (ROADMAP item 2). It builds
# no polynomial: it is one integer sum over the level's scaled number table.
def _coeff_abs_sum(m: int, r: int) -> Fraction:
    # sum_k C(r,k) |B_k| >= max_{[0,1]} |B_r|; with B_k = k! a_k/d this is
    # sum_k |a_k| r!/(r-k)! over d, Horner in k
    a, d = bernoulli.family(m)._scaled(r)
    acc = abs(a[r])
    for k in range(r - 1, -1, -1):
        acc = acc * (r - k) + abs(a[k])
    return Fraction(acc, d)


@cache
def _far_coeff(r: int) -> tuple[int, int]:
    # A_r = coeff-sum(B_r)/r! of the level-1 polynomial in lowest terms, as
    # (numerator, denominator), built once per r
    A = Fraction(_coeff_abs_sum(1, r), factorial(r))
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
    every tail of one estimate that starts its far sum at J.
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


_TAIL_ORDERS = range(8, 193, 8)


def _far_bound(seq: _ScaledRising, k: int, limit: int) -> tuple:
    """(order, bound in units of 2^-W) for the level-1 remainder of
    sum_{j>=J} |f^(k-1)(j)|.

    seq holds f = x^-s at J. The bound of order r is A_r int_J^inf |f^(n)|,
    n = k-1+r, that is A_r J b U_n/(a+(n-1)b) with the exact A_r = N/D of
    _far_coeff; taken with U_n + err_n and rounded up, ceil(X/Y) with
    X = N Z, Z = J b (U_n + err_n), and Y = D (a+(n-1)b), it is an upper
    bound. limit = floor(2^W tol/4), where tol applies to
    sum_{j>=J} j^-(s+k-1), the tail divided by (s)_(k-1) = P_(k-1)/b^(k-1):
    an order meets it when ceil(X/Y) b^(k-1) <= limit P_(k-1), that is
    ceil(X/Y) <= M = floor(limit P_(k-1) / b^(k-1)), that is X <= M Y. The
    first order in _TAIL_ORDERS that meets it is taken, with its one ceil
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
    for r in _TAIL_ORDERS:
        n = k - 1 + r
        if n >= len(U):
            seq.extend(n)
        N, D = _far_coeff(r)
        Z, Y = Jb * (U[n] + err[n]), D * (a + (n - 1) * b)
        e = N.bit_length() + Z.bit_length() - Y.bit_length()
        if e - 2 < lm and (X := N * Z) <= M * Y:
            return r, _cdiv(X, Y)
        tried.append((e, r, N, Z, Y))
    cut = max(min(t[0] for t in tried), -1) + 3
    return min(((r, _cdiv(N * Z, Y)) for e, r, N, Z, Y in tried if e < cut),
               key=lambda rb: rb[1])


@cache
def _tail_row(r: int) -> tuple:
    # (c'_1, (c_2, c_4, ..., c_r), their absolute values, e_r): the level-1
    # weights B_i/i! = c_i/e_r that _em_far uses at order r, over their
    # least denominator e_r, with c'_1 = c_1 + e_r for the f(J0) term;
    # B_i = 0 for odd i >= 3, so those are left out
    c, e = bernoulli.family(1)._weights("number", r)
    g = gcd(e, c[1], *c[2:r + 1:2])
    even = tuple(x // g for x in c[2:r + 1:2])
    return (c[1] + e) // g, even, tuple(map(abs, even)), e // g


def _cut(J: int, W: int) -> int:
    # J0 = max(J, 64, W >> 3): where the far sums of every x^-s tail start.
    # The level-1 remainder of order r at J0 is about (r/(2 pi e J0))^r times
    # the tail, so the cut grows with the unit, as the orders are capped at 192
    return max(J, 64, W >> 3)


def _em_far(seq: _ScaledRising, k: int, limit: int) -> tuple:
    """(V, err): sum_{j>=J0} |f^(k-1)(j)| - int_J0^inf |f^(k-1)| within err
    units of V 2^-W, for f = x^-s and J0 = seq.J.

    The level-1 rule at the order r that _far_bound picks for limit, with
    B_i/i! = c_i/e_r from that order's module-level row (_tail_row), over
    the least denominator e_r of its weights:
        V = (sum_{i<=r} c'_i U_(k-2+i)) // e_r,
    c'_1 = c_1 + e_r for the f(J0) term. B_i = 0 for odd i >= 3, so the dot
    product runs over i = 1 and even i only. Its error is the far bound plus
    sum|c'_i| err_(k-2+i)/e_r, rounded up, plus one for the floor. The dot
    products over e_r are the same rationals over any common denominator of
    the weights, so their floor and ceil give the bits that one row over the
    lcm of all orders gives, from shorter integers (e_8 has 21 bits).
    """
    r, far = _far_bound(seq, k, limit)
    g1, g_even, g_even_abs, e = _tail_row(r)
    U, err = seq.U, seq.err
    # i = 1 takes U_(k-1); i = 2, 4, ..., r take U_k, U_(k+2), ..., U_(k+r-2)
    st = g1 * U[k - 1] + sum(map(mul, g_even, U[k:k + r - 1:2]))
    st_err = g1 * err[k - 1] + sum(map(mul, g_even_abs, err[k:k + r - 1:2]))
    return st // e, far + _cdiv(st_err, e) + 1


def _power_tails(s: Fraction, ks, J: int, tol, W: int, seq=None) -> list[tuple]:
    """[(T, err)]: sum_{j>=J} |f^(k-1)(j)| within err units of T 2^-W, for
    each k in ks and f = x^-s.

    That is (s)_(k-1) sum_{j>=J} j^-(s+k-1), each with t = s+k-1 > 1; tol
    applies to the sum without the (s)_(k-1). All tails share J0 = _cut(J, W),
    the near block J <= j < J0 (_power_sums, within J0 - J units) and one
    _ScaledRising sequence U_n at J0, s = a/b. Each tail is the near block,
    the integral int_J0^inf |f^(k-1)| = J0 b U_(k-1)/(a+(k-2)b) and the
    Euler-Maclaurin sum of _em_far:
        T = P_(k-1) near // b^(k-1) + J0 b U_(k-1) // (a+(k-2)b) + V,
    within (s)_(k-1)(J0 - J) + J0 b err_(k-1)/(a+(k-2)b), rounded up, plus
    _em_far's error and 2 for the floors. seq, when given, is the caller's
    sequence at J0, shared with its other tails.
    """
    a, b = s.numerator, s.denominator
    J0 = _cut(J, W)
    near = _power_sums(s, range(J, J0), ks, W)
    seq = seq or _ScaledRising(s, J0, W)
    limit = int(mp.ldexp(tol, W - 2))
    out = []
    for k in ks:
        V, V_err = _em_far(seq, k, limit)
        P, bk, d = seq.P[k - 1], b ** (k - 1), a + (k - 2) * b
        T = P * near[k] // bk + J0 * b * seq.U[k - 1] // d + V
        out.append((T, V_err + _cdiv(P * (J0 - J), bk) + _cdiv(J0 * b * seq.err[k - 1], d) + 2))
    return out


def _regularized_tail(s: Fraction, J: int, tol, W: int, seq=None) -> tuple:
    """(V, err): D(J) = sum_{j>=J} j^-s - int_J^inf x^-s within err units of
    V 2^-W; finite at s = 1 too.

    With J0 = _cut(J, W), D(J) is the near block J <= j < J0 (_power_sums,
    within J0 - J units), minus int_J^J0 x^-s, plus _em_far's level-1 sum at
    J0 for k = 1, whose far bound is certified to tol. The integral
    (J^(1-s) - J0^(1-s))/(s-1), s - 1 = u/v, is a difference of two
    scaled_power(s-1, .), times v floor-divided by u: within 2v/u + 1 units.
    For s = 1 it is mp.log at W + 16 bits, whose error is mpmath's: at 16
    units in the last place of each log it is below bitlen(J0) 2^-8 units,
    and 1 + bitlen(J0) are counted. seq, when given, is the caller's
    sequence at J0, shared with its other tails.
    """
    J0 = _cut(J, W)
    near = _power_sums(s, range(J, J0), [1], W)[1]
    far, far_err = _em_far(seq or _ScaledRising(s, J0, W), 1, int(mp.ldexp(tol, W - 2)))
    if s == 1:
        with mp.workprec(W + 16):
            integral = int(mp.nint(mp.ldexp(mp.log(J0) - mp.log(J), W)))
        return near - integral + far, J0 - J + 1 + J0.bit_length() + far_err
    u, v = (s - 1).numerator, (s - 1).denominator
    integral = (scaled_power(s - 1, J, W) - scaled_power(s - 1, J0, W)) * v // u
    return near - integral + far, J0 - J + _cdiv(2 * v, u) + 1 + far_err


def _jump_tail(s: Fraction, m: int, orders, J: int, tol, W: int, seq=None) -> tuple:
    """(V, err): sum_k w_k sum_{j>=J} f^(k-1)(j) over `orders`, for f = x^-s,
    within err units of V 2^-W.

    w_k are the jump weights of rho, (B_k(1)-B_k)/(m! k!) = c_k/e from the
    level's integer table, and f^(k-1)(j) = (-1)^(k-1) |f^(k-1)(j)|, so an
    order adds w_k times its tail of |f^(k-1)|. The orders with a nonzero jump
    take those tails from one _power_tails call at the same J, each certified
    to an equal share of tol, on seq if given; V = (sum_k c_k T_k) // e,
    within sum |c_k| err_k / e units, rounded up, plus one for the floor. With
    no such order (level 1, or r = 1) the sum is exactly 0.
    """
    c, e = bernoulli.family(m)._weights("jump", max(orders, default=0))
    ks = [k for k in orders if c[k]]
    if not ks:
        return 0, 0
    tails = _power_tails(s, ks, J, tol / len(ks), W, seq)
    V = sum(c[k] * T for k, (T, _) in zip(ks, tails)) // e
    return V, _cdiv(sum(abs(c[k]) * n for k, (_, n) in zip(ks, tails)), e) + 1


def _tail_unit(s: Fraction, r: int, q1: int, prec: int) -> int:
    # W of rho_tail and delta_tail: 2^-W is prec + 64 bits below
    # q1^-(ceil(s)+r+2), at or below the smallest tail they report, so a tail
    # far out keeps its relative digits
    return prec + 64 + q1.bit_length() * (ceil(s) + r + 2)


def rho_tail(fs: FunctionStack, m: int, r: int, q1: int,
             tol=None, prec: int = DEFAULT_PRECISION) -> CertifiedValue:
    """e_r(q1) = rho(q1, infinity), with a certified error bound.

    Power stacks reduce to certified power tail sums (_jump_tail), one
    integer in units of 2^-W, W = _tail_unit(s, r, q1, prec), rounded once.
    Generic stacks take the block rho(q1, J) directly, up to the first J whose
    decreasing-envelope integral-test bound meets tol, and need abs_deriv_tail
    for every order below r.
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
            W = _tail_unit(fs.s, r, q1, prec)
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
    (ValueError otherwise). delta_tail uses it only for generic stacks.
    R_r(q, q) = 0.
    """
    _check_order(fs, r)
    if q2 < q1:
        raise ValueError("need q1 <= q2")
    fs.check_domain(q1)
    if q1 == q2:
        return mp.mpf(0)
    return em_composite(fs, q1, q2, q2 - q1, m, r, prec).remainder


def _power_identity_tails(fs: PowerFunction, m: int, r: int, q1: int, tol,
                          prec: int) -> tuple:
    """(e_r(q1), delta_r(q1)) for f = x^-s, both tails of the identity of
    level m at q1; called at working precision prec.

    delta_r(q1) = sigma~_r(q1) - e_r(q1) - D(q1), the identity solved for
    it, with the regularized tail D(q1) = sum_{j>=q1} j^-s - int_q1^inf x^-s
    (_regularized_tail, to tol/2) and e_r(q1) as rho_tail takes it
    (_jump_tail, to tol/2). sigma~_r(q1) is f(q1) plus the sigma~
    coefficients Ct_k/Dn (PowerFunction._sigma_ints) on _power_sums at q1,
    within 1 + sum|Ct_k|/Dn units, rounded up, and one more for the floor.
    The three are integers in units of 2^-W, W = _tail_unit(s, r, q1, prec)
    as in rho_tail. e_r(q1) is summed once for both tails and rounded on its
    own, exactly 0 with bound 0 when no order has a jump; delta_r(q1) is
    rounded once from the sum (_certified). When D's far sum and e's start
    at the same cut, _cut(q1, W) = _cut(q1 + 1, W), one _ScaledRising there
    serves D and every jump order.
    """
    s, W, orders = fs.s, _tail_unit(fs.s, r, q1, prec), range(1, r + 1)
    ctil, _, Dn = fs._sigma_ints(m, r)
    at_q1 = _power_sums(s, [q1], orders, W)
    st = at_q1[1] + sum(c * at_q1[k] for k, c in zip(orders, ctil)) // Dn
    st_err = 2 + _cdiv(sum(map(abs, ctil)), Dn)
    J0 = _cut(q1 + 1, W)
    seq = _ScaledRising(s, J0, W) if _cut(q1, W) == J0 else None
    e, e_err = _jump_tail(s, m, orders[1:], q1 + 1, tol / 2, W, seq)
    d, d_err = _regularized_tail(s, q1, tol / 2, W, seq)
    c, _ = bernoulli.family(m)._weights("jump", r)
    jumps = any(c[k] for k in orders[1:])
    e_cv = _certified(e, e_err, W, prec) if jumps else CertifiedValue(mp.mpf(0), mp.mpf(0))
    return e_cv, _certified(st - e - d, st_err + e_err + d_err, W, prec)


def delta_tail(fs: FunctionStack, m: int, r: int, q1: int,
               tol=None, prec: int = DEFAULT_PRECISION) -> CertifiedValue:
    """delta_r(q1) = R_r(q1, infinity) with a certified bound.

    For power stacks it is the identity of level m at q1 solved for it,
    delta_r(q1) = sigma~_r(q1) - e_r(q1) - D(q1), in integers in units of
    2^-W as in rho_tail, rounded once (_power_identity_tails, which
    estimate_series and euler_constant call for both tails at once).
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
            return _power_identity_tails(fs, m, r, q1, tol, prec)[1]
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
    """Estimate of S(inf) with its components and certified error bound.

    tol is the tolerance the tails were asked for, and tol_met says whether
    error_bound is within it; neither is part of as_dict.
    """

    value: object
    components: dict
    error_bound: object
    tol: object
    tol_met: bool

    def as_dict(self, digits: int = 30) -> dict:
        out = {"value": decimal_str(self.value, digits)}
        out.update({k: decimal_str(v, digits) for k, v in self.components.items()})
        out["error_bound"] = decimal_str(self.error_bound, 8)
        return out


def _solve(fs: FunctionStack, m: int, r: int, p: int, name: str, lead,
           prec: int, tol) -> SeriesEstimate:
    """lead + S(p-1) - sigma(inf) + sigma~(p) - e(p) - delta(p), the identity of
    level m at p solved for its left side, with the component `name` = lead.

    The tails are rho_tail's and delta_tail's; for x^-s both come from one
    _power_identity_tails call, which sums e_r(p) once for the two.
    The pieces are summed in mpf at prec in this order; the error bound is the
    bounds of the two tails plus _rounding_slack of the sum, and tol_met
    compares it with tol.
    """
    with mp.workprec(prec):
        if tol is None:
            tol = _default_tol(prec)
        psum = partial_sum(fs, p - 1, prec)
        st = sigma_tilde(fs, m, r, p, prec)
        si = sigma_infinity(fs, m, r, prec)
        if isinstance(fs, PowerFunction):
            e, d = _power_identity_tails(fs, m, r, p, tol, prec)
        else:
            e, d = rho_tail(fs, m, r, p, tol, prec), delta_tail(fs, m, r, p, tol, prec)
        value = lead + psum - si + st - e.value - d.value
        bound = +(e.bound + d.bound + _rounding_slack(value, prec))
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
            error_bound=bound,
            tol=tol,
            tol_met=bound <= tol,
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
