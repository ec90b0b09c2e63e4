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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import ceil, factorial, gcd, inf, lgamma, log, log2, pi, prod

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
    """A numeric value together with a rigorous bound on its error, and the
    names of the caps that stopped it (SeriesEstimate.caps_hit)."""

    value: object
    bound: object
    caps_hit: tuple = ()


def _default_tol(prec: int):
    return mp.mpf(2) ** (-(prec // 2))


def _rounding_slack(value, prec: int):
    # chosen, not derived, for the float work of generic stacks: their tails
    # and the mpf sum that assembles their estimate (_solve). x^-s takes no
    # slack: its tails and its estimate are integers (_certified)
    return abs(value) * mp.ldexp(1, 12 - prec) + mp.ldexp(1, -prec)


def _certified(V: int, err: int, capped: bool, W: int, prec: int) -> CertifiedValue:
    # V 2^-W within err units, rounded once to nearest at prec, which moves it
    # by at most |V| 2^-prec <= (|V| >> prec) + 1 units; the bound rounds up.
    # V = err = 0 is an empty sum, exactly 0 with bound 0. capped: some far
    # sum met no order and took its smallest bound
    if not (V or err):
        return CertifiedValue(mp.mpf(0), mp.mpf(0))
    return CertifiedValue(_round_fixed(V, W, prec),
                          _round_fixed(err + (abs(V) >> prec) + 1, W, prec, round_ceiling),
                          ("order_cap",) if capped else ())


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

    # the tails to b = inf, where b's power is exactly 0
    def exact_tail_integral(self, p, prec: int = DEFAULT_PRECISION):
        return self.exact_integral(p, mp.inf, prec)

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
        return self.abs_deriv_integral(k, p, mp.inf, prec)

    def partial_sum(self, l: int, prec: int = DEFAULT_PRECISION):
        # within l units of 2^-W: per-term floors for integer s, the sieved
        # row for fractional s (_power_sums; see the module's partial_sum)
        W = prec + 64 + l.bit_length()
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

    A stack's partial_sum entry takes it if present: for x^-s the
    _power_sums of 1 <= j <= l at W = prec + 64 + bitlen(l), within l units
    of 2^-W (per-term scaled_power floors for integer s, the sieved row for
    fractional s), so within l 2^-W < 2^-(prec+64) before one rounding to
    nearest at prec. Others are summed in ascending order at prec. An x^-s
    estimate takes its S(p-1) in its tails' unit instead (_solve).
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

@cache
def _far_coeff(r: int) -> tuple[int, int]:
    """A_r = max_[0,1] |B_r(x)|/r! of the level-1 B_r, for even r >= 2, as
    (numerator, denominator): |B_r|/r!, the last even weight of _tail_row(r).

    The Fourier series B_r(x) = -2 r! sum_{k>=1} cos(2 pi k x - r pi/2)/(2 pi k)^r
    has cos(2 pi k x - r pi/2) = (-1)^(r/2) cos(2 pi k x) for even r, so every
    term is at most its value at x = 0 in absolute value, and all have one sign
    there: the maximum is |B_r(0)|/r! = |B_r|/r!. Every order of _TAIL_ORDERS
    is even.
    """
    _, even, e = _tail_row(r)
    return abs(even[-1]), e


def _cdiv(x: int, y: int) -> int:
    # ceil(x/y) for y > 0
    return -(-x // y)


class _ScaledRising:
    """U_n within err_n units of 2^W (s)_n J^-(s+n), and P_n = b^n (s)_n, s = a/b,
    for n = 0..N, built at construction.

    U_n 2^-W is |f^(n)(J)| for f = x^-s, the one value the far sum of order
    k = n + 1 at J starts from (_far_bound, _em_far), so N is the largest
    k - 1 of the tails read at J. U_0 = scaled_power(s, J, W), within one
    unit, and U_(n+1) = U_n (a+nb) // (bJ): if U_n is within err_n of x, then
    U_n (a+nb)/(bJ) is within err_n (a+nb)/(bJ) of x (a+nb)/(bJ), and the
    floor takes under one unit more, so err_(n+1) = ceil(err_n (a+nb)/(bJ)) + 1.
    P_n is exact. One sequence serves every tail of one estimate, all of
    which start their far sums at the one cut J, in the one unit 2^-W.
    """

    def __init__(self, s: Fraction, J: int, W: int, N: int):
        self.s, self.J, self.W = s, J, W
        a, b = self.a, self.b = s.numerator, s.denominator
        U, err, P = self.U, self.err, self.P = [scaled_power(s, J, W)], [1], [1]
        bJ = b * J
        for i in range(N):
            c = a + i * b
            U.append(U[i] * c // bJ)
            err.append(_cdiv(err[i] * c, bJ) + 1)
            P.append(P[i] * c)


_TAIL_ORDERS = range(8, 193, 8)
_LN2 = log(2)
# log2 A_R at the order cap R, from the level-1 identity |B_R|/R! =
# 2 zeta(R) (2 pi)^-R with log2 zeta(R) < 2^-190 dropped: in double precision
# it equals log2(N) - log2(D) of the exact _far_coeff(R), so _cut builds no
# level-1 row up to R
_LOG2_CAP_COEFF = 1 - _TAIL_ORDERS[-1] * log2(2 * pi)


def _cut(s: Fraction, ks, q1: int, tol, prec: int) -> int:
    """J0 = max(q1 + 1, 64, min(J_tol, prec)): where every x^-s tail of an
    identity at q1, D(q1) and that of each live jump order k in ks, starts
    its far sum (_tail_start).

    J_tol is the least cut at which the order cap R = 192 meets each tail's
    share of tol. D's tail sum_{j>=J} j^-t has t = s and the share tol/2; jump
    order k's has t = s+k-1 and tol/(2n), over the n live orders (_jump_tail
    also divides each share by its weight, where that exceeds 1; the cut
    leaves the weights out). _far_bound's bound of order R is A_R (t)_R
    J^(1-t-R)/(t+R-1) <= A_R (t)_R J^(1-t-R), with A_R = |B_R|/R!
    (_LOG2_CAP_COEFF), and it must be within a quarter of the share tau. So
    R meets tau at J once
        (t+R-1) log2 J >= 2 + log2 A_R + log2 (t)_R - log2 tau,
    which floats (lgamma) solve for J. They only choose the cut; _far_bound
    certifies every far bound at whatever cut. J_tol grows like
    2^(prec/(2 (R+t))) at the default tol (about 460 at 2048 bits, 2 10^4 at
    4096), so past prec it is not taken: the near block stays within prec
    powers, the order cap binds, and the far sums take their smallest
    bounds. A tol below 2^-prec, which no estimate meets (its rounding slack
    alone is 2^-prec), counts as 2^-prec here, so tol = 0 gives a finite cut.
    """
    man, exp = mp.mpf(tol).man_exp
    R, sf = _TAIL_ORDERS[-1], s.numerator / s.denominator

    def log2_rising(t, n):
        return (lgamma(t + n) - lgamma(t)) / _LN2

    # 2 + log2 A_R - log2 of D's share tol/2, tol at least 2^-prec
    top = _LOG2_CAP_COEFF + 3 - (max(exp + log2(man), -prec) if man > 0 else -prec)
    x = (top + log2_rising(sf, R)) / (sf + R - 1)
    if ks:
        top += log2(len(ks))
        x = max(x, max((top + log2_rising(sf + k - 1, R)) / (sf + k + R - 2) for k in ks))
    return max(q1 + 1, 64, prec if x >= log2(prec) else ceil(2 ** x))


def _far_bound(seq: _ScaledRising, k: int, limit: int) -> tuple:
    """(order, bound in units of 2^-W, met) for the level-1 remainder of
    sum_{j>=J} |f^(k-1)(j)|; met says whether the bound meets limit.

    seq holds f = x^-s at J, s = a/b, and t = s+k-1 = a'/b, a' = a+(k-1)b. The
    bound of order r is A_r int_J^inf |f^(k-1+r)| = A_r J |f^(k-1)(J)| (t)_r
    J^-r/(t+r-1), with the exact A_r = N/D of _far_coeff. U_(k-1) + err_(k-1)
    is at least 2^W |f^(k-1)(J)|, and (t)_r J^-r = Q_r/(bJ)^r with the exact
    rising product Q_r = prod_{i<r} (a'+ib), so ceil(X/Y) with
        X = N Z Q_r, Z = J b (U_(k-1) + err_(k-1)), Y = D (bJ)^r (a'+(r-1)b)
    is an upper bound. limit = floor(2^W tol/4), where tol applies to
    sum_{j>=J} j^-t, the tail divided by (s)_(k-1) = P_(k-1)/b^(k-1): an
    order meets it when ceil(X/Y) b^(k-1) <= limit P_(k-1), that is
    ceil(X/Y) <= M = floor(limit P_(k-1) / b^(k-1)), that is X <= M Y. The
    first order in _TAIL_ORDERS that meets it is taken; if none does, the
    smallest bound, the first on ties, from every order's exact ceil(X/Y).

    Floats choose which orders are checked against M: est_r = log2(X/Y),
    from log2 of N, D and Z and lgamma, is off by far less than 1/64. An
    order with est_r > log2 M + 1/64 fails, so only the others are checked
    exactly, in order. The floats steer the choice only: the bound returned
    is always ceil(X/Y) of the order returned.
    """
    a, b, J = seq.a, seq.b, seq.J
    a1 = a + (k - 1) * b
    Z = J * b * (seq.U[k - 1] + seq.err[k - 1])
    M = limit * seq.P[k - 1] // b ** (k - 1)
    lm, t, lJ = (log2(M) if M else -inf) + 1 / 64, a1 / b, log2(J)
    base = log2(Z) - lgamma(t) / _LN2

    def exact(r):
        N, D = _far_coeff(r)
        return N * Z * prod(range(a1, a1 + r * b, b)), D * (b * J) ** r * (a1 + (r - 1) * b)

    for r in _TAIL_ORDERS:
        N, D = _far_coeff(r)
        est = base + log2(N) - log2(D) + lgamma(t + r) / _LN2 - r * lJ - log2(a1 + (r - 1) * b)
        if est <= lm:
            X, Y = exact(r)
            if X <= M * Y:
                return r, _cdiv(X, Y), True
    r, bound = min(((r, _cdiv(*exact(r))) for r in _TAIL_ORDERS), key=lambda rb: rb[1])
    return r, bound, False


@cache
def _tail_row(r: int) -> tuple:
    # (c'_1, (c_2, c_4, ..., c_r), e_r): the level-1 weights B_i/i! = c_i/e_r
    # that _em_far uses at order r, over their least denominator e_r, with
    # c'_1 = c_1 + e_r for the f(J) term; B_i = 0 for odd i >= 3, so those
    # are left out
    c, e = bernoulli.family(1)._weights("number", r)
    g = gcd(e, c[1], *c[2:r + 1:2])
    return (c[1] + e) // g, tuple(x // g for x in c[2:r + 1:2]), e // g


def _em_far(seq: _ScaledRising, k: int, limit: int) -> tuple:
    """(V, err, capped): sum_{j>=J} |f^(k-1)(j)| - int_J^inf |f^(k-1)| within
    err units of V 2^-W, for f = x^-s and J = seq.J; capped when no order
    met limit (_far_bound).

    The level-1 rule at the order r that _far_bound picks, with B_i/i! =
    c_i/e from that order's row (_tail_row), B_i = 0 for odd i >= 3, and
    c'_1 = c_1 + e for the f(J) term, is
        e V = c'_1 u_1 + sum_{i = 2, 4, ..., r} c_i u_i,  u_i = 2^W |f^(k-2+i)(J)|.
    With t = s+k-1 = a'/b, u_i = x (t)_(i-1) J^-(i-1) for x = u_1, which
    U_(k-1) gives within err_(k-1) units. So the even part is x a'/(bJ) H,
    in Horner form H = c_2 + F_2/L (c_4 + F_4/L (c_6 + ... + F_(r-2)/L c_r)),
    with the exact factors F_i/L = (t+i-1)(t+i)/J^2, F_i = (a'+(i-1)b)(a'+ib)
    and L = (bJ)^2. In fixed point at 2^G: h_r = c_r 2^G and h_i = c_i 2^G +
    floor(h_(i+2) F_i/L), so h_i - 2^G H_i = (h_(i+2) - 2^G H_(i+2)) F_i/L
    - eps_i with 0 <= eps_i < 1. The floor of step i reaches h_2 times the
    factors of the steps after it, F_2 ... F_(i-2)/L^((i-2)/2); the factors
    grow with i, and exceed 1 once t+i > J, so of these products, one for
    each of the n = (r-2)/2 floors, the largest is 1 or the longest,
    g = prod_{m=1}^{r-4} (a'+mb) / (bJ)^(r-4). So h_2 is within
    eta = ceil(n max(1, g)) of 2^G H_2, every floor counted. With
    Hn = c'_1 bJ 2^G + a' h_2, e V is x Ht/(bJ 2^G) for an Ht within a' eta
    of Hn, so
        V = floor(U_(k-1) Hn / (e bJ 2^G))
    is within (err_(k-1) |Hn| + (U_(k-1) + err_(k-1)) a' eta)/(e bJ 2^G)
    units, rounded up, plus one for the floor, plus the far bound. G only
    sets how tight that count is: 2^G is about U_(k-1) a' eta 2^7/(e bJ),
    from bit lengths, so the eta term is about 2^-4 units or less.
    """
    r, far, met = _far_bound(seq, k, limit)
    g1, g_even, e = _tail_row(r)
    a, b = seq.a, seq.b
    a1, X, X_err, bJ = a + (k - 1) * b, seq.U[k - 1], seq.err[k - 1], b * seq.J
    n = (r - 2) // 2
    eta = n  # g <= 1 when its largest factor (a'+(r-4)b)/(bJ) is
    if a1 + (r - 4) * b > bJ:
        eta = max(n, _cdiv(n * prod(range(a1 + b, a1 + (r - 3) * b, b)), bJ ** (r - 4)))
    G = max(0, X.bit_length() + a1.bit_length() + eta.bit_length() + 7
            - e.bit_length() - bJ.bit_length())
    L, h = bJ * bJ, g_even[-1] << G
    for i in range(r - 2, 0, -2):
        h = (g_even[i // 2 - 1] << G) + h * ((a1 + (i - 1) * b) * (a1 + i * b)) // L
    Hn, den = (g1 * bJ << G) + a1 * h, e * bJ << G
    err = _cdiv(X_err * abs(Hn) + (X + X_err) * a1 * eta, den)
    return X * Hn // den, far + err + 1, not met


def _power_tails(seq: _ScaledRising, ks, J: int, limits) -> list[tuple]:
    """[(T, err, capped)]: sum_{j>=J} |f^(k-1)(j)| within err units of T 2^-W,
    for each k in ks and f = x^-s, cut at J0 = seq.J >= J; capped as
    _em_far's.

    That is (s)_(k-1) sum_{j>=J} j^-(s+k-1), each with t = s+k-1 > 1; the
    far sum of each k meets its own entry of limits, floor(2^W tau/4) for a
    share tau of tol (_far_bound), which applies to the sum without the
    (s)_(k-1). All tails share the near block J <= j < J0 (_power_sums,
    within J0 - J units) and seq, s = a/b, built up to U_(max k - 1). Each
    tail is the near block, the integral int_J0^inf |f^(k-1)| =
    J0 b U_(k-1)/(a+(k-2)b) and the Euler-Maclaurin sum of _em_far:
        T = P_(k-1) near // b^(k-1) + J0 b U_(k-1) // (a+(k-2)b) + V,
    within (s)_(k-1)(J0 - J) + J0 b err_(k-1)/(a+(k-2)b), rounded up, plus
    _em_far's error and 2 for the floors.
    """
    a, b, J0 = seq.a, seq.b, seq.J
    near = _power_sums(seq.s, range(J, J0), ks, seq.W)
    out = []
    for k, limit in zip(ks, limits):
        V, V_err, capped = _em_far(seq, k, limit)
        P, bk, d = seq.P[k - 1], b ** (k - 1), a + (k - 2) * b
        T = P * near[k] // bk + J0 * b * seq.U[k - 1] // d + V
        err = V_err + _cdiv(P * (J0 - J), bk) + _cdiv(J0 * b * seq.err[k - 1], d) + 2
        out.append((T, err, capped))
    return out


def _regularized_tail(seq: _ScaledRising, J: int, limit: int, at_J) -> tuple:
    """(V, err, capped): D(J) = sum_{j>=J} j^-s - int_J^inf x^-s within err
    units of V 2^-W, cut at J0 = seq.J >= J; finite at s = 1 too.

    D(J) is the near block J <= j < J0 (_power_sums, within J0 - J units),
    minus int_J^J0 x^-s, plus _em_far's level-1 sum at J0 for k = 1, whose
    far bound meets limit = floor(2^W tol/4) for D's tol. The integral
    (J^(1-s) - J0^(1-s))/(s-1), s - 1 = u/v, is a difference of two
    scaled_power(s-1, .), times v floor-divided by u: within 2v/u + 1
    units; at_J is the caller's scaled_power(s-1, J, W), which also gives it
    int_J^inf x^-s. For s = 1 (at_J unused) it is mp.log at W + 16 bits,
    whose error is mpmath's: at 16 units in the last place of each log it is
    below bitlen(J0) 2^-8 units, and 1 + bitlen(J0) are counted.
    """
    s, J0, W = seq.s, seq.J, seq.W
    near = _power_sums(s, range(J, J0), [1], W)[1]
    far, far_err, capped = _em_far(seq, 1, limit)
    if s == 1:
        with mp.workprec(W + 16):
            integral = int(mp.nint(mp.ldexp(mp.log(J0) - mp.log(J), W)))
        return near - integral + far, J0 - J + 1 + J0.bit_length() + far_err, capped
    u, v = (s - 1).numerator, (s - 1).denominator
    integral = (at_J - scaled_power(s - 1, J0, W)) * v // u
    return near - integral + far, J0 - J + _cdiv(2 * v, u) + 1 + far_err, capped


def _jump_tail(seq: _ScaledRising, c, e: int, ks, J: int, limit: int) -> tuple:
    """(V, err, capped): sum_k w_k sum_{j>=J} f^(k-1)(j) over the live orders
    ks, for f = x^-s, within err units of V 2^-W, cut at seq.J; capped if
    any order's far sum is.

    w_k are the jump weights of rho, (B_k(1)-B_k)/(m! k!) = c[k]/e from the
    level's integer table, nonzero for each k in ks, and f^(k-1)(j) =
    (-1)^(k-1) |f^(k-1)(j)|, so an order adds w_k times its tail of
    |f^(k-1)|. The n live orders take those tails from one _power_tails call
    on seq. limit = floor(2^W tol/4) for the jump tail's tol; order k's far
    bound on sum_{j>=J} j^-(s+k-1) is asked for the share tol/(n max(1,
    |w_k| (s)_(k-1))), so its part of the sum, that bound times |w_k|
    (s)_(k-1), is within tol/n; the max keeps a factor below 1 from
    loosening the bound.
    V = (sum_k c_k T_k) // e, within sum |c_k| err_k / e units, rounded up,
    plus one for the floor. With no live order (level 1, or r = 1) the sum
    is exactly 0.
    """
    if not ks:
        return 0, 0, False
    limits = []
    for k in ks:
        # |w_k| (s)_(k-1) = x/y, with b^(k-1) (s)_(k-1) = P_(k-1), and the
        # limit floor(limit/(n max(1, x/y)))
        x, y = abs(c[k]) * seq.P[k - 1], e * seq.b ** (k - 1)
        limits.append(limit * y // (len(ks) * max(x, y)))
    tails = _power_tails(seq, ks, J, limits)
    V = sum(c[k] * T for k, (T, _, _) in zip(ks, tails)) // e
    err = _cdiv(sum(abs(c[k]) * n for k, (_, n, _) in zip(ks, tails)), e) + 1
    return V, err, any(capped for *_, capped in tails)


_MAX_TAIL_UNIT = 1 << 18


def _tail_unit(s: Fraction, r: int, q1: int, tol, prec: int) -> int:
    """W of the x^-s tails at q1 asked for tol, and of the partial sum and
    tail integral of an estimate at p = q1: 2^-W is B + 64 bits below
    q1^-(ceil(s)+r+2), at or below the smallest tail they report, for
    B = min(prec, max(0, ceil(-log2 tol))).

    A W above _MAX_TAIL_UNIT = 2^18 bits raises ValueError before any
    integer is built: W grows linearly in s, and every power of the tails is
    a W-bit integer, so zeta-odd --s 10^6 --p 5 (W near 3 * 10^6) took over
    30 s and --s 1e400 did not return, while --s 87000 --p 5, W = 261204,
    takes under a second.

    An estimate is never better than its tol, so bits below tol 2^-64 only
    cost: a tail far out keeps B + 64 bits relative to itself, and every
    counted floor costs under 2^-64 of tol. tol = 0, and any tol at or below
    2^-prec, keep B = prec. For tol = man 2^exp > 0, bc = bitlen(man), tol
    lies in [2^(exp+bc-1), 2^(exp+bc)), at the lower end only for a power of
    two, so ceil(-log2 tol) = 1 - exp - bc exactly.
    """
    man, exp = mp.mpf(tol).man_exp
    B = prec if man <= 0 else min(prec, max(0, 1 - exp - man.bit_length()))
    W = B + 64 + q1.bit_length() * (ceil(s) + r + 2)
    if W > _MAX_TAIL_UNIT:
        raise ValueError(f"the x^-s tails at p = {q1} need a unit finer than "
                         f"2^-{_MAX_TAIL_UNIT}; take a smaller s or p")
    return W


def _tail_start(s: Fraction, m: int, r: int, q1: int, tol, prec: int) -> tuple:
    """(limit, seq, jump): the one set-up of the x^-s tails of the identity
    of level m at q1, D(q1) and the jump tail e_r(q1), and that jump tail.

    It reads the level's jump weights c_k/e once, for the live orders: the
    k = 2..r with c_k != 0. seq is the _ScaledRising at the cut _cut(s, ks,
    q1, tol, prec) in the unit W = _tail_unit(s, r, q1, tol, prec), built up
    to U_(k-1) for the largest live order k (U_0 without one); limit =
    floor(2^(W-2) tol/2) is the far-sum limit of D and of the jump tail,
    each asked for tol/2. jump = (V, err, capped) is e_r(q1), _jump_tail at
    j >= q1 + 1, in units of 2^-W.
    """
    c, e = bernoulli.family(m)._weights("jump", r)
    ks = [k for k in range(2, r + 1) if c[k]]
    W = _tail_unit(s, r, q1, tol, prec)
    limit = int(mp.ldexp(tol / 2, W - 2))
    seq = _ScaledRising(s, _cut(s, ks, q1, tol, prec), W, max(ks, default=1) - 1)
    return limit, seq, _jump_tail(seq, c, e, ks, q1 + 1, limit)


def rho_tail(fs: FunctionStack, m: int, r: int, q1: int,
             tol=None, prec: int = DEFAULT_PRECISION) -> CertifiedValue:
    """e_r(q1) = rho(q1, infinity), with a certified error bound.

    Power stacks certify the jump tail of _tail_start, the set-up of an
    estimate at q1: certified power tail sums (_jump_tail), one integer in
    units of 2^-W, W = _tail_unit(s, r, q1, tol, prec), rounded once. They
    compute neither sigma~ nor D.
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
            _, seq, e = _tail_start(fs.s, m, r, q1, tol, prec)
            return _certified(*e, seq.W, prec)
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
        total, env = rho(fs, m, r, q1, J, prec), envelope(J)
        return CertifiedValue(total, +(env + _rounding_slack(total, prec)),
                              ("rho_terms",) if env > tol else ())


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
    """(e_r(q1), delta_r(q1), W, D, x) for f = x^-s: both tails of the
    identity of level m at q1, and what an estimate at p = q1 reads besides
    (_solve); called at working precision prec.

    e_r(q1) is the jump tail of _tail_start, the one set-up, and delta_r(q1)
    = sigma~_r(q1) - e_r(q1) - D(q1) is the identity solved for it. This adds
    the regularized tail D = D(q1) = sum_{j>=q1} j^-s - int_q1^inf x^-s
    (_regularized_tail, to tol/2, from the set-up's sequence and limit) and
    sigma~_r(q1): f(q1) plus the sigma~ coefficients Ct_k/Dn
    (PowerFunction._sigma_ints) on _power_sums at q1, within 1 +
    sum|Ct_k|/Dn units, rounded up, and one more for the floor. The three
    are integers in units of 2^-W, W = _tail_unit(s, r, q1, tol, prec) as in
    rho_tail. Each tail is rounded on its own (_certified): e_r(q1) exactly
    0 with bound 0 when no order is live, delta_r(q1) once from the sum,
    with the caps of both. D is (V, err, capped) as _regularized_tail gives
    it, and x = scaled_power(s-1, q1, W) the power its integral reads (None
    at s = 1).
    """
    s, orders = fs.s, range(1, r + 1)
    limit, seq, (e, e_err, e_cap) = _tail_start(s, m, r, q1, tol, prec)
    W = seq.W
    ctil, _, Dn = fs._sigma_ints(m, r)
    at_q1 = _power_sums(s, [q1], orders, W)
    st = at_q1[1] + sum(c * at_q1[k] for k, c in zip(orders, ctil)) // Dn
    st_err = 2 + _cdiv(sum(map(abs, ctil)), Dn)
    x = scaled_power(s - 1, q1, W) if s > 1 else None
    D = d, d_err, d_cap = _regularized_tail(seq, q1, limit, x)
    return (_certified(e, e_err, e_cap, W, prec),
            _certified(st - e - d, st_err + e_err + d_err, e_cap or d_cap, W, prec), W, D, x)


def delta_tail(fs: FunctionStack, m: int, r: int, q1: int,
               tol=None, prec: int = DEFAULT_PRECISION) -> CertifiedValue:
    """delta_r(q1) = R_r(q1, infinity) with a certified bound.

    For power stacks it is the identity of level m at q1 solved for it,
    delta_r(q1) = sigma~_r(q1) - e_r(q1) - D(q1), in integers in units of
    2^-W, W = _tail_unit(s, r, q1, tol, prec) as in rho_tail, rounded once
    (_power_identity_tails, which estimate_series and euler_constant call
    for both tails and D at once).
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
            return CertifiedValue(mp.mpf(0), +(tail_bound(q1) + _rounding_slack(0, prec)),
                                  ("abs_deriv_tail_only",))
        Q = q1
        while tail_bound(Q) > tol and Q - q1 < 4096:
            Q += 16
        total, far = remainder_R(fs, m, r, q1, Q, prec), tail_bound(Q)
        return CertifiedValue(+total, +(far + _rounding_slack(total, prec)),
                              ("delta_cells",) if far > tol else ())


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
    error_bound is within it. caps_hit names each cap that stopped a tail
    the value depends on, once: "order_cap" (an x^-s far sum met no order up
    to 192 within its share of tol and took its smallest bound), "rho_terms"
    (generic rho_tail summed its 200000 terms), "delta_cells" (generic
    delta_tail stepped its 4096 cells) and "abs_deriv_tail_only" (generic
    delta_tail on a stack with abs_deriv_tail but no integrals, whose bound
    is the whole tail's). error_parts names what error_bound is made of, in
    order (_solve): for x^-s the counted errors of "integral_tail" (not for
    euler_constant), "partial_sum" and "regularized_tail" D(p) and the
    "rounding" of their sum; for other stacks the bounds of "e_tail" and
    "delta_tail" and the "rounding" slack of the mpf sum. None of these
    four is part of as_dict.
    """

    value: object
    components: dict
    error_bound: object
    tol: object
    tol_met: bool
    caps_hit: tuple = ()
    error_parts: dict = field(default_factory=dict)

    def as_dict(self, digits: int = 30) -> dict:
        out = {"value": decimal_str(self.value, digits)}
        out.update({k: decimal_str(v, digits) for k, v in self.components.items()})
        out["error_bound"] = decimal_str(self.error_bound, 8)
        return out


def _solve(fs: FunctionStack, m: int, r: int, p: int, name: str, lead,
           prec: int, tol) -> SeriesEstimate:
    """lead + S(p-1) - sigma(inf) + sigma~(p) - e(p) - delta(p), the identity of
    level m at p solved for its left side, with the component `name` = lead;
    lead None stands for int_p^inf f.

    For x^-s, delta(p) = sigma~(p) - e(p) - D(p) (_power_identity_tails), so
    sigma~ and e cancel exactly and, with sigma(inf) = 0, the value is
    lead + S(p-1) + D(p): one integer in the tails' unit 2^-W, the sum of
    the pieces' integers (lead = lambda0 = 0 for euler_constant, which
    leaves out the integral), within the sum of their counted errors, and
    rounded once (_certified). Besides D(p), the pieces are S(p-1), from
    _power_sums of 1 <= j < p in the same unit, within p - 1 units (exactly
    0 at p = 1), and, for s - 1 = u/v, int_p^inf x^-s = 2^W p^(1-s) v/u from
    the power x = scaled_power(s-1, p, W) that D's integral reads: x v // u
    is within v/u + 1 units. error_parts holds those counted errors and
    the rounding, (|V| >> prec) + 1 units for the sum V, each rounded up at
    prec; error_bound is their integer total rounded up once, so they sum
    to it exactly whenever that total fits in prec bits. The components are
    the same integers rounded, and rho_tail's and delta_tail's values;
    sigma~ is the float sigma_tilde, not certified, and the value does not
    read it. caps_hit is D's, the only far sum in the value.

    Generic stacks take the tails from rho_tail and delta_tail, partial_sum
    and exact_tail_integral at prec, and sum the pieces in mpf at prec in
    this order; the error bound is the sum of error_parts: the tails' bounds
    plus _rounding_slack of the sum. tol_met compares the bound with tol.
    """
    with mp.workprec(prec):
        if tol is None:
            tol = _default_tol(prec)
        st, si = sigma_tilde(fs, m, r, p, prec), sigma_infinity(fs, m, r, prec)
        if isinstance(fs, PowerFunction):
            e, d, W, D, x = _power_identity_tails(fs, m, r, p, tol, prec)
            ints = {}
            if lead is None:
                u, v = (fs.s - 1).numerator, (fs.s - 1).denominator
                ints["integral_tail"] = (x * v // u, _cdiv(v, u) + 1)
                lead = _round_fixed(ints["integral_tail"][0], W, prec)
            ints["partial_sum"] = (_power_sums(fs.s, range(1, p), [1], W)[1], p - 1)
            ints["regularized_tail"] = D[:2]
            psum = _round_fixed(ints["partial_sum"][0], W, prec)
            V, err = map(sum, zip(*ints.values()))
            cv = _certified(V, err, D[2], W, prec)
            ints["rounding"] = (0, (abs(V) >> prec) + 1)  # as _certified counts it
            parts = {k: _round_fixed(n, W, prec, round_ceiling) for k, (_, n) in ints.items()}
        else:
            psum = partial_sum(fs, p - 1, prec)
            e, d = rho_tail(fs, m, r, p, tol, prec), delta_tail(fs, m, r, p, tol, prec)
            if lead is None:
                lead = fs.exact_tail_integral(p, prec)
            value = +(lead + psum - si + st - e.value - d.value)
            parts = {"e_tail": e.bound, "delta_tail": d.bound,
                     "rounding": _rounding_slack(value, prec)}
            cv = CertifiedValue(value, sum(parts.values()), e.caps_hit + d.caps_hit)
        components = {name: +lead, "partial_sum": +psum, "sigma_tilde": +st, "sigma_inf": +si,
                      "e_tail": +e.value, "delta_tail": +d.value}
        return SeriesEstimate(value=cv.value, components=components, error_bound=cv.bound,
                              tol=tol, tol_met=cv.bound <= tol,
                              caps_hit=tuple(dict.fromkeys(cv.caps_hit)), error_parts=parts)


def estimate_series(fs: FunctionStack, m: int, r: int, p: int,
                    prec: int = DEFAULT_PRECISION, tol=None) -> SeriesEstimate:
    """S(inf) = int_p^inf f + S(p-1) - sigma(inf) + sigma~(p) - e(p) - delta(p).

    This is the convergent identity solved for the series value, with the
    component "integral_tail" = int_p^inf f. For x^-s the value is the one
    integer int_p^inf x^-s + S(p-1) + D(p) in the tails' unit _tail_unit,
    which tol sets, rounded once; for other stacks the error bound collects
    the certified tails plus a rounding budget (_solve).
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if fs.exact_tail_integral is None:
        raise TailNotCertifiableError("tail integral of f is not available")
    return _solve(fs, m, r, p, "integral_tail", None, prec, tol)


def euler_constant(fs: FunctionStack, m: int, r: int,
                   prec: int = DEFAULT_PRECISION, tol=None) -> SeriesEstimate:
    """gamma(f) = lim (sum_{i<=n} f(i) - int_1^n f), via the identity at 1.

    gamma(f) = lambda0 + sigma~_r(1) - sigma_r(inf) - e_r(1) - delta_r(1),
    lambda0 = lim f, the identity of estimate_series at p = 1 with lambda0 in
    place of the tail integral (S(0) = 0). The components name lambda0
    "limit_at_infinity". For x^-s, lambda0 = 0 and gamma(f) = D(1), one
    integer rounded once; for other stacks error_bound is the bounds of
    e_r(1) and delta_r(1) plus the rounding slack of the mpf sum
    (error_parts).
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
