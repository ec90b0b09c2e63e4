"""Series-versus-integral machinery built on the level-m composite rule.

With h = 1 the composite rule ties sum_{j} f(j) to int f through four pieces:
boundary sums sigma/sigma~ weighted by B_k, B_k(1), the interior jump series
rho (vanishing at level 1), and the periodized integral remainder R. Solving
the identity at infinity estimates convergent series such as zeta(2k+1); all
infinite tails are certified, each carrying an explicit error bound.

Normalization: R and its tail delta carry the 1/m! of the composite rule, the
only choice under which the finite identity closes (up to the Gauss error of
R, which comes from quadrature.em_composite).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional

import mpmath as mp

from . import bernoulli
from .bigfloat import DEFAULT_PRECISION, decimal_str, to_mpf
from .quadrature import (FunctionStack, _check_order, _derivative_sum, _weight_row,
                         em_composite, sup_norm)


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
    return abs(value) * mp.mpf(2) ** (12 - prec) + mp.mpf(2) ** (-prec)


def _exponent(e: Fraction, prec: int):
    # an integer exponent stays an int, so x**e takes mpmath's integer power
    return int(e) if e.denominator == 1 else to_mpf(e, prec)


class PowerFunction(FunctionStack):
    """f(x) = x^(-s) for rational s >= 1, with everything in closed form.

    Derivatives are (-1)^k (s)_k x^(-s-k) with the rising factorial (s)_k
    kept exact; tail integrals and the sigma coefficient lists are exact
    rationals, so the estimator's boundary sums can be reported exactly.
    """

    def __init__(self, s, prec: int = DEFAULT_PRECISION):
        s = Fraction(s)
        if s < 1:
            raise ValueError("need exponent s >= 1")
        self.s = s
        self.prec = prec
        self._poch_cache = [Fraction(1)]
        super().__init__(
            f=self._make_deriv(0),
            derivs=self._make_deriv,
            r_max=10**9,
            exact_tail_integral=self._tail_integral if s > 1 else None,
            exact_integral=self._integral,
            abs_deriv_tail=self._abs_deriv_tail,
            limit_at_infinity=0,
            derivatives_vanish=True,
            integral_converges=s > 1,
            domain_lo=0,
            check=False,
        )

    def pochhammer(self, k: int) -> Fraction:
        """(s)_k = s (s+1) ... (s+k-1)."""
        while len(self._poch_cache) <= k:
            i = len(self._poch_cache)
            self._poch_cache.append(self._poch_cache[-1] * (self.s + i - 1))
        return self._poch_cache[k]

    def _pow(self, x, e: Fraction):
        return mp.mpf(x) ** _exponent(e, mp.mp.prec)

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

    def _tail_integral(self, p, prec: int = DEFAULT_PRECISION):
        with mp.workprec(prec):
            return +(self._pow(p, 1 - self.s) / to_mpf(self.s - 1, prec))

    def _integral(self, a, b, prec: int = DEFAULT_PRECISION):
        with mp.workprec(prec):
            if self.s == 1:
                return +(mp.log(mp.mpf(b)) - mp.log(mp.mpf(a)))
            e = 1 - self.s
            return +((self._pow(a, e) - self._pow(b, e)) / to_mpf(self.s - 1, prec))

    def _abs_deriv_tail(self, k: int, p, prec: int = DEFAULT_PRECISION):
        # int_p^inf |f^(k)| = (s)_k p^(1-s-k) / (s+k-1)
        with mp.workprec(prec):
            c = Fraction(self.pochhammer(k), 1) / (self.s + k - 1)
            return +(to_mpf(c, prec) * self._pow(p, 1 - self.s - k))

    def sigma_coefficients(self, m: int, r: int, boundary: bool) -> list[tuple[int, Fraction]]:
        """Exact [(k, c_k)] with sigma-type sum = sum c_k q^-(s+k-1).

        boundary=True weights with B_k(1) (the sigma of the far endpoint),
        False with B_k (the sigma~ of the near endpoint, without the f(q)).
        """
        c, e = bernoulli.family(m)._weights("boundary" if boundary else "number", r)
        return [(k, self.pochhammer(k - 1) * Fraction(c[k], e)) for k in range(1, r + 1)]


def exp_decay_stack(prec: int = DEFAULT_PRECISION) -> FunctionStack:
    """f(x) = exp(-x): classical Euler-Maclaurin sanity stack."""

    def dk(k):
        sign = (-1) ** k

        def ev(x, sign=sign):
            return sign * mp.e ** (-mp.mpf(x))

        return ev

    return FunctionStack(
        f=dk(0),
        derivs=dk,
        r_max=10**9,
        exact_tail_integral=lambda p, prec=prec: mp.e ** (-mp.mpf(p)),
        exact_integral=lambda a, b, prec=prec: mp.e ** (-mp.mpf(a)) - mp.e ** (-mp.mpf(b)),
        abs_deriv_tail=lambda k, p, prec=prec: mp.e ** (-mp.mpf(p)),
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
    """S(l) = f(1) + ... + f(l), summed in ascending order; S(0) = 0."""
    if l < 0:
        raise ValueError("l must be nonnegative")
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
# from a cold cache (the 80 estimates at 1024 bits and p = 100, on the shared
# _RisingPowers sequence, took 161 s with it against 3.3 s, one cold run
# each, with 0 bound violations either way), and it changes the reported
# error bounds (zeta-odd --s 3 --m 5 --r 2 --p 100: 1.6239025e-42 ->
# 8.3280271e-42, since _far_bound then stops at a lower order whose bound
# just meets tol/4). So it stays loose on purpose until a 64-bit sup bound
# replaces it (ROADMAP item 3), but it builds no polynomial: it is one
# integer sum over the level's scaled number table.
def _coeff_abs_sum(m: int, r: int) -> Fraction:
    # sum_k C(r,k) |B_k| >= max_{[0,1]} |B_r|; with B_k = k! a_k/d this is
    # sum_k |a_k| r!/(r-k)! over d, Horner in k
    a, d = bernoulli.family(m)._scaled(r)
    acc = abs(a[r])
    for k in range(r - 1, -1, -1):
        acc = acc * (r - k) + abs(a[k])
    return Fraction(acc, d)


_far_coeffs: dict = {}


def _far_coeff(m: int, r: int, prec: int):
    # A_r = coeff-sum(B_r)/(m! r!) as an mpf, converted once per (m, r, prec)
    key = (m, r, prec)
    if key not in _far_coeffs:
        _far_coeffs[key] = to_mpf(Fraction(_coeff_abs_sum(m, r), factorial(m) * factorial(r)), prec)
    return _far_coeffs[key]


class _RisingPowers:
    """U_n = (s)_n J^-(s+n) and P_n = (s)_n for f = x^-s at one integer J.

    U_n is |f^(n)(J)|, and J U_n/(s+n-1) is int_J^inf |f^(n)|. With s = a/b,
    U_0 = J^(1-s)/J, U_(n+1) = U_n (a+nb)/(bJ) and P_(n+1) = P_n (a+nb)/b, so
    a step multiplies and divides by integers and builds no Fraction. Entries
    are made on demand at the working precision; entry n is within about 2n
    roundings of its value, which the 2^12 relative rounding slack of the
    tails covers for n < 2000. One sequence serves every tail of one call.
    """

    def __init__(self, s: Fraction, J: int, Js):
        self.a, self.b, self.J = s.numerator, s.denominator, J
        self.U = [Js / J]
        self.P = [mp.mpf(1)]

    def u(self, n: int):
        a, b, U = self.a, self.b, self.U
        for i in range(len(U) - 1, n):
            U.append(U[i] * (a + i * b) / (b * self.J))
        return U[n]

    def p(self, n: int):
        a, b, P = self.a, self.b, self.P
        for i in range(len(P) - 1, n):
            P.append(P[i] * (a + i * b) / b)
        return P[n]

    def integral(self, n: int):
        """int_J^inf |f^(n)| = J U_n/(s+n-1), for s+n > 1."""
        return self.u(n) * (self.b * self.J) / (self.a + (n - 1) * self.b)


def _far_bound(pw: _RisingPowers, k: int, m: int, orders, tol, prec: int):
    """(order, bound) for the level-m remainder of sum_{j>=J} |f^(k-1)(j)|.

    pw holds f = x^-s at J. The bound of order r is A_r int_J^inf |f^(k-1+r)|
    = A_r J U_(k-1+r)/(s+k+r-2), with A_r from _far_coeff: three operations on
    the shared sequence, no Fraction per order. tol applies to
    sum_{j>=J} j^-(s+k-1), the tail divided by (s)_(k-1). The first order in
    `orders` whose bound is at most tol/4 is taken, otherwise the one with the
    smallest bound.
    """
    limit = tol / 4 * pw.p(k - 1)
    best = None
    for r in orders:
        bound = _far_coeff(m, r, prec) * pw.integral(k - 1 + r)
        if best is None or bound < best[1]:
            best = (r, bound)
        if bound <= limit:
            break
    return best


_TAIL_ORDERS = range(8, 97, 8)

def _power_tails(pf: PowerFunction, ks, J: int, tol, prec: int) -> list[CertifiedValue]:
    """Certified sum_{j>=J} |f^(k-1)(j)| for each k in ks, for pf = f = x^-s.

    That is (s)_(k-1) sum_{j>=J} j^-(s+k-1), each with t = s+k-1 > 1; tol
    applies to the sum without the (s)_(k-1). All tails share J0 = max(J, 64),
    the terms j^-s for J <= j < J0, which are summed directly, and one
    _RisingPowers sequence U_n = (s)_n J0^-(s+n) from one fractional power
    J0^(1-s). Beyond J0 each tail is the level-1 rule at the order r that
    _far_bound picks for tol: the integral J0 U_(k-1)/(s+k-2) plus sigma~,
    which is one fdot of U_(k-1), ..., U_(k-2+r) with the nonzero level-1
    B_i/i! (those of odd i >= 3 are 0 and left out). Each bound is its far
    bound plus the rounding slack of the tail without the (s)_(k-1), times
    (s)_(k-1).
    """
    s = pf.s
    J0 = max(J, 64)
    bw = _weight_row(1, "number", _TAIL_ORDERS[-1], prec)
    # B_i/i!, plus 1 at i = 1 for the f(J0) term; B_i = 0 for odd i >= 3
    weights = [(i, bw[i] + 1 if i == 1 else bw[i])
               for i in range(1, _TAIL_ORDERS[-1] + 1) if bw[i]]
    es = _exponent(-s, prec)
    near = [(j, mp.mpf(j) ** es) for j in range(J, J0)]
    pw = _RisingPowers(s, J0, pf._pow(J0, 1 - s))
    out = []
    for k in ks:
        r, bound = _far_bound(pw, k, 1, _TAIL_ORDERS, tol, prec)
        direct = mp.mpf(0)
        for j, v in near:
            direct += v / j ** (k - 1)
        P = pw.p(k - 1)
        st = mp.fdot((g, pw.u(k - 2 + i)) for i, g in weights if i <= r)
        value = P * direct + pw.integral(k - 1) + st
        out.append(CertifiedValue(value, bound + P * _rounding_slack(value / P, prec)))
    return out


def _jump_tail(pf: PowerFunction, m: int, orders, J: int, tol, prec: int) -> CertifiedValue:
    """Certified sum_k w_k sum_{j>=J} f^(k-1)(j) over `orders`, for f = x^-s.

    w_k are the jump weights of rho, and f^(k-1)(j) = (-1)^(k-1) |f^(k-1)(j)|,
    so an order adds (B_k(1)-B_k)/(m! k!) from the weight table times its tail
    of |f^(k-1)|. The orders with a nonzero jump take those tails from one
    _power_tails call at the same J, which builds them all from one shared
    sequence, each certified to an equal share of tol. No rounding slack is
    added here beyond that of the tails.
    """
    row = _weight_row(m, "jump", max(orders, default=0), prec)
    ks = [k for k in orders if row[k]]
    tails = _power_tails(pf, ks, J, tol / max(len(ks), 1), prec)
    total = mp.mpf(0)
    bound = mp.mpf(0)
    for k, ts in zip(ks, tails):
        total += row[k] * ts.value
        bound += abs(row[k]) * ts.bound
    return CertifiedValue(total, bound)


def rho_tail(fs: FunctionStack, m: int, r: int, q1: int,
             tol=None, prec: int = DEFAULT_PRECISION) -> CertifiedValue:
    """e_r(q1) = rho(q1, infinity), with a certified error bound.

    Power stacks reduce to certified power tail sums; generic stacks sum
    directly under a decreasing-envelope integral-test bound and need
    abs_deriv_tail for every order below r.
    """
    _check_order(fs, r)
    fs.check_domain(q1 + 1, point=True)
    with mp.workprec(prec):
        if tol is None:
            tol = _default_tol(prec)
        row = _weight_row(m, "jump", r, prec)
        orders = range(2, r + 1)
        if not any(row[k] for k in orders):
            return CertifiedValue(mp.mpf(0), mp.mpf(0))
        if isinstance(fs, PowerFunction):
            e = _jump_tail(fs, m, orders, q1 + 1, tol / 2, prec)
            return CertifiedValue(+e.value, +(e.bound + _rounding_slack(e.value, prec)))
        # generic: direct summation with an integral-test envelope
        if fs.abs_deriv_tail is None:
            raise TailNotCertifiableError("tail not certifiable")
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
        total = _derivative_sum(fs, row, orders, [mp.mpf(j) for j in range(q1 + 1, J)])
        return CertifiedValue(+total, +(envelope(J) + _rounding_slack(total, prec)))


def remainder_R(fs: FunctionStack, m: int, r: int, q1: int, q2: int,
                prec: int = DEFAULT_PRECISION):
    """R_r(q1,q2) = (1/m!)((-1)^r/r!) int f^(r)(t) B_r(t - floor t) dt.

    The remainder of em_composite on [q1, q2] with unit cells, so it takes
    em_composite's Gauss rule and its unbounded Gauss error: small where
    f^(r) is smooth across a cell, but not on cells next to a pole of f
    (x^-s near 0). delta_tail uses it only for generic stacks; for power
    stacks it takes the exact _remainder_block. R_r(q, q) = 0.
    """
    _check_order(fs, r)
    if q2 < q1:
        raise ValueError("need q1 <= q2")
    fs.check_domain(q1)
    if q1 == q2:
        return mp.mpf(0)
    return em_composite(fs, q1, q2, q2 - q1, m, r, prec).remainder


def _horner_inv(coeffs: list, x: int):
    # sum_i coeffs[i] x^-i, dividing by the integer x once per step
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc / x + c
    return acc


def _remainder_block(pf: PowerFunction, m: int, r: int, q1: int, Q: int,
                     prec: int) -> tuple:
    """(R_r(q1, Q), bound on its rounding error) for f = x^-s, from the identity.

    The finite identity between q1 and Q, solved for the remainder:
    R_r(q1,Q) = int_q1^Q f - sum_{q1<j<Q} j^-s sum_{k=1}^r a_k j^-(k-1)
                - sigma_r(Q) + [sigma~_r(q1) - f(q1)],
    with a_k = cbar_k - ctil_k, the exact difference of the sigma and sigma~
    coefficients: (s)_(k-1) (B_k(1)-B_k)/(m! k!), so a_1 = 1. Each
    integer costs one power j^-s and a Horner step in 1/j per jump order; the
    sigma pieces are Horner sums in 1/Q and 1/q1 of the exact sigma
    coefficients, and the integral reuses the powers of q1 and Q. Everything
    is summed at w = prec + 64 bits against the cancellation between the
    integral and the sum, and the value is returned at w bits.
    """
    w = prec + 64
    s = pf.s
    with mp.workprec(w):
        es = _exponent(-s, w)
        ctil = [c for _, c in pf.sigma_coefficients(m, r, boundary=False)]
        cbar = [c for _, c in pf.sigma_coefficients(m, r, boundary=True)]
        a = [to_mpf(cb - ct, w) for cb, ct in zip(cbar, ctil)]
        while len(a) > 1 and not a[-1]:
            a.pop()
        ctil = [to_mpf(c, w) for c in ctil]
        cbar = [to_mpf(c, w) for c in cbar]
        powers = mp.mpf(0)
        total = mp.mpf(0)
        for j in range(q1 + 1, Q):
            v = mp.mpf(j) ** es
            powers += v
            total += v * _horner_inv(a, j)
        q1s, Qs = mp.mpf(q1) ** es, mp.mpf(Q) ** es
        # an antiderivative of x^-s at q1 and at Q
        if s == 1:
            near, far = mp.log(q1), mp.log(Q)
        else:
            sm1 = to_mpf(s - 1, w)
            near, far = -(q1 * q1s) / sm1, -(Q * Qs) / sm1
        sigma_far = Qs * _horner_inv(cbar, Q)
        sigma_near = q1s * _horner_inv(ctil, q1)
        value = far - near - total - sigma_far + sigma_near
        # Rounding: +, -, *, / are correctly rounded, |delta| <= u = 2^-w; a
        # power or log of an integer below 2^w is taken to be within 4u (mpmath
        # works with at least 10 guard bits); converting an exact rational to
        # w bits costs u. The w-bit exponent -s is off by
        # at most |s| u, which moves j^-s by at most |s| ln(Q) u <= |s| L u,
        # L = bit length of Q. So every power is within (5 + |s| L) u. A
        # Horner sum of degree d < r at the integer x, with rounded
        # coefficients, is within gamma_(2d+1) sum_i |c_i| x^-i (Higham, ASNA,
        # 5.1), and one product follows. Every summand above is thus within
        # (2r + 7 + |s| L) u (1 + O(ru)) of its value relative to A_t, its
        # power times the Horner sum of |coefficients|. Recursive summation of
        # its N = Q - q1 + 3 summands adds gamma_N sum_t A_t. With
        # gamma_n <= 1.01 n u for n u <= 0.01, the error is at most
        # 1.01 (N + 2r + 7 + |s| L) u A (1 + O(ru)), A = sum_t A_t, which the
        # factor 2 below covers with room for the w-bit rounding of A itself.
        # A is bounded with j^-(k-1) <= (q1+1)^-(k-1) and 1/q1, 1/Q <= 1.
        habs = _horner_inv([abs(c) for c in a], q1 + 1)
        A = (habs * powers + abs(near) + abs(far)
             + Qs * sum(map(abs, cbar)) + q1s * sum(map(abs, ctil)))
        K = (Q - q1 + 3) + 2 * r + 7 + abs(s) * Q.bit_length()
        err = 2 * to_mpf(K, w) * A * mp.mpf(2) ** -w
        return value, err


def delta_tail(fs: FunctionStack, m: int, r: int, q1: int,
               tol=None, prec: int = DEFAULT_PRECISION) -> CertifiedValue:
    """delta_r(q1) = R_r(q1, infinity) with a certified bound.

    The block R_r(q1, Q) is taken directly. For power stacks it comes exactly
    from the finite identity (_remainder_block), with its rounding bounded, and
    the far tail is rewritten through the identity at a higher order r':
    delta_r(Q) = [sigma~_r(Q) - sigma~_r'(Q)] + [e_r'(Q) - e_r(Q)] + delta_r'(Q),
    and r', Q are raised until the sup-norm bound on delta_r'(Q) is below tol.
    Generic stacks step Q by 16 cells (at most 4096) until the bound
    mu_r/(m! r!) int_Q^inf |f^(r)| (from abs_deriv_tail) drops below tol,
    then take the block with one remainder_R call, that is from
    em_composite's Gauss rule, whose error is not bounded.
    """
    _check_order(fs, r)
    fs.check_domain(q1)
    with mp.workprec(prec):
        if tol is None:
            tol = _default_tol(prec)
        mf = factorial(m)
        if isinstance(fs, PowerFunction):
            s = fs.s
            ext = 64
            while True:
                Q = q1 + ext
                pw = _RisingPowers(s, Q, fs._pow(Q, 1 - s))
                rp, far_bound = _far_bound(pw, 1, m, range(r + 8, r + 97, 8), tol, prec)
                if far_bound <= tol / 4 or ext >= 512:
                    break
                ext *= 2
            direct, direct_err = _remainder_block(fs, m, r, q1, Q, prec)
            # sigma~ difference: the orders r+1..rp seen from Q, where the term
            # (s)_(k-1) B_k/(m! k!) Q^-(s+k-1) is B_k/(m! k!) U_(k-1)
            bw = _weight_row(m, "number", rp, prec)
            sdiff = -mp.fdot((bw[k], pw.u(k - 1)) for k in range(r + 1, rp + 1))
            # e difference: certified tail sums of the new jump orders
            e = _jump_tail(fs, m, range(r + 1, rp + 1), Q + 1, tol / 4, prec)
            value = direct + sdiff + e.value
            bound = far_bound + e.bound + direct_err + _rounding_slack(value, prec)
            return CertifiedValue(+value, +bound)
        # generic: integrate cells until the remaining tail bound is small
        if fs.abs_deriv_tail is None:
            raise TailNotCertifiableError("tail not certifiable")
        mu = sup_norm(m, r, prec)
        coef = mu / (mf * mp.factorial(r))

        def tail_bound(Q):
            return coef * fs.abs_deriv_tail(r, Q, prec)

        Q = q1
        while tail_bound(Q) > tol and Q - q1 < 4096:
            Q += 16
        total = remainder_R(fs, m, r, q1, Q, prec)
        return CertifiedValue(+total, +(tail_bound(Q) + _rounding_slack(total, prec)))


def finite_identity_residual(fs: FunctionStack, m: int, r: int, p: int, n: int,
                             prec: int = DEFAULT_PRECISION):
    """|int_p^n f - [S(n-1)-S(p-1) + sigma(n) - sigma~(p) + rho(p,n) + R(p,n)]|.

    The five right-hand pieces reassemble the composite rule with h = 1, so
    the residual is the Gauss error of remainder_R plus rounding; it pins
    down the consistent normalization of every component.
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


def euler_constant(fs: FunctionStack, m: int, r: int,
                   prec: int = DEFAULT_PRECISION, tol=None):
    """gamma(f) = lim (sum_{i<=n} f(i) - int_1^n f), via the identity at 1.

    gamma(f) = lambda0 + sigma~_r(1) - sigma_r(inf) - e_r(1) - delta_r(1).
    """
    if fs.limit_at_infinity is None:
        raise TailNotCertifiableError("limit of f at infinity is unknown")
    with mp.workprec(prec):
        if tol is None:
            tol = _default_tol(prec)
        lam0 = mp.mpf(fs.limit_at_infinity)
        st = sigma_tilde(fs, m, r, 1, prec)
        si = sigma_infinity(fs, m, r, prec)
        e = rho_tail(fs, m, r, 1, tol, prec)
        d = delta_tail(fs, m, r, 1, tol, prec)
        return +(lam0 + st - si - e.value - d.value)


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


def estimate_series(fs: FunctionStack, m: int, r: int, p: int,
                    prec: int = DEFAULT_PRECISION, tol=None) -> SeriesEstimate:
    """S(inf) = int_p^inf f + S(p-1) - sigma(inf) + sigma~(p) - e(p) - delta(p).

    This is the convergent identity solved for the series value; the error
    bound collects the two tail certifications plus a rounding budget.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if fs.exact_tail_integral is None:
        raise TailNotCertifiableError("tail integral of f is not available")
    with mp.workprec(prec):
        if tol is None:
            tol = _default_tol(prec)
        integral_tail = fs.exact_tail_integral(p, prec)
        psum = partial_sum(fs, p - 1, prec)
        st = sigma_tilde(fs, m, r, p, prec)
        si = sigma_infinity(fs, m, r, prec)
        e = rho_tail(fs, m, r, p, tol, prec)
        d = delta_tail(fs, m, r, p, tol, prec)
        value = integral_tail + psum - si + st - e.value - d.value
        bound = e.bound + d.bound + _rounding_slack(value, prec)
        return SeriesEstimate(
            value=+value,
            components={
                "integral_tail": +integral_tail,
                "partial_sum": +psum,
                "sigma_tilde": +st,
                "sigma_inf": +si,
                "e_tail": +e.value,
                "delta_tail": +d.value,
            },
            error_bound=+bound,
        )


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
