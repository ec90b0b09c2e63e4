"""Euler-Maclaurin quadrature of level m and the related exact integrals.

The unit-interval rule expresses int_0^1 f through boundary derivative terms
weighted by B_k and B_k(1) plus an integral remainder against B_r; the
composite rule tiles [a,b] with it, and its main sum is sigma(b) -
[sigma~(a) - f(a)] + rho over the interior nodes, with step h. Each piece is
one _derivative_sum over a row of the level-m weight table. em_composite is
the one route that integrates a remainder numerically: a fixed 32-node
Gauss-Legendre rule per cell, with nodes generated at working precision and
B_r at the nodes cached per (m, r, prec). Its quadrature error is not
bounded and enters no remainder bound; it is small where f^(r) is smooth
across a cell, but near a pole of f (x^-s on the cells next to 0) it can
exceed the reported bound. series.remainder_R, and through it delta_tail on
generic stacks, take their remainders from em_composite; delta_tail on x^-s
takes its block exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, Optional

import mpmath as mp
from mpmath.libmp import from_rational, round_ceiling

from . import bernoulli, periodic
from .bigfloat import DEFAULT_PRECISION, to_mpf, truncated_power_sum
from .polyrat import Poly

GAUSS_NODES = 32

_gauss_cache: dict = {}
_sup_norm_cache: dict = {}
_weight_rows: dict = {}
_node_rows: dict = {}


def _weight_row(m: int, kind: str, n: int, prec: int) -> list:
    """[W_k/(m! k!)] for k <= n (at least) as mpf, at level m.

    W_k is B_k, B_k(1) or B_k(1) - B_k for kind "number", "boundary" or
    "jump". Entries are to_mpf of the exact rational, read from the level's
    scaled integer table and converted once per (m, kind, prec); each row
    grows on its own, as far as a caller asks.
    """
    row = _weight_rows.setdefault((m, kind, prec), [])
    if len(row) <= n:
        c, e = bernoulli.family(m)._weights(kind, n)
        row.extend(to_mpf(Fraction(c[k], e), prec) for k in range(len(row), n + 1))
    return row


def _derivative_sum(fs: FunctionStack, row: list, orders, xs, h=1):
    """sum_{k in orders} (-1)^(k+1) row[k] h^k sum_{x in xs} f^(k-1)(x).

    At the working precision; an order with a zero weight is skipped, any
    other fetches its evaluator f^(k-1) once.
    """
    return mp.fsum((-1) ** (k + 1) * row[k] * h**k * mp.fsum(map(fs.deriv(k - 1), xs))
                   for k in orders if row[k])


def _check_order(fs: FunctionStack, r: int) -> None:
    if r < 1:
        raise ValueError("r must be at least 1")
    if r > fs.r_max:
        raise ValueError(f"r={r} exceeds the stack's r_max={fs.r_max}")


def gauss_legendre_01(n: int = GAUSS_NODES, prec: int = DEFAULT_PRECISION):
    """Nodes and weights on [0,1], generated by Newton iteration at `prec`."""
    key = (n, prec)
    if key in _gauss_cache:
        return _gauss_cache[key]
    with mp.workprec(prec + 32):
        pairs = []
        tol = mp.mpf(2) ** (-(prec + 16))
        for k in range(1, n + 1):
            x = mp.cos(mp.pi * (4 * k - 1) / (4 * n + 2))
            for _ in range(100):
                p0, p1 = mp.mpf(1), x
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = n * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < tol:
                    break
            p0, p1 = mp.mpf(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1)
            w = 2 / ((1 - x * x) * dp * dp)
            pairs.append(((x + 1) / 2, w / 2))
        pairs.sort(key=lambda t: t[0])
    with mp.workprec(prec):
        pairs = [(+u, +w) for u, w in pairs]
    _gauss_cache[key] = pairs
    return pairs


class FunctionStack:
    """A function with its derivatives up to order r_max and optional tails.

    derivs(k) must return an evaluator for f^(k), 1 <= k <= r_max; order 0 is
    f itself. The optional callables take (…, prec) and return mpf values:

      exact_tail_integral(p, prec)   -> int_p^inf f
      exact_integral(a, b, prec)     -> int_a^b f
      abs_deriv_tail(k, p, prec)     -> upper bound for int_p^inf |f^(k)|

    domain_lo is an exclusive lower end of the domain (None: unbounded); the
    rules refuse a cell that reaches down to it, and the point sums a point at
    or below it (see check_domain).

    A finite-difference spot check of the first few derivatives runs at
    construction (relative tolerance 1e-6 at three sample points).
    """

    def __init__(
        self,
        f: Callable,
        derivs: Callable[[int], Callable],
        r_max: int,
        exact_tail_integral: Optional[Callable] = None,
        exact_integral: Optional[Callable] = None,
        abs_deriv_tail: Optional[Callable] = None,
        limit_at_infinity=None,
        derivatives_vanish: bool = False,
        integral_converges: Optional[bool] = None,
        domain_lo=None,
        check: bool = True,
        check_points=(0.3, 0.55, 0.8),
        prec: int = DEFAULT_PRECISION,
    ):
        self.f = f
        self._derivs = derivs
        self.r_max = r_max
        self.exact_tail_integral = exact_tail_integral
        self.exact_integral = exact_integral
        self.abs_deriv_tail = abs_deriv_tail
        self.limit_at_infinity = limit_at_infinity
        self.derivatives_vanish = derivatives_vanish
        self.integral_converges = integral_converges
        self.domain_lo = domain_lo
        if check:
            self._spot_check(check_points, prec)

    def deriv(self, k: int) -> Callable:
        if k == 0:
            return self.f
        if k > self.r_max:
            raise ValueError(f"derivative order {k} exceeds r_max={self.r_max}")
        return self._derivs(k)

    def check_domain(self, a, point: bool = False) -> None:
        """Raise ValueError unless a cell starting at a lies inside the domain.

        With point=True, a is a point where f or a derivative is evaluated.
        """
        if self.domain_lo is not None and a <= self.domain_lo:
            what = "f cannot be evaluated at" if point else "a cell cannot start at"
            raise ValueError(f"the stack is defined for x > {self.domain_lo}, so {what} {a}")

    def _spot_check(self, points, prec: int) -> None:
        # central difference of f^(k-1) against f^(k); h chosen so both the
        # truncation O(h^2) and rounding O(2^-prec / h) sit far below 1e-6
        prec = max(prec, 128)
        with mp.workprec(prec):
            h = mp.mpf(2) ** (-min(36, prec // 3))
            for k in range(1, min(self.r_max, 3) + 1):
                lo, hi = self.deriv(k - 1), self.deriv(k)
                for x in points:
                    x = mp.mpf(x)
                    fd = (lo(x + h) - lo(x - h)) / (2 * h)
                    ex = hi(x)
                    scale = max(abs(ex), mp.mpf(1))
                    if abs(fd - ex) > 1e-6 * scale:
                        raise ValueError(
                            f"derivative {k} inconsistent with finite differences at x={x}"
                        )


def poly_stack(p: Poly, prec: int = DEFAULT_PRECISION) -> FunctionStack:
    """FunctionStack for a polynomial; derivatives and integrals are exact."""
    derivs = [p]
    while derivs[-1]:
        derivs.append(derivs[-1].derivative())

    def dk(k):
        q = derivs[k] if k < len(derivs) else Poly.zero()
        return lambda x, q=q: q.eval_mpf(x, prec)

    def integral(a, b, prec=prec):
        if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
            return to_mpf(p.definite_integral(a, b), prec)
        F = p.antiderivative()
        with mp.workprec(prec):
            return +(F.eval_mpf(b, prec) - F.eval_mpf(a, prec))

    return FunctionStack(
        f=dk(0),
        derivs=dk,
        r_max=10**9,
        exact_integral=integral,
        check=False,
    )


def exp_stack(prec: int = DEFAULT_PRECISION) -> FunctionStack:
    """f = exp, every derivative is exp, exact integrals from the antiderivative."""

    def ev(x):
        with mp.workprec(prec):
            return +mp.e ** mp.mpf(x)

    return FunctionStack(
        f=ev,
        derivs=lambda k: ev,
        r_max=10**9,
        exact_integral=lambda a, b, prec=prec: _exp_integral(a, b, prec),
        check=False,
    )


def _exp_integral(a, b, prec):
    with mp.workprec(prec):
        return +(mp.e ** mp.mpf(b) - mp.e ** mp.mpf(a))


@dataclass
class QuadratureReport:
    main_sum: object
    remainder: object
    remainder_bound: object
    total: object

    def as_dict(self, digits: int = 30) -> dict:
        from .bigfloat import decimal_str

        return {
            "main_sum": decimal_str(self.main_sum, digits),
            "remainder": decimal_str(self.remainder, digits),
            "remainder_bound": decimal_str(self.remainder_bound, digits),
            "total": decimal_str(self.total, digits),
        }


def _bound_inflation(x):
    # Gauss values enter certified bounds only after this safety margin
    return x * (1 + mp.mpf(2) ** -20) + mp.mpf(2) ** -60 * abs(x)


def em_unit(fs: FunctionStack, m: int, r: int, prec: int = DEFAULT_PRECISION) -> QuadratureReport:
    """Unit-interval rule: total = main boundary terms + integral remainder.

    main_sum = (1/m!) sum_{k=1}^r ((-1)^k/k!)(f^(k-1)(0) B_k - f^(k-1)(1) B_k(1))
    remainder = (1/m!)((-1)^r/r!) int_0^1 f^(r)(t) B_r(t) dt

    This is the composite rule on [0,1] with a single cell.
    """
    return em_composite(fs, 0, 1, 1, m, r, prec)


def em_composite(
    fs: FunctionStack, a, b, n_sub: int, m: int, r: int, prec: int = DEFAULT_PRECISION
) -> QuadratureReport:
    """Composite rule on [a,b] with n_sub equal cells of width h = (b-a)/n_sub.

    The ends may be ints, Fractions or mpmath numbers; they are rounded to
    prec bits as to_mpf does. Summed over the cells, the boundary terms give
    main_sum = sigma(b) - [sigma~(a) - f(a)] + rho over the interior nodes
    a + jh, 0 < j < n_sub, with step h; rho here starts at its k = 1 weight, 1.
    """
    if n_sub < 1:
        raise ValueError("n_sub must be at least 1")
    _check_order(fs, r)
    fam = bernoulli.family(m)
    mf = factorial(m)
    with mp.workprec(prec):
        a = to_mpf(a, prec)
        b = to_mpf(b, prec)
        if not a < b:
            raise ValueError("need a < b")
        fs.check_domain(a)
        h = (b - a) / n_sub
        xs = [a + j * h for j in range(n_sub + 1)]
        orders = range(1, r + 1)
        main = (_derivative_sum(fs, _weight_row(m, "boundary", r, prec), orders, [b], h)
                - _derivative_sum(fs, _weight_row(m, "number", r, prec), orders, [a], h)
                + _derivative_sum(fs, _weight_row(m, "jump", r, prec), orders, xs[1:-1], h))
        key = (m, r, prec)
        if key not in _node_rows:
            br = fam.polynomial(r)
            _node_rows[key] = [(u, w, br.eval_mpf(u, prec))
                               for u, w in gauss_legendre_01(GAUSS_NODES, prec)]
        nodes = _node_rows[key]
        fr = fs.deriv(r)
        integ = mp.mpf(0)
        absint = mp.mpf(0)
        for j in range(n_sub):
            acc = mp.mpf(0)
            aacc = mp.mpf(0)
            for u, w, bv in nodes:
                v = fr(xs[j] + h * u)
                acc += w * v * bv
                aacc += w * abs(v)
            integ += h * acc
            absint += h * aacc
        rem = (-h) ** r / (mf * mp.factorial(r)) * integ
        mu = sup_norm(m, r, prec)
        bound = _bound_inflation(
            h**r * mu / (mf * mp.factorial(r)) * absint
        ) + mp.mpf(2) ** (8 - prec)
        return QuadratureReport(+main, +rem, +bound, +(main + rem))


def product_integral(m: int, r: int, n: int) -> Fraction:
    """int_0^1 B_r(t) B_n(t) dt at level m, by the closed Euler-Maclaurin form."""
    if r < 1 or n < 1:
        raise ValueError("need r, n >= 1")
    fam = bernoulli.family(m)
    fam.numbers(r + n + 1)
    mf = factorial(m)
    bracket = Fraction(fam.number(r + n + 1) - fam.boundary(r + n + 1), r + n + 1)
    inner = Fraction(0)
    for k in range(1, r + 1):
        inner += Fraction((-1) ** k, k) * comb(r + n, k - 1) * (
            fam.number(r + n - k + 1) * fam.number(k)
            - fam.boundary(r + n - k + 1) * fam.boundary(k)
        )
    bracket += Fraction(inner, mf)
    return Fraction((-1) ** (r + 1) * factorial(r) * factorial(n) * mf, factorial(r + n)) * bracket


def product_integral_oracle(m: int, r: int, n: int) -> Fraction:
    """Same integral by exact polynomial multiplication and integration."""
    p = bernoulli.gb_polynomial(m, r) * bernoulli.gb_polynomial(m, n)
    return p.definite_integral(0, 1)


def l2_norm_sq(m: int, n: int) -> Fraction:
    """Squared L2[0,1] norm of B_n at level m, closed form."""
    if n < 1:
        raise ValueError("n must be at least 1")
    fam = bernoulli.family(m)
    fam.numbers(2 * n + 1)
    nf2 = factorial(n) ** 2
    out = Fraction(nf2 * factorial(m) * (-1) ** n, factorial(2 * n + 1)) * fam.jump(2 * n + 1)
    s = Fraction(0)
    for k in range(1, n + 1):
        s += Fraction((-1) ** k, factorial(2 * n + 1 - k) * factorial(k)) * (
            fam.number(2 * n + 1 - k) * fam.number(k)
            - fam.boundary(2 * n + 1 - k) * fam.boundary(k)
        )
    return out + nf2 * (-1) ** (n + 1) * s


def parseval_rhs(m: int, n: int) -> Fraction:
    """Exact value of sum_{k>=1} (A_k^2 + B_k^2), with A_k = a_k/2, B_k = b_k/2.

    Parseval applied to p_n = B_n/n! reads
    |p_n|_{L2}^2 = (a0/2)^2 + (1/2) sum_{k>=1} (a_k^2 + b_k^2), where
    a0/2 = (B_{n+1}(1) - B_{n+1})/(n+1)! is the mean of p_n; so the sum is
    (l2_norm_sq/(n!)^2 - (a0/2)^2)/2.
    """
    fam = bernoulli.family(m)
    j = fam.jump(n + 1)
    return (l2_norm_sq(m, n) / factorial(n) ** 2 - Fraction(j * j, factorial(n + 1) ** 2)) / 2


def parseval_partial_sum(m: int, n: int, K: int, prec: int = DEFAULT_PRECISION):
    """sum_{k=1}^{K} (A_k^2 + B_k^2), expanded over powers of 1/(2 pi k).

    Squaring the jump-term sums of a_k = 2 A_k and b_k = 2 B_k turns them into
    a polynomial in 1/k^2 with exact rational coefficients; each power then
    needs one truncated power sum, which is summed deterministically in scaled
    integer arithmetic.
    """
    powers: dict[int, Fraction] = {}
    for terms in periodic.jump_terms(m, n):
        for p1, c1 in terms:
            for p2, c2 in terms:
                powers[p1 + p2] = powers.get(p1 + p2, Fraction(0)) + c1 * c2 / 4
    with mp.workprec(prec):
        inv2pi = 1 / (2 * mp.pi)
        total = mp.mpf(0)
        for t in sorted(powers):
            total += to_mpf(powers[t], prec) * inv2pi**t * truncated_power_sum(t, K, prec)
        return +total


def parseval_residual(m: int, n: int, K: int, prec: int = DEFAULT_PRECISION):
    """|exact Parseval value - K-term partial sum|; decays like O(1/K)."""
    if n < 1 or K < 1:
        raise ValueError("need n >= 1 and K >= 1")
    with mp.workprec(prec):
        return +abs(to_mpf(parseval_rhs(m, n), prec) - parseval_partial_sum(m, n, K, prec))


# ---------------------------------------------------------------------------
# sup norm by Bernstein range bounding

def _halves(c: list) -> tuple[list, list]:
    """Integer de Casteljau split at 1/2; both halves are scaled by 2^n.

    Row j of the triangle holds sums instead of averages, so it carries
    2^j times the true value; the shifts bring every entry to 2^n.
    """
    n = len(c) - 1
    left, right = [c[0] << n], [c[-1] << n]
    row = c
    for j in range(1, n + 1):
        row = [row[i] + row[i + 1] for i in range(n + 1 - j)]
        left.append(row[0] << (n - j))
        right.append(row[-1] << (n - j))
    return left, right[::-1]


def sup_norm(m: int, r: int, prec: int = DEFAULT_PRECISION):
    """mu_r = max |B_r(x)| on [0,1], an upper bound within 2^(2-prec) relative.

    The Bernstein coefficients of a polynomial on an interval enclose its
    range there (Garloff 1985; Farouki-Rajan 1987). They are kept as integers
    over one common denominator, and every piece is halved until the largest
    |coefficient| left is within 2^-prec relative of the best value at a piece
    end, which is exact; a piece goes once its largest |coefficient| is at most
    that value. The result is rounded up. Cached per (m, r, prec), like the
    Gauss nodes.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    key = (m, r, prec)
    if key in _sup_norm_cache:
        return _sup_norm_cache[key]
    a = bernoulli.family(m).polynomial(r).coeffs
    n = len(a) - 1
    # Bernstein coefficients on [0,1], then integers over their common denominator
    b = [sum(Fraction(comb(k, i), comb(n, i)) * a[i] for i in range(k + 1))
         for k in range(n + 1)]
    den = lcm(*(q.denominator for q in b))
    c = [int(q * den) for q in b]
    # the pieces all have one depth d; a coefficient u stands for u / (den * 2^scale),
    # scale = n d, and best and top are kept on the same scale
    pieces, scale = [c], 0
    best, top = max(abs(c[0]), abs(c[-1])), max(map(abs, c))
    while top << prec > best * ((1 << prec) + 1):
        halves = [h for p in pieces for h in _halves(p)]
        scale += n
        best = max(best << n, *(abs(h[0]) for h in halves))
        bounds = [max(map(abs, h)) for h in halves]
        top = max(best, *bounds)
        pieces = [h for h, u in zip(halves, bounds) if u > best]
    mu = mp.make_mpf(from_rational(top, den << scale, prec, round_ceiling))
    _sup_norm_cache[key] = mu
    return mu
