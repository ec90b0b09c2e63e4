"""Command-line front end.

All data goes to stdout in the selected format (json by default), diagnostics
to stderr. Exit codes: 0 ok, 1 failed checks, 2 usage errors, 3 uncertifiable
tails. Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import bernoulli, checks, periodic, quadrature, series, zeta_even
from .bigfloat import decimal_str
from .polyrat import format_rational, rational

ENV_PRECISION = "GBZETA_PRECISION_BITS"


def _base_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gbzeta",
        description="generalized Bernoulli polynomials of level m, zeta relations, "
                    "and Euler-Maclaurin machinery",
    )
    env_prec = os.environ.get(ENV_PRECISION, "256")
    try:
        default_prec = int(env_prec)
    except ValueError:
        ap.error(f"{ENV_PRECISION} must be an integer, got {env_prec!r}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", type=int, default=default_prec,
                        help="mantissa bits for float output (default 256)")
    common.add_argument("--digits", type=int, default=30,
                        help="decimal digits in float output (default 30)")
    common.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("numbers", help="generalized Bernoulli numbers")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)

    p = add_parser("poly", help="coefficients of B_n at level m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add_parser("eval", help="evaluate B_n (or its periodic extension)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=str, required=True, help="rational 'p/q' or decimal")
    p.add_argument("--periodic", action="store_true")

    p = add_parser("fourier", help="Fourier coefficients of the periodic function")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--at", type=str, default=None,
                   help="also evaluate the K-term partial sum at this point")

    p = add_parser("zeta-even", help="zeta(2r) as an exact pi-power multiple")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--via", choices=("euler", "htyq1", "peri12"), default="euler")

    p = add_parser("zeta-odd", help="series estimator for sum j^-s")
    p.add_argument("--s", type=str, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = add_parser("quad", help="Euler-Maclaurin composite quadrature")
    p.add_argument("--f", type=str, required=True, help="exp or power:S")
    p.add_argument("--a", type=str, required=True)
    p.add_argument("--b", type=str, required=True)
    p.add_argument("--nsub", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = add_parser("norms", help="L2 norm and sup norm of B_n")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add_parser("check", help="run invariant suites")
    p.add_argument("--suite", choices=("core", "fourier", "zeta", "quad", "series", "all"),
                   required=True)

    p = add_parser("export-plot", help="sample B_n and p_n for plotting")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    return ap


def _parse_rational(text: str) -> Fraction:
    """'p/q', an integer or a decimal; a zero denominator is a usage error."""
    try:
        return rational(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _emit(payload, fmt: str, rows=None) -> None:
    """rows: optional list-of-dicts view used by the csv format."""
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "plain":
        for k, v in payload.items():
            print(f"{k} = {v}")
    else:
        buf = io.StringIO()
        # an empty table (fourier --K 0) still writes the payload row
        table = rows or [payload]
        writer = csv.DictWriter(buf, fieldnames=list(table[0].keys()))
        writer.writeheader()
        for row in table:
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())


def main(argv=None) -> int:
    ap = _base_parser()
    args = ap.parse_args(argv)
    prec, digits, fmt = args.precision_bits, args.digits, args.format
    if prec < 64:
        ap.error("precision must be at least 64 bits")
    if digits < 1:
        ap.error("--digits must be at least 1")
    if digits > 0.3 * prec:
        ap.error(f"{digits} digits is more than {prec} bits can carry")

    try:
        if args.command == "numbers":
            if args.m < 1 or args.nmax < 0:
                ap.error("need m >= 1 and nmax >= 0")
            nums = bernoulli.gb_numbers(args.m, args.nmax)
            _emit({"m": args.m, "numbers": [format_rational(q) for q in nums]}, fmt,
                  rows=[{"k": k, "B_k": format_rational(q)} for k, q in enumerate(nums)])
        elif args.command == "poly":
            p = bernoulli.gb_polynomial(args.m, args.n)
            cs = [format_rational(c) for c in p.coeffs]
            _emit({"m": args.m, "n": args.n, "coeffs": cs}, fmt,
                  rows=[{"degree": i, "coeff": c} for i, c in enumerate(cs)])
        elif args.command == "eval":
            x = _parse_rational(args.x)
            if args.periodic:
                val = periodic.periodic_eval(args.m, args.n, x, prec)
                _emit({"m": args.m, "n": args.n, "x": args.x, "periodic": True,
                       "value": decimal_str(val, digits)}, fmt)
            else:
                val = bernoulli.gb_polynomial(args.m, args.n)(x)
                _emit({"m": args.m, "n": args.n, "x": args.x, "periodic": False,
                       "value": format_rational(val)}, fmt)
        elif args.command == "fourier":
            fc = periodic.fourier_coeffs(args.m, args.n, args.K, prec)
            payload = {
                "m": args.m, "n": args.n,
                "a0": format_rational(fc.a0),
                "a": [decimal_str(v, digits) for v in fc.a],
                "b": [decimal_str(v, digits) for v in fc.b],
                "K": args.K,
            }
            rows = [{"k": k + 1, "a_k": payload["a"][k], "b_k": payload["b"][k]}
                    for k in range(args.K)]
            if args.at is not None:
                x = _parse_rational(args.at)
                payload["partial_sum"] = decimal_str(
                    periodic.fourier_partial_sum(args.m, args.n, x, args.K, prec), digits)
                payload["periodic_value"] = decimal_str(
                    periodic.periodic_eval(args.m, args.n, x, prec), digits)
            _emit(payload, fmt, rows=rows)
        elif args.command == "zeta-even":
            if args.m < 1:
                ap.error("need m >= 1")
            if args.via == "peri12":
                if args.r != 1:
                    ap.error("the midpoint identity only yields r = 1")
                pm = zeta_even.zeta2_via_peri12(args.m)
            elif args.via == "htyq1":
                pm = zeta_even.zeta_even_via_gb(args.m, args.r)
            else:
                pm = zeta_even.euler_zeta(args.r)
            _emit({"r": args.r, "m": args.m, "via": args.via,
                   "q": format_rational(pm.q),
                   "decimal": pm.decimal(digits, prec)}, fmt)
        elif args.command == "zeta-odd":
            s = _parse_rational(args.s)
            fs = series.PowerFunction(s, prec)
            est = series.estimate_series(fs, args.m, args.r, args.p, prec)
            payload = {"s": args.s, "m": args.m, "r": args.r, "p": args.p}
            payload.update(est.as_dict(digits))
            _emit(payload, fmt)
            if not est.tol_met:
                # stdout and the exit code stay as they are; the miss is a warning
                print(f"warning: error_bound {decimal_str(est.error_bound, 8)} misses tol "
                      f"{decimal_str(est.tol, 8)}; caps_hit: {', '.join(est.caps_hit) or 'none'}",
                      file=sys.stderr)
        elif args.command == "quad":
            a, b = _parse_rational(args.a), _parse_rational(args.b)
            if args.f == "exp":
                fs = quadrature.exp_stack(prec)
            elif args.f.startswith("power:"):
                fs = series.PowerFunction(_parse_rational(args.f[6:]), prec)
            else:
                ap.error("--f must be 'exp' or 'power:S'")
            rep = quadrature.em_composite(fs, a, b, args.nsub, args.m, args.r, prec)
            _emit(rep.as_dict(digits), fmt)
        elif args.command == "norms":
            l2 = quadrature.l2_norm_sq(args.m, args.n)
            mu = quadrature.sup_norm(args.m, args.n, prec)
            _emit({"m": args.m, "n": args.n,
                   "l2_norm_sq": format_rational(l2),
                   "sup_norm": decimal_str(mu, digits)}, fmt)
        elif args.command == "check":
            results = checks.run_suite(args.suite, prec)
            failed = 0
            for name, ok, detail in results:
                status = "PASS" if ok else "FAIL"
                line = f"[{status}] {name}"
                if detail:
                    line += f" ({detail})"
                print(line)
                failed += not ok
            print(f"{len(results) - failed}/{len(results)} checks passed")
            return 1 if failed else 0
        elif args.command == "export-plot":
            if args.samples < 1:
                ap.error("need at least one sample interval")
            from .bigfloat import to_mpf

            m, n, K = args.m, args.n, args.samples
            p = bernoulli.gb_polynomial(m, n)
            rows = []
            for i in range(K + 1):
                x = Fraction(i, K)
                rows.append({
                    "x": decimal_str(to_mpf(x, prec), digits),
                    "B": decimal_str(to_mpf(p(x), prec), digits),
                    "p": decimal_str(periodic.periodic_eval(m, n, x, prec), digits),
                })
            _emit({"m": m, "n": n, "samples": rows}, fmt, rows=rows)
    except ValueError as exc:
        # values the library rejects (a level, point, cell count or exponent
        # out of range) are usage errors
        ap.error(str(exc))
    except series.TailNotCertifiableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
