"""Workloads: seeded operation lists, the calls into gbzeta, and the output checks.

An operation is a plain dict of generated inputs; `execute` hands only those
inputs to the library. Operations come in groups (blocks) whose parameter
mix is balanced, so that any whole number of groups has a mix close to the
grid's and the run-to-run spread stays small. Checks run after the timed
window against `reference`, which does not import gbzeta.

mpmath and the references are imported inside functions: the set-up time
of a workload starts before any of them is loaded.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Deck:
    """Seeded draws that use every value once before any value repeats."""

    def __init__(self, rng, values):
        self.rng = rng
        self.values = list(values)
        self.pile: list = []

    def draw(self):
        if not self.pile:
            self.pile = self.values[:]
            self.rng.shuffle(self.pile)
        return self.pile.pop()


@dataclass
class Outcome:
    """Result of checking one operation against its reference."""

    ok: bool
    reason: str = ""
    digits: float | None = None  # certified digits, for passing ops that carry a bound
    tol_missed: bool = False  # bound above the estimator's default tolerance


def certified_digits(bound, value) -> float:
    """max(0, -log10(bound/|value|)) for mpf (or float) inputs."""
    import mpmath as mp

    if bound <= 0:
        raise ValueError("a certified bound must be positive")
    return max(0.0, float(-mp.log10(bound / abs(value))))


def _mpf(q: Fraction, prec: int):
    import mpmath as mp

    with mp.workprec(prec):
        return mp.mpf(q.numerator) / q.denominator


class Workload:
    name = ""
    why = ""
    prec = 256
    trace_groups = 1  # groups run by a traced run; fixed so counts repeat exactly
    in_process = True
    # operations that fail at this commit because of a known library defect:
    # run after the timed operations, checked the same way, reported apart
    known_defects: tuple = ()

    def groups(self, rng):
        """Endless iterator of operation groups drawn from `rng`."""
        raise NotImplementedError

    def warm(self, lib) -> None:
        """Fill the library's caches as the timed operations will need them."""

    def prepare(self, op):
        """Arguments for `execute`, built outside the timed region."""
        return op

    def execute(self, lib, args, tracer=None):
        raise NotImplementedError

    def check(self, op, out) -> Outcome:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need not run per op; called after the timed ops."""


# ---------------------------------------------------------------------------
# certified zeta values

class ZetaWorkload(Workload):
    """estimate_series(PowerFunction(s), m, r, p) against mpmath.zeta at prec+64.

    `P` holds the p values on which the estimator's bound holds at this
    precision over the whole s, m, r grid. Smaller p violate the bound at
    this commit (27 of the 80 p = 1 cells at 256 bits; every p <= 2 cell
    and 29 of 40 p = 10 cells at 1024 bits); they are kept as known-defect
    cases, run after the timed operations and reported apart.
    """

    S = ("3/2", "2", "3", "7/2", "5")
    M = (1, 2, 3, 5)
    R = (1, 2, 3, 6)

    def __init__(self, name, prec, P, known_defects, trace_groups, why):
        self.name, self.prec, self.P, self.trace_groups, self.why = name, prec, P, trace_groups, why
        self.known_defects = known_defects
        self._refs: dict = {}

    def groups(self, rng):
        # a block of 20 operations holds every (s,m) and (s,r) pair once and
        # every (m,r) pair at least once, so any whole number of blocks has
        # the grid's mix of the factors that set cost; p, which barely moves
        # the cost, comes from a deck over the whole run
        p = Deck(rng, self.P)
        while True:
            i_s = rng.sample(range(5), 5)
            i_m, i_r = (rng.sample(range(4), 4) for _ in range(2))
            c = rng.randrange(4)
            block = [{"s": self.S[i_s[i]], "m": self.M[i_m[j]],
                      "r": self.R[i_r[(i + 3 * j + c) % 4]], "p": p.draw()}
                     for i in range(5) for j in range(4)]
            rng.shuffle(block)
            yield block

    def warm(self, lib):
        for m in self.M:
            lib.estimate_series(lib.PowerFunction(3, self.prec), m, max(self.R), max(self.P),
                                self.prec)

    def execute(self, lib, op, tracer=None):
        est = lib.estimate_series(lib.PowerFunction(Fraction(op["s"]), self.prec),
                                  op["m"], op["r"], op["p"], self.prec)
        return est.value, est.error_bound

    def check(self, op, out):
        import mpmath as mp

        import reference

        s = Fraction(op["s"])
        if s not in self._refs:
            self._refs[s] = reference.zeta(s, self.prec + 64)
        value, bound = out
        with mp.workprec(self.prec + 64):
            err = abs(value - self._refs[s])
        tol_missed = bound > mp.mpf(2) ** (-(self.prec // 2))
        if not err <= bound:
            return Outcome(False, "bound_violation", tol_missed=tol_missed)
        return Outcome(True, digits=certified_digits(bound, value), tol_missed=tol_missed)


# ---------------------------------------------------------------------------
# Euler-Maclaurin quadrature and Fourier data

class QuadFourierWorkload(Workload):
    """em_composite on exp and x^-s; fourier_coeffs and fourier_partial_sum."""

    name = "quad-fourier"
    why = ("warm em_composite (sup_norm on every call, repeated (m,r)) and Fourier "
           "coefficients/partial sums with K up to 3000; the only warm caller of periodic")
    trace_groups = 1

    EXP_AB = ((0, 1), (0, 2), (-1, 1))
    POW_F = ("power:3/2", "power:2", "power:3")
    POW_AB = ((1, 2), (1, 4), (2, 5))
    NSUB = (1, 2, 4, 8, 16)
    MR = ((1, 2), (2, 2), (2, 6), (3, 3), (5, 4), (3, 6))
    FM = (1, 2, 3, 5)
    FN = (1, 2, 3, 4, 6)
    K_COEFFS = (200, 1000, 2000, 3000)
    K_PARTIAL = (100, 500, 1000, 2000)
    XS = ("1/3", "2/5", "3/4", "1/7")
    SPOT_K = (1, 2, 3)

    def __init__(self):
        self._quad: dict = {}

    def groups(self, rng):
        d = {k: Deck(rng, getattr(self, k)) for k in
             ("EXP_AB", "POW_F", "POW_AB", "FM", "FN", "K_COEFFS", "K_PARTIAL", "XS", "SPOT_K")}
        # (m, r) and n_sub set the cost of em_composite together, so each
        # function draws them as pairs from a deck of all combinations
        cells = [(mr, n_sub) for mr in self.MR for n_sub in self.NSUB]
        em_decks = {"exp": Deck(rng, cells), "power": Deck(rng, cells)}
        while True:
            # a group is two whole passes through every deck (60 draws from
            # each em deck, 60 or 120 from the others), so every group holds
            # the same cells and K values, and a run's percentiles do not
            # depend on what a partial pass happened to draw
            ops = []
            for _ in range(2 * len(cells)):
                for f, ab in (("exp", d["EXP_AB"].draw()),
                              (d["POW_F"].draw(), d["POW_AB"].draw())):
                    (m, r), n_sub = em_decks[f.split(":")[0]].draw()
                    ops.append({"kind": "em", "f": f, "a": ab[0], "b": ab[1],
                                "n_sub": n_sub, "m": m, "r": r})
                ops.append({"kind": "coeffs", "m": d["FM"].draw(), "n": d["FN"].draw(),
                            "K": d["K_COEFFS"].draw(), "spot_k": d["SPOT_K"].draw()})
                ops.append({"kind": "partial", "m": d["FM"].draw(), "n": d["FN"].draw(),
                            "x": d["XS"].draw(), "K": d["K_PARTIAL"].draw()})
            rng.shuffle(ops)
            yield ops

    def warm(self, lib):
        for m, r in self.MR:
            lib.em_composite(lib.exp_stack(self.prec), 0, 1, 1, m, r, self.prec)
        for m in self.FM:
            for n in self.FN:
                lib.fourier_coeffs(m, n, 1, self.prec)

    def prepare(self, op):
        if op["kind"] == "partial":
            return dict(op, x=_mpf(Fraction(op["x"]), self.prec))
        return op

    def execute(self, lib, op, tracer=None):
        prec = self.prec
        kind = op["kind"]
        if kind == "em":
            f = op["f"]
            fs = (lib.exp_stack(prec) if f == "exp"
                  else lib.PowerFunction(Fraction(f.split(":", 1)[1]), prec))
            rep = lib.em_composite(fs, op["a"], op["b"], op["n_sub"], op["m"], op["r"], prec)
            return rep.main_sum, rep.remainder_bound, rep.total
        if kind == "coeffs":
            fc = lib.fourier_coeffs(op["m"], op["n"], op["K"], prec)
            return fc.a0, fc.a, fc.b
        return lib.fourier_partial_sum(op["m"], op["n"], op["x"], op["K"], prec)

    def check(self, op, out):
        import mpmath as mp

        import reference

        prec = self.prec
        kind = op["kind"]
        with mp.workprec(prec + 64):
            if kind == "em":
                main, bound, total = out
                exact = reference.integral(op["f"], Fraction(op["a"]), Fraction(op["b"]),
                                           prec + 64)
                if not abs(exact - main) <= bound:
                    return Outcome(False, "bound_violation")
                if not abs(exact - total) <= bound:
                    return Outcome(False, "wrong_value")
                return Outcome(True, digits=certified_digits(bound, total))
            m, n, K = op["m"], op["n"], op["K"]
            if kind == "coeffs":
                a0, a, b = out
                if a0 != reference.fourier_a0(m, n) or len(a) != K or len(b) != K:
                    return Outcome(False, "wrong_exact")
                # the first ten, the last and sixteen evenly spaced k
                ks = {*range(1, min(K, 10) + 1), *(max(1, K * i // 16) for i in range(1, 17))}
                tol = mp.mpf(2) ** (16 - prec)
                for k, (ra, rb) in reference.fourier_coeffs(m, n, ks, prec + 32).items():
                    if abs(a[k - 1] - ra) > tol * (1 + abs(ra)) or \
                            abs(b[k - 1] - rb) > tol * (1 + abs(rb)):
                        return Outcome(False, "wrong_value")
                k = min(op["spot_k"], K)
                if (m, n, k) not in self._quad:
                    self._quad[(m, n, k)] = reference.fourier_by_quad(m, n, k, 100)
                qa, qb = self._quad[(m, n, k)]
                if abs(a[k - 1] - qa) > 1e-22 * (1 + abs(qa)) or \
                        abs(b[k - 1] - qb) > 1e-22 * (1 + abs(qb)):
                    return Outcome(False, "wrong_value")
                return Outcome(True)
            ref = reference.fourier_partial_sum(m, n, Fraction(op["x"]), K, prec + 32)
            if abs(out - ref) > K * mp.mpf(2) ** (24 - prec) * (1 + abs(ref)):
                return Outcome(False, "wrong_value")
            return Outcome(True)

    def finish(self):
        _check_level_one(self.FN, 0)


# ---------------------------------------------------------------------------
# cold CLI processes

# README: exit code 2 for usage errors. The CLI rejects these with 2.
MALFORMED = (
    (("numbers", "--m", "1"), None),
    (("zeta-even", "--r", "2", "--via", "nope"), None),
    (("numbers", "--m", "0", "--nmax", "3"), None),
)
# These are usage errors too, but at this commit the library's ValueError
# escapes and the CLI exits 1; they are known-defect cases.
MALFORMED_EXIT_1 = (
    (("poly", "--m", "0", "--n", "2"), None),
    (("eval", "--m", "1", "--n", "2", "--x", "foo"), None),
    (("quad", "--f", "exp", "--a", "0", "--b", "1", "--nsub", "0", "--m", "1", "--r", "2"), None),
    (("zeta-odd", "--s", "1/2", "--m", "1", "--r", "2", "--p", "10"), None),
    (("numbers", "--m", "1", "--nmax", "4"), "abc"),
)

ZETA_256_P = (2, 10, 100)
ZETA_DIGITS = 70  # printed digits of cli zeta-odd, well below the ~1e-40 bounds at 256 bits


class CliColdWorkload(Workload):
    """One fresh `python -m gbzeta.cli` process per operation, caches cold."""

    name = "cli-cold"
    why = ("fresh CLI process per op: interpreter start-up, import gbzeta and the "
           "cold exact layer; a share of malformed calls must exit 2")
    trace_groups = 3
    in_process = False

    M = (1, 2, 3, 5)
    NMAX = (20, 60, 120, 200)
    POLY_N = (2, 5, 10, 20)
    EVAL_N = (2, 3, 5, 8)
    XS = ("1/2", "1/3", "2/5", "7/4")
    NORM_N = (2, 3, 4, 6)
    ZR = (1, 2, 3, 5)
    FOURIER_N = (1, 2, 3, 4)
    FOURIER_K = (10, 50, 200)
    AT = ("1/3", "2/5", "3/4")
    QUAD_F = (("exp", "0", "1"), ("power:2", "1", "4"), ("power:3", "1", "4"))
    QUAD_NSUB = (1, 4, 8)
    QUAD_MR = ((1, 2), (2, 2), (3, 3), (5, 4))
    ZS = ZetaWorkload.S
    ZR_ODD = ZetaWorkload.R
    ZP = ZETA_256_P
    known_defects = (
        *({"argv": list(argv), "env": env, "expect": 2} for argv, env in MALFORMED_EXIT_1),
        {"argv": ["zeta-odd", "--s", "3", "--m", "1", "--r", "6", "--p", "1",
                  "--digits", str(ZETA_DIGITS)], "env": None, "expect": 0},
    )

    def groups(self, rng):
        def deck(values):
            return Deck(rng, values)

        m, nmax, pn, en, xs = (deck(v) for v in (self.M, self.NMAX, self.POLY_N,
                                                  self.EVAL_N, self.XS))
        nn, zr, fn, fk, at = (deck(v) for v in (self.NORM_N, self.ZR, self.FOURIER_N,
                                                 self.FOURIER_K, self.AT))
        qf, qn, qmr = deck(self.QUAD_F), deck(self.QUAD_NSUB), deck(self.QUAD_MR)
        zs, zro, zp, bad = deck(self.ZS), deck(self.ZR_ODD), deck(self.ZP), deck(MALFORMED)
        while True:
            f, a, b = qf.draw()
            qm, qr = qmr.draw()
            argvs = [
                ["numbers", "--m", m.draw(), "--nmax", nmax.draw()],
                ["poly", "--m", m.draw(), "--n", pn.draw()],
                ["eval", "--m", m.draw(), "--n", en.draw(), "--x", xs.draw()],
                ["norms", "--m", m.draw(), "--n", nn.draw()],
                ["zeta-even", "--r", zr.draw(), "--m", m.draw(), "--via", "htyq1"],
                ["fourier", "--m", m.draw(), "--n", fn.draw(), "--K", fk.draw(), "--at", at.draw()],
                ["quad", "--f", f, "--a", a, "--b", b, "--nsub", qn.draw(), "--m", qm, "--r", qr],
                ["zeta-odd", "--s", zs.draw(), "--m", m.draw(), "--r", zro.draw(), "--p", zp.draw(),
                 "--digits", ZETA_DIGITS],
            ]
            ops = [{"argv": [str(x) for x in argv], "env": None, "expect": 0} for argv in argvs]
            bad_argv, env = bad.draw()
            ops.append({"argv": list(bad_argv), "env": env, "expect": 2})
            rng.shuffle(ops)
            yield ops

    def env(self, op):
        env = {k: v for k, v in os.environ.items() if k != "GBZETA_PRECISION_BITS"}
        env["PYTHONPATH"] = str(SRC)
        if op["env"] is not None:
            env["GBZETA_PRECISION_BITS"] = op["env"]
        return env

    def command(self, op, spans_path=None):
        if spans_path is None:
            return [sys.executable, "-m", "gbzeta.cli", *op["argv"]]
        runner = str(Path(__file__).resolve().parent / "cli_runner.py")
        return [sys.executable, runner, str(spans_path), *op["argv"]]

    def execute(self, lib, op, tracer=None):
        spans_path = None
        if tracer is not None:
            spans_path = tracer.scratch_dir / f"cli-{tracer.op_id}.json"
        proc = subprocess.run(self.command(op, spans_path), cwd=ROOT, env=self.env(op),
                              capture_output=True, text=True, timeout=150)
        if spans_path is not None:
            tracer.merge_child(spans_path)
        return proc.returncode, proc.stdout

    def check(self, op, out):
        code, stdout = out
        if code != op["expect"]:
            return Outcome(False, "exit_code")
        if op["expect"] != 0:
            return Outcome(True)
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return Outcome(False, "bad_output")
        return self._check_payload(op["argv"], payload)

    def _check_payload(self, argv, out):
        import mpmath as mp

        import reference

        cmd = argv[0]
        a = {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
        m = int(a.get("m", 1))

        def close(text, ref, rel=mp.mpf(10) ** -28):
            return abs(mp.mpf(text) - ref) <= rel * (1 + abs(ref))

        with mp.workprec(320):
            if cmd == "numbers":
                ok = out["numbers"] == [str(q) for q in reference.gb_numbers(m, int(a["nmax"]))]
            elif cmd == "poly":
                ok = out["coeffs"] == [str(c) for c in reference.gb_polynomial(m, int(a["n"]))]
            elif cmd == "eval":
                ref = reference.poly_eval(reference.gb_polynomial(m, int(a["n"])), Fraction(a["x"]))
                ok = out["value"] == str(ref)
            elif cmd == "norms":
                n = int(a["n"])
                ok = (out["l2_norm_sq"] == str(reference.l2_norm_sq(m, n))
                      and close(out["sup_norm"], reference.sup_norm(m, n, 320)))
            elif cmd == "zeta-even":
                q = reference.zeta_even_over_pi(int(a["r"]))
                ok = out["q"] == str(q) and close(
                    out["decimal"], mp.mpf(q.numerator) / q.denominator * mp.pi ** (2 * int(a["r"])))
            elif cmd == "fourier":
                n, K = int(a["n"]), int(a["K"])
                ref = reference.fourier_coeffs(m, n, range(1, K + 1), 320)
                x = Fraction(a["at"])
                ok = (out["a0"] == str(reference.fourier_a0(m, n))
                      and len(out["a"]) == K and len(out["b"]) == K
                      and all(close(out["a"][k - 1], ra) and close(out["b"][k - 1], rb)
                              for k, (ra, rb) in ref.items())
                      and close(out["partial_sum"], reference.fourier_partial_sum(m, n, x, K, 320))
                      and close(out["periodic_value"], _mpf(reference.periodic_value(m, n, x), 320)))
            elif cmd == "quad":
                exact = reference.integral(a["f"], Fraction(a["a"]), Fraction(a["b"]), 320)
                main, bound, total = (mp.mpf(out[k]) for k in ("main_sum", "remainder_bound", "total"))
                slack = mp.mpf(10) ** -28 * (1 + abs(exact))  # 30 printed digits
                if not abs(exact - main) <= bound * (1 + mp.mpf(10) ** -28) + slack:
                    return Outcome(False, "bound_violation")
                if not abs(exact - total) <= bound + slack:
                    return Outcome(False, "wrong_value")
                # certified digits are counted for zeta-odd only: mixing two
                # populations of digit counts would make their median bimodal
                return Outcome(True)
            elif cmd == "zeta-odd":
                ref = reference.zeta(Fraction(a["s"]), 256 + 64)
                value, bound = mp.mpf(out["value"]), mp.mpf(out["error_bound"])
                # error_bound is printed with 8 digits, value with ZETA_DIGITS
                slack = mp.mpf(10) ** (2 - ZETA_DIGITS) * abs(value)
                if not abs(value - ref) <= bound * (1 + mp.mpf(10) ** -7) + slack:
                    return Outcome(False, "bound_violation")
                return Outcome(True, digits=certified_digits(bound, value),
                               tol_missed=bound > mp.mpf(2) ** -128)
            else:
                raise ValueError(f"no check for command {cmd!r}")
        return Outcome(True) if ok else Outcome(False, "wrong_exact")

    def finish(self):
        _check_level_one(sorted({*self.POLY_N, *self.EVAL_N, *self.NORM_N, *self.FOURIER_N}),
                         max(self.NMAX))


def _check_level_one(poly_ns, nmax):
    """The m = 1 references must agree with sympy, or no result is trustworthy."""
    import reference

    bad = reference.level_one_mismatches(poly_ns, nmax)
    if bad:
        raise RuntimeError(f"reference recurrence disagrees with sympy at m = 1: {bad}")


WORKLOADS = {
    wl.name: wl for wl in (
        ZetaWorkload("zeta-256", 256, ZETA_256_P,
                     ({"s": "3", "m": 1, "r": 6, "p": 1}, {"s": "5", "m": 3, "r": 3, "p": 1}), 1,
                     "estimate_series over the s,m,r grid, p in {2,10,100}, at the default "
                     "256 bits; Gauss cells in remainder_R dominate"),
        ZetaWorkload("zeta-1024", 1024, (100,),
                     ({"s": "5", "m": 3, "r": 3, "p": 10}, {"s": "3", "m": 2, "r": 1, "p": 2}), 1,
                     "the same s,m,r grid at 1024 bits and p=100, where power_tail_sum and "
                     "sigma_tilde dominate; run apart so latencies are not bimodal"),
        QuadFourierWorkload(),
        CliColdWorkload(),
    )
}


def percentile_rank(n: int) -> float:
    """Highest percentile (at most 90) with at least ten samples beyond it."""
    return max(0.5, min(0.9, 1 - 10 / n)) if n else 0.5


def nearest_rank(sorted_vals, q: float):
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]
