"""Tests of the benchmark itself: seeded inputs, checkers, tracing and output contract.

Run with: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gbzeta  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _first_ops(name, seed, groups=3):
    gen = workloads.WORKLOADS[name].groups(random.Random(seed))
    return [op for g in itertools.islice(gen, groups) for op in g]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_operations(name):
    assert _first_ops(name, 7) == _first_ops(name, 7)
    assert _first_ops(name, 7) != _first_ops(name, 8)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_zeta_block_balances_the_grid():
    block = _first_ops("zeta-256", 3, groups=1)
    assert len(block) == 20
    for a, b in (("s", "m"), ("s", "r")):
        assert len({(op[a], op[b]) for op in block}) == 20
    assert len({(op["m"], op["r"]) for op in block}) == 16
    ps = [op["p"] for op in _first_ops("zeta-256", 3, groups=3)]
    assert sorted(set(ps)) == [2, 10, 100] and max(map(ps.count, set(ps))) == 20


@pytest.mark.parametrize("name", ["zeta-256", "zeta-1024"])
def test_known_defect_cells_stay_out_of_the_timed_grid(name):
    wl = workloads.WORKLOADS[name]
    timed = {(op["s"], op["m"], op["r"], op["p"]) for op in _first_ops(name, 11, groups=20)}
    assert wl.known_defects and not any(
        (d["s"], d["m"], d["r"], d["p"]) in timed for d in wl.known_defects)
    assert {op[3] for op in timed} == set(wl.P)


def test_reference_recurrence_matches_sympy_at_level_one():
    assert reference.level_one_mismatches(range(1, 13), 60) == []
    B = reference.gb_numbers(1, 12)
    for n in range(13):
        assert reference.poly_eval(reference.gb_polynomial(1, n), Fraction(0)) == B[n]


def test_reference_fourier_closed_form_matches_quadrature():
    a, b = reference.fourier_coeffs(3, 4, [3], 160)[3]
    qa, qb = reference.fourier_by_quad(3, 4, 3, 160)
    assert abs(a - qa) < 1e-40 and abs(b - qb) < 1e-40


def test_zeta_checker_flags_a_value_moved_by_twice_its_bound():
    wl = workloads.WORKLOADS["zeta-256"]
    op = {"s": "3", "m": 5, "r": 2, "p": 100}
    value, bound = wl.execute(gbzeta, op)
    good = wl.check(op, (value, bound))
    assert good.ok and good.digits > 30
    bad = wl.check(op, (value + 2 * bound, bound))
    assert not bad.ok and bad.reason == "bound_violation"


def test_quad_checker_flags_planted_errors():
    wl = workloads.WORKLOADS["quad-fourier"]
    em = {"kind": "em", "f": "power:3", "a": 1, "b": 4, "n_sub": 4, "m": 2, "r": 2}
    main, bound, total = wl.execute(gbzeta, em)
    assert wl.check(em, (main, bound, total)).ok
    assert wl.check(em, (main, bound, total + 2 * bound)).reason == "wrong_value"
    assert wl.check(em, (main + 2 * bound, bound, total)).reason == "bound_violation"

    fc = {"kind": "coeffs", "m": 2, "n": 3, "K": 50, "spot_k": 2}
    a0, a, b = wl.execute(gbzeta, fc)
    assert wl.check(fc, (a0, a, b)).ok
    with mp.workprec(256):
        moved = a[:]
        moved[30] += mp.mpf(2) ** -200
    assert wl.check(fc, (a0, moved, b)).reason == "wrong_value"
    assert wl.check(fc, (a0 + 1, a, b)).reason == "wrong_exact"

    ps = {"kind": "partial", "m": 2, "n": 3, "x": "2/5", "K": 100}
    val = wl.execute(gbzeta, wl.prepare(ps))
    assert wl.check(ps, val).ok
    assert not wl.check(ps, val + mp.mpf(2) ** -100).ok


def test_cli_checker_flags_wrong_output_and_exit_codes():
    wl = workloads.WORKLOADS["cli-cold"]
    op = {"argv": ["numbers", "--m", "2", "--nmax", "6"], "env": None, "expect": 0}
    nums = [str(q) for q in reference.gb_numbers(2, 6)]
    good = json.dumps({"m": 2, "numbers": nums})
    assert wl.check(op, (0, good)).ok
    planted = json.dumps({"m": 2, "numbers": nums[:-1] + ["1/7"]})
    assert wl.check(op, (0, planted)).reason == "wrong_exact"
    assert wl.check(op, (1, good)).reason == "exit_code"
    usage = {"argv": ["poly", "--m", "0", "--n", "2"], "env": None, "expect": 2}
    assert wl.check(usage, (2, "")).ok
    assert wl.check(usage, (1, "")).reason == "exit_code"


def test_cli_zeta_odd_checker_uses_the_printed_bound():
    wl = workloads.WORKLOADS["cli-cold"]
    argv = ["zeta-odd", "--s", "3", "--m", "5", "--r", "2", "--p", "100", "--digits", "70"]
    proc = subprocess.run([sys.executable, "-m", "gbzeta.cli", *argv], cwd=ROOT,
                          env=wl.env({"env": None}), capture_output=True, text=True, timeout=120)
    op = {"argv": argv, "env": None, "expect": 0}
    assert wl.check(op, (proc.returncode, proc.stdout)).ok
    out = json.loads(proc.stdout)
    with mp.workprec(320):
        out["value"] = mp.nstr(mp.mpf(out["value"]) + 2 * mp.mpf(out["error_bound"]), 70)
    assert wl.check(op, (0, json.dumps(out))).reason == "bound_violation"


def test_traced_counts_repeat_exactly():
    wl = workloads.WORKLOADS["quad-fourier"]
    ops = _first_ops("quad-fourier", 5, groups=1)[:8]
    wl.warm(gbzeta)
    runs = []
    for _ in range(2):
        tr = Tracer()
        tr.install()
        try:
            for i, op in enumerate(ops):
                tr.op_id = i
                wl.execute(gbzeta, wl.prepare(op))
        finally:
            tr.uninstall()
        calls = {k: v[0] for k, v in tr.aggregate([1.0] * len(ops)).items()}
        runs.append((calls, dict(tr.counts)))
    assert runs[0] == runs[1]
    calls, counts = runs[0]
    assert calls["quadrature.em_composite"] == sum(op["kind"] == "em" for op in ops)
    assert counts["quadrature.cells"] > 0
    assert gbzeta.quadrature.sup_norm.__name__ == "sup_norm"
    assert not hasattr(gbzeta.quadrature.sup_norm, "__wrapped_by_bench__")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported(trace, section):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "zeta-256",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = _last_json(proc.stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    if trace == 0:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_the_library_sources():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "zeta-256",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_tail_latency_is_never_below_the_median():
    import run

    recs = [{"latency": 0.1 + 0.01 * i, "scale": 1.0, "outcome": workloads.Outcome(True)}
            for i in range(18)]
    m = run.end_to_end(recs, [(1.0, 0.0065)], 20.0, scaled=True)
    assert m["latency_p90_s"][0] >= m["latency_p50_s"][0]


def test_percentile_keeps_ten_samples_beyond_it():
    for n in (11, 20, 55, 100, 400):
        q = workloads.percentile_rank(n)
        idx = workloads.nearest_rank(list(range(n)), q)
        assert q <= 0.9 and (n - 1 - idx >= 10 or q == 0.5)
    assert workloads.percentile_rank(1000) == 0.9
