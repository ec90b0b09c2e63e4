"""Command-line interface: schemas, formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from gbzeta import cli

# the directory that holds the imported package, so child processes find it
# without an install
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])

# argv, exit code and stdout of a fixed set of calls, recorded from cli.main;
# re-record them only for an intended change of output, in its own commit:
#     PYTHONPATH=src python tests/test_cli.py
GOLDEN_PATH = Path(__file__).parent / "data" / "cli_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "gbzeta.cli", *args],
        capture_output=True, text=True, env=env,
    )
    return proc


def run_main(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_numbers_schema(capsys):
    code, out = run_main(capsys, "numbers", "--m", "1", "--nmax", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"m": 1, "numbers": ["1", "-1/2", "1/6", "0", "-1/30"]}


def test_poly_schema(capsys):
    code, out = run_main(capsys, "poly", "--m", "5", "--n", "2")
    assert code == 0
    assert json.loads(out) == {"m": 5, "n": 2, "coeffs": ["20/21", "-40", "120"]}


def test_zeta_even_peri12(capsys):
    code, out = run_main(capsys, "zeta-even", "--r", "1", "--m", "2", "--via", "peri12")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == "1/6"
    assert payload["decimal"].startswith("1.6449340668")


def test_zeta_even_default_route(capsys):
    code, out = run_main(capsys, "zeta-even", "--r", "2")
    assert json.loads(out)["q"] == "1/90" and code == 0


def test_zeta_odd_example(capsys):
    code, out = run_main(capsys, "zeta-odd", "--s", "3", "--m", "5", "--r", "2",
                         "--p", "100", "--digits", "25")
    assert code == 0
    payload = json.loads(out)
    with mp.workprec(256):
        value = mp.mpf(payload["value"])
        bound = mp.mpf(payload["error_bound"])
        ref = mp.mpf("1.2020569031595942854")
        assert abs(value - ref) <= max(bound, mp.mpf("1e-18"))
    assert set(payload) >= {"value", "integral_tail", "partial_sum", "sigma_tilde",
                            "sigma_inf", "e_tail", "delta_tail", "error_bound"}


def test_zeta_odd_warns_on_stderr_when_tol_is_missed(capsys):
    # at 4096 bits the order cap binds and the default tol is missed: one
    # stderr line names the bound, the tol and the caps, and stdout and the
    # exit code are the estimate's as before; at the default precision tol
    # is met and stderr stays empty
    from fractions import Fraction

    from gbzeta.bigfloat import decimal_str
    from gbzeta.series import PowerFunction, estimate_series

    argv = ["zeta-odd", "--s", "3/2", "--m", "5", "--r", "6", "--p", "100"]
    code = cli.main(argv + ["--precision-bits", "4096"])
    out, err = capsys.readouterr()
    est = estimate_series(PowerFunction(Fraction(3, 2), 4096), 5, 6, 100, 4096)
    assert not est.tol_met and est.caps_hit == ("order_cap",)
    payload = {"s": "3/2", "m": 5, "r": 6, "p": 100, **est.as_dict(30)}
    assert code == 0 and out == json.dumps(payload) + "\n"
    assert err == (f"warning: error_bound {decimal_str(est.error_bound, 8)} misses tol "
                   f"{decimal_str(est.tol, 8)}; caps_hit: order_cap\n")
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 0 and json.loads(out)["value"].startswith("2.6123753486854883433")
    assert err == ""


def test_eval_exact_and_periodic(capsys):
    code, out = run_main(capsys, "eval", "--m", "1", "--n", "2", "--x", "1/2")
    assert code == 0 and json.loads(out)["value"] == "-1/12"
    code, out = run_main(capsys, "eval", "--m", "2", "--n", "1", "--x", "0",
                         "--periodic", "--digits", "12")
    assert code == 0
    assert json.loads(out)["value"].startswith("-0.6666666")


def test_fourier_schema(capsys):
    code, out = run_main(capsys, "fourier", "--m", "2", "--n", "2", "--K", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["a0"] == "1/9"
    assert len(payload["a"]) == 3 and len(payload["b"]) == 3


def test_quad_exp(capsys):
    code, out = run_main(capsys, "quad", "--f", "exp", "--a", "0", "--b", "1",
                         "--nsub", "4", "--m", "3", "--r", "3", "--digits", "20")
    assert code == 0
    payload = json.loads(out)
    with mp.workprec(128):
        assert abs(mp.mpf(payload["total"]) - (mp.e - 1)) <= mp.mpf("1e-18")


def test_norms(capsys):
    from gbzeta.polyrat import format_rational
    from gbzeta.quadrature import l2_norm_sq

    code, out = run_main(capsys, "norms", "--m", "5", "--n", "2", "--digits", "12")
    payload = json.loads(out)
    assert code == 0
    assert payload["l2_norm_sq"] == format_rational(l2_norm_sq(5, 2))
    assert payload["sup_norm"].startswith("80.95238")


def test_export_plot_row_count(capsys):
    code, out = run_main(capsys, "export-plot", "--m", "5", "--n", "2",
                         "--samples", "8", "--digits", "8")
    payload = json.loads(out)
    assert code == 0 and len(payload["samples"]) == 9
    # periodic column returns to the x=0 value at x=1
    assert payload["samples"][0]["p"] == payload["samples"][-1]["p"]


def test_csv_and_plain_formats(capsys):
    code, out = run_main(capsys, "export-plot", "--m", "1", "--n", "2",
                         "--samples", "2", "--format", "csv", "--digits", "8")
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == "x,B,p" and len(lines) == 4
    code, out = run_main(capsys, "poly", "--m", "2", "--n", "1", "--format", "plain")
    assert code == 0 and "coeffs" in out
    # K = 0 leaves no coefficient rows; csv writes the payload row, like json
    code, out = run_main(capsys, "fourier", "--m", "1", "--n", "2", "--K", "0",
                         "--format", "csv")
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == "m,n,a0,a,b,K" and len(lines) == 2


def test_check_suite_passes(capsys):
    code, out = run_main(capsys, "check", "--suite", "zeta")
    assert code == 0
    assert "[PASS]" in out and "FAIL" not in out


def test_check_suite_failure_exit_code(capsys, monkeypatch):
    from gbzeta import checks

    monkeypatch.setitem(checks.SUITES, "zeta", lambda prec: [("forced", False, "")])
    code, out = run_main(capsys, "check", "--suite", "zeta")
    assert code == 1 and "[FAIL]" in out


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_golden_stdout(case, capsys, monkeypatch):
    # stdout must stay byte-identical to the recorded output at the default
    # precision: the README commands (check --suite quad for all), norms and
    # quad over the benchmark's (m, r) pairs, zeta-odd at p = 2, 10, 100, and
    # check --suite all
    monkeypatch.delenv(cli.ENV_PRECISION, raising=False)
    try:
        code = cli.main(list(case["argv"]))
    except SystemExit as exc:
        code = exc.code
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]


def _cold_cases():
    # the first golden case of each subcommand, of each eval form and of each
    # quad stack (exp, power:S); among them check --suite quad
    seen = {}
    for case in GOLDEN:
        cmd, argv = case["argv"][0], case["argv"]
        kind = ("--periodic" in argv if cmd == "eval"
                else argv[2].split(":")[0] if cmd == "quad" else None)
        seen.setdefault((cmd, kind), case)
    return list(seen.values())


@pytest.mark.parametrize("case", _cold_cases(), ids=lambda c: " ".join(c["argv"]))
def test_golden_stdout_cold(case, monkeypatch):
    # the same golden call in a fresh `python -m gbzeta.cli` process, which
    # has imported only what that subcommand's branch imports; stdout is
    # compared as bytes, so csv's \r\n is kept
    monkeypatch.delenv(cli.ENV_PRECISION, raising=False)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "gbzeta.cli", *case["argv"]],
                          capture_output=True, env=env)
    assert proc.stdout.decode() == case["stdout"]
    assert proc.returncode == case["exit"]


def test_output_determinism():
    a = run_cli("zeta-odd", "--s", "3", "--m", "2", "--r", "2", "--p", "20")
    b = run_cli("zeta-odd", "--s", "3", "--m", "2", "--r", "2", "--p", "20")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_usage_errors_exit_two():
    assert run_cli("numbers", "--m", "1").returncode == 2  # missing --nmax
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("numbers", "--m", "0", "--nmax", "3").returncode == 2
    assert run_cli("zeta-even", "--r", "2", "--via", "peri12").returncode == 2
    # digits must fit in the mantissa
    assert run_cli("numbers", "--m", "1", "--nmax", "2",
                   "--digits", "100", "--precision-bits", "128").returncode == 2


@pytest.mark.parametrize("args,env_extra", [
    (("poly", "--m", "0", "--n", "2"), None),
    (("eval", "--m", "1", "--n", "2", "--x", "foo"), None),
    (("quad", "--f", "exp", "--a", "0", "--b", "1", "--nsub", "0", "--m", "2", "--r", "2"),
     None),
    (("zeta-odd", "--s", "1/2", "--m", "2", "--r", "2", "--p", "10"), None),
    (("numbers", "--m", "1", "--nmax", "3"), {"GBZETA_PRECISION_BITS": "abc"}),
    (("eval", "--m", "1", "--n", "2", "--x", "1/0"), None),
    (("fourier", "--m", "1", "--n", "2", "--K", "3", "--at", "1/0"), None),
    (("quad", "--f", "power:3", "--a", "0", "--b", "1", "--nsub", "2", "--m", "2", "--r", "2"),
     None),
    (("quad", "--f", "power:3/2", "--a", "-2", "--b", "-1", "--nsub", "2", "--m", "2",
      "--r", "2"), None),
    (("norms", "--m", "1", "--n", "2", "--digits", "0"), None),
    (("numbers", "--m", "1", "--nmax", "3", "--digits", "-3"), None),
    (("zeta-odd", "--s", "1/0", "--m", "2", "--r", "2", "--p", "10"), None),
    (("zeta-even", "--r", "1", "--m", "0"), None),
    (("zeta-even", "--r", "1", "--m", "-3", "--via", "euler"), None),
    # an s whose tails need a unit finer than 2^-(2^18) (series._tail_unit)
    (("zeta-odd", "--s", "10000000", "--m", "1", "--r", "2", "--p", "5"), None),
    (("zeta-odd", "--s", "1e400", "--m", "1", "--r", "2", "--p", "5"), None),
])
def test_invalid_values_exit_two(args, env_extra):
    # values the library rejects are usage errors: a message, no traceback
    proc = run_cli(*args, env_extra=env_extra)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_zeta_odd_p1_value_within_its_bound(capsys):
    # p = 1 puts the direct block next to the pole of x^-3
    code, out = run_main(capsys, "zeta-odd", "--s", "3", "--m", "1", "--r", "6", "--p", "1",
                         "--digits", "70")
    assert code == 0
    payload = json.loads(out)
    with mp.workprec(320):
        err = abs(mp.mpf(payload["value"]) - mp.zeta(3))
        assert err <= mp.mpf(payload["error_bound"])


def test_zeta_odd_large_s_value_within_its_bound():
    # at s = 101, p = 1 the printed value lies within its printed bound of
    # zeta(101), plus the last printed digit (10^-74 at 75 digits), where
    # the mpf sum of six pieces once missed by 3.4e-67 against a bound of
    # 1.5e-67; tol is met, so stderr stays empty
    proc = run_cli("zeta-odd", "--s", "101", "--m", "3", "--r", "12", "--p", "1",
                   "--digits", "75")
    assert proc.returncode == 0 and proc.stderr == ""
    payload = json.loads(proc.stdout)
    with mp.workprec(320):
        err = abs(mp.mpf(payload["value"]) - mp.zeta(101))
        assert err <= mp.mpf(payload["error_bound"]) + mp.mpf(10) ** -74


def test_uncertifiable_tail_exits_three():
    # s = 1: the tail integral diverges, the estimator must refuse
    proc = run_cli("zeta-odd", "--s", "1", "--m", "2", "--r", "2", "--p", "10")
    assert proc.returncode == 3
    assert "tail" in proc.stderr.lower()


def test_env_precision_override():
    # with 64-bit default precision, 30 digits no longer fit -> usage error
    proc = run_cli("numbers", "--m", "1", "--nmax", "2",
                   env_extra={"GBZETA_PRECISION_BITS": "64"})
    assert proc.returncode == 2
    proc = run_cli("numbers", "--m", "1", "--nmax", "2", "--digits", "15",
                   env_extra={"GBZETA_PRECISION_BITS": "64"})
    assert proc.returncode == 0


def _record(argv):
    # exit code and stdout of one call of cli.main, as test_golden_stdout
    # takes them
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


if __name__ == "__main__":
    # the same argv in the same order, at the default precision
    os.environ.pop(cli.ENV_PRECISION, None)
    GOLDEN_PATH.write_text(json.dumps([_record(c["argv"]) for c in GOLDEN], indent=1) + "\n")
