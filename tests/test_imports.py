"""Start-up: what `import gbzeta` and the exact CLI commands load.

The package resolves its public names on first access (PEP 562), and the CLI
imports inside each subcommand only the modules that subcommand calls. The
checks that need a cold interpreter run in a child process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gbzeta
from gbzeta import series

# the directory that holds the imported package, so child processes find it
PACKAGE_ROOT = str(Path(gbzeta.__file__).resolve().parents[1])

# the public names of the package, by the submodule that defines them
PUBLIC = {
    "bernoulli": ("GBFamily", "classical_bernoulli", "expand_in_gb_basis", "family",
                  "gb_boundary_values", "gb_numbers", "gb_polynomial", "ode_residual",
                  "recurrence_residual"),
    "bigfloat": ("DEFAULT_PRECISION", "decimal_str", "pi_const", "to_mpf"),
    "periodic": ("FourierCoeffs", "ZetaExpansion", "dirichlet_average", "fourier_coeffs",
                 "fourier_partial_sum", "periodic_eval", "zeta_expansion"),
    "polyrat": ("Poly", "format_rational", "rational"),
    "quadrature": ("FunctionStack", "QuadratureReport", "em_composite", "em_unit", "exp_stack",
                   "l2_norm_sq", "parseval_residual", "poly_stack", "product_integral",
                   "sup_norm"),
    "series": ("CertifiedValue", "PowerFunction", "SeriesEstimate", "TailNotCertifiableError",
               "convergence_verdict", "delta_tail", "estimate_series", "euler_constant",
               "finite_identity_residual", "partial_sum", "remainder_R", "rho", "rho_tail",
               "sigma", "sigma_tilde"),
    "zeta_even": ("PiMultiple", "delta_term", "euler_zeta", "zeta2_via_peri12",
                  "zeta_even_via_gb"),
}

# `import gbzeta`, then the names of the loaded modules on stderr
_IMPORT = "import gbzeta, sys\nprint(*sorted(sys.modules), file=sys.stderr)\n"

# `python -m gbzeta.cli ARG...`, then the same, also when it exits
_CLI = ("import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('gbzeta.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print(*sorted(sys.modules), file=sys.stderr)\n")


def _child(code, *args):
    # (exit code, stdout, names of the loaded modules) of a fresh interpreter
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env)
    return proc.returncode, proc.stdout, set(proc.stderr.splitlines()[-1].split())


def _is_mpmath(name):
    return name == "mpmath" or name.startswith("mpmath.")


def test_import_loads_no_submodule_and_no_mpmath():
    code, _, loaded = _child(_IMPORT)
    assert code == 0 and "gbzeta" in loaded
    assert not [m for m in loaded if m.startswith("gbzeta.") or _is_mpmath(m)]


@pytest.mark.parametrize("argv", [
    ("numbers", "--m", "5", "--nmax", "12"),
    ("poly", "--m", "3", "--n", "6", "--format", "csv"),
    ("eval", "--m", "2", "--n", "5", "--x", "1/2"),
    ("eval", "--m", "1", "--n", "3", "--x", "0.25", "--format", "plain"),
], ids=lambda argv: " ".join(argv))
def test_exact_commands_never_load_mpmath(argv):
    code, out, loaded = _child(_CLI, *argv)
    assert code == 0 and out
    assert "gbzeta.cli" not in loaded  # it ran as __main__, as with -m
    assert not [m for m in loaded if _is_mpmath(m)]
    assert "gbzeta.bigfloat" not in loaded and "gbzeta.series" not in loaded


def test_float_commands_load_what_they_call():
    # a float command loads mpmath; zeta-odd loads the estimator, and only
    # check loads the checks
    code, _, loaded = _child(_CLI, "eval", "--m", "1", "--n", "2", "--x", "1/3", "--periodic")
    assert code == 0 and "mpmath" in loaded and "gbzeta.series" not in loaded
    code, _, loaded = _child(_CLI, "zeta-odd", "--s", "3", "--m", "5", "--r", "2", "--p", "100")
    assert code == 0 and {"mpmath", "gbzeta.series"} <= loaded
    assert "gbzeta.checks" not in loaded


def test_public_names():
    names = sorted(n for group in PUBLIC.values() for n in group)
    assert len(names) == 53 and sorted(gbzeta.__all__) == names
    assert set(names) | set(PUBLIC) <= set(dir(gbzeta))
    assert not hasattr(gbzeta, "no_such_name")


def test_names_and_submodules_resolve_cold():
    # in a fresh interpreter every name goes through the package's
    # __getattr__ and imports its submodule on first use: the star import
    # binds all 53, and each is its submodule's
    probe = ("import gbzeta, sys\n"
             "ns = {}\n"
             "exec('from gbzeta import *', ns)\n"
             f"for module, names in {PUBLIC!r}.items():\n"
             "    mod = getattr(gbzeta, module)\n"
             "    assert mod is sys.modules['gbzeta.' + module]\n"
             "    assert all(ns[name] is getattr(mod, name) for name in names)\n"
             "print(len(ns) - 1, file=sys.stderr)\n")
    code, _, loaded = _child(probe)
    assert code == 0 and loaded == {"53"}


def test_package_follows_a_rebound_submodule_name(monkeypatch):
    # nothing is copied into the package: what a tracer or a monkeypatch
    # binds on a submodule is what the package returns, also after it is
    # restored
    original = series.estimate_series

    def stand_in(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(series, "estimate_series", stand_in)
    assert gbzeta.estimate_series is stand_in
    monkeypatch.undo()
    assert gbzeta.estimate_series is original
