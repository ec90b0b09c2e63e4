"""Generalized Bernoulli polynomials of level m and their zeta relations.

Exact rational cores (numbers, polynomials, product integrals, even zeta
values as pi-power multiples) with arbitrary-precision float evaluation on
top: Fourier expansions of the periodic extensions, Euler-Maclaurin
quadrature of level m, and a certified series-versus-integral estimator
for values such as zeta(3) and zeta(5).

`import gbzeta` imports no submodule and not mpmath: each public name (and
each submodule attribute) is looked up in its submodule on access (PEP 562),
which imports that submodule the first time. Nothing is copied into the
package, so `gbzeta.X is gbzeta.<module>.X` always, also after the
submodule's binding is replaced.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULES = ("bernoulli", "bigfloat", "periodic", "polyrat", "quadrature", "series",
               "zeta_even")

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(("GBFamily", "classical_bernoulli", "expand_in_gb_basis", "family",
                     "gb_boundary_values", "gb_numbers", "gb_polynomial", "ode_residual",
                     "recurrence_residual"), "bernoulli"),
    **dict.fromkeys(("DEFAULT_PRECISION", "decimal_str", "pi_const", "to_mpf"), "bigfloat"),
    **dict.fromkeys(("FourierCoeffs", "ZetaExpansion", "dirichlet_average", "fourier_coeffs",
                     "fourier_partial_sum", "periodic_eval", "zeta_expansion"), "periodic"),
    **dict.fromkeys(("Poly", "format_rational", "rational"), "polyrat"),
    **dict.fromkeys(("FunctionStack", "QuadratureReport", "em_composite", "em_unit",
                     "exp_stack", "l2_norm_sq", "parseval_residual", "poly_stack",
                     "product_integral", "sup_norm"), "quadrature"),
    **dict.fromkeys(("CertifiedValue", "PowerFunction", "SeriesEstimate",
                     "TailNotCertifiableError", "convergence_verdict", "delta_tail",
                     "estimate_series", "euler_constant", "finite_identity_residual",
                     "partial_sum", "remainder_R", "rho", "rho_tail", "sigma",
                     "sigma_tilde"), "series"),
    **dict.fromkeys(("PiMultiple", "delta_term", "euler_zeta", "zeta2_via_peri12",
                     "zeta_even_via_gb"), "zeta_even"),
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package, so this runs once
        return _import_module(f".{name}", __name__)
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals().get(home) or _import_module(f".{home}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
