"""Generalized Bernoulli polynomials of level m and their zeta relations.

Exact rational cores (numbers, polynomials, product integrals, even zeta
values as pi-power multiples) with arbitrary-precision float evaluation on
top: Fourier expansions of the periodic extensions, Euler-Maclaurin
quadrature of level m, and a certified series-versus-integral estimator
for values such as zeta(3) and zeta(5).
"""

from .bernoulli import (
    GBFamily,
    classical_bernoulli,
    expand_in_gb_basis,
    family,
    gb_boundary_values,
    gb_numbers,
    gb_polynomial,
    ode_residual,
    recurrence_residual,
)
from .bigfloat import DEFAULT_PRECISION, decimal_str, pi_const, to_mpf
from .periodic import (
    FourierCoeffs,
    ZetaExpansion,
    dirichlet_average,
    fourier_coeffs,
    fourier_partial_sum,
    periodic_eval,
    zeta_expansion,
)
from .polyrat import Poly, format_rational, rational
from .quadrature import (
    FunctionStack,
    QuadratureReport,
    em_composite,
    em_unit,
    exp_stack,
    l2_norm_sq,
    parseval_residual,
    poly_stack,
    product_integral,
    sup_norm,
)
from .series import (
    CertifiedValue,
    PowerFunction,
    SeriesEstimate,
    TailNotCertifiableError,
    convergence_verdict,
    delta_tail,
    estimate_series,
    euler_constant,
    finite_identity_residual,
    partial_sum,
    remainder_R,
    rho,
    rho_tail,
    sigma,
    sigma_tilde,
)
from .zeta_even import PiMultiple, delta_term, euler_zeta, zeta2_via_peri12, zeta_even_via_gb

__version__ = "0.1.0"
