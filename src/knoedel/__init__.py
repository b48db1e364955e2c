"""Exact enumeration of the two ternary Knoedel bin-packing walks.

The package computes step distributions of the double-large and
double-small walks along four mutually verifying routes: dynamic
programming over exact rationals, closed-form binomial sums, truncated
formal power series built on the kernel substitution x = (27/4)t(1-t)^2,
and seeded Monte Carlo simulation.

The top level re-exports what the demos and the README use; everything
else is reached through its submodule.
"""

from .closedforms import (
    bad_factor_root_series,
    closed_form_probability,
    f0_series,
    f0_series_from_t,
    f_state_coeff,
    f_u_coeff,
    fbeta_coeff,
    g0_coeff,
    g0_series,
    g0_series_from_t,
    g_state_coeff,
    g_u_coeff,
    gbeta_coeff,
    girard_waring_power_sum,
    girard_waring_quotient,
    inv_one_minus_t_series,
    kernel_identity_results,
    symmetric_pair,
    t_series,
    x_of_t,
)
from .exactmath import TruncatedSeries
from .models import (
    BETA,
    WalkModel,
    brute_force_distribution,
    dp_distribution,
    dp_table,
    residue_class,
)
from .montecarlo import (
    DEFAULT_SEED,
    SimConfig,
    four_sigma_report,
    mix64,
    simulate,
    splitmix_draw,
)

__version__ = "0.1.0"

__all__ = [
    "BETA",
    "DEFAULT_SEED",
    "SimConfig",
    "TruncatedSeries",
    "WalkModel",
    "bad_factor_root_series",
    "brute_force_distribution",
    "closed_form_probability",
    "dp_distribution",
    "dp_table",
    "f0_series",
    "f0_series_from_t",
    "f_state_coeff",
    "f_u_coeff",
    "fbeta_coeff",
    "four_sigma_report",
    "g0_coeff",
    "g0_series",
    "g0_series_from_t",
    "g_state_coeff",
    "g_u_coeff",
    "gbeta_coeff",
    "girard_waring_power_sum",
    "girard_waring_quotient",
    "inv_one_minus_t_series",
    "kernel_identity_results",
    "mix64",
    "residue_class",
    "simulate",
    "splitmix_draw",
    "symmetric_pair",
    "t_series",
    "x_of_t",
]
