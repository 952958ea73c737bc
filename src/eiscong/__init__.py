"""Exact arithmetic for Eisenstein series congruences modulo prime powers.

The package computes q-expansions of G_k, E_k, and Delta over Z/p^m with
explicit precision tracking, verifies families of congruences between them
by exact coefficient comparison, and computes factor-filtration bounds by
reducing against modular-form bases over Z/p^m.
"""

from .congruences import (
    CongruenceReport,
    check_bernoulli_prop41,
    check_dpower_congruence,
    check_eq14,
    check_eq16,
    check_kummer,
    check_p_regular,
    check_prop_ek_fixed,
    check_prop_gk_fixed,
    check_sum_recurrence,
    check_sun97,
    check_telescoping,
    check_thm_ek,
    check_thm_gk,
    combin_identity_sum,
    scan_conjecture_bernoulli,
    scan_conjecture_ek_series,
)
from .eisenstein import (
    delta_series,
    e_factor,
    e_series,
    g_series,
    monomial_series,
)
from .exact import (
    bernoulli,
    gen_binomial,
    h_coefficient,
    padic_valuation,
    pochhammer,
)
from .filtration import (
    BasisMatrix,
    FiltrationReport,
    LinearSystem,
    NoSolution,
    Solution,
    basis,
    factor_filtration_bound,
    sharpness_probe,
    solve_mod_pm,
    space_dimension,
    sturm_bound,
    verify_refined_bounds,
)
from .residue import ResidueRing
from .series import QSeries, series_equal_mod

__version__ = "0.1.0"
