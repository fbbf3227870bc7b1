"""Independent ground-truth machinery for checking the analytical bounds.

The oracles share only the exact arithmetic with the bound formulas
(``tfqkd.dyadic``, whose tests check every operation against
``fractions.Fraction``): yields are re-derived by enumerating photon fates,
gains are rebuilt as Poisson mixtures, and the decoy constraints are solved
exactly (up to truncation) as linear programs with their own simplex.
"""

from .fock import dark_adjusted_yield, fock_yield, series_gain
from .lp_bounds import lp_yield_bound
from .simplex import LinearProgramInfeasible, solve_bounded_lp

__all__ = [
    "dark_adjusted_yield",
    "fock_yield",
    "series_gain",
    "lp_yield_bound",
    "solve_bounded_lp",
    "LinearProgramInfeasible",
]
