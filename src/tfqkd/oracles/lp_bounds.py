"""Exact (truncated) linear-programming yield bounds from observed gains.

The decoy-state constraints say each gain is a known Poisson mixture of the
unknown yields.  Truncating the photon numbers at ``n_trunc`` and widening
each equality into a two-sided window by the neglected Poisson tail mass
turns that into a finite LP whose maximum is a certified upper bound on any
single yield.

Everything is kept exact: the constraint coefficients are rational monomials
of the (exactly represented) double intensities, scaled per row by the
rational value of the double exp(-mu-nu) so each row stays on the
probability scale.  The only non-exact ingredients are the gains themselves
and the per-row exponential, a couple of ulps each, which is what the tiny
``_DATA_NOISE`` window accounts for.  The windows matter: the LP duals on
the weakly-weighted rows reach 1e12 and amplify any slack in the window
straight into the reported optimum.

Every target of one configuration shares those rows and windows, and phase 1
of the simplex depends on nothing else.  One small ``lru_cache`` keyed by
(gains, intensities, truncation) therefore builds the rows and runs phase 1
once; each ``lp_yield_bound`` call then only runs phase 2 for its own target
from a copy of that feasible start, which gives the optimum a one-shot solve
would give.  An infeasible configuration raises on every call, since the
cache holds no exceptions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from numbers import Integral

from ..channel import GainMatrix
from ..errors import InconsistentGainsError
from .fock import poisson_weight
from .simplex import LinearProgramInfeasible, _feasible_start, _maximize
from .simplex import solve_bounded_lp  # noqa: F401  (benchmark/spans.py wraps this attribute)

DEFAULT_TRUNCATION = 10

# Relative allowance for the rounding of the double gains and of the per-row
# exponential rescaling: a few units in the last place.  Inputs must be
# accurate at that level (the simulated gains are); the window cannot sit
# much higher, because the LP duals on the weakly-weighted rows amplify it
# straight into the optimum and wash out the certificate.
_DATA_NOISE = Fraction(1, 2 ** 50)


def poisson_upper_tail(mean: float, n_max: int) -> float:
    """P(N > n_max) for a Poisson variable, to full relative accuracy.

    Summed upward from the first excluded term; never computed as one minus
    the head, whose rounding would dwarf the tiny tails that appear here.
    """
    term = poisson_weight(mean, n_max + 1)
    total = term
    for n in range(n_max + 2, n_max + 400):
        term *= mean / n
        total += term
        if term < total * 1e-18:
            break
    return total


def _constraints(q, mu, nu, n_trunc: int):
    """Rows and their lower and upper windows of the truncated LP."""
    side = n_trunc + 1
    rows = []
    lower = []
    upper = []
    for k, mu_k in enumerate(mu):
        mono_a = [Fraction(mu_k) ** n / math.factorial(n) for n in range(side)]
        ta = poisson_upper_tail(mu_k, n_trunc)
        for l, nu_l in enumerate(nu):
            mono_b = [Fraction(nu_l) ** m / math.factorial(m) for m in range(side)]
            tb = poisson_upper_tail(nu_l, n_trunc)
            scale = Fraction(math.exp(-(mu_k + nu_l)))
            coeff = [scale * a * b for a in mono_a for b in mono_b]
            tail = Fraction(ta + tb - ta * tb)
            q_kl = Fraction(q[k][l])
            noise = _DATA_NOISE * (q_kl + tail)
            rows.append(coeff)
            upper.append(q_kl + noise)
            lower.append(max(q_kl - tail - noise, Fraction(0)))
    return rows, lower, upper


@lru_cache(maxsize=4)
def _start(q, mu, nu, n_trunc: int):
    """Feasible simplex start of the truncated LP of one configuration."""
    n_vars = (n_trunc + 1) ** 2
    try:
        return _feasible_start(*_constraints(q, mu, nu, n_trunc),
                               [Fraction(0)] * n_vars, [Fraction(1)] * n_vars)
    except LinearProgramInfeasible as exc:
        raise InconsistentGainsError(f"gains admit no yield profile: {exc}") from exc


def lp_yield_bound(gains: GainMatrix, mu, nu, target, n_trunc: int = DEFAULT_TRUNCATION) -> float:
    """LP maximum of one yield consistent with the gains, in [0, 1]."""
    u, v = target
    mu = tuple(mu)
    nu = tuple(nu)
    if len(mu) != gains.size or len(nu) != gains.size:
        raise ValueError("intensity lists must match the gain matrix")
    if not all(isinstance(k, Integral) and not isinstance(k, bool) for k in (u, v)):
        raise ValueError(f"target photon numbers must be integers, got {target}")
    if u < 0 or v < 0:
        raise ValueError(f"target photon numbers must be >= 0, got {target}")
    if n_trunc < max(u, v) + 2:
        raise ValueError("truncation order too small for the target yield")

    side = n_trunc + 1
    c = [Fraction(0)] * (side * side)
    c[u * side + v] = Fraction(1)
    optimum, _ = _maximize(_start(gains.q, mu, nu, n_trunc), c)
    return min(max(optimum, 0.0), 1.0)
