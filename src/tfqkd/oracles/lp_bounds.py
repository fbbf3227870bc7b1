"""Exact (truncated) linear-programming yield bounds from observed gains.

The decoy-state constraints say each gain is a known Poisson mixture of the
unknown yields.  Truncating the photon numbers at ``n_trunc`` and widening
each equality into a two-sided window by the neglected Poisson tail mass
turns that into a finite LP whose maximum is a certified upper bound on any
single yield.

Everything is kept exact: the constraint coefficients are products of
rational monomials x^n/n! of the (exactly represented) double intensities,
built once per intensity, scaled per row by the rational value of the double
exp(-mu-nu) so each row stays on the probability scale.  The only non-exact
ingredients are the gains themselves and the per-row exponential, a couple
of ulps each, which is what the tiny ``_DATA_NOISE`` window accounts for.
The windows matter: the LP duals on the weakly-weighted rows reach 1e12 and
amplify any slack in the window straight into the reported optimum.

Every target of one configuration shares those rows and windows, and phase 1
of the simplex depends on nothing else.  One small ``lru_cache`` keyed by
(gains, intensities, truncation) therefore builds the rows and runs phase 1
once, keeping its start in int pairs; each ``lp_yield_bound`` call then only
runs phase 2 for its own target from a copy of that feasible start, which
gives the optimum a one-shot solve would give.  An infeasible configuration
raises on every call, since the cache holds no exceptions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from numbers import Integral, Real

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

    Summed upward from the first excluded term while the tail is the smaller
    side: one minus the head would lose the tiny tails that appear here to
    rounding.  Past the mode the tail holds about half the mass or more, so
    one minus the head is accurate there, while the upward sum would stop
    long before the terms peak near ``mean`` or start from an underflowed
    first term.
    """
    if mean > n_max + 1:
        return 1.0 - math.fsum(poisson_weight(mean, n) for n in range(n_max + 1))
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
    factors = {x: ([Fraction(x) ** n / math.factorial(n) for n in range(n_trunc + 1)],
                   poisson_upper_tail(x, n_trunc)) for x in mu + nu}
    rows = []
    lower = []
    upper = []
    for k, mu_k in enumerate(mu):
        mono_a, ta = factors[mu_k]
        for l, nu_l in enumerate(nu):
            mono_b, tb = factors[nu_l]
            scale = Fraction(math.exp(-(mu_k + nu_l)))
            coeff = [sa * b for sa in [scale * a for a in mono_a] for b in mono_b]
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
        return _feasible_start(*_constraints(q, mu, nu, n_trunc), [0] * n_vars, [1] * n_vars)
    except LinearProgramInfeasible as exc:
        raise InconsistentGainsError(f"gains admit no yield profile: {exc}") from exc


def lp_yield_bound(gains: GainMatrix, mu, nu, target, n_trunc: int = DEFAULT_TRUNCATION) -> float:
    """LP maximum of one yield consistent with the gains, in [0, 1]."""
    try:
        u, v = target
    except (TypeError, ValueError):
        raise ValueError(f"target must be a pair of integers, got {target!r}") from None
    mu = tuple(mu)
    nu = tuple(nu)
    if len(mu) != gains.size or len(nu) != gains.size:
        raise ValueError("intensity lists must match the gain matrix")
    if not all(isinstance(x, Real) and math.isfinite(x) and x >= 0 for x in mu + nu):
        raise ValueError(f"intensities must be finite and >= 0, got {mu} and {nu}")
    if not isinstance(n_trunc, Integral) or isinstance(n_trunc, bool):
        raise ValueError(f"truncation order must be an integer, got {n_trunc!r}")
    if not all(isinstance(k, Integral) and not isinstance(k, bool) for k in (u, v)):
        raise ValueError(f"target photon numbers must be integers, got {target}")
    if u < 0 or v < 0:
        raise ValueError(f"target photon numbers must be >= 0, got {target}")
    if n_trunc < max(u, v) + 2:
        raise ValueError("truncation order too small for the target yield")

    side = n_trunc + 1
    c = [0] * (side * side)
    c[u * side + v] = 1
    optimum, _ = _maximize(_start(gains.q, mu, nu, n_trunc), c)
    return min(max(optimum, 0.0), 1.0)
