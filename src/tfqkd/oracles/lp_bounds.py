"""Exact (truncated) linear-programming yield bounds from observed gains.

The decoy-state constraints say each gain is a known Poisson mixture of the
unknown yields.  Truncating the photon numbers at ``n_trunc`` and widening
each equality into a two-sided window by the neglected Poisson tail mass
turns that into a finite LP whose maximum is a certified upper bound on any
single yield.

Everything is kept exact, in the simplex's reduced ``(numerator,
denominator)`` int pairs: the constraint coefficients are products of
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
from functools import lru_cache
from numbers import Integral, Real

from ..channel import GainMatrix
from ..errors import InconsistentGainsError
from .fock import poisson_upper_tail
from .simplex import (_ONE, _ZERO, LinearProgramInfeasible, _add, _feasible_start, _maximize,
                      _mul, _sub)
from .simplex import solve_bounded_lp  # noqa: F401  (benchmark/spans.py wraps this attribute)

DEFAULT_TRUNCATION = 10

# Relative allowance for the rounding of the double gains and of the per-row
# exponential rescaling: a few units in the last place.  Inputs must be
# accurate at that level (the simulated gains are); the window cannot sit
# much higher, because the LP duals on the weakly-weighted rows amplify it
# straight into the optimum and wash out the certificate.
_DATA_NOISE = (1, 2 ** 50)


def _constraints(q, mu, nu, n_trunc: int):
    """Rows and their lower and upper windows of the truncated LP, as pairs."""
    factors = {}
    for x in mu + nu:
        # the double value of each intensity, as in the row scale and the tails
        p, r = float(x).as_integer_ratio()
        factors[x] = ([_mul((p ** n, r ** n), (1, math.factorial(n))) for n in range(n_trunc + 1)],
                      poisson_upper_tail(x, n_trunc))
    rows = []
    lower = []
    upper = []
    for k, mu_k in enumerate(mu):
        mono_a, ta = factors[mu_k]
        for l, nu_l in enumerate(nu):
            mono_b, tb = factors[nu_l]
            scale = math.exp(-(mu_k + nu_l)).as_integer_ratio()
            rows.append([_mul(sa, b) for sa in [_mul(scale, a) for a in mono_a] for b in mono_b])
            tail = (ta + tb - ta * tb).as_integer_ratio()
            q_kl = q[k][l].as_integer_ratio()
            noise = _mul(_DATA_NOISE, _add(q_kl, tail))
            upper.append(_add(q_kl, noise))
            low = _sub(_sub(q_kl, tail), noise)
            lower.append(low if low[0] > 0 else _ZERO)
    return rows, lower, upper


@lru_cache(maxsize=4)
def _start(q, mu, nu, n_trunc: int):
    """Feasible simplex start of the truncated LP of one configuration."""
    n_vars = (n_trunc + 1) ** 2
    try:
        return _feasible_start(*_constraints(q, mu, nu, n_trunc), [_ZERO] * n_vars,
                               [_ONE] * n_vars)
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
