"""Exact (truncated) linear-programming yield bounds from observed gains.

The decoy-state constraints say each gain is a known Poisson mixture of the
unknown yields.  Truncating the photon numbers at ``n_trunc`` and widening
each equality into a two-sided window by the neglected Poisson tail mass
turns that into a finite LP whose maximum is a certified upper bound on any
single yield.

Everything is kept exact, in the reduced ``(n, o, e)`` triples for
``n / (o * 2**e)`` (odd ``n`` and ``o``) of ``tfqkd.dyadic``: the
constraint coefficients are products of rational monomials x^n/n! of the
(exactly represented) double intensities, built once per intensity, scaled
per row by the rational value of the double exp(-mu-nu) so each row stays
on the probability scale.
Their denominators are powers of two times the small odd parts of the
factorials, which is what the triples split off.  The only non-exact
ingredients are the gains themselves and the per-row exponential, a couple
of ulps each, which is what the tiny ``_DATA_NOISE`` window accounts for.
The windows matter: the LP duals on the weakly-weighted rows reach 1e12 and
amplify any slack in the window straight into the reported optimum.

Every target of one configuration shares those rows and windows, and the
feasible start of the simplex depends on nothing else.  One small
``lru_cache`` keyed by (gains, intensities, truncation) therefore builds the
start once, in triples; each ``lp_yield_bound`` call then only runs phase 2
for its own target on it.  The phase 2s share the start read-only: they
read its rows in place, which hold only the structural and slack columns
phase 2 prices, a pivot copies only the rows it writes, and the floats their
shadow tests read are converted once for all of them.

Phase 1 is skipped where the product start is feasible: the basis of the
structurals (n, m) with n, m < d for d intensities per party, every other
structural at 0 and every slack at its upper bound, written down exactly
from the Kronecker structure of the rows (``_product_start``).  It is used
when every basic value lies in [0, 1].  Phase 1 runs on the built rows
instead when a party repeats an intensity, when ``n_trunc + 1 < d``, when
some basic value lies outside [0, 1], as for inconsistent gains, which phase
1 then reports, or when every lower window is 0, as for zero gains: the
product start is then a fully degenerate vertex, from which phase 2 pivots
dozens of times where phase 1's start needs one pivot.  Phase 1 can end on
another feasible basis than the product start, or on the same basis with
some structurals at their upper bound.
The optimal value of the LP is unique, so every start gives the same
``lp_yield_bound``; only ``x`` at a degenerate optimum can differ.  The row
order of a start is not part of it: phase 1 leaves its rows in the order of
its pivots, the product start sorted by basic variable, and phase 2 reads a
row only through its basic variable, so the order changes no pivot.  An
infeasible configuration raises on every call, since the cache holds no
exceptions.
"""

from __future__ import annotations

import math
from functools import lru_cache
from numbers import Integral, Real

from ..channel import GainMatrix
from ..dyadic import _ONE, _ZERO, _add, _div, _less, _mul, _number, _rational, _sub
from ..errors import InconsistentGainsError
from .fock import poisson_upper_tail
from .simplex import (_AT_LOWER, _AT_UPPER, _BASIC, LinearProgramInfeasible, _Start,
                      _feasible_start, _optimum)
from .simplex import solve_bounded_lp  # noqa: F401  (benchmark/spans.py wraps this attribute)

DEFAULT_TRUNCATION = 10
# Largest truncation order accepted, checked before anything is allocated:
# the LP has (n + 1)^2 variables, 1,681 at 40, where the start and the first
# phase 2 take 0.05-0.21 s for a 3-decoy and 0.10-0.15 s for a 4-decoy
# configuration, and 85-105 s for the tests' pivot-heavy constructed
# profile, which needs phase 1 (2-core x86 container, Python 3.11); the
# bounds have long stopped moving there (they settle by 15).
_MAX_TRUNCATION = 40

# Relative allowance for the rounding of the double gains and of the per-row
# exponential rescaling: a few units in the last place.  Inputs must be
# accurate at that level (the simulated gains are); the window cannot sit
# much higher, because the LP duals on the weakly-weighted rows amplify it
# straight into the optimum and wash out the certificate.
_DATA_NOISE = (1, 1, 50)


def _factors(mu, nu, n_trunc: int) -> dict:
    """Each intensity's monomials x^n/n!, n <= ``n_trunc``, as triples, and its
    Poisson tail past ``n_trunc``."""
    factors = {}
    for x in mu + nu:
        # the double value of each intensity, as in the row scale and the tails
        p, r = float(x).as_integer_ratio()
        factors[x] = ([_mul(_rational(p ** n, r ** n), _rational(1, math.factorial(n)))
                       for n in range(n_trunc + 1)],
                      poisson_upper_tail(x, n_trunc))
    return factors


def _windows(q, mu, nu, factors):
    """Scales and lower and upper windows of the rows, row (k, l) at
    ``k * len(nu) + l``, as triples."""
    scales = []
    lower = []
    upper = []
    for k, mu_k in enumerate(mu):
        ta = factors[mu_k][1]
        for l, nu_l in enumerate(nu):
            tb = factors[nu_l][1]
            scales.append(_number(math.exp(-(mu_k + nu_l))))
            tail = _number(ta + tb - ta * tb)
            q_kl = _number(q[k][l])
            noise = _mul(_DATA_NOISE, _add(q_kl, tail))
            upper.append(_add(q_kl, noise))
            low = _sub(_sub(q_kl, tail), noise)
            lower.append(low if low[0] > 0 else _ZERO)
    return scales, lower, upper


def _rows(mu, nu, factors, scales) -> list:
    """The constraint rows, ``scale_kl * mu_k^n/n! * nu_l^m/m!`` in column
    ``n * (n_trunc + 1) + m``."""
    rows = []
    for k, mu_k in enumerate(mu):
        for l, nu_l in enumerate(nu):
            scale = scales[k * len(nu) + l]
            rows.append([_mul(sa, b) for sa in [_mul(scale, a) for a in factors[mu_k][0]]
                         for b in factors[nu_l][0]])
    return rows


def _constraints(q, mu, nu, n_trunc: int):
    """Rows and their lower and upper windows of the truncated LP, as triples."""
    factors = _factors(mu, nu, n_trunc)
    scales, lower, upper = _windows(q, mu, nu, factors)
    return _rows(mu, nu, factors, scales), lower, upper


def _solved(monomials, d: int):
    """``[M_S^-1 M | M_S^-1]`` by Gauss-Jordan, where the rows M are one party's
    monomials and M_S their leading d x d block; None if M_S is singular.

    The leading k x k minors of M_S are Vandermonde determinants of the first
    k intensities (times 1/n!), so no pivot is 0 unless two intensities
    coincide, which makes M_S singular: no row exchange is needed.
    """
    rows = [list(mono) + [_ONE if j == i else _ZERO for j in range(d)]
            for i, mono in enumerate(monomials)]
    for c in range(d):
        if not rows[c][c][0]:
            return None
        inv = _div(_ONE, rows[c][c])
        rows[c] = [_mul(inv, v) for v in rows[c]]
        for i in range(d):
            f = rows[i][c]
            if i != c and f[0]:
                rows[i] = [_sub(v, _mul(f, p)) for v, p in zip(rows[i], rows[c])]
    return rows


def _dot(xs, ys) -> tuple:
    total = _ZERO
    for x, y in zip(xs, ys):
        total = _add(total, _mul(x, y))
    return total


def _product_start(mu, nu, n_trunc: int, factors, scales, lower, upper):
    """The start on the product basis S x T, S = T = {0, ..., d - 1}, with every
    other structural at 0 and every slack at its upper bound; None where
    that basis is singular or infeasible.

    The rows are A = diag(s) (M (x) N) for the monomials M of Alice's and N
    of Bob's intensities, so B = diag(s) (M_S (x) N_T) and, exactly, the
    tableau is B^-1 A = (M_S^-1 M) (x) (N_T^-1 N) (the scales cancel), the
    slack columns are B^-1 = (M_S^-1 (x) N_T^-1) diag(s)^-1, and the basic
    values are x_B = B^-1 lo, each row at its lower end.  The statuses are
    those phase 1 leaves.
    """
    d = len(mu)
    side = n_trunc + 1
    if side < d or not all(s[0] for s in scales):
        return None
    blocks = [_solved([factors[x][0] for x in xs], d) for xs in (mu, nu)]
    if None in blocks:
        return None
    (pa, ia), (pb, ib) = (([row[:side] for row in b], [row[side:] for row in b])
                          for b in blocks)
    inv_s = [_div(_ONE, s) for s in scales]
    # x_(n,m) = sum_k ia[n][k] sum_l ib[m][l] lo_kl / s_kl, factored: the
    # windows are long numbers, so each enters d products, not d * d
    w = [_mul(lo, i) for lo, i in zip(lower, inv_s)]
    half = [[_dot(ib[m], w[k * d:(k + 1) * d]) for m in range(d)] for k in range(d)]
    beta = [_dot(ia[n], [half[k][m] for k in range(d)]) for n in range(d) for m in range(d)]
    if any(v[0] < 0 or _less(_ONE, v) for v in beta):
        return None
    tab = []
    for n in range(d):
        for m in range(d):
            slack = [_mul(_mul(ia[n][k], ib[m][l]), inv_s[k * d + l])
                     for k in range(d) for l in range(d)]
            tab.append([_mul(a, b) for a in pa[n] for b in pb[m]] + slack)
    n_vars = side * side
    basis = tuple(n * side + m for n in range(d) for m in range(d))
    status = [_AT_LOWER] * n_vars + [_AT_UPPER] * (d * d)
    for j in basis:
        status[j] = _BASIC
    return _Start(n=n_vars, tab_n=tuple(tuple(v[0] for v in row) for row in tab),
                  tab_o=tuple(tuple(v[1] for v in row) for row in tab),
                  tab_e=tuple(tuple(v[2] for v in row) for row in tab),
                  beta=tuple(beta), status=tuple(status), basis=basis,
                  lo=(_ZERO,) * (n_vars + d * d),
                  hi=(_ONE,) * n_vars + tuple(_sub(u, lo) for lo, u in zip(lower, upper)))


@lru_cache(maxsize=4)
def _start(q, mu, nu, n_trunc: int):
    """Feasible simplex start of the truncated LP of one configuration: the
    product start where it is feasible and some lower window is above 0,
    else phase 1's."""
    factors = _factors(mu, nu, n_trunc)
    scales, lower, upper = _windows(q, mu, nu, factors)
    # with every lower window 0 the product start is a fully degenerate
    # vertex (every basic value 0), slow to leave; phase 1 is cheap there
    if any(low[0] for low in lower):
        start = _product_start(mu, nu, n_trunc, factors, scales, lower, upper)
        if start is not None:
            return start
    n_vars = (n_trunc + 1) ** 2
    try:
        return _feasible_start(_rows(mu, nu, factors, scales), lower, upper,
                               [_ZERO] * n_vars, [_ONE] * n_vars)
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
    if n_trunc > _MAX_TRUNCATION:
        raise ValueError(f"truncation order must be at most {_MAX_TRUNCATION}, got {n_trunc}")
    if not all(isinstance(k, Integral) and not isinstance(k, bool) for k in (u, v)):
        raise ValueError(f"target photon numbers must be integers, got {target}")
    if u < 0 or v < 0:
        raise ValueError(f"target photon numbers must be >= 0, got {target}")
    if n_trunc < max(u, v) + 2:
        raise ValueError("truncation order too small for the target yield")

    side = n_trunc + 1
    c = [0] * (side * side)
    c[u * side + v] = 1
    optimum = _optimum(_start(gains.q, mu, nu, n_trunc), c)
    return min(max(optimum, 0.0), 1.0)
