"""Analytical yield upper bounds for three independent decoy intensities.

Each bound combines the nine rescaled gains with coefficients chosen so that
whole families of photon-number terms cancel; what survives is the target
yield plus a remainder of known sign, which is dropped (set to 0) or
saturated (set to 1) to obtain a certified upper bound.  Bounds exist for
the yield indices (0,0), (1,1), (2,2), (0,2), (2,0), (0,4), (4,0), (1,3)
and (3,1); every other yield is trivially bounded by 1.

The combinations cancel ten-plus digits for typical decoy intensities, so
every formula can also run in exact rational arithmetic (``exact=True``):
the inputs are binary doubles, hence exact rationals, and the only rounded
ingredients are the factorially damped series tails, which are themselves
computed from all-positive terms to full relative accuracy.  The float path
is faster and plenty for rate optimization; the exact path is what the
oracle comparisons at 1e-9 tolerances need.

Three- and four-decoy bounds share one path.  ``_prepare`` checks the
input, the only validation on the path, picks the number type and rescales
the gains.  Each ordered intensity triple becomes one ``_side`` per bound
set: its three moment-killing ``_vectors`` and its series tails.
``_block_bounds`` turns one 3x3 block into all nine clamped bounds; every
combination is ``_combine`` of one vector per party with the block, and
every party-swapped target is its mirror formula on the transposed block.
A three-decoy bound set is one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .channel import _EXP_MAX, GainMatrix
from .errors import DegenerateIntensityError, InconsistentGainsError, SaturationError
from .series import exp_f_tail, exp_h_tail

TARGETS_3 = ((0, 0), (1, 1), (2, 2), (0, 2), (2, 0), (0, 4), (4, 0), (1, 3), (3, 1))

_NEGATIVE_SLACK = -1e-9
_MIN_REL_GAP = 1e-6


@dataclass
class YieldBounds:
    """Sparse map (n, m) -> certified upper bound; unlisted indices mean 1.

    ``provenance`` names the candidate formula that won each stored entry
    (e.g. ``3-decoy``, ``3-decoy subsets (0,1,3)x(0,2,3)``, ``4-decoy
    combined``), and ``warnings`` collects notes such as skipped
    ill-conditioned formulas.
    """

    bounds: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def get(self, n: int, m: int) -> float:
        return self.bounds.get((n, m), 1.0)

    def items(self):
        return self.bounds.items()


def check_intensities(values, label: str) -> None:
    """Reject zero or nearly coincident intensities within one party's set.

    The coefficient formulas divide both by pairwise differences and by the
    weak intensities themselves, so everything must be positive and pairwise
    separated by at least ``_MIN_REL_GAP`` relative.
    """
    vals = list(values)
    for v in vals:
        if v <= 0.0:
            raise DegenerateIntensityError(
                f"{label} intensities must be strictly positive for the bounds, got {v}")
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            gap = abs(vals[i] - vals[j]) / max(vals[i], vals[j])
            if gap < _MIN_REL_GAP:
                raise DegenerateIntensityError(
                    f"{label} intensities {vals[i]} and {vals[j]} are (nearly) equal")


# Indices into ``_vectors``, named by the photon-number moments removed
_K01, _K02, _K12 = 0, 1, 2


def _vectors(x):
    """Row vectors of one ordered triple orthogonal to (1,1,1) and x, to
    (1,1,1) and x^2, to x and x^2; the leading integer 1 keeps x's type."""
    x0, x1, x2 = x
    d = x1 - x2
    dsq = x1 * x1 - x2 * x2
    return ((1, (x2 - x0) / d, (x0 - x1) / d),
            (1, (x2 * x2 - x0 * x0) / dsq, (x0 * x0 - x1 * x1) / dsq),
            (1, x0 * (x2 - x0) / (x1 * d), x0 * (x0 - x1) / (x2 * d)))


# target -> (alice vector, bob vector)
_VECTOR_FOR_TARGET = {(0, 0): (_K12, _K12), (1, 1): (_K02, _K02), (2, 2): (_K01, _K01),
                      (0, 2): (_K12, _K01), (2, 0): (_K01, _K12), (1, 3): (_K02, _K01),
                      (3, 1): (_K01, _K02)}


def cancellation_coeffs(target, mu, nu):
    """3x3 coefficient matrix c[i][j] for the gain combination of ``target``.

    The matrix is the outer product of one moment-killing vector per party;
    c[0][0] is 1 by normalization.  Fraction inputs give exact output.  The
    bounds themselves combine the vectors directly (``_combine``).
    """
    target = tuple(target)
    if target not in _VECTOR_FOR_TARGET:
        raise ValueError(f"no three-decoy coefficient family for target {target}")
    mu, nu = tuple(mu), tuple(nu)
    if len(mu) != 3 or len(nu) != 3:
        raise ValueError("cancellation_coeffs expects three intensities per party")
    check_intensities(mu, "mu")
    check_intensities(nu, "nu")
    ia, ib = _VECTOR_FOR_TARGET[target]
    a, b = _vectors(mu)[ia], _vectors(nu)[ib]
    return tuple(tuple(ai * bj for bj in b) for ai in a)


def _prepare(q, mu, nu, size: int, exact: bool):
    """Checked input as (num, qtilde, qtilde transposed, mu, nu) in number type
    ``num``; qtilde is the gains times exp(mu_k + nu_l), doubles taken verbatim.
    """
    mu, nu = tuple(mu), tuple(nu)
    if len(q) != size or len(mu) != size or len(nu) != size:
        raise ValueError(f"expected {size} decoys per party and a {size}x{size} gain matrix")
    check_intensities(mu, "mu")
    check_intensities(nu, "nu")
    if max(mu) + max(nu) > _EXP_MAX:
        raise SaturationError(
            f"exp(mu + nu) overflows for intensities {max(mu)} and {max(nu)}")
    num = Fraction if exact else float
    qtilde = tuple(tuple(num(math.exp(mu_k + nu_l)) * num(g) for nu_l, g in zip(nu, row))
                   for mu_k, row in zip(mu, q))
    return num, qtilde, tuple(zip(*qtilde)), tuple(map(num, mu)), tuple(map(num, nu))


# Per-term rounding allowance for the float path: the gain combinations are
# summed exactly (fsum), so what remains is the formation of each
# coefficient-times-gain product plus the coefficients' own rounding.
_EPS_COMBINE = 8.0 * 2.0 ** -53


def _combine(a, b, qtilde, rows, cols, num):
    """Gain combination sum_ij a_i b_j qtilde_ij and a bound on its rounding.

    Returns (value, error); the error is zero on the exact path.  The error
    estimate is what lets callers report certified-despite-rounding upper
    bounds: it is added on top of the raw value, which only loosens the
    bound, and it grows exactly where the combination cancels so deeply that
    double precision cannot resolve it.
    """
    terms = [ai * bj * qtilde[i][j] for ai, i in zip(a, rows) for bj, j in zip(b, cols)]
    if num is Fraction:
        return sum(terms), 0
    return math.fsum(terms), _EPS_COMBINE * math.fsum(map(abs, terms))


def _clamp(raw, err, target, formula: str) -> float:
    """Clamp raw + err to [0, 1], crediting the rounding error upward."""
    value = float(raw) + float(err)
    if value < _NEGATIVE_SLACK:
        raise InconsistentGainsError(
            f"{formula} bound for yield {target} is {value}; the gains are not "
            f"producible by any yield profile")
    return min(max(value, 0.0), 1.0)


def _side(x, vectors, num):
    """One party's ordered triple x as a block reads it: x, its ``_vectors`` and
    exp_h_tail(x, 2), exp_f_tail(x, 3), exp_f_tail(x, 4) in type ``num``."""
    return x, vectors, (num(exp_h_tail(x, 2)), num(exp_f_tail(x, 3)), num(exp_f_tail(x, 4)))


def _one_sided(qtilde, a, b, rows, cols, num):
    """Raw (value, error) of (0,2), (0,4), (1,3) for the ``_side``s a, b; of
    (2,0), (4,0), (3,1) on the transposed block with a and b exchanged."""
    (mu0, mu1, mu2), va, ta = a
    (nu0, nu1, nu2), vb, tb = b
    denom = (mu0 - mu1) * (mu0 - mu2) * (nu0 - nu1) * (nu0 - nu2)
    g, gerr = _combine(va[_K12], vb[_K01], qtilde, rows, cols, num)
    pref02 = 2 * mu1 * mu2 / denom
    h2_nu = nu0 * nu0 + nu1 * nu1 + nu2 * nu2 + nu0 * nu1 + nu0 * nu2 + nu1 * nu2
    pref04 = 24 * mu1 * mu2 / (denom * h2_nu)
    g13, err13 = _combine(va[_K02], vb[_K01], qtilde, rows, cols, num)
    e1_nu = nu0 + nu1 + nu2
    pref13 = -6 * (mu1 + mu2) / (denom * e1_nu)
    return ((g * pref02, gerr * abs(pref02)), (g * pref04, gerr * abs(pref04)),
            (g13 * pref13 + 6 * (tb[0] * ta[1]) / e1_nu, err13 * abs(pref13)))


def _block_bounds(qtilde, qtilde_t, a, b, rows, cols, num) -> dict:
    """All nine clamped bounds on the 3x3 block ``rows`` x ``cols`` of the
    rescaled gains, whose intensities are the ``_side``s ``a`` and ``b``."""
    out = {}
    for targets, raws in ((((0, 2), (0, 4), (1, 3)), _one_sided(qtilde, a, b, rows, cols, num)),
                          (((2, 0), (4, 0), (3, 1)),
                           _one_sided(qtilde_t, b, a, cols, rows, num))):
        for target, (raw, err) in zip(targets, raws):
            out[target] = _clamp(raw, err, target, "3-decoy")
    y13, y31 = out[1, 3], out[3, 1]
    if b[0] > a[0]:
        # canonical orientation, so exchanging the parties is a bitwise
        # no-op for the party-symmetric targets too
        qtilde, a, b, rows, cols, y13, y31 = qtilde_t, b, a, cols, rows, y31, y13
    (mu0, mu1, mu2), va, ta = a
    (nu0, nu1, nu2), vb, tb = b
    denom = (mu0 - mu1) * (mu0 - mu2) * (nu0 - nu1) * (nu0 - nu2)
    g, gerr = _combine(va[_K12], vb[_K12], qtilde, rows, cols, num)
    pref = mu1 * mu2 * nu1 * nu2 / denom
    out[0, 0] = _clamp(g * pref, gerr * abs(pref), (0, 0), "3-decoy")
    g, gerr = _combine(va[_K02], vb[_K02], qtilde, rows, cols, num)
    e2_nu = nu0 * nu1 + nu0 * nu2 + nu1 * nu2
    e2_mu = mu0 * mu1 + mu0 * mu2 + mu1 * mu2
    pref = (mu1 + mu2) * (nu1 + nu2) / denom
    raw = g * pref + num(y13) * e2_nu / 6 + num(y31) * e2_mu / 6 + tb[2] + ta[2]
    out[1, 1] = _clamp(raw, gerr * abs(pref), (1, 1), "3-decoy")
    g, gerr = _combine(va[_K01], vb[_K01], qtilde, rows, cols, num)
    out[2, 2] = _clamp(4 * g / denom, 4 * gerr / abs(denom), (2, 2), "3-decoy")
    return {target: out[target] for target in TARGETS_3}


def _bounds3(q, mu, nu, exact):
    """(bounds, provenance, warnings) of the three-decoy bound set."""
    num, qtilde, qtilde_t, mu, nu = _prepare(q, mu, nu, 3, exact)
    bounds = _block_bounds(qtilde, qtilde_t, _side(mu, _vectors(mu), num),
                           _side(nu, _vectors(nu), num), (0, 1, 2), (0, 1, 2), num)
    return bounds, dict.fromkeys(bounds, "3-decoy"), []


def bound_y3(target, gains: GainMatrix, mu, nu, exact: bool = False) -> float:
    """Certified upper bound on one yield from a 3x3 gain matrix.

    The float path adds its own rounding-error estimate before clamping, so
    the result stays a valid upper bound even where the combination cancels
    beyond double precision.  Values above 1 are clamped; values below
    -1e-9 (after the error credit) raise ``InconsistentGainsError``, for
    any of the nine targets: the whole set is evaluated.
    """
    target = tuple(target)
    if target not in TARGETS_3:
        raise ValueError(f"no three-decoy bound for target {target}")
    return _bounds3(gains.q, mu, nu, exact)[0][target]


def yield_bounds_3(gains: GainMatrix, mu, nu, exact: bool = False) -> YieldBounds:
    """All nine three-decoy bounds for one gain matrix."""
    return YieldBounds(*_bounds3(gains.q, mu, nu, exact))
