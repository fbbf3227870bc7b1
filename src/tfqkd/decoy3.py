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
input, picks the number type and rescales the gains.  Each ordered
intensity triple becomes one ``_side`` per bound set: the triple and its
series tails; its three moment-killing ``_vectors`` come from one batch per
set.  ``_combine`` forms every gain combination of the set at once, one row
(a_i * b_j) * qtilde_ij per combination of a vector per party with a 3x3
block, each row summed exactly; ``_block_bounds`` then turns each block's
seven sums into its nine clamped bounds, every party-swapped target being
its mirror formula with the parties exchanged.  A three-decoy bound set is
one block; ``decoy4.yield_bounds`` is the public entry point for three and
four decoys.  Coefficients, prefactors or terms that are not finite in
double precision raise ``DegenerateIntensityError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .channel import _EXP_MAX, GainMatrix
from .errors import DegenerateIntensityError, InconsistentGainsError, SaturationError
from .series import _triple_tails, exp_f_tail, exp_h_tail  # noqa: F401  (benchmark/spans.py)

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


def _degenerate(what: str) -> DegenerateIntensityError:
    return DegenerateIntensityError(
        f"{what} not finite in double precision: the intensities are too small or "
        f"too close to each other for the float bounds")


def _finite(values, what: str) -> None:
    """Raise ``_degenerate(what)`` unless every float in ``values`` is finite;
    exact (object) arrays hold rationals and always pass."""
    if values.dtype != object and not np.isfinite(values).all():
        raise _degenerate(what)


def _triple_vectors(x0, x1, x2):
    """Row vectors of one ordered triple orthogonal to (1,1,1) and x, to
    (1,1,1) and x^2, to x and x^2; the leading integer 1 keeps x's type."""
    d = x1 - x2
    dsq = x1 * x1 - x2 * x2
    return ((1, (x2 - x0) / d, (x0 - x1) / d),
            (1, (x2 * x2 - x0 * x0) / dsq, (x0 * x0 - x1 * x1) / dsq),
            (1, x0 * (x2 - x0) / (x1 * d), x0 * (x0 - x1) / (x2 * d)))


def _vectors(triples, num):
    """``_triple_vectors`` of each ordered triple, as a (triples, 3, 3) array
    of number type ``num``."""
    try:
        v = np.array([_triple_vectors(*x) for x in triples],
                     dtype=object if num is Fraction else float)
    except ZeroDivisionError:
        raise _degenerate("coefficient vector entries") from None
    _finite(v, "coefficient vector entries")
    return v


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
    a, b = _triple_vectors(*mu)[ia], _triple_vectors(*nu)[ib]
    return tuple(tuple(ai * bj for bj in b) for ai in a)


def _prepare(q, mu, nu, size: int, exact: bool):
    """Checked input as (num, qtilde, mu, nu) in number type ``num``: qtilde is
    the gains times exp(mu_k + nu_l) as a size x size array, mu and nu are
    tuples; doubles are taken verbatim."""
    mu, nu = tuple(mu), tuple(nu)
    if len(q) != size or len(mu) != size or len(nu) != size:
        raise ValueError(f"expected {size} decoys per party and a {size}x{size} gain matrix")
    check_intensities(mu, "mu")
    check_intensities(nu, "nu")
    if max(mu) + max(nu) > _EXP_MAX:
        raise SaturationError(
            f"exp(mu + nu) overflows for intensities {max(mu)} and {max(nu)}")
    num = Fraction if exact else float
    dtype = object if exact else float
    qtilde = np.array([[num(math.exp(mu_k + nu_l)) * num(g) for nu_l, g in zip(nu, row)]
                       for mu_k, row in zip(mu, q)], dtype=dtype)
    return num, qtilde, tuple(map(num, mu)), tuple(map(num, nu))


# Per-term rounding allowance for the float path: the gain combinations are
# summed exactly (fsum), so what remains is the formation of each
# coefficient-times-gain product plus the coefficients' own rounding.
_EPS_COMBINE = 8.0 * 2.0 ** -53


@np.errstate(all="ignore")  # what is not finite raises in ``_finite`` instead
def _combine(a, b, qtilde):
    """Gain combinations sum_ij a_i b_j qtilde_ij of a batch and bounds on their
    rounding, as two lists over the batch.

    ``a`` and ``b`` (..., 3) hold one coefficient vector per party and
    ``qtilde`` (..., 3, 3) the blocks of rescaled gains; they broadcast, and
    each combination's nine terms are summed exactly.  The error is zero on
    the exact path.  The error estimate is what lets callers report
    certified-despite-rounding upper bounds: it is added on top of the raw
    value, which only loosens the bound, and it grows exactly where the
    combination cancels so deeply that double precision cannot resolve it.
    """
    terms = ((a[..., :, None] * b[..., None, :]) * qtilde).reshape(-1, 9)
    if terms.dtype == object:
        rows = terms.tolist()
        return [sum(row) for row in rows], [0] * len(rows)
    _finite(terms, "gain combination terms")
    return (list(map(math.fsum, terms.tolist())),
            [_EPS_COMBINE * e for e in map(math.fsum, np.abs(terms).tolist())])


def _clamp(values, targets, formula: str):
    """Clamp an array of bounds, whose last axis runs over ``targets``, to
    [0, 1]; the first value below the slack, in row-major order, raises."""
    bad = values < _NEGATIVE_SLACK
    if bad.any():
        index = int(bad.argmax())
        raise InconsistentGainsError(
            f"{formula} bound for yield {targets[index % len(targets)]} is "
            f"{float(values.flat[index])}; the gains are not producible by any yield profile")
    return np.minimum(np.maximum(values, 0.0), 1.0)


def _side(x, num):
    """One party's ordered triple x as a block reads it: x and its
    exp_h_tail(x, 2), exp_f_tail(x, 3), exp_f_tail(x, 4) in type ``num``."""
    return x, tuple(map(num, _triple_tails(*map(float, x))))


def _one_sided(g, gerr, g13, err13, a, b):
    """Raw (value, error) of (0,2), (0,4), (1,3) from the sums of the ``_side``s
    a, b; of (2,0), (4,0), (3,1) from the mirror sums with a and b exchanged."""
    (mu0, mu1, mu2), ta = a
    (nu0, nu1, nu2), tb = b
    denom = (mu0 - mu1) * (mu0 - mu2) * (nu0 - nu1) * (nu0 - nu2)
    pref02 = 2 * mu1 * mu2 / denom
    h2_nu = nu0 * nu0 + nu1 * nu1 + nu2 * nu2 + nu0 * nu1 + nu0 * nu2 + nu1 * nu2
    pref04 = 24 * mu1 * mu2 / (denom * h2_nu)
    e1_nu = nu0 + nu1 + nu2
    pref13 = -6 * (mu1 + mu2) / (denom * e1_nu)
    return ((g * pref02, gerr * abs(pref02)), (g * pref04, gerr * abs(pref04)),
            (g13 * pref13 + 6 * (tb[0] * ta[1]) / e1_nu, err13 * abs(pref13)))


# the seven gain combinations of a block, each on the block as Alice x Bob:
# (0,2)/(0,4) and (1,3), then the mirrors (2,0)/(4,0) and (3,1), then (0,0),
# (1,1) and (2,2), whose terms do not depend on which party comes first
_PAIRS = tuple(_VECTOR_FOR_TARGET[t] for t in ((0, 2), (1, 3), (2, 0), (3, 1),
                                                (0, 0), (1, 1), (2, 2)))
_PAIR_A = np.array([ka for ka, _ in _PAIRS])
_PAIR_B = np.array([kb for _, kb in _PAIRS])

# the order in which a block evaluates its targets, and where each lands
_EVALUATED = ((0, 2), (0, 4), (1, 3), (2, 0), (4, 0), (3, 1), (0, 0), (1, 1), (2, 2))
_TO_TARGETS = np.array([_EVALUATED.index(t) for t in TARGETS_3])


def _block(g, gerr, a, b, num):
    """Unclamped bounds of one 3x3 block in ``_EVALUATED`` order, from its
    ``_PAIRS`` sums ``g`` and their errors; its intensities are the
    ``_side``s ``a`` and ``b``."""
    first = (_one_sided(g[0], gerr[0], g[1], gerr[1], a, b)
             + _one_sided(g[2], gerr[2], g[3], gerr[3], b, a))
    values = [float(raw) + float(err) for raw, err in first]
    y13, y31 = min(max(values[2], 0.0), 1.0), min(max(values[5], 0.0), 1.0)
    if b[0][0] > a[0][0]:
        # canonical orientation, so exchanging the parties is a bitwise
        # no-op for the party-symmetric targets too
        a, b, y13, y31 = b, a, y31, y13
    (mu0, mu1, mu2), ta = a
    (nu0, nu1, nu2), tb = b
    denom = (mu0 - mu1) * (mu0 - mu2) * (nu0 - nu1) * (nu0 - nu2)
    pref00 = mu1 * mu2 * nu1 * nu2 / denom
    e2_nu = nu0 * nu1 + nu0 * nu2 + nu1 * nu2
    e2_mu = mu0 * mu1 + mu0 * mu2 + mu1 * mu2
    pref11 = (mu1 + mu2) * (nu1 + nu2) / denom
    raw = g[5] * pref11 + num(y13) * e2_nu / 6 + num(y31) * e2_mu / 6 + tb[2] + ta[2]
    values += (float(g[4] * pref00) + float(gerr[4] * abs(pref00)),
               float(raw) + float(gerr[5] * abs(pref11)),
               float(4 * g[6] / denom) + float(4 * gerr[6] / abs(denom)))
    return values


def _block_bounds(g, gerr, sides, num):
    """All nine clamped bounds of a batch of 3x3 blocks as a (blocks, 9) float
    array, columns in ``TARGETS_3`` order.

    ``g`` and ``gerr`` list the ``_PAIRS`` sums block by block, ``sides``
    each block's Alice and Bob ``_side``.  A value below the slack raises for
    the first block and target in evaluation order; a prefactor that
    vanishes or overflows, hence a value that is not finite, raises
    ``DegenerateIntensityError``.
    """
    n = len(_PAIRS)
    try:
        values = np.array([_block(g[n * i:n * i + n], gerr[n * i:n * i + n], a, b, num)
                           for i, (a, b) in enumerate(sides)])
    except ZeroDivisionError:
        raise _degenerate("bound prefactors") from None
    _finite(values, "bound prefactors")
    return _clamp(values, _EVALUATED, "3-decoy")[:, _TO_TARGETS]


def _bounds3(q, mu, nu, exact):
    """(bounds, provenance, warnings) of the three-decoy bound set: one block."""
    num, qtilde, mu, nu = _prepare(q, mu, nu, 3, exact)
    va, vb = _vectors((mu, nu), num)
    g, gerr = _combine(va[_PAIR_A], vb[_PAIR_B], qtilde)
    sides = [(_side(mu, num), _side(nu, num))]
    bounds = dict(zip(TARGETS_3, _block_bounds(g, gerr, sides, num)[0].tolist()))
    return bounds, dict.fromkeys(bounds, "3-decoy"), []


def yield_bounds_3(gains: GainMatrix, mu, nu, exact: bool = False) -> YieldBounds:
    """All nine three-decoy bounds, unmemoized.  Not exported: ``decoy4.yield_bounds``
    is the entry point; this stays for the benchmark's certify check."""
    return YieldBounds(*_bounds3(gains.q, mu, nu, exact))
