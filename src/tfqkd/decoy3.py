"""Analytical yield upper bounds for three independent decoy intensities.

Each bound combines the nine rescaled gains with coefficients chosen so that
whole families of photon-number terms cancel; what survives is the target
yield plus a remainder of known sign, which is dropped (set to 0) or
saturated (set to 1) to obtain a certified upper bound.  Bounds exist for
the yield indices (0,0), (1,1), (2,2), (0,2), (2,0), (0,4), (4,0), (1,3)
and (3,1); every other yield is trivially bounded by 1.

The combinations cancel ten-plus digits for typical decoy intensities, so
every formula can also run on exact rationals (``exact=True``), the
``dyadic.Dyadic`` numbers: the inputs are binary doubles, hence exact
rationals.  The exact path still rounds in three places: each block result
goes back to the nearest double (``float(raw)``, so a bound may sit a
fraction of an ulp below its rational value), the (1,1) bound reads the
(1,3) and (3,1) bounds after that rounding and clamp, and the factorially
damped series tails are doubles, computed from all-positive terms to full
relative accuracy and then taken as exact.  The float path is faster and
plenty for rate optimization; the exact path is what the oracle comparisons
at 1e-9 tolerances need.

Three- and four-decoy bounds share one sequence of steps.  ``_prepare``
checks the input, picks the number type and rescales the gains.  Each
ordered intensity triple becomes one ``_side`` per bound set: every factor
of the block formulas that reads the triple alone, and its series tails;
its three moment-killing vectors come from ``_triple_vectors``.  Each gain
combination is one row sum_ij a_i b_j qtilde_ij per combination of a vector
per party with a 3x3 block.  On floats its nine products (a_i * b_j) *
qtilde_ij are summed exactly (``math.fsum``).  On exact numbers each
vector, and the gains, are one int vector over one denominator per bound
set, so a row is an integer dot product reduced once to its triple
(``_exact_combine``), the same rational as the nine products summed.
Each block's seven sums then give its nine clamped bounds, ``_block``
forming only the terms that mix the two sides, every party-swapped target
being its mirror formula with the parties exchanged.  A four-decoy set
takes these steps as batches over its 16 blocks and combined-formula slots
(``_vectors``, ``_combine`` on floats or ``_exact_combine``,
``_block_bounds``).  A three-decoy set is one block, which ``_bounds3``
evaluates on plain numbers, float or ``Dyadic``: at that size a numpy
batch costs more than the arithmetic.  Both give the same bits.
``decoy4.yield_bounds`` is the public entry point for three and four
decoys.  Coefficients, prefactors or terms that are not finite in double
precision raise ``DegenerateIntensityError``, and so do exact values past
its range, with a message of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, starmap

import numpy as np

from . import dyadic
from .channel import _EXP_MAX, GainMatrix
from .dyadic import Dyadic, _operand, _pair, _reduced, _scaled, _wrap
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


def _past_double_range(what: str) -> DegenerateIntensityError:
    return DegenerateIntensityError(
        f"exact {what} past the double range: the bound cannot be returned as a double")


def _finite(values, what: str) -> None:
    """Raise ``_degenerate(what)`` unless every float in ``values`` is finite;
    exact (object) arrays hold rationals and always pass."""
    if values.dtype != object and not np.isfinite(values).all():
        raise _degenerate(what)


def _finite_numbers(values, what: str) -> None:
    """``_finite`` for an iterable of plain floats."""
    if not all(map(math.isfinite, values)):
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
    entries = chain.from_iterable(chain.from_iterable(starmap(_triple_vectors, triples)))
    try:
        v = np.fromiter(entries, object if num is Dyadic else float,
                        9 * len(triples)).reshape(-1, 3, 3)
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
    bounds themselves combine the vectors directly (``_terms``, ``_combine``,
    ``_exact_combine``).  A float entry that is not finite, or a vector
    that divides by zero, raises ``DegenerateIntensityError``, as in the
    bounds.
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
    try:
        a, b = _triple_vectors(*mu)[ia], _triple_vectors(*nu)[ib]
    except ZeroDivisionError:
        raise _degenerate("coefficient vector entries") from None
    _finite_numbers(_floats(chain(a, b)), "coefficient vector entries")
    c = tuple(tuple(ai * bj for bj in b) for ai in a)
    _finite_numbers(_floats(chain(*c)), "cancellation coefficients")
    return c


def _floats(values):
    """The floats among ``values``; exact numbers are always finite."""
    return (v for v in values if isinstance(v, float))


def _prepare(q, mu, nu, size: int, exact: bool):
    """Checked input as (num, qtilde, mu, nu) in number type ``num``: qtilde is
    the gains times exp(mu_k + nu_l) as ``size`` lists of ``size``, mu and nu
    are tuples; doubles are taken verbatim."""
    mu, nu = tuple(mu), tuple(nu)
    if len(q) != size or len(mu) != size or len(nu) != size:
        raise ValueError(f"expected {size} decoys per party and a {size}x{size} gain matrix")
    check_intensities(mu, "mu")
    check_intensities(nu, "nu")
    if max(mu) + max(nu) > _EXP_MAX:
        raise SaturationError(
            f"exp(mu + nu) overflows for intensities {max(mu)} and {max(nu)}")
    num = Dyadic if exact else float
    qtilde = [[num(math.exp(mu_k + nu_l)) * num(g) for nu_l, g in zip(nu, row)]
              for mu_k, row in zip(mu, q)]
    return num, qtilde, tuple(map(num, mu)), tuple(map(num, nu))


# Per-term rounding allowance for the float path: the gain combinations are
# summed exactly (fsum), so what remains is the formation of each
# coefficient-times-gain product plus the coefficients' own rounding.
_EPS_COMBINE = 8.0 * 2.0 ** -53


@np.errstate(all="ignore")  # what is not finite raises in ``_finite`` instead
def _combine(a, b, qtilde):
    """Float gain combinations sum_ij a_i b_j qtilde_ij of a batch and bounds
    on their rounding, as two lists over the batch; the exact path takes
    ``_exact_combine`` instead.

    ``a`` and ``b`` (..., 3) hold one coefficient vector per party and
    ``qtilde`` (..., 3, 3) the blocks of rescaled gains; they broadcast, and
    each combination's nine terms (a_i * b_j) * qtilde_ij are summed exactly
    (``math.fsum``).  The error estimate is what lets callers report
    certified-despite-rounding upper bounds: it is added on top of the raw
    value, which only loosens the bound, and it grows exactly where the
    combination cancels so deeply that double precision cannot resolve it.
    """
    terms = ((a[..., :, None] * b[..., None, :]) * qtilde).reshape(-1, 9)
    _finite(terms, "gain combination terms")
    return (list(map(math.fsum, terms.tolist())),
            [_EPS_COMBINE * e for e in map(math.fsum, np.abs(terms).tolist())])


def _exact_combine(vectors, index_a, index_b, gain_rows, qtilde, num):
    """Exact gain combinations sum_ij a_i b_j qtilde_ij, as a list of numbers
    of the exact type ``num``: row r combines a = ``vectors[index_a[r]]`` and
    b = ``vectors[index_b[r]]`` with the nine rescaled gains ``qtilde[k]``
    for k in ``gain_rows[r]``, row-major.

    Each vector, and the gains, are written once as one int vector over one
    denominator (``dyadic._scaled``), so a row is an integer dot product over
    the product of three denominators, reduced once (``dyadic._reduced``).
    Exact sums do not depend on their order: every row is the rational of
    its nine products (a_i * b_j) * qtilde_ij.
    """
    scaled = [_scaled(list(map(_operand, v))) for v in vectors]
    q, oq, eq = _scaled(list(map(_operand, qtilde)))
    sums = []
    for ia, ib, (k0, k1, k2, k3, k4, k5, k6, k7, k8) in zip(index_a, index_b, gain_rows):
        (a0, a1, a2), oa, ea = scaled[ia]
        (b0, b1, b2), ob, eb = scaled[ib]
        sums.append(_reduced(a0 * (b0 * q[k0] + b1 * q[k1] + b2 * q[k2])
                             + a1 * (b0 * q[k3] + b1 * q[k4] + b2 * q[k5])
                             + a2 * (b0 * q[k6] + b1 * q[k7] + b2 * q[k8]),
                             oa * ob * oq, ea + eb + eq))
    # another exact type (a ``Fraction`` reference) is built from the pair
    return list(map(_wrap, sums)) if num is dyadic.Dyadic else [num(*_pair(t)) for t in sums]


def _inconsistent(formula: str, target, value: float) -> InconsistentGainsError:
    return InconsistentGainsError(
        f"{formula} bound for yield {target} is {value}; the gains are not "
        f"producible by any yield profile")


def _clamp(values, targets, formula: str):
    """Clamp an array of bounds, whose last axis runs over ``targets``, to
    [0, 1]; the first value below the slack, in row-major order, raises."""
    bad = values < _NEGATIVE_SLACK
    if bad.any():
        index = int(bad.argmax())
        raise _inconsistent(formula, targets[index % len(targets)], float(values.flat[index]))
    return np.minimum(np.maximum(values, 0.0), 1.0)


def _side(x, num):
    """One party's ordered triple x as a block reads it, in type ``num``:
    every factor of the block formulas that depends on x alone, rounded as
    the formulas associate them, then the tails the block reads.

    In order: x0, x1, x2; d01 = x0 - x1, d02 = x0 - x2 and D = d01 d02; the
    numerators of the one-sided prefactors, (2 x1) x2 for (0,2), (24 x1) x2
    for (0,4) and -6 (x1 + x2) for (1,3); h2(x), e1(x), e2(x), x1 x2 and
    x1 + x2; exp_h_tail(x, 2), exp_f_tail(x, 3) and exp_f_tail(x, 4).
    """
    x0, x1, x2 = x
    d01, d02, s12 = x0 - x1, x0 - x2, x1 + x2
    return (x0, x1, x2, d01, d02, d01 * d02, 2 * x1 * x2, 24 * x1 * x2, -6 * s12,
            x0 * x0 + x1 * x1 + x2 * x2 + x0 * x1 + x0 * x2 + x1 * x2, x0 + x1 + x2,
            x0 * x1 + x0 * x2 + x1 * x2, x1 * x2, s12,
            *map(num, _triple_tails(float(x0), float(x1), float(x2))))


# the seven gain combinations of a block, each on the block as Alice x Bob:
# (0,2)/(0,4) and (1,3), then the mirrors (2,0)/(4,0) and (3,1), then (0,0),
# (1,1) and (2,2), whose terms do not depend on which party comes first
_PAIRS = tuple(_VECTOR_FOR_TARGET[t] for t in ((0, 2), (1, 3), (2, 0), (3, 1),
                                                (0, 0), (1, 1), (2, 2)))

# ``_exact_combine``'s rows of one block over Alice's three vectors, then
# Bob's, and the block's nine gains
_BLOCK_ROWS = ([ka for ka, _ in _PAIRS], [3 + kb for _, kb in _PAIRS], [range(9)] * len(_PAIRS))

# the order in which a block evaluates its targets, and where each lands
_EVALUATED = ((0, 2), (0, 4), (1, 3), (2, 0), (4, 0), (3, 1), (0, 0), (1, 1), (2, 2))
_TO_TARGETS = tuple(_EVALUATED.index(t) for t in TARGETS_3)


def _block(g, gerr, a, b, num):
    """Unclamped bounds of one 3x3 block in ``_EVALUATED`` order, from its
    ``_PAIRS`` sums ``g`` and their errors; its intensities are the
    ``_side``s ``a`` and ``b``, so only the terms that mix the two are
    formed here.

    (0,2), (0,4) and (1,3) divide Alice's numerators by the denominator
    (D_a d01_b) d02_b, their mirrors Bob's by (D_b d01_a) d02_a; the
    party-symmetric targets reuse the denominator of the canonical
    orientation.
    """
    x0a, _, _, d01a, d02a, da, n02a, n04a, n13a, h2a, e1a, _, _, _, ha, f3a, _ = a
    x0b, _, _, d01b, d02b, db, n02b, n04b, n13b, h2b, e1b, _, _, _, hb, f3b, _ = b
    dab, dba = da * d01b * d02b, db * d01a * d02a
    p02, p04, p13 = n02a / dab, n04a / (dab * h2b), n13a / (dab * e1b)
    p20, p40, p31 = n02b / dba, n04b / (dba * h2a), n13b / (dba * e1a)
    values = [float(raw) + float(err) for raw, err in (
        (g[0] * p02, gerr[0] * abs(p02)), (g[0] * p04, gerr[0] * abs(p04)),
        (g[1] * p13 + 6 * (hb * f3a) / e1b, gerr[1] * abs(p13)),
        (g[2] * p20, gerr[2] * abs(p20)), (g[2] * p40, gerr[2] * abs(p40)),
        (g[3] * p31 + 6 * (ha * f3b) / e1a, gerr[3] * abs(p31)))]
    y13, y31 = min(max(values[2], 0.0), 1.0), min(max(values[5], 0.0), 1.0)
    if x0b > x0a:
        # canonical orientation, so exchanging the parties is a bitwise
        # no-op for the party-symmetric targets too
        a, b, y13, y31, denom = b, a, y31, y13, dba
    else:
        denom = dab
    _, _, _, _, _, _, _, _, _, _, _, e2_mu, p12_mu, s12_mu, _, _, f4_mu = a
    _, nu1, nu2, _, _, _, _, _, _, _, _, e2_nu, _, s12_nu, _, _, f4_nu = b
    pref00 = p12_mu * nu1 * nu2 / denom
    pref11 = s12_mu * s12_nu / denom
    raw = g[5] * pref11 + num(y13) * e2_nu / 6 + num(y31) * e2_mu / 6 + f4_nu + f4_mu
    values += (float(g[4] * pref00) + float(gerr[4] * abs(pref00)),
               float(raw) + float(gerr[5] * abs(pref11)),
               float(4 * g[6] / denom) + float(4 * gerr[6] / abs(denom)))
    return values


def _checked_block(g, gerr, a, b, num):
    """``_block``, with a prefactor that vanishes raising
    ``DegenerateIntensityError`` and an exact value past the double range
    too, with a message of its own."""
    try:
        return _block(g, gerr, a, b, num)
    except ZeroDivisionError:
        raise _degenerate("bound prefactors") from None
    except OverflowError:  # ``float()`` of an exact value
        raise _past_double_range("block bound") from None


def _block_bounds(g, gerr, sides, num):
    """All nine clamped bounds of a batch of 3x3 blocks as a (blocks, 9) float
    array, columns in ``TARGETS_3`` order.

    ``g`` and ``gerr`` list the ``_PAIRS`` sums block by block, ``sides``
    each block's Alice and Bob ``_side``.  A value below the slack raises for
    the first block and target in evaluation order; a prefactor that
    vanishes or overflows, hence a value that is not finite, raises
    ``DegenerateIntensityError``, and so does an exact value past the
    double range, with a message of its own.
    """
    n = len(_PAIRS)
    values = np.array([_checked_block(g[n * i:n * i + n], gerr[n * i:n * i + n], a, b, num)
                       for i, (a, b) in enumerate(sides)])
    _finite(values, "bound prefactors")
    return _clamp(values, _EVALUATED, "3-decoy")[:, _TO_TARGETS]


def _terms(a, b, qtilde):
    """The nine float terms (a_i * b_j) * qtilde_ij of one 3x3 gain
    combination, row-major, as ``_combine`` forms them."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = qtilde
    return [(a0 * b0) * q00, (a0 * b1) * q01, (a0 * b2) * q02,
            (a1 * b0) * q10, (a1 * b1) * q11, (a1 * b2) * q12,
            (a2 * b0) * q20, (a2 * b1) * q21, (a2 * b2) * q22]


def _bounds3(q, mu, nu, exact):
    """(bounds, provenance, warnings) of the three-decoy bound set: one block.

    The steps of ``_vectors``, ``_combine`` and ``_block_bounds``, with their
    checks, in their order and with their messages, on plain numbers: for a
    single block numpy's per-call cost is more than the arithmetic.
    """
    num, qtilde, mu, nu = _prepare(q, mu, nu, 3, exact)
    try:
        va, vb = _triple_vectors(*mu), _triple_vectors(*nu)
    except ZeroDivisionError:
        raise _degenerate("coefficient vector entries") from None
    if num is Dyadic:
        g = _exact_combine(va + vb, *_BLOCK_ROWS, list(chain(*qtilde)), num)
        gerr = [0] * len(g)
    else:
        _finite_numbers(chain(*va, *vb), "coefficient vector entries")
        rows = [_terms(va[ka], vb[kb], qtilde) for ka, kb in _PAIRS]
        _finite_numbers(chain.from_iterable(rows), "gain combination terms")
        g = [math.fsum(row) for row in rows]
        gerr = [_EPS_COMBINE * math.fsum(map(abs, row)) for row in rows]
    values = _checked_block(g, gerr, _side(mu, num), _side(nu, num), num)
    _finite_numbers(values, "bound prefactors")
    for target, value in zip(_EVALUATED, values):
        if value < _NEGATIVE_SLACK:
            raise _inconsistent("3-decoy", target, value)
    bounds = dict(zip(TARGETS_3, [min(max(values[i], 0.0), 1.0) for i in _TO_TARGETS]))
    return bounds, dict.fromkeys(bounds, "3-decoy"), []


def yield_bounds_3(gains: GainMatrix, mu, nu, exact: bool = False) -> YieldBounds:
    """All nine three-decoy bounds.  Not exported: ``decoy4.yield_bounds``
    is the entry point; this stays for the benchmark's certify check."""
    return YieldBounds(*_bounds3(gains.q, mu, nu, exact))
