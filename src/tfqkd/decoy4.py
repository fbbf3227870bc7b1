"""Tighter yield upper bounds for four independent decoy intensities.

With a fourth intensity per party, the three-decoy gain combinations built
on each 3-subset of the intensities can themselves be combined so that two
further photon-number families cancel, which tightens the bounds on the
yields (0,4), (4,0), (1,3) and (3,1) considerably.  The remaining five
bounded yields gain little from the extra intensity, so for them this module
simply minimizes the three-decoy bound over all 16 subset pairs.

The combined formulas develop a 0/0 form when the three weaker intensities
of the two parties are proportional to each other (pairwise equality is the
special case treated by the dedicated degenerate variant of (0,4)/(4,0)).
No degenerate variant exists for (1,3)/(3,1); when their combination
denominator vanishes the formula is skipped and only the subset minima are
used (noted in the bound set's ``warnings``).  A denominator that is 0.0 in
double precision counts as vanishing, and a combined formula whose
evaluation still divides by zero, or whose exact value lies past the double
range, raises ``DegenerateIntensityError``.  ``_select`` picks each target's
formula or skips it; ``_evaluate`` gives every formula's candidate as
k (h - s) / a, the weighted sum h of its four slot combinations less the
residual s of the series saturated at yield 1, over its prefactor a, with
the float path's rounding credit.

Like the three-decoy module, everything can run in exact rational
arithmetic (``exact=True``); the combined formulas cancel so deeply that the
float path carries absolute noise around 1e-7..1e-5 for the paper-scale weak
decoys, which is irrelevant for key rates but matters when checking the
bounds against the LP oracle at 1e-9 tolerances.

The bounds follow ``decoy3``'s one path: the 16 subset pairs are the blocks,
and their 112 gain combinations and the four slots of each combined formula
are the rows of one batch, gathered from the set's table of triple vectors
by one precomputed index per side (``_LAYOUTS``) and from the gains by
another (``_GAIN_INDEX``): a numpy ``_combine`` on floats, and on exact
numbers ``_exact_combine``'s integer dot products over one denominator per
vector and one for the gains.  Each ordered triple's vectors and
its ``_side`` (per-triple factors and tails) are built once per bound set,
each four-value set's two tails once, by one loop (``series._four_tails``).
``yield_bounds`` is the one public entry point, for three or four decoys.
It keeps nothing between calls: the searches that repeat an intensity pair
with new amplitudes hold their own bound sets (``rate._RateParts``).
"""

from __future__ import annotations

import math
from itertools import chain, product

import numpy as np

from .channel import GainMatrix, IntensitySettings
from .decoy3 import (_EPS_COMBINE, _PAIRS, _VECTOR_FOR_TARGET, TARGETS_3,
                     YieldBounds, _block_bounds, _bounds3, _clamp, _combine, _degenerate,
                     _exact_combine, _past_double_range, _prepare, _side, _vectors,
                     cancellation_coeffs)  # noqa: F401  (benchmark/spans.py wraps it)
from .dyadic import Dyadic
from .series import _four_tails, exp_h_tail  # noqa: F401  (benchmark/spans.py wraps exp_h_tail)

# Slot order of the four 3-subset combinations.  Each subset's combination is
# normalized on its first listed index, e.g. (1,2,3) carries coefficient 1 on
# the gain of the intensity pair with index 1.
SUBSETS = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

_TILDE_REL_TOL = 1e-9
_Q13_REL_FLOOR = 1e-12


def _p04(mu, nu):
    m0, m1, m2, m3 = mu
    n0, n1, n2, n3 = nu
    return (m0 * (m1 * (n0 - n1) * (n2 - n3) - m2 * (n0 - n2) * (n1 - n3)
                  + m3 * (n0 - n3) * (n1 - n2))
            + m1 * (m2 * (n0 - n3) * (n1 - n2) - m3 * (n0 - n2) * (n1 - n3))
            + m2 * m3 * (n0 - n1) * (n2 - n3))


def _d04(mu, nu):
    """Subset weights of the combined (0,4) bound, normalized to d[012] = 1."""
    m0, m1, m2, m3 = mu
    n0, n1, n2, n3 = nu
    d013 = ((m0 - m2) * (n0 - n2) * (m0 * (n1 - n3) + m1 * (n3 - n0) + m3 * (n0 - n1))
            / ((m0 - m3) * (n0 - n3) * (m0 * (n2 - n1) + m1 * (n0 - n2) + m2 * (n1 - n0))))
    d023 = ((m0 - m1) * (n0 - n1) * (m0 * (n2 - n3) + m2 * (n3 - n0) + m3 * (n0 - n2))
            / ((m0 - m3) * (n0 - n3) * (m0 * (n1 - n2) + m1 * (n2 - n0) + m2 * (n0 - n1))))
    d123 = (m0 * (m0 - m1) * (m0 - m2) * (n0 - n1) * (n0 - n2)
            * (m1 * (n3 - n2) + m2 * (n1 - n3) + m3 * (n2 - n1))
            / (m1 * (m1 - m2) * (m1 - m3) * (n1 - n2) * (n1 - n3)
               * (m0 * (n1 - n2) + m1 * (n2 - n0) + m2 * (n0 - n1))))
    return (1, d013, d023, d123)


def _weak_cross(mu, nu):
    """Determinant-like coupling of the weak triples, with a magnitude scale.

    Vanishes whenever (nu0, nu1, nu2) is proportional to (mu0, mu1, mu2) --
    equality is just the special case -- and then the combined formula turns
    into a 0/0 form.
    """
    m0, m1, m2 = mu[0], mu[1], mu[2]
    n0, n1, n2 = nu[0], nu[1], nu[2]
    t0 = n0 * (m1 - m2)
    t1 = -n1 * (m0 - m2)
    t2 = n2 * (m0 - m1)
    return t0 + t1 + t2, abs(t0) + abs(t1) + abs(t2)


def _p13(mu, nu):
    m0, m1, m2, m3 = mu
    n0, n1, n2, n3 = nu
    return (m1 ** 2 * (m2 ** 2 * (n0 - n3) * (n1 - n2) - m3 ** 2 * (n0 - n2) * (n1 - n3))
            + m0 ** 2 * (m1 ** 2 * (n0 - n1) * (n2 - n3) - m2 ** 2 * (n0 - n2) * (n1 - n3)
                         + m3 ** 2 * (n0 - n3) * (n1 - n2))
            + m2 ** 2 * m3 ** 2 * (n0 - n1) * (n2 - n3))


def _q13(mu, nu):
    """Denominator of the combined (1,3) weights, with its magnitude scale."""
    m0, m1, m2, m3 = mu
    n0, n1, n2, n3 = nu
    t0 = m0 ** 2 * (m1 + m3) * (m2 + m3) * (n1 - n2)
    t1 = -m1 ** 2 * (m0 + m3) * (m2 + m3) * (n0 - n2)
    t2 = m2 ** 2 * (m0 + m3) * (m1 + m3) * (n0 - n1)
    return t0 + t1 + t2, abs(t0) + abs(t1) + abs(t2)


def _d13(mu, nu, q13):
    m0, m1, m2, m3 = mu
    n0, n1, n2, n3 = nu
    num013 = (m0 ** 2 * (m1 + m2) * (m2 + m3) * (n1 - n3)
              + (m0 + m2) * (m1 ** 2 * (m2 + m3) * (n3 - n0)
                             + m3 ** 2 * (m1 + m2) * (n0 - n1)))
    d013 = ((m0 - m2) * (m1 + m3) * (n0 - n2)
            / ((m0 - m3) * (m1 + m2) * (n0 - n3))) * num013 / (-q13)
    num023 = (m0 ** 2 * (m1 + m2) * (m1 + m3) * (n2 - n3)
              + (m0 + m1) * (m2 ** 2 * (m1 + m3) * (n3 - n0)
                             + m3 ** 2 * (m1 + m2) * (n0 - n2)))
    d023 = (-(m0 - m1) * (m2 + m3) * (n0 - n1)
            / ((m0 - m3) * (m1 + m2) * (n0 - n3))) * num023 / (-q13)
    num123 = (m0 ** 2 * (m1 ** 2 * (n3 - n2) + m2 ** 2 * (n1 - n3) + m3 ** 2 * (n2 - n1))
              + (m0 * m1 * m2 + m0 * m1 * m3 + m0 * m2 * m3 + m1 * m2 * m3)
              * (m1 * (n3 - n2) + m2 * (n1 - n3) + m3 * (n2 - n1)))
    d123 = ((m0 - m1) * (m0 - m2) * (m2 + m3) * (n0 - n1) * (n0 - n2)
            / ((m1 ** 2 - m2 ** 2) * (m1 - m3) * (n1 - n2) * (n1 - n3))) * num123 / q13
    return (1, d013, d023, d123)


def _select(target, mu, nu, warnings):
    """Name and relative credit ``rel`` of the four-decoy formula for
    ``target`` on the parties (mu, nu), or None if it is skipped (noted in
    ``warnings``).  The (0,4) and (1,3) formulas serve (4,0) and (3,1) with
    the parties exchanged.  ``rel`` credits the relative rounding of the
    weights and the prefactor, eps * scale / |denominator|, which grows near
    the 0/0 form.
    """
    mu, nu = tuple(map(float, mu)), tuple(map(float, nu))
    if target in ((0, 4), (4, 0)):
        if all(abs(a - b) <= _TILDE_REL_TOL * max(a, b) for a, b in zip(mu[:3], nu)):
            return "4-decoy degenerate", 0.0
        cross, scale = _weak_cross(mu, nu)
        # a denominator that underflows to 0.0 vanishes too, whatever its scale
        if cross and abs(cross) >= _Q13_REL_FLOOR * scale:
            return "4-decoy combined", _EPS_COMBINE * scale / abs(cross)
        reason = "proportional weak triples"
    else:
        q13, scale = _q13(mu, nu)
        if q13 and abs(q13) >= _Q13_REL_FLOOR * scale:
            return "4-decoy combined", _EPS_COMBINE * scale / abs(q13)
        reason = "vanishing denominator"
    warnings.append(f"({target[0]},{target[1]}): combined formula skipped "
                    f"({reason}); subset minima used")
    return None


def _evaluate(target, name, rel, mu, nu, g, gerr, tails, num):
    """The combined candidate ``name`` for ``target`` on the parties (mu, nu)
    as (raw, credit), raw = k (h - s) / a: h sums the slot combinations ``g``
    (rounding bounds ``gerr``) times the subset weights, a None weight
    skipping its slot.  (1,3) has k = 6 and s = 0; (0,4) has k = 24 and s
    from ``tails``, exp_h_tail(mu, 4) and exp_h_tail of Bob's slot
    intensities from 3.  The degenerate (0,4), for nu_i == mu_i (i < 3),
    takes as Bob's slot intensities Alice's weak ones and Bob's strongest.
    The float credit bounds the rounding of h and s, plus ``rel`` times |raw|
    and |k s / a|; on exact numbers it is 0.
    """
    m0, m1, m2, m3 = mu
    n0, n1, n2, n3 = nu
    if target in ((1, 3), (3, 1)):
        q13 = _q13(mu, nu)[0]
        k, s, ds = 6, 0, _d13(mu, nu, q13)
        kern = (m0 - m1) * (m0 - m2) * (n0 - n1) * (n0 - n2)
        a = -kern / (m1 + m2) * _p13(mu, nu) / q13
    else:
        if name == "4-decoy degenerate":
            ds = (None,
                  m3,
                  -(m0 - m1) * m3 / (m0 - m2),
                  m0 * m3 * (m0 - m1) * (m0 - m3) * (m0 - n3)
                  / (m1 * (m1 - m2) * (m1 - m3) * (m1 - n3)))
            lead = (m0 - m1) ** 2 * (m0 - m2) * (m1 - m2) * (m0 - m3) * (m0 - n3)
            a = -lead * (m0 + m1 + m2 + n3) / (m1 * m2)
            head = m0 * m3 * lead
        else:
            cross = _weak_cross(mu, nu)[0]
            ds = _d04(mu, nu)
            kern = (m0 - m1) * (m0 - m2) * (n0 - n1) * (n0 - n2)
            p = _p04(mu, nu)
            a = -kern * (n0 + n1 + n2 + n3) * p / (m1 * m2 * m3 * cross)
            head = m0 * kern * p / cross
        # Residual of the terms saturated at yield 1; closed form re-derived
        # from the series itself (the factorial heads differ between the two
        # parties because the surviving families start at different orders).
        k, s = 24, head * num(tails[0]) * num(tails[1])
    values = [d * value for d, value in zip(ds, g) if d is not None]
    if num is Dyadic:
        return k * (sum(values) - s) / a, 0
    herr = (math.fsum(abs(d) * error for d, error in zip(ds, gerr) if d is not None)
            + _EPS_COMBINE * math.fsum(map(abs, values)))
    raw = k * (math.fsum(values) - s) / a
    return raw, (herr + abs(s) * 2.0 ** -50) * abs(k / a) + rel * (abs(raw) + abs(k * s / a))


# ``IntensitySettings`` lists four decoys strongest-last, so each subset of
# ``SUBSETS`` in descending order of intensity is the same entry here
_SORTED_SUBSETS = ((0, 1, 2), (3, 0, 1), (3, 0, 2), (3, 1, 2))
_SORTED, _SLOTS = np.array(_SORTED_SUBSETS), np.array(SUBSETS)
# the block of each block row: Alice's sorted subset i // 4, Bob's i % 4
_BLOCK = np.repeat(np.arange(16), len(_PAIRS))
_N_BLOCK_ROWS = len(_BLOCK)
_BLOCK_NAMES = ["3-decoy subsets ({},{},{})x({},{},{})".format(*a, *b)
                for a in SUBSETS for b in SUBSETS]
# the combined formulas in evaluation order, as (target, first party is
# Alice); (4,0) and (3,1) take Bob as the first party
_COMBINED = (((0, 4), True), ((4, 0), False), ((1, 3), True), ((3, 1), False))


def _layout(names):
    """Gather indices (Alice's vectors, Bob's vectors) of the ``_combine``
    rows of a bound set whose combined formulas resolved to ``names``, one
    name or None (skipped) per ``_COMBINED`` entry.

    The rows are the ``_PAIRS`` combinations of the 16 blocks, then four
    slot rows per active formula, on the gains ``_GAIN_INDEX`` picks.  The
    indices point into the set's table of vectors, three per triple and one
    triple per distinct one: Alice's four sorted subsets, Bob's, then the
    ``SUBSETS`` slot triples after the first of Alice, of Bob and of each
    degenerate formula's second party (a party's first slot triple is its
    first sorted one).
    """
    ka, kb = np.tile(np.array(_PAIRS).T, 16)
    pieces = [(_BLOCK // 4, ka, 4 + _BLOCK % 4, kb)]  # per row: triple, vector; triple, vector
    alice, bob = np.array([0, 8, 9, 10]), np.array([4, 11, 12, 13])  # slot triples
    degenerate = 14
    for (target, alice_first), name in zip(_COMBINED, names):
        if name is None:
            continue
        k_first, k_second = _VECTOR_FOR_TARGET[0, 2] if target in ((0, 4), (4, 0)) else \
            _VECTOR_FOR_TARGET[1, 3]
        first, second = (alice, bob) if alice_first else (bob, alice)
        if name == "4-decoy degenerate":
            # its first slot triple is the first party's weak triple
            second = np.array([first[0], degenerate, degenerate + 1, degenerate + 2])
            degenerate += 3
        # the first party's slot vectors go on its own side of the gains
        one = first, np.full(4, k_first)
        other = second, np.full(4, k_second)
        pieces.append((*one, *other) if alice_first else (*other, *one))
    ta, ka, tb, kb = map(np.concatenate, zip(*pieces))
    return 3 * ta + ka, 3 * tb + kb


# every way the four combined formulas can resolve: (0,4) and (4,0) are
# degenerate together or not at all
_LAYOUTS = {names: _layout(names) for names in
            [("4-decoy degenerate",) * 2 + rest for rest in product(
                (None, "4-decoy combined"), repeat=2)]
            + list(product((None, "4-decoy combined"), repeat=4))}
# flat indices into the 4x4 rescaled gains of each row's 3x3 block, Alice's
# intensities down and Bob's across: the block rows, then four slot rows per
# combined formula
_GAIN_INDEX = np.concatenate(
    [4 * _SORTED[_BLOCK // 4, :, None] + _SORTED[_BLOCK % 4, None, :]]
    + [4 * _SLOTS[:, :, None] + _SLOTS[:, None, :]] * 4)
# the same indices as one list of nine per row, for ``_exact_combine``
_GAIN_ROWS = _GAIN_INDEX.reshape(len(_GAIN_INDEX), 9).tolist()


def _bounds4(q, mu, nu, exact):
    """(bounds, provenance, warnings): the best subset pair per target (the
    first wins ties), then each combined formula where strictly lower.

    Every gain combination of the set -- seven per subset-pair block, four
    slots per combined formula -- is one row of a single ``_combine`` batch
    (``_exact_combine`` on exact numbers), gathered from one table of the
    set's triple vectors by ``_LAYOUTS`` and from the gains by
    ``_GAIN_INDEX`` (``_GAIN_ROWS``).
    (4,0) and (3,1) are the (0,4) and (1,3) formulas on the exchanged parties
    with the first party's slot vectors on Bob's side of the slot gains.
    """
    num, qtilde, mu, nu = _prepare(q, mu, nu, 4, exact)
    warnings, names = [], []
    active = []  # (target, name, rel, first, second, slot set)
    for target, alice_first in _COMBINED:
        first, second = (mu, nu) if alice_first else (nu, mu)
        formula = _select(target, first, second, warnings)
        names.append(formula and formula[0])
        if formula is not None:
            # the degenerate (0,4) builds the second party's slot vectors
            # from the first party's weak triple and its own strongest
            slots = first[:3] + second[3:] if formula[0] == "4-decoy degenerate" else second
            active.append((target, *formula, first, second, slots))
    index_a, index_b = _LAYOUTS[tuple(names)]
    triples_a = [tuple(mu[i] for i in rows) for rows in _SORTED_SUBSETS]
    triples_b = [tuple(nu[j] for j in cols) for cols in _SORTED_SUBSETS]
    slot_sets = [mu, nu] + [slots for _, name, _, _, _, slots in active
                            if name == "4-decoy degenerate"]
    table = _vectors(triples_a + triples_b
                     + [tuple(x[i] for i in slot) for x in slot_sets for slot in SUBSETS[1:]],
                     num).reshape(-1, 3)
    if num is Dyadic:
        g = _exact_combine(table.tolist(), index_a.tolist(), index_b.tolist(), _GAIN_ROWS,
                           list(chain(*qtilde)), num)
        gerr = [0] * len(g)
    else:
        g, gerr = _combine(table[index_a], table[index_b],
                           np.array(qtilde).reshape(-1)[_GAIN_INDEX[:len(index_a)]])
    sides_a = [_side(x, num) for x in triples_a]
    sides_b = [_side(x, num) for x in triples_b]
    n = _N_BLOCK_ROWS
    values = _block_bounds(g[:n], gerr[:n], [(a, b) for a in sides_a for b in sides_b], num)
    best = values.argmin(axis=0)
    bounds = dict(zip(TARGETS_3, values[best, np.arange(len(TARGETS_3))].tolist()))
    provenance = {target: _BLOCK_NAMES[i] for target, i in zip(TARGETS_3, best.tolist())}
    # one loop per distinct four-value set feeds both (0,4) orientations
    four = dict.fromkeys(x for target, _, _, first, _, slots in active
                         if target in ((0, 4), (4, 0)) for x in (first, slots))
    four = {x: _four_tails(*map(float, x)) for x in four}
    combined = []
    for (target, name, rel, first, second, slots), k in zip(active, range(n, len(g), 4)):
        tails = (four[first][0], four[slots][1]) if target in ((0, 4), (4, 0)) else None
        try:
            raw, err = _evaluate(target, name, rel, first, second, g[k:k + 4], gerr[k:k + 4],
                                 tails, num)
            combined.append(float(raw) + float(err))
        except ZeroDivisionError:
            raise _degenerate("combined formula weights") from None
        except OverflowError:  # ``float()`` of an exact value
            raise _past_double_range("combined bound") from None
    targets = [target for target, *_ in active]
    for (target, name, *_), value in zip(active, _clamp(np.array(combined), targets,
                                                        "4-decoy").tolist()):
        if value < bounds[target]:
            bounds[target] = value
            provenance[target] = name
    return bounds, provenance, warnings


def yield_bounds(gains: GainMatrix, settings: IntensitySettings,
                 exact: bool = False) -> YieldBounds:
    """All nine bounds for the given settings (three- or four-decoy), computed
    afresh on every call.  Only the intensities enter; the amplitudes are
    ignored."""
    if gains.size != settings.n_decoys:
        raise ValueError("gain matrix size does not match the number of decoys")
    bound_set = _bounds3 if gains.size == 3 else _bounds4
    return YieldBounds(*bound_set(gains.q, settings.mu, settings.nu, exact))
