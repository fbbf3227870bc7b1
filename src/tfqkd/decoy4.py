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
used (noted in the bound set's ``warnings``).

Like the three-decoy module, everything can run in exact rational
arithmetic (``exact=True``); the combined formulas cancel so deeply that the
float path carries absolute noise around 1e-7..1e-5 for the paper-scale weak
decoys, which is irrelevant for key rates but matters when checking the
bounds against the LP oracle at 1e-9 tolerances.

The bounds follow ``decoy3``'s one path: the 16 subset pairs are the blocks,
and their 112 gain combinations and the four slots of each combined formula
are the rows of one ``_combine`` batch.  Each ordered triple's vectors and
tails are built once per bound set, each four-value set's tails once.
``yield_bounds`` is the one public entry point, for three or four decoys.
It memoizes whole bound sets per (gains, intensities, path): the optimizer
and the fluctuation search repeat them with new amplitudes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .channel import GainMatrix, IntensitySettings
from .decoy3 import (_EPS_COMBINE, _PAIR_A, _PAIR_B, _VECTOR_FOR_TARGET, TARGETS_3,
                     YieldBounds, _block_bounds, _bounds3, _clamp, _combine, _prepare, _side,
                     _vectors,
                     cancellation_coeffs)  # noqa: F401  (benchmark/spans.py wraps it)
from .series import _tails, exp_h_tail  # noqa: F401  (benchmark/spans.py wraps exp_h_tail)

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


def _combine_subsets(g, gerr, ds, num):
    """Weighted sum of the subset combinations ``g`` (one per slot, with
    rounding bounds ``gerr``) with its own error estimate; a None weight
    skips its slot."""
    values, errors = [], []
    for d, value, error in zip(ds, g, gerr):
        if d is None:
            continue
        values.append(d * value)
        errors.append(abs(d) * error)
    if num is Fraction:
        return sum(values), 0
    err = math.fsum(errors) + _EPS_COMBINE * math.fsum(map(abs, values))
    return math.fsum(values), err


# the tails of a four-value set the (0,4) formulas read: its h-tail from 4
# as the saturated party, from 3 as the other one
_FOUR_HEADS = ((4, 4), (3, 3))


def _y04(mu, nu, g, gerr, cross, tails, num, rel=0.0):
    """Combined (0,4) bound as (raw, error) from the slot combinations ``g``;
    ``tails`` are exp_h_tail(mu, 4) and exp_h_tail of Bob's slot intensities
    from 3.  ``cross`` None selects the degenerate variant for nu_i == mu_i
    (i < 3), whose Bob slot intensities are Alice's weak ones and Bob's
    strongest one."""
    m0, m1, m2, m3 = mu
    n0, n1, n2, n3 = nu
    if cross is None:
        ds = (None,
              m3,
              -(m0 - m1) * m3 / (m0 - m2),
              m0 * m3 * (m0 - m1) * (m0 - m3) * (m0 - n3)
              / (m1 * (m1 - m2) * (m1 - m3) * (m1 - n3)))
        lead = (m0 - m1) ** 2 * (m0 - m2) * (m1 - m2) * (m0 - m3) * (m0 - n3)
        a04_four = -lead * (m0 + m1 + m2 + n3) / (m1 * m2)
        head = m0 * m3 * lead
    else:
        ds = _d04(mu, nu)
        kern = (m0 - m1) * (m0 - m2) * (n0 - n1) * (n0 - n2)
        p = _p04(mu, nu)
        a04_four = -kern * (n0 + n1 + n2 + n3) * p / (m1 * m2 * m3 * cross)
        head = m0 * kern * p / cross
    h04, herr = _combine_subsets(g, gerr, ds, num)
    # Residual of the terms saturated at yield 1; closed form re-derived from
    # the series itself (the factorial heads below differ between the two
    # parties because the surviving families start at different orders).
    series = head * num(tails[0]) * num(tails[1])
    raw = 24 * (h04 - series) / a04_four
    if num is Fraction:
        return raw, 0
    err = (herr + abs(series) * 2.0 ** -50) * abs(24 / a04_four)
    return raw, err + rel * (abs(raw) + abs(24 * series / a04_four))


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


def _y13(mu, nu, g, gerr, q13, num, rel):
    m0, m1, m2, m3 = mu
    h13, herr = _combine_subsets(g, gerr, _d13(mu, nu, q13), num)
    kern = (m0 - m1) * (m0 - m2) * (nu[0] - nu[1]) * (nu[0] - nu[2])
    a13_three = -kern / (m1 + m2) * _p13(mu, nu) / q13
    raw = 6 * h13 / a13_three
    if num is Fraction:
        return raw, 0
    return raw, herr * abs(6 / a13_three) + rel * abs(raw)


def _formula(target, mu_f, nu_f, warnings):
    """Name and ``rel`` of the four-decoy formula for ``target``, or None if it
    is skipped (noted in ``warnings``); (4,0) and (3,1) take mu and nu
    exchanged, as doubles.  ``rel`` credits the relative rounding of the
    weights and the prefactor, eps * scale / |denominator|, which grows near
    the 0/0 form."""
    if target in ((0, 4), (4, 0)):
        if all(abs(a - b) <= _TILDE_REL_TOL * max(a, b) for a, b in zip(mu_f[:3], nu_f)):
            return "4-decoy degenerate", 0.0
        cross, scale = _weak_cross(mu_f, nu_f)
        if abs(cross) >= _Q13_REL_FLOOR * scale:
            return "4-decoy combined", _EPS_COMBINE * scale / abs(cross)
        reason = "proportional weak triples"
    else:
        q13, scale = _q13(mu_f, nu_f)
        if abs(q13) >= _Q13_REL_FLOOR * scale:
            return "4-decoy combined", _EPS_COMBINE * scale / abs(q13)
        reason = "vanishing denominator"
    warnings.append(f"({target[0]},{target[1]}): combined formula skipped "
                    f"({reason}); subset minima used")
    return None


def _combined(target, name, rel, mu, nu, g, gerr, tails, num):
    """(raw, error) of the four-decoy formula ``name`` for ``target`` from its
    slot combinations; (4,0) and (3,1) take mu and nu exchanged."""
    if target in ((1, 3), (3, 1)):
        return _y13(mu, nu, g, gerr, _q13(mu, nu)[0], num, rel)
    if name == "4-decoy degenerate":
        return _y04(mu, nu, g, gerr, None, tails, num)
    return _y04(mu, nu, g, gerr, _weak_cross(mu, nu)[0], tails, num, rel)


def _sorted_subsets(values):
    """All descending-ordered 3-subsets of a four-intensity list."""
    order = sorted(range(4), key=lambda i: -values[i])
    return [tuple(i for i in order if i in idx) for idx in combinations(range(4), 3)]


_SUBSETS = np.array(SUBSETS)
# one batch row per subset-pair block and ``_PAIRS`` combination, block by
# block; block i pairs Alice's sorted subset i // 4 with Bob's i % 4
_ROW_BLOCK = np.repeat(np.arange(16), len(_PAIR_A))
_ROW_A, _ROW_B = np.divmod(_ROW_BLOCK, 4)
_ROW_KA, _ROW_KB = np.tile(_PAIR_A, 16), np.tile(_PAIR_B, 16)
# target -> (Alice vector, Bob vector) of its slot combinations, on each
# slot's block as Alice x Bob: those of (0,2), (2,0), (1,3), (3,1)
_COMBINED = {(0, 4): _VECTOR_FOR_TARGET[0, 2], (4, 0): _VECTOR_FOR_TARGET[2, 0],
             (1, 3): _VECTOR_FOR_TARGET[1, 3], (3, 1): _VECTOR_FOR_TARGET[3, 1]}


def _bounds4(q, mu, nu, exact):
    """(bounds, provenance, warnings): the best subset pair per target (the
    first wins ties), then each combined formula where strictly lower.

    Every gain combination of the set -- seven per subset-pair block, four
    slots per combined formula -- is one row of a single ``_combine`` batch.
    """
    floats = tuple(mu), tuple(nu)
    num, qtilde, mu, nu = _prepare(q, mu, nu, 4, exact)
    warnings = []
    active = []  # (target, name, rel, first party, second party, second's slot intensities)
    for target, first, second in (((0, 4), mu, nu), ((4, 0), nu, mu),
                                  ((1, 3), mu, nu), ((3, 1), nu, mu)):
        found = _formula(target, *(floats if first is mu else floats[::-1]), warnings)
        if found is not None:
            name, rel = found
            # the degenerate (0,4)/(4,0) builds the second party's slot
            # vectors from the first party's weak triple and its own strongest
            slots = first[:3] + second[3:] if name == "4-decoy degenerate" else second
            active.append((target, name, rel, first, second, slots))
    order_a, order_b = _sorted_subsets(floats[0]), _sorted_subsets(floats[1])
    triples_a = [tuple(mu[i] for i in rows) for rows in order_a]
    triples_b = [tuple(nu[j] for j in cols) for cols in order_b]
    sets = list(dict.fromkeys([mu, nu] + [slots for *_, slots in active]))
    vectors = _vectors(triples_a + triples_b
                       + [tuple(x[i] for i in slot) for x in sets for slot in SUBSETS], num)
    va, vb = vectors[:4], vectors[4:8]
    slot_vectors = {x: vectors[8 + 4 * k:12 + 4 * k] for k, x in enumerate(sets)}
    coeff_a = [va[_ROW_A, _ROW_KA]]
    coeff_b = [vb[_ROW_B, _ROW_KB]]
    for target, _, _, first, _, slots in active:
        # the slot intensities as Alice x Bob; (4,0) and (3,1) are mirrored
        a, b = (first, slots) if target in ((0, 4), (1, 3)) else (slots, first)
        ka, kb = _COMBINED[target]
        coeff_a.append(slot_vectors[a][:, ka])
        coeff_b.append(slot_vectors[b][:, kb])
    oa, ob = np.array(order_a), np.array(order_b)
    blocks = qtilde[oa[_ROW_A][:, :, None], ob[_ROW_B][:, None, :]]
    slots = qtilde[_SUBSETS[:, :, None], _SUBSETS[:, None, :]]
    g, gerr = _combine(np.concatenate(coeff_a), np.concatenate(coeff_b),
                       np.concatenate([blocks] + [slots] * len(active)))
    sides_a = [_side(x, num) for x in triples_a]
    sides_b = [_side(x, num) for x in triples_b]
    n = len(_ROW_BLOCK)
    values = _block_bounds(g[:n], gerr[:n], [(a, b) for a in sides_a for b in sides_b], num)
    best = values.argmin(axis=0)
    bounds = dict(zip(TARGETS_3, values[best, np.arange(len(TARGETS_3))].tolist()))
    provenance = {target: "3-decoy subsets ({},{},{})x({},{},{})".format(
                      *sorted(order_a[i // 4]), *sorted(order_b[i % 4]))
                  for target, i in zip(TARGETS_3, best.tolist())}
    # one recurrence per four-value set feeds both (0,4) orientations
    four = {x: _tails(tuple(map(float, x)), _FOUR_HEADS)
            for target, _, _, first, _, slots in active if target in ((0, 4), (4, 0))
            for x in (first, slots)}
    combined = []
    for (target, name, rel, first, second, slots), k in zip(active, range(n, len(g), 4)):
        tails = (four[first][0], four[slots][1]) if target in ((0, 4), (4, 0)) else None
        raw, err = _combined(target, name, rel, first, second, g[k:k + 4], gerr[k:k + 4],
                             tails, num)
        combined.append(float(raw) + float(err))
    targets = [target for target, *_ in active]
    for (target, name, *_), value in zip(active, _clamp(np.array(combined), targets,
                                                        "4-decoy").tolist()):
        if value < bounds[target]:
            bounds[target] = value
            provenance[target] = name
    return bounds, provenance, warnings


@lru_cache(maxsize=1024)
def _memo(q, mu, nu, exact):
    """Bound set of one (gains, intensities, path), held as tuples."""
    bounds, provenance, warnings = (_bounds3 if len(q) == 3 else _bounds4)(q, mu, nu, exact)
    return tuple(bounds.items()), tuple(provenance.items()), tuple(warnings)


def yield_bounds(gains: GainMatrix, settings: IntensitySettings,
                 exact: bool = False) -> YieldBounds:
    """All nine bounds for the given settings (three- or four-decoy), as a
    fresh ``YieldBounds`` on every call: the memo holds immutable copies.
    Only the intensities enter; the amplitudes are ignored."""
    if gains.size != settings.n_decoys:
        raise ValueError("gain matrix size does not match the number of decoys")
    bounds, provenance, warnings = _memo(gains.q, settings.mu, settings.nu, exact)
    return YieldBounds(dict(bounds), dict(provenance), list(warnings))
