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

The bounds follow ``decoy3``'s one path, with the subset pairs as blocks and
each ordered triple's vectors built once per bound set.
``yield_bounds`` is the one public entry point, for three or four decoys.
It memoizes whole bound sets per (gains, intensities, path): the optimizer
and the fluctuation search repeat them with new amplitudes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .channel import GainMatrix, IntensitySettings
from .decoy3 import (_EPS_COMBINE, _VECTOR_FOR_TARGET, TARGETS_3, YieldBounds, _block_bounds,
                     _bounds3, _clamp, _combine, _prepare, _side, _vectors,
                     cancellation_coeffs)  # noqa: F401  (benchmark/spans.py wraps it)
from .series import exp_h_tail

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


def _triple_vectors(x, triples):
    """``_vectors`` of each ordered index triple into the intensities ``x``."""
    return {idx: _vectors(tuple(x[i] for i in idx)) for idx in triples}


def _combine_subsets(qtilde, va, vb, target, ds, num):
    """Weighted sum of subset combinations with its own error estimate;
    ``va``/``vb`` hold the ``_triple_vectors`` of every slot triple."""
    values, errors = [], []
    ia, ib = _VECTOR_FOR_TARGET[target]
    for d, slots in zip(ds, SUBSETS):
        if d is None:
            continue
        g, gerr = _combine(va[slots][ia], vb[slots][ib], qtilde, slots, slots, num)
        values.append(d * g)
        errors.append(abs(d) * gerr)
    if num is Fraction:
        return sum(values), 0
    err = math.fsum(errors) + _EPS_COMBINE * math.fsum(map(abs, values))
    return math.fsum(values), err


def _y04(qtilde, mu, nu, va, vb, cross, num, rel=0.0):
    """Combined (0,4) bound as (raw, error).  ``cross`` None selects the
    degenerate variant for nu_i == mu_i (i < 3), whose coefficients are built
    from Alice's weak intensities and Bob's strongest one."""
    m0, m1, m2, m3 = mu
    n0, n1, n2, n3 = nu
    if cross is None:
        ds = (None,
              m3,
              -(m0 - m1) * m3 / (m0 - m2),
              m0 * m3 * (m0 - m1) * (m0 - m3) * (m0 - n3)
              / (m1 * (m1 - m2) * (m1 - m3) * (m1 - n3)))
        nu = (m0, m1, m2, n3)
        vb = _triple_vectors(nu, SUBSETS)
        lead = (m0 - m1) ** 2 * (m0 - m2) * (m1 - m2) * (m0 - m3) * (m0 - n3)
        a04_four = -lead * (m0 + m1 + m2 + n3) / (m1 * m2)
        head = m0 * m3 * lead
    else:
        ds = _d04(mu, nu)
        kern = (m0 - m1) * (m0 - m2) * (n0 - n1) * (n0 - n2)
        p = _p04(mu, nu)
        a04_four = -kern * (n0 + n1 + n2 + n3) * p / (m1 * m2 * m3 * cross)
        head = m0 * kern * p / cross
    h04, herr = _combine_subsets(qtilde, va, vb, (0, 2), ds, num)
    # Residual of the terms saturated at yield 1; closed form re-derived from
    # the series itself (the factorial heads below differ between the two
    # parties because the surviving families start at different orders).
    series = head * num(exp_h_tail(mu, 4)) * num(exp_h_tail(nu, 3))
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


def _y13(qtilde, mu, nu, va, vb, q13, num, rel):
    m0, m1, m2, m3 = mu
    h13, herr = _combine_subsets(qtilde, va, vb, (1, 3), _d13(mu, nu, q13), num)
    kern = (m0 - m1) * (m0 - m2) * (nu[0] - nu[1]) * (nu[0] - nu[2])
    a13_three = -kern / (m1 + m2) * _p13(mu, nu) / q13
    raw = 6 * h13 / a13_three
    if num is Fraction:
        return raw, 0
    return raw, herr * abs(6 / a13_three) + rel * abs(raw)


def _combined(target, qtilde, mu, nu, va, vb, floats, num, warnings):
    """(provenance, raw, error) of the four-decoy formula, or None if skipped;
    (4,0) and (3,1) arrive transposed, ``floats`` are mu/nu as doubles.  The
    ``rel`` passed on credits the relative rounding of the weights and the
    prefactor, eps * scale / |denominator|, which grows near the 0/0 form."""
    mu_f, nu_f = floats
    if target in ((0, 4), (4, 0)):
        if all(abs(a - b) <= _TILDE_REL_TOL * max(a, b) for a, b in zip(mu_f[:3], nu_f)):
            return ("4-decoy degenerate",) + _y04(qtilde, mu, nu, va, vb, None, num)
        cross, scale = _weak_cross(mu_f, nu_f)
        if abs(cross) >= _Q13_REL_FLOOR * scale:
            return ("4-decoy combined",) + _y04(qtilde, mu, nu, va, vb, _weak_cross(mu, nu)[0],
                                                num, _EPS_COMBINE * scale / abs(cross))
        reason = "proportional weak triples"
    else:
        q13, scale = _q13(mu_f, nu_f)
        if abs(q13) >= _Q13_REL_FLOOR * scale:
            return ("4-decoy combined",) + _y13(qtilde, mu, nu, va, vb, _q13(mu, nu)[0], num,
                                                _EPS_COMBINE * scale / abs(q13))
        reason = "vanishing denominator"
    warnings.append(f"({target[0]},{target[1]}): combined formula skipped "
                    f"({reason}); subset minima used")
    return None


def _sorted_subsets(values):
    """All descending-ordered 3-subsets of a four-intensity list."""
    return [tuple(sorted(idx, key=lambda i: -values[i])) for idx in combinations(range(4), 3)]


def _bounds4(q, mu, nu, exact):
    """(bounds, provenance, warnings): the best subset pair per target (the
    first wins ties), then each combined formula where strictly lower."""
    floats = tuple(mu), tuple(nu)
    num, qtilde, qtilde_t, mu, nu = _prepare(q, mu, nu, 4, exact)
    order_a, order_b = _sorted_subsets(floats[0]), _sorted_subsets(floats[1])
    va = _triple_vectors(mu, set(order_a).union(SUBSETS))
    vb = _triple_vectors(nu, set(order_b).union(SUBSETS))
    sides_b = [_side(tuple(nu[j] for j in cols), vb[cols], num) for cols in order_b]
    best = dict.fromkeys(TARGETS_3, (math.inf, None))
    for rows in order_a:
        side_a = _side(tuple(mu[i] for i in rows), va[rows], num)
        for cols, side_b in zip(order_b, sides_b):
            block = _block_bounds(qtilde, qtilde_t, side_a, side_b, rows, cols, num)
            for target, value in block.items():
                if value < best[target][0]:
                    best[target] = (value, (rows, cols))
    bounds = {target: value for target, (value, _) in best.items()}
    provenance = {t: "3-decoy subsets ({},{},{})x({},{},{})".format(*sorted(r), *sorted(c))
                  for t, (_, (r, c)) in best.items()}
    warnings = []
    direct, mirror = (qtilde, mu, nu, va, vb, floats), (qtilde_t, nu, mu, vb, va, floats[::-1])
    for target, orientation in (((0, 4), direct), ((4, 0), mirror),
                                ((1, 3), direct), ((3, 1), mirror)):
        found = _combined(target, *orientation, num, warnings)
        if found is None:
            continue
        name, raw, err = found
        value = _clamp(raw, err, target, "4-decoy")
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
