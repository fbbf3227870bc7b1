"""Symmetric-polynomial series used by the analytical yield bounds.

The bound formulas contain alternating sums of exponentials over the decoy
intensities (third- and higher-order divided differences of exp).  Evaluated
literally those cancel catastrophically for the tiny intensities the decoy
method uses, so every such bracket is computed here as a factorially damped
series of complete homogeneous symmetric polynomials: all terms are positive
and the series converge to machine precision in a few dozen terms.

One generator yields h_0, h_1, h_2, ... of a value set by the nested
recurrence h_k(x_1..x_j) = h_k(x_1..x_{j-1}) + x_j h_{k-1}(x_1..x_j), which
only adds non-negative terms, and every other weight is read from it: the
weight of ``exp_f_tail`` is the Schur polynomial s_(n-2,1)(a, b, c) =
a (b + c) h_{n-3}(a, b, c) + b c h_{n-3}(b, c) (Macdonald, Symmetric Functions
and Hall Polynomials, I.5), ``d_n`` is s_(n-3,1,1) = e_3 h_{n-4} - e_4 h_{n-5}
of four values.  ``_tails`` runs the recurrence once per value set and feeds
every tail the set is asked for, each sum with its own stopping rule.  The
bounds read theirs from two fused loops that equal it bit for bit: the
blocks their three tails per intensity triple from ``_triple_tails``, one
cached loop over the triple and its two weaker values, and the combined
(0,4) formulas their two tails per four-value set from ``_four_tails``, one
uncached loop.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice

from .errors import SaturationError

_MAX_TERMS = 200
_REL_TOL = 1e-18


def _hom_sym(values):
    """Yield h_0, h_1, h_2, ... of the values, one nested-recurrence step each."""
    row = [1.0] * (len(values) + 1)  # row[j] = h_k(values[:j])
    while True:
        yield row[-1]
        row[0] = 0.0
        for j, v in enumerate(values, 1):
            row[j] = row[j - 1] + v * row[j]


def hom_sym_sum(values, degree: int) -> float:
    """Complete homogeneous symmetric polynomial h_degree(values).

    Sum of all degree-``degree`` monomials with non-decreasing index chains;
    h_0 is 1 by convention, including for an empty value set.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return next(islice(_hom_sym(tuple(values)), degree, None))


def elem_sym(values) -> list[float]:
    """All elementary symmetric polynomials e_0 .. e_q of the values."""
    es = [1.0]
    for v in values:
        es.append(0.0)
        for k in range(len(es) - 1, 0, -1):
            es[k] += v * es[k - 1]
    return es


def _unconverged(values) -> SaturationError:
    return SaturationError(f"series tail over {values} did not converge in {_MAX_TERMS} terms")


def _tails(values: tuple, heads: tuple) -> tuple:
    """Sum over n >= start of h_{n-shift}(values) / n! for each (shift, start)
    of ``heads`` (start >= shift), all fed by one run of the recurrence.

    Each sum keeps its own factorial product, stopping rule and term limit,
    so it equals the sum computed alone, bit for bit.
    """
    if any(v < 0 for v in values):
        raise ValueError("values must be >= 0")
    hs = _hom_sym(values)
    h = []  # h_0, h_1, ... as far as the sums have needed them
    out = []
    for shift, start in heads:
        first = start - shift
        while len(h) <= first:
            h.append(next(hs))
        fact = float(math.factorial(start))
        total = h[first] / fact
        for k in range(1, _MAX_TERMS):
            if first + k == len(h):
                h.append(next(hs))
            fact *= start + k
            term = h[first + k] / fact
            total += term
            if k > 3 and term < total * _REL_TOL:
                break
        else:
            raise _unconverged(values)
        out.append(total)
    return tuple(out)


def exp_h_tail(values, start: int) -> float:
    """Sum over n >= start of h_{n-start}(values) / n!.

    This is the factorially damped tail of the generating series of the
    complete homogeneous polynomials; it equals the alternating-exponential
    brackets of the bound formulas divided by their Vandermonde factor, but
    is evaluated here without any cancellation.
    """
    if start < 0:
        raise ValueError("start must be >= 0")
    return _tails(tuple(float(v) for v in values), ((start, start),))[0]


def exp_f_tail(values3, start: int) -> float:
    """Sum over n >= start of s_(n-2,1)(values3) / n!  (start >= 3)."""
    if start < 3:
        raise ValueError("start must be >= 3")
    a, b, c = (float(v) for v in values3)
    return (a * (b + c) * _tails((a, b, c), ((3, start),))[0]
            + b * c * _tails((b, c), ((3, start),))[0])


@lru_cache(maxsize=16384)
def _triple_tails(a: float, b: float, c: float) -> tuple:
    """exp_h_tail(x, 2), exp_f_tail(x, 3) and exp_f_tail(x, 4) of one ordered
    triple x = (a, b, c): the tails a bound block reads.

    One loop runs the recurrence over (a, b, c) and over (b, c) side by side
    and feeds the five sums behind them, h-tails of (a, b, c) from 2, 3 and 4
    (shifts 2, 3, 3) and of (b, c) from 3 and 4 (shift 3).  Each sum keeps
    its own stopping rule and term limit, so it equals ``_tails`` bit for
    bit; their factorial products are one running product, since 2 * 3 and
    2 * 3 * 4 are exact.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("values must be >= 0")
    r1 = r2 = h = 1.0  # h_j of (a), (a, b), (a, b, c); j = 0
    p1 = hp = 1.0  # h_j of (b), (b, c)
    f2, f3 = 2.0, 6.0  # (j + 2)!, (j + 3)!
    s22, s33, p33 = h / f2, h / f3, hp / f3
    s34 = p34 = 0.0  # their first terms come at j = 1
    live22 = live33 = live34 = livep33 = livep34 = True
    for j in range(1, _MAX_TERMS + 1):
        r1 = 0.0 + a * r1
        r2 = r1 + b * r2
        h = r2 + c * h
        p1 = 0.0 + b * p1
        hp = p1 + c * hp
        f2, f3 = f3, f3 * (j + 3)
        t2, t3, tp = h / f2, h / f3, hp / f3
        if live22:
            s22 += t2
            live22 = not (j > 3 and t2 < s22 * _REL_TOL)
        if live33:
            s33 += t3
            live33 = not (j > 3 and t3 < s33 * _REL_TOL)
        if livep33:
            p33 += tp
            livep33 = not (j > 3 and tp < p33 * _REL_TOL)
        if j == 1:
            s34, p34 = t3, tp
        else:
            if live34:
                s34 += t3
                live34 = not (j > 4 and t3 < s34 * _REL_TOL)
            if livep34:
                p34 += tp
                livep34 = not (j > 4 and tp < p34 * _REL_TOL)
        if not (live22 or live33 or live34 or livep33 or livep34):
            return s22, a * (b + c) * s33 + b * c * p33, a * (b + c) * s34 + b * c * p34
        # the sums from 4 may take one term more; the first unconverged sum,
        # in the order the three tails read them, names its values
        if j == _MAX_TERMS - 1 and (live22 or live33 or livep33):
            raise _unconverged((a, b, c) if live22 or live33 else (b, c))
        if j == _MAX_TERMS:
            raise _unconverged((a, b, c) if live34 else (b, c))


def _four_tails(a: float, b: float, c: float, d: float) -> tuple:
    """exp_h_tail(x, 4) and exp_h_tail(x, 3) of the four values x = (a, b, c, d):
    the tails a combined (0,4) formula reads of a party's four intensities.

    One loop runs the recurrence over x and feeds both sums; each keeps its
    own stopping rule and term limit, so the pair equals
    ``_tails(x, ((4, 4), (3, 3)))`` bit for bit, errors included.  Their
    factorial products are one running product, since 3! * 4 = 4! exactly.
    """
    if a < 0 or b < 0 or c < 0 or d < 0:
        raise ValueError("values must be >= 0")
    r1 = r2 = r3 = h = 1.0  # h_j of (a), (a, b), (a, b, c), (a, b, c, d); j = 0
    f3, f4 = 6.0, 24.0  # (j + 3)!, (j + 4)!
    s44, s33 = h / f4, h / f3
    live44 = live33 = True
    for j in range(1, _MAX_TERMS):
        r1 = 0.0 + a * r1
        r2 = r1 + b * r2
        r3 = r2 + c * r3
        h = r3 + d * h
        f3, f4 = f4, f4 * (j + 4)
        t4, t3 = h / f4, h / f3
        if live44:
            s44 += t4
            live44 = not (j > 3 and t4 < s44 * _REL_TOL)
        if live33:
            s33 += t3
            live33 = not (j > 3 and t3 < s33 * _REL_TOL)
        if not (live44 or live33):
            return s44, s33
    raise _unconverged((a, b, c, d))


def d_n(values4, n: int) -> float:
    """Non-negative quartic-set weight D_n = s_(n-3,1,1) = e_3 h_{n-4} - e_4 h_{n-5}.

    D_4 = e_3, and the subtracted part is at most a quarter of the first
    (h_m >= x_i h_{m-1} for every value x_i), so the difference cannot cancel.
    """
    if n < 4:
        raise ValueError("d_n is defined for n >= 4")
    vals = tuple(values4)
    if len(vals) != 4:
        raise ValueError("d_n expects exactly four values")
    es = elem_sym(vals)
    hs = list(islice(_hom_sym(vals), n - 3))
    return es[3] * hs[-1] - es[4] * (hs[-2] if n > 4 else 0.0)
