"""Symmetric-polynomial series used by the analytical yield bounds.

The bound formulas contain alternating sums of exponentials over the decoy
intensities (third- and higher-order divided differences of exp).  Evaluated
literally those cancel catastrophically for the tiny intensities the decoy
method uses, so every such bracket is computed here as a factorially damped
series of complete homogeneous symmetric polynomials: all terms are positive
and the series converge to machine precision in a few dozen terms.

One generator yields h_0, h_1, h_2, ... of a value set by the nested
recurrence h_k(x_1..x_j) = h_k(x_1..x_{j-1}) + x_j h_{k-1}(x_1..x_j), which
only adds non-negative terms, and every other weight is read from it:
``f_weight`` is the Schur polynomial s_(n-2,1)(a, b, c) = a (b + c)
h_{n-3}(a, b, c) + b c h_{n-3}(b, c) (Macdonald, Symmetric Functions and Hall
Polynomials, I.5), ``d_n`` is s_(n-3,1,1) = e_3 h_{n-4} - e_4 h_{n-5} of four
values, and both tails are sums of the one cached tail ``_tail``.
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


@lru_cache(maxsize=16384)
def _tail(values: tuple, shift: int, start: int) -> float:
    """Sum over n >= start of h_{n-shift}(values) / n!  (start >= shift)."""
    if any(v < 0 for v in values):
        raise ValueError("values must be >= 0")
    hs = islice(_hom_sym(values), start - shift, None)
    fact = float(math.factorial(start))
    total = next(hs) / fact
    for k, h in zip(range(1, _MAX_TERMS), hs):
        fact *= start + k
        term = h / fact
        total += term
        if k > 3 and term < total * _REL_TOL:
            return total
    raise SaturationError(f"series tail over {values} did not converge in "
                          f"{_MAX_TERMS} terms")


def exp_h_tail(values, start: int) -> float:
    """Sum over n >= start of h_{n-start}(values) / n!.

    This is the factorially damped tail of the generating series of the
    complete homogeneous polynomials; it equals the alternating-exponential
    brackets of the bound formulas divided by their Vandermonde factor, but
    is evaluated here without any cancellation.
    """
    if start < 0:
        raise ValueError("start must be >= 0")
    return _tail(tuple(float(v) for v in values), start, start)


def f_weight(values3, n: int) -> float:
    """Sign-definite weight of order n extracted from a three-intensity set.

    The Schur polynomial s_(n-2,1)(a, b, c) = a (b + c) h_{n-3}(a, b, c) +
    b c h_{n-3}(b, c), a sum of non-negative terms.  Defined for n >= 3.
    """
    a, b, c = values3  # strongest, middle, weakest
    if n < 3:
        raise ValueError("f_weight is defined for n >= 3")
    return a * (b + c) * hom_sym_sum((a, b, c), n - 3) + b * c * hom_sym_sum((b, c), n - 3)


def exp_f_tail(values3, start: int) -> float:
    """Sum over n >= start of f_weight(values3, n) / n!  (start >= 3)."""
    if start < 3:
        raise ValueError("start must be >= 3")
    a, b, c = (float(v) for v in values3)
    return a * (b + c) * _tail((a, b, c), 3, start) + b * c * _tail((b, c), 3, start)


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
