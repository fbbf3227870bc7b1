"""Dense bounded-variable simplex in exact rational arithmetic.

Solves  max c.x  subject to  lower_i <= (A x)_i <= upper_i  and
x_lo <= x <= x_hi,  with every quantity converted exactly from its binary
double to a rational.  The decoy-state verification LPs mix constraint
coefficients spanning thirty orders of magnitude with window widths near
1e-16; any floating-point solver's feasibility tolerance leaks through the
huge dual values of the weakly-weighted rows and corrupts the optimum by
many orders more than the certificate is supposed to resolve.  Exact
pivoting with Bland's entering rule has no tolerances at all, cannot cycle,
and the problem sizes here (about a hundred variables, a few dozen rows)
keep it fast enough.

Numbers.  Every quantity is a reduced rational held as a pair of ints
``(numerator, denominator)``, the denominator positive and zero ``(0, 1)``:
the basic values, the bounds and the costs as tuples, each tableau row and
the reduced-cost row as two parallel lists of numerators and denominators.
``solve_bounded_lp`` and ``_maximize`` convert their inputs exactly, once:
a float through ``float.as_integer_ratio()``, a rational such as
``Fraction`` through its ``numerator`` and ``denominator``, an int ``k`` as
``(k, 1)``; a non-finite value or a row whose length differs from the
variables' raises ``ValueError``.  The row update ``r_j - f * p_j`` is
one inlined loop (``_eliminate``) that takes ``Fraction``'s own steps
without building an object per entry: cancel across the product, then
subtract over the gcd of the two denominators.
Signs are sign tests and comparisons cross-multiplications.  Each entry is
the reduced rational ``Fraction`` arithmetic gives, so every pricing,
ratio-test and tie-break decision is too.

Each phase prices its columns once, from the objective and the rows whose
basic cost is nonzero, and then keeps the reduced-cost row ``d``: a pivot
updates it like a tableau row (``d_j -= d_entering * prow_j``), so pricing
only tests the sign of ``d_j``.  Most phase-2 iterations are bound flips,
where the entering variable reaches its other bound before any basic
variable reaches one of its own.  A flip changes neither the basis nor
``d``; the columns before the entering one stay non-improving, and the
entering one is not improving at its other bound, so Bland's scan resumes
after it instead of at column 0.  The ratio test divides only for the rows
that can undercut the flip cap, found by the cross-multiplied test
``room < cap * rate``; pivots skip the zero entries of the pivot row.  All
of this is exact: ``d_j`` equals the reduced cost a fresh pricing gives and
every test decides as a fresh computation would, so the pivot sequence is
Bland's, unchanged, and so are the starts, the optima and ``x``.

A solve is two steps.  ``_feasible_start`` takes the constraints as pairs,
runs phase 1 and drives the leftover artificials out of the basis; it
depends on the constraints only and returns its lists as an immutable
``_Start`` of ints and pairs.  ``_maximize`` copies a start's rows without
the artificial columns and runs phase 2 for one objective, so one start
serves any number of objectives over the same constraints, each with the
pivots a fresh solve would make.  ``solve_bounded_lp`` converts its
constraints to pairs and runs the two in sequence.
"""

from __future__ import annotations

from math import gcd, isfinite
from numbers import Rational
from typing import NamedTuple

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2

_MAX_ITER = 50000
_ZERO = (0, 1)
_ONE = (1, 1)


class LinearProgramInfeasible(Exception):
    """No point satisfies all row and box constraints."""


class _Start(NamedTuple):
    """Feasible basis after phase 1: n structurals, m slacks, m artificials;
    every value a reduced ``(numerator, denominator)`` pair."""
    n: int
    tab_n: tuple    # m rows of n + 2m numerators
    tab_d: tuple    # m rows of n + 2m denominators
    beta: tuple     # values of the basic variables
    status: tuple   # per column: at lower, at upper or basic
    basis: tuple    # basic column of each row
    lo: tuple       # per-column lower bound
    hi: tuple       # per-column upper bound, None for unbounded


def _pair(v) -> tuple:
    """``v`` as a reduced ``(numerator, denominator)`` pair, exactly."""
    if isinstance(v, float):
        if not isfinite(v):
            raise ValueError(f"LP data must be finite, got {v}")
        return v.as_integer_ratio()
    if isinstance(v, int):
        return int(v), 1
    if isinstance(v, Rational):
        return int(v.numerator), int(v.denominator)
    raise TypeError(f"LP data must be ints, floats or rationals, got {type(v).__name__}")


def _add(a, b) -> tuple:
    an, ad = a
    bn, bd = b
    g = gcd(ad, bd)
    s = ad // g
    t = an * (bd // g) + bn * s
    g2 = gcd(t, g)
    return t // g2, s * (bd // g2)


def _sub(a, b) -> tuple:
    return _add(a, (-b[0], b[1]))


def _mul(a, b) -> tuple:
    an, ad = a
    bn, bd = b
    g1 = gcd(an, bd)
    g2 = gcd(bn, ad)
    return (an // g1) * (bn // g2), (ad // g2) * (bd // g1)


def _div(a, b) -> tuple:
    """``a / b`` for a nonzero ``b``."""
    an, ad = a
    bn, bd = b
    g1 = gcd(an, bn)
    g2 = gcd(ad, bd)
    n, d = (an // g1) * (bd // g2), (ad // g2) * (bn // g1)
    return (-n, -d) if d < 0 else (n, d)


def _less(a, b) -> bool:
    return a[0] * b[1] < b[0] * a[1]


def _eliminate(rn, rd, fn, fd, pivot_row) -> None:
    """``r_j -= f * p_j`` in place over the ``(j, p_num, p_den)`` of ``pivot_row``.

    ``Fraction``'s steps, inlined: cancel across the product, subtract over
    the gcd ``g`` of the denominators, then only a factor of ``g`` can be
    left to divide out.  Each entry comes out reduced.
    """
    for j, pn, pd in pivot_row:
        tn, td = fn, fd
        g = gcd(fn, pd)
        if g > 1:
            tn //= g
            pd //= g
        g = gcd(pn, fd)
        if g > 1:
            pn //= g
            td //= g
        tn *= pn
        td *= pd
        d = rd[j]
        g = gcd(d, td)
        if g == 1:
            rn[j] = rn[j] * td - tn * d
            rd[j] = d * td
            continue
        s = d // g
        t = rn[j] * (td // g) - tn * s
        g = gcd(t, g)
        if g > 1:
            t //= g
            td //= g
        rn[j] = t
        rd[j] = s * td


def _entries(rn, rd) -> list:
    """The ``(j, numerator, denominator)`` of a row's nonzero entries."""
    return [(j, n, d) for j, (n, d) in enumerate(zip(rn, rd)) if n]


def _pivot(tab_n, tab_d, row: int, col: int) -> list:
    """Scale ``row`` to a unit pivot at ``col`` and eliminate ``col`` elsewhere.

    Returns the scaled pivot row's nonzero entries; only they change the
    other rows.
    """
    an, ad = tab_n[row][col], tab_d[row][col]
    inv = (-ad, -an) if an < 0 else (ad, an)
    pn, pd = tab_n[row], tab_d[row]
    for j, n in enumerate(pn):
        if n:
            pn[j], pd[j] = _mul((n, pd[j]), inv)
    prow = _entries(pn, pd)
    for i, (rn, rd) in enumerate(zip(tab_n, tab_d)):
        fn = rn[col]
        if i != row and fn:
            _eliminate(rn, rd, fn, rd[col], prow)
    return prow


def _run_phase(tab_n, tab_d, beta, status, basis, lo, hi, cobj, n_allowed) -> None:
    """Bland's-rule simplex on ``cobj`` over the first ``n_allowed`` columns.

    The rows hold exactly ``n_allowed`` columns.  Updates ``tab_n``,
    ``tab_d``, ``beta``, ``status`` and ``basis`` in place.
    """
    m = len(tab_n)
    # reduced costs c_j - sum_i c_B(i) tab[i][j], priced once, then kept
    dn = [c[0] for c in cobj[:n_allowed]]
    dd = [c[1] for c in cobj[:n_allowed]]
    for i in range(m):
        cn, cd = cobj[basis[i]]
        if cn:
            _eliminate(dn, dd, cn, cd, _entries(tab_n[i], tab_d[i]))
    first = 0
    for _ in range(_MAX_ITER):
        entering = -1
        for j in range(first, n_allowed):
            s = status[j]
            if (s == _AT_LOWER and dn[j] > 0) or (s == _AT_UPPER and dn[j] < 0):
                entering = j
                up = s == _AT_LOWER
                break
        if entering < 0:
            return
        # ratio test: smallest step that drives a basic variable to a
        # bound, capped by the entering variable's own bound flip; a row
        # cannot undercut the cap unless room < cap * rate, so only the rows
        # that pass that product test are divided
        step = None if hi[entering] is None else _sub(hi[entering], lo[entering])
        leaving = -1
        hit_lower = True
        for i in range(m):
            an = tab_n[i][entering]
            if not an:
                continue
            b = basis[i]
            hits_low = (an > 0) == up    # the basic variable falls toward its lower bound
            if hits_low:
                room = _sub(beta[i], lo[b])
            elif hi[b] is None:
                continue
            else:
                room = _sub(hi[b], beta[i])
            rate = (abs(an), tab_d[i][entering])
            if (leaving < 0 and step is not None
                    and room[0] * step[1] * rate[1] >= step[0] * rate[0] * room[1]):
                continue
            limit = _div(room, rate) if room[0] > 0 else _ZERO
            if step is None or _less(limit, step) or (limit == step and leaving >= 0
                                                      and b < basis[leaving]):
                step = limit
                leaving = i
                hit_lower = hits_low
        if step is None:
            raise ArithmeticError("unbounded linear program")
        if step[0]:
            unit = step == _ONE
            for i in range(m):
                an = tab_n[i][entering]
                if an:
                    a = (an, tab_d[i][entering])
                    move = a if unit else _mul(step, a)
                    beta[i] = _sub(beta[i], move) if up else _add(beta[i], move)
        if leaving < 0:
            # the basis and every reduced cost are unchanged, the columns
            # before ``entering`` stay non-improving and ``entering`` is not
            # improving at its other bound: Bland's scan resumes after it
            status[entering] = _AT_UPPER if up else _AT_LOWER
            first = entering + 1
            continue
        new_value = _add(lo[entering], step) if up else _sub(hi[entering], step)
        out = basis[leaving]
        status[out] = _AT_LOWER if hit_lower else _AT_UPPER
        prow = _pivot(tab_n, tab_d, leaving, entering)
        basis[leaving] = entering
        status[entering] = _BASIC
        beta[leaving] = new_value
        _eliminate(dn, dd, dn[entering], dd[entering], prow)
        first = 0
    raise ArithmeticError("simplex iteration limit exceeded")


def _feasible_start(a, rlo, rup, xlo, xup) -> _Start:
    """Phase 1 for ranged rows and per-variable boxes given as pairs, exactly.

    Raises ``LinearProgramInfeasible`` when the constraints admit no point
    and ``ValueError`` when the lengths disagree.
    """
    m = len(a)
    n = len(xlo)
    if len(xup) != n or len(rlo) != m or len(rup) != m:
        raise ValueError("each bound list must match the rows or the variables")
    if any(len(row) != n for row in a):
        raise ValueError(f"every constraint row must have {n} entries")
    for lo_i, up_i in zip(rlo, rup):
        if _less(up_i, lo_i):
            raise LinearProgramInfeasible("empty row window")
    for lo_i, up_i in zip(xlo, xup):
        if _less(up_i, lo_i):
            raise LinearProgramInfeasible("empty variable box")

    # columns: n structurals, m ranged slacks, m artificials
    ncols = n + 2 * m
    lo = xlo + [_ZERO] * (2 * m)
    hi = xup + [_sub(up_i, lo_i) for lo_i, up_i in zip(rlo, rup)] + [None] * m

    tab_n = []
    tab_d = []
    beta = []
    status = [_AT_LOWER] * n + [_AT_UPPER] * m + [_BASIC] * m
    basis = []
    for i, row in enumerate(a):
        # residual once x sits at its lower bounds and the slack at its upper
        resid = rlo[i]
        for v, x in zip(row, xlo):
            if v[0] and x[0]:
                resid = _sub(resid, _mul(v, x))
        sign = 1 if resid[0] >= 0 else -1
        tab_n.append([sign * v[0] for v in row] + [sign if k == i else 0 for k in range(m)]
                     + [1 if k == i else 0 for k in range(m)])
        tab_d.append([v[1] for v in row] + [1] * (2 * m))
        beta.append((abs(resid[0]), resid[1]))
        basis.append(n + m + i)

    phase1 = [_ZERO] * (n + m) + [(-1, 1)] * m
    _run_phase(tab_n, tab_d, beta, status, basis, lo, hi, phase1, ncols)
    infeasibility = _ZERO
    for i in range(m):
        if basis[i] >= n + m:
            infeasibility = _add(infeasibility, beta[i])
    if infeasibility[0] > 0:
        raise LinearProgramInfeasible(
            f"phase-1 residual {infeasibility[0] / infeasibility[1]:.3e}")

    # drive leftover zero-level artificials out of the basis.  Each row's
    # slack column starts as +-1 times its artificial column and row
    # operations keep that relation, so a basic artificial always has a
    # nonzero entry in its own nonbasic slack column and no artificial
    # stays basic, redundant rows included (``test_duplicated_row``)
    for i in range(m):
        if basis[i] < n + m:
            continue
        for j in range(n + m):
            if status[j] != _BASIC and tab_n[i][j]:
                status[basis[i]] = _AT_LOWER
                _pivot(tab_n, tab_d, i, j)
                beta[i] = lo[j] if status[j] == _AT_LOWER else hi[j]
                basis[i] = j
                status[j] = _BASIC
                break

    return _Start(n=n, tab_n=tuple(map(tuple, tab_n)), tab_d=tuple(map(tuple, tab_d)),
                  beta=tuple(beta), status=tuple(status), basis=tuple(basis),
                  lo=tuple(lo), hi=tuple(hi))


def _maximize(start: _Start, c):
    """Phase 2 from a copy of ``start``: (optimum, x) of c.x as floats.

    Phase 2 prices only the n + m structural and slack columns, so the copy
    drops the artificial columns and no pivot eliminates them.  The cost
    vector keeps all n + 2m entries: pricing reads the cost of every basic
    column, and a hand-built start may keep an artificial basic.
    """
    n, m = start.n, len(start.tab_n)
    if len(c) != n:
        raise ValueError(f"the objective must have {n} entries, got {len(c)}")
    cvec = [_pair(v) for v in c]
    tab_n = [list(r[:n + m]) for r in start.tab_n]
    tab_d = [list(r[:n + m]) for r in start.tab_d]
    beta, status, basis = list(start.beta), list(start.status), list(start.basis)
    lo, hi = start.lo, start.hi
    phase2 = cvec + [_ZERO] * (2 * m)
    _run_phase(tab_n, tab_d, beta, status, basis, lo, hi, phase2, n + m)

    x = [hi[j] if status[j] == _AT_UPPER else lo[j] for j in range(n)]
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = beta[i]
    optimum = _ZERO
    for cj, xj in zip(cvec, x):
        if cj[0] and xj[0]:
            optimum = _add(optimum, _mul(cj, xj))
    return optimum[0] / optimum[1], [v[0] / v[1] for v in x]


def solve_bounded_lp(c, a, row_lower, row_upper, x_lower, x_upper):
    """Maximize c.x with ranged rows and per-variable boxes, exactly.

    Returns (optimum, x) as floats; raises ``LinearProgramInfeasible`` when
    the constraints admit no point and ``ValueError`` when the lengths
    disagree or a value is not finite.  All inputs may be ints, floats
    (converted exactly) or rationals such as Fractions.
    """
    def pairs(values):
        return [_pair(v) for v in values]

    start = _feasible_start([pairs(row) for row in a], pairs(row_lower), pairs(row_upper),
                            pairs(x_lower), pairs(x_upper))
    return _maximize(start, c)
