"""Dense bounded-variable simplex in exact rational arithmetic.

Solves  max c.x  subject to  lower_i <= (A x)_i <= upper_i  and
x_lo <= x <= x_hi,  with every quantity converted exactly from its binary
double to a Fraction.  The decoy-state verification LPs mix constraint
coefficients spanning thirty orders of magnitude with window widths near
1e-16; any floating-point solver's feasibility tolerance leaks through the
huge dual values of the weakly-weighted rows and corrupts the optimum by
many orders more than the certificate is supposed to resolve.  Exact
pivoting with Bland's entering rule has no tolerances at all, cannot cycle,
and the problem sizes here (about a hundred variables, a few dozen rows)
keep it fast enough.

Each phase prices its columns once, from the objective and the rows whose
basic cost is nonzero, and then keeps the reduced-cost row ``d``: a pivot
updates it like a tableau row (``d_j -= d_entering * prow_j``), so pricing
only compares ``d_j`` with zero.  Most phase-2 iterations are bound flips,
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

A solve is two steps.  ``_feasible_start`` converts the constraints, runs
phase 1 and drives the leftover artificials out of the basis; it depends on
the constraints only and returns an immutable ``_Start``.  ``_maximize``
copies a start without its artificial columns and runs phase 2 for one
objective, so one start serves any number of objectives over the same
constraints, each with the pivots a fresh solve would make.
``solve_bounded_lp`` is the two in sequence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2

_MAX_ITER = 50000
_ZERO = Fraction(0)


class LinearProgramInfeasible(Exception):
    """No point satisfies all row and box constraints."""


class _Start(NamedTuple):
    """Feasible basis after phase 1: n structurals, m slacks, m artificials."""
    n: int
    tab: tuple      # m rows of n + 2m Fractions
    beta: tuple     # values of the basic variables
    status: tuple   # per column: at lower, at upper or basic
    basis: tuple    # basic column of each row
    lo: tuple       # per-column lower bound
    hi: tuple       # per-column upper bound, None for unbounded


def _to_fraction_matrix(a):
    return [[Fraction(v) for v in row] for row in a]


def _pivot(tab, row: int, col: int) -> list:
    """Scale ``row`` to a unit pivot at ``col`` and eliminate ``col`` elsewhere.

    Returns the scaled pivot row.  Only its nonzero entries change the others.
    """
    inv = 1 / tab[row][col]
    prow = tab[row] = [v * inv if v else v for v in tab[row]]
    for i, other in enumerate(tab):
        f = other[col]
        if i != row and f:
            tab[i] = [rv - f * pv if pv else rv for rv, pv in zip(other, prow)]
    return prow


def _run_phase(tab, beta, status, basis, lo, hi, cobj, n_allowed) -> None:
    """Bland's-rule simplex on ``cobj`` over the first ``n_allowed`` columns.

    Updates ``tab``, ``beta``, ``status`` and ``basis`` in place; ``_pivot``
    replaces whole rows, so ``tab`` may hold rows shared with another copy.
    """
    m = len(tab)
    # reduced costs c_j - sum_i c_B(i) tab[i][j], priced once, then kept
    d = cobj[:n_allowed]
    for i in range(m):
        cb = cobj[basis[i]]
        if cb:
            d = [dj - cb * v if v else dj for dj, v in zip(d, tab[i])]
    first = 0
    for _ in range(_MAX_ITER):
        entering = -1
        for j in range(first, n_allowed):
            s = status[j]
            if (s == _AT_LOWER and d[j] > 0) or (s == _AT_UPPER and d[j] < 0):
                entering = j
                up = s == _AT_LOWER
                break
        if entering < 0:
            return
        # ratio test: smallest step that drives a basic variable to a
        # bound, capped by the entering variable's own bound flip; a row
        # cannot undercut the cap unless room < cap * rate, so only the rows
        # that pass that product test are divided
        step = None if hi[entering] is None else hi[entering] - lo[entering]
        leaving = -1
        hit_lower = True
        for i in range(m):
            a = tab[i][entering]
            if not a:
                continue
            b = basis[i]
            hits_low = (a > 0) == up    # the basic variable falls toward its lower bound
            if hits_low:
                room = beta[i] - lo[b]
            elif hi[b] is None:
                continue
            else:
                room = hi[b] - beta[i]
            rate = abs(a)
            if leaving < 0 and step is not None and room >= (rate if step == 1 else step * rate):
                continue
            limit = room / rate if room > 0 else _ZERO
            if step is None or limit < step or (limit == step and leaving >= 0
                                                and b < basis[leaving]):
                step = limit
                leaving = i
                hit_lower = hits_low
        if step is None:
            raise ArithmeticError("unbounded linear program")
        if step:
            unit = step == 1
            for i in range(m):
                a = tab[i][entering]
                if a:
                    move = a if unit else step * a
                    beta[i] = beta[i] - move if up else beta[i] + move
        if leaving < 0:
            # the basis and every reduced cost are unchanged, the columns
            # before ``entering`` stay non-improving and ``entering`` is not
            # improving at its other bound: Bland's scan resumes after it
            status[entering] = _AT_UPPER if up else _AT_LOWER
            first = entering + 1
            continue
        new_value = lo[entering] + step if up else hi[entering] - step
        out = basis[leaving]
        status[out] = _AT_LOWER if hit_lower else _AT_UPPER
        prow = _pivot(tab, leaving, entering)
        basis[leaving] = entering
        status[entering] = _BASIC
        beta[leaving] = new_value
        f = d[entering]
        d = [dj - f * pv if pv else dj for dj, pv in zip(d, prow)]
        first = 0
    raise ArithmeticError("simplex iteration limit exceeded")


def _feasible_start(a, row_lower, row_upper, x_lower, x_upper) -> _Start:
    """Phase 1 for ranged rows and per-variable boxes, exactly.

    Raises ``LinearProgramInfeasible`` when the constraints admit no point.
    """
    m = len(a)
    n = len(a[0]) if m else len(x_lower)
    A = _to_fraction_matrix(a)
    rlo = [Fraction(v) for v in row_lower]
    rup = [Fraction(v) for v in row_upper]
    xlo = [Fraction(v) for v in x_lower]
    xup = [Fraction(v) for v in x_upper]
    for lo_i, up_i in zip(rlo, rup):
        if lo_i > up_i:
            raise LinearProgramInfeasible("empty row window")
    for lo_i, up_i in zip(xlo, xup):
        if lo_i > up_i:
            raise LinearProgramInfeasible("empty variable box")

    # columns: n structurals, m ranged slacks, m artificials
    ncols = n + 2 * m
    lo = xlo + [_ZERO] * m + [_ZERO] * m
    hi = xup + [up_i - lo_i for lo_i, up_i in zip(rlo, rup)] + [None] * m

    tab = []
    beta = []
    status = [_AT_LOWER] * n + [_AT_UPPER] * m + [_BASIC] * m
    basis = []
    for i in range(m):
        # residual once x sits at its lower bounds and the slack at its upper
        resid = rup[i] - sum(A[i][j] * xlo[j] for j in range(n)) - (rup[i] - rlo[i])
        sign = 1 if resid >= 0 else -1
        row = [sign * A[i][j] for j in range(n)]
        row += [Fraction(sign) if k == i else _ZERO for k in range(m)]
        row += [Fraction(1) if k == i else _ZERO for k in range(m)]
        tab.append(row)
        beta.append(abs(resid))
        basis.append(n + m + i)

    phase1 = [_ZERO] * (n + m) + [Fraction(-1)] * m
    _run_phase(tab, beta, status, basis, lo, hi, phase1, ncols)
    infeasibility = sum((beta[i] for i in range(m) if basis[i] >= n + m), _ZERO)
    if infeasibility > 0:
        raise LinearProgramInfeasible(f"phase-1 residual {float(infeasibility):.3e}")

    # drive leftover zero-level artificials out of the basis where possible
    for i in range(m):
        if basis[i] < n + m:
            continue
        for j in range(n + m):
            if status[j] != _BASIC and tab[i][j]:
                status[basis[i]] = _AT_LOWER
                _pivot(tab, i, j)
                beta[i] = lo[j] if status[j] == _AT_LOWER else hi[j]
                basis[i] = j
                status[j] = _BASIC
                break
        else:
            hi[basis[i]] = _ZERO  # redundant row; pin its artificial at zero

    return _Start(n=n, tab=tuple(map(tuple, tab)), beta=tuple(beta), status=tuple(status),
                  basis=tuple(basis), lo=tuple(lo), hi=tuple(hi))


def _maximize(start: _Start, c):
    """Phase 2 from a copy of ``start``: (optimum, x) of c.x as floats.

    Phase 2 prices only the n + m structural and slack columns, so the copy
    drops the artificial columns and no pivot eliminates them.  The cost
    vector keeps all n + 2m entries: pricing reads the cost of every basic
    column, and a start may keep a pinned artificial basic.
    """
    n, m = start.n, len(start.tab)
    cvec = [Fraction(v) for v in c]
    tab, beta = [row[:n + m] for row in start.tab], list(start.beta)
    status, basis = list(start.status), list(start.basis)
    lo, hi = start.lo, start.hi
    phase2 = cvec + [_ZERO] * (2 * m)
    _run_phase(tab, beta, status, basis, lo, hi, phase2, n + m)

    x = [hi[j] if status[j] == _AT_UPPER else lo[j] for j in range(n)]
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = beta[i]
    optimum = sum((cvec[j] * x[j] for j in range(n)), _ZERO)
    return float(optimum), [float(v) for v in x]


def solve_bounded_lp(c, a, row_lower, row_upper, x_lower, x_upper):
    """Maximize c.x with ranged rows and per-variable boxes, exactly.

    Returns (optimum, x) as floats; raises ``LinearProgramInfeasible`` when
    the constraints admit no point.  All inputs may be floats (converted
    exactly) or Fractions.
    """
    return _maximize(_feasible_start(a, row_lower, row_upper, x_lower, x_upper), c)
