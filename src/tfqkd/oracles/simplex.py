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

Numbers.  Every quantity is an exact reduced rational split at its power
of two, the triple of ints ``(n, o, e)`` for ``n / (o * 2**e)`` of
``tfqkd.dyadic``, whose functions (``_add``, ``_mul``, ``_less``, ...) this
module uses.  The basic values, the bounds and the costs are such tuples,
each tableau row and the reduced-cost row three parallel lists of ``n``,
``o`` and ``e``.  The split pays because the LP data are doubles, p / 2^k,
times 1 / (n! m!), whose odd part is small: the denominators are almost all
power of two, which a gcd would grind through bit by bit, and the odd parts
that are left are a few bits long.  ``solve_bounded_lp`` and ``_maximize``
convert their inputs exactly, once (``dyadic._number``: ints, finite
floats and rationals such as ``Fraction``); a non-finite value or a row
whose length differs from the variables' raises ``ValueError``.  The row
update ``r_j - f * p_j`` is one inlined loop (``_eliminate``): cancel the
odd parts across the product, align the exponents by a shift, subtract over
the gcd of the two odd denominators, divide out what is left of that gcd and
strip the trailing zeros of the result.  Signs are sign tests and
comparisons cross-multiplications with a shift.  The form is canonical, so
each entry is the reduced rational ``Fraction`` arithmetic gives, every
pricing, ratio-test and tie-break decision is too, and tuple ``==`` is
equality of values.  A result goes back to a float through the correctly
rounded division of the rejoined reduced pair of ints (``_float``).

Each phase prices its columns once, from the objective and the rows whose
basic cost is nonzero, and then keeps the reduced-cost row ``d``: a pivot
updates it like a tableau row (``d_j -= d_entering * prow_j``), so pricing
only tests the sign of ``d_j``.  Most phase-2 iterations are bound flips,
where the entering variable reaches its other bound before any basic
variable reaches one of its own.  A flip changes neither the basis nor
``d``; the columns before the entering one stay non-improving, and the
entering one is not improving at its other bound, so Bland's scan resumes
after it instead of at column 0.  While no row undercuts the flip cap
(``room < cap * rate``), the ratio test skips a row on floats, with a
rigorous error bound (``_SHADOW_ERROR``), where that bound clears it; only
where the float verdict is not certain (a near tie, a zero room, a float
that underflows or overflows) does it fold the row and divide: a row
undercuts the cap exactly when its limit ``room / rate`` is below it.  A
flip's moves do not touch the long exact basic values either: each row logs
the flip's ``(cap, entry)`` pair, and two float running sums, of the moves
and of their magnitudes.  A move's float is the product of the cap's and the
entry's floats; its exact product is formed only where the log is folded.
The float test reads the float of the basic value plus the running sum,
with an allowance for the moves' and the sum's rounding that grows with the
number of moves.  A row's log is folded
into its basic value, the moves summed over one denominator and then added
once, only where the value is read exactly: at a flip test the floats leave
open, at the next pivot that moves the row, and at the end of the phase.
``_maximize`` folds every row there, so every basic value is a reduced
triple again; ``_optimum``, which ``lp_yield_bound`` calls, folds only the
rows whose basic column has a nonzero cost, the rows its optimum reads.
Pivots skip the zero entries of the pivot row.  Every decision is the one
exact arithmetic makes: ``d_j`` equals the reduced cost a fresh pricing
gives and every test decides as a fresh computation would, so the pivot
sequence is Bland's, unchanged, and so are the starts, the optima and
``x``.

A start holds exactly the columns phase 2 reads, the n structurals and the
m slacks, and the phase 2s on one start share it read-only.  Each reads the
start's rows in place, and a pivot copies into lists only the rows it
writes (``_pivot``), the pivot row and those with a nonzero entry in the
entering column; the rest of the start is never copied.  They also share
the start's floats that the shadow tests read (``_Floats``): the tableau
entries, the basic values, the columns' bounds and flip caps, each
converted on its first read by any of them and kept for the start phase 2
last ran on, matched by identity.  After a pivot the phase keeps its own
floats for the rows the pivot wrote.

A solve is two steps.  ``_feasible_start`` takes the constraints as triples,
runs phase 1 with one artificial column per row, drives every artificial
out of the basis and drops their columns; it depends on the constraints
only and returns its lists as an immutable ``_Start`` of ints and triples.
``_maximize`` runs phase 2 on a start for one objective, so one start
serves any number of objectives over the same constraints, each with the
pivots a fresh solve would make; ``_optimum`` does the same for the
optimum alone.  ``solve_bounded_lp`` converts its
constraints to triples and runs the two in sequence.
"""

from __future__ import annotations

from math import gcd, inf
from typing import NamedTuple

from ..dyadic import (_ZERO, _add, _div, _float, _less, _mul, _number, _reduced, _scaled,
                      _sub, _twos)

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2

_MAX_ITER = 50000

# The shadow test of a flip decides ``room >= cap * rate`` only when the float
# difference exceeds an allowance.  Its first part, ``_SHADOW_ERROR * scale``,
# ``scale`` the sum of the magnitudes the test reads, covers the floats of
# the basic value, the bound, the cap and the rate, each correctly rounded,
# and the test's four operations, which round again: at most 4 units of
# roundoff (2**-51) relative to ``scale``, plus at most 2**-1073 from
# underflow, which ``scale >= _SMALL`` keeps under the other half of that
# part.  The cap and the rate must be normal floats, so that their product
# has a relative error.
#
# The row's k flip moves m_j = c_j a_j (a cap times a tableau entry) since
# its last exact read enter through their float running sum s_k,
# s_j = fl(s_(j-1) + f_j), which is not correctly rounded.  Each move's float
# is f_j = fl(fl(c_j) fl(a_j)), three roundings, taken only where both
# factors' floats are normal and the product is finite (else M_k is set to
# inf: no difference exceeds that allowance, and the row goes to the exact
# test).  The second part of the allowance, (k + 4) u M_k + k 2**-1074 with
# u = 2**-53 (``_ROUNDOFF``) and the running sum of magnitudes
# M_j = fl(M_(j-1) + |f_j|), bounds its error:
# - the factors are within u of their normal floats, relatively, so m_j is
#   within (2u + u^2) |p_j| of p_j = fl(c_j) fl(a_j), and f_j = fl(p_j) within
#   u |f_j|, or 2**-1075 if subnormal: |f_j - m_j| <= 3u (1 + 2u) |f_j|
#   + (1 + 3u) 2**-1075;
# - rounding is monotone and odd, so |s_j| <= M_j by induction, and M_j does
#   not decrease: the addition that makes s_j is off by at most u |s_j| <=
#   u M_k (s_1 = f_1, and a subnormal sum is exact), and the sum of the |f_j|
#   is at most (1 + k u) M_k;
# - so |s_k - sum m_j| <= (k - 1) u M_k + 3u (1 + 2u) (1 + k u) M_k
#   + k (1 + 3u) 2**-1075, which is below (k + 2) u M_k + u M_k / 2**35
#   + k (1 + 3u) 2**-1075 for k <= ``_MAX_ITER``.
# The allowance's own roundings (one product per part, three sums) take at
# most a relative 4u off each part, which the spare u M_k and the spare
# factor 2 on 2**-1075 cover, and at most 3 * 2**-1075 from underflow, which
# the other half of the first part covers.
_SHADOW_ERROR = 2.0 ** -50
_ROUNDOFF = 2.0 ** -53
_SUBNORMAL = 2.0 ** -1074
_SMALL = 2.0 ** -1000
_NORMAL = 2.0 ** -1022


class LinearProgramInfeasible(Exception):
    """No point satisfies all row and box constraints."""


class _Start(NamedTuple):
    """Feasible basis, after phase 1 or written down (``lp_bounds._product_start``),
    over exactly the columns phase 2 reads: n structurals and m slacks; every
    value a reduced ``(n, o, e)`` triple."""
    n: int
    tab_n: tuple    # m rows of n + m odd numerators, 0 for a zero entry
    tab_o: tuple    # m rows of n + m odd parts of the denominators
    tab_e: tuple    # m rows of n + m powers of two of the denominators
    beta: tuple     # values of the basic variables
    status: tuple   # per column: at lower, at upper or basic
    basis: tuple    # basic column of each row
    lo: tuple       # per-column lower bound
    hi: tuple       # per-column upper bound, None for unbounded


def _eliminate(rn, ro, re, fn, fo, fe, pivot_row) -> None:
    """``r_j -= f * p_j`` in place over the ``(j, n, o, e)`` of ``pivot_row``.

    The odd parts cancel across the product; the exponents align by a
    shift; the difference is taken over the gcd ``g`` of the odd
    denominators, and only a factor of ``g`` can be left to divide out.  An
    aligned term that was shifted is even and the other odd, so only equal
    exponents leave trailing zeros to strip.  Each entry comes out reduced.
    """
    for j, pn, po, pe in pivot_row:
        tn, to = fn, fo
        if po != 1:
            g = gcd(tn, po)
            if g > 1:
                tn //= g
                po //= g
        if to != 1:
            g = gcd(pn, to)
            if g > 1:
                pn //= g
                to //= g
        tn *= pn
        to *= po
        te = fe + pe
        n = rn[j]
        if not n:
            rn[j] = -tn
            ro[j] = to
            re[j] = te
            continue
        o = ro[j]
        e = re[j]
        if e > te:
            tn <<= e - te
        elif e < te:
            n <<= te - e
            e = te
        g = gcd(o, to)
        if g == 1:
            t = n * to - tn * o
            to *= o
        else:
            s = o // g
            t = n * (to // g) - tn * s
            g = gcd(t, g)
            if g > 1:
                t //= g
                to //= g
            to *= s
        if not t:
            rn[j] = 0
            ro[j] = 1
            re[j] = 0
            continue
        if not t & 1:
            z = _twos(t)
            t >>= z
            e -= z
        rn[j] = t
        ro[j] = to
        re[j] = e


def _entries(rn, ro, re) -> list:
    """The ``(j, n, o, e)`` of a row's nonzero entries."""
    return [(j, n, ro[j], re[j]) for j, n in enumerate(rn) if n]


def _pivot(tab_n, tab_o, tab_e, row: int, col: int) -> list:
    """Scale ``row`` to a unit pivot at ``col`` and eliminate ``col`` elsewhere.

    A row held as tuples is shared with other phases (a start's) and is
    copied into lists before it is written; only the pivot row and the rows
    with a nonzero entry in ``col`` are.  Returns the scaled pivot row's
    nonzero entries; only they change the other rows.
    """
    for i, rn in enumerate(tab_n):
        if type(rn) is tuple and (i == row or rn[col]):
            tab_n[i], tab_o[i], tab_e[i] = list(rn), list(tab_o[i]), list(tab_e[i])
    an, ao, ae = tab_n[row][col], tab_o[row][col], tab_e[row][col]
    inv = (-ao, -an, -ae) if an < 0 else (ao, an, -ae)
    pn, po, pe = tab_n[row], tab_o[row], tab_e[row]
    for j, n in enumerate(pn):
        if n:
            pn[j], po[j], pe[j] = _mul((n, po[j], pe[j]), inv)
    prow = _entries(pn, po, pe)
    for i, (rn, ro, re) in enumerate(zip(tab_n, tab_o, tab_e)):
        fn = rn[col]
        if i != row and fn:
            _eliminate(rn, ro, re, fn, ro[col], re[col], prow)
    return prow


def _shadow(v) -> float:
    """``_float(v)``, or inf for a value past the double range, which no
    shadow test then decides."""
    try:
        return _float(v)
    except OverflowError:
        return inf


class _Floats:
    """The floats the shadow tests of phases on one start read, each filled
    on first read (None before): per row the tableau entries, the basic
    values the start holds (``beta``, matched by identity), and per column
    the lower and upper bounds and the flip caps as ``(cap, float)`` pairs,
    for ``width`` columns.  ``rows`` is shared until a pivot writes a row;
    the phase then keeps its own floats for it."""

    __slots__ = ("rows", "beta", "beta_f", "lo_f", "hi_f", "caps")

    def __init__(self, beta, width: int):
        self.rows = [[None] * width for _ in beta]
        self.beta = tuple(beta)
        self.beta_f = [None] * len(beta)
        self.lo_f = [None] * width
        self.hi_f = [None] * width
        self.caps = [None] * width


def _folded(value, log) -> tuple:
    """``value`` plus the moves ``cap * entry`` of the ``(cap, entry)`` pairs
    ``log``, reduced.  The short moves are formed here and summed first, as
    ints over one denominator (``dyadic._scaled``), so the long ``value``
    enters a single addition."""
    ks, o, e = _scaled([_mul(cap, a) for cap, a in log])
    return _add(value, _reduced(sum(ks), o, e))


def _run_phase(tab_n, tab_o, tab_e, beta, status, basis, lo, hi, cobj, n_allowed, *,
               costed_only=False, floats=None):
    """Bland's-rule simplex on ``cobj`` over the first ``n_allowed`` columns.

    The rows, the bounds and the cost vector hold exactly ``n_allowed``
    columns; a row held as tuples is shared and read-only, and ``_pivot``
    copies it before writing it.  Updates ``tab_n``, ``tab_o``, ``tab_e``,
    ``beta``, ``status`` and ``basis`` in place and returns the numbers of
    pivots and of bound flips.

    The shadow tests read the floats of ``floats``, a ``_Floats`` of the
    start the phases share (``_phase_two``), or of a fresh one.  A bound
    flip's moves are logged per row, not added to the basic values: each row
    keeps the ``(cap, entry)`` pairs since its last exact read, and the float
    running sums of the moves' floats and of their magnitudes, which the
    float flip tests read with an allowance for the moves' and the sum's
    rounding.  A move's float is the product of the cap's and the entry's
    floats; its exact value is formed only when the row's log is folded into
    its basic value, which happens when something reads the value exactly: a
    flip test the floats leave open, a pivot that moves the row, and the end
    of the phase.  At the end every row is folded, so every basic value is a
    reduced triple again; with ``costed_only`` only the rows whose basic
    column has a nonzero cost are, and the other basic values are left
    stale, for a caller that reads the optimum alone.
    """
    m = len(tab_n)
    if floats is None:
        floats = _Floats(beta, n_allowed)
    row_f = list(floats.rows)
    base, base_f = floats.beta, floats.beta_f
    lo_f, hi_f, caps = floats.lo_f, floats.hi_f, floats.caps
    # reduced costs c_j - sum_i c_B(i) tab[i][j], priced once, then kept
    dn = [c[0] for c in cobj]
    do = [c[1] for c in cobj]
    de = [c[2] for c in cobj]
    for i in range(m):
        cn, co, ce = cobj[basis[i]]
        if cn:
            _eliminate(dn, do, de, cn, co, ce, _entries(tab_n[i], tab_o[i], tab_e[i]))
    # the value of basic variable i is beta[i] plus the flip moves logged in
    # moves[i] since its last exact read (None for none); total[i] and
    # size[i] are the float running sums of the moves' floats and of their
    # magnitudes, size[i] inf once a move has no float the allowance covers;
    # shadow[i] is the float of beta[i], None until a flip test reads it
    moves = [None] * m
    total = [0.0] * m
    size = [0.0] * m
    shadow = [None] * m

    def read(i):
        """Fold row ``i``'s logged moves into its basic value."""
        beta[i] = _folded(beta[i], moves[i])
        moves[i] = shadow[i] = None
        total[i] = size[i] = 0.0

    first = 0
    pivots = flips = 0
    for _ in range(_MAX_ITER):
        entering = -1
        for j in range(first, n_allowed):
            s = status[j]
            if (s == _AT_LOWER and dn[j] > 0) or (s == _AT_UPPER and dn[j] < 0):
                entering = j
                up = s == _AT_LOWER
                break
        if entering < 0:
            for i, log in enumerate(moves):
                if log is not None and (not costed_only or cobj[basis[i]][0]):
                    beta[i] = _folded(beta[i], log)
            return pivots, flips
        # ratio test: smallest step that drives a basic variable to a
        # bound, capped by the entering variable's own bound flip.  While no
        # row undercuts the cap, a row is skipped if room >= cap * rate:
        # decided on the floats where their allowance settles it, else (and
        # for every other row) on its exact limit room / rate, its log
        # folded first
        cap = caps[entering]
        if cap is None:
            step = None if hi[entering] is None else _sub(hi[entering], lo[entering])
            cap = caps[entering] = (step, 0.0 if step is None else _shadow(step))
        step, step_f = cap
        leaving = -1
        hit_lower = True
        for i in range(m):
            an = tab_n[i][entering]
            if not an:
                continue
            b = basis[i]
            hits_low = (an > 0) == up    # the basic variable falls toward its lower bound
            bound = lo[b] if hits_low else hi[b]
            if bound is None:
                continue
            log = moves[i]
            # the shadow test, skipped on a zero room, which the exact test
            # decides at once
            if leaving < 0 and step_f >= _NORMAL and (log is not None or beta[i] != bound):
                value = shadow[i]
                if value is None:
                    v = beta[i]
                    if v is base[i]:
                        value = base_f[i]
                        if value is None:
                            value = base_f[i] = _shadow(v)
                    else:
                        value = _shadow(v)
                    shadow[i] = value
                entry_f = row_f[i][entering]
                if entry_f is None:
                    entry_f = row_f[i][entering] = _shadow((an, tab_o[i][entering],
                                                            tab_e[i][entering]))
                bounds_f = lo_f if hits_low else hi_f
                bound_f = bounds_f[b]
                if bound_f is None:
                    bound_f = bounds_f[b] = _shadow(bound)
                moved = total[i]
                rate_f = abs(entry_f)
                need = step_f * rate_f
                scale = abs(value) + abs(moved) + abs(bound_f) + need
                if _SMALL <= scale < inf and rate_f >= _NORMAL:
                    room = value + moved - bound_f if hits_low else bound_f - (value + moved)
                    allowance = scale * _SHADOW_ERROR
                    if log is not None:
                        # inf, and no verdict, once size[i] is
                        k = len(log)
                        allowance += (k + 4) * _ROUNDOFF * size[i] + k * _SUBNORMAL
                    if room - need > allowance:
                        continue
            if log is not None:
                read(i)
            rate = (abs(an), tab_o[i][entering], tab_e[i][entering])
            room = _sub(beta[i], bound) if hits_low else _sub(bound, beta[i])
            limit = _div(room, rate) if room[0] > 0 else _ZERO
            if step is None or _less(limit, step) or (limit == step and leaving >= 0
                                                      and b < basis[leaving]):
                step = limit
                leaving = i
                hit_lower = hits_low
        if step is None:
            raise ArithmeticError("unbounded linear program")
        if leaving < 0:
            if step[0]:
                # a flip by the cap ``step``: each row logs (cap, entry), and its
                # float is the product of the two floats
                normal = _NORMAL <= step_f < inf
                for i in range(m):
                    an = tab_n[i][entering]
                    if not an:
                        continue
                    a = (-an if up else an, tab_o[i][entering], tab_e[i][entering])
                    log = moves[i]
                    if log is None:
                        moves[i] = [(step, a)]
                    else:
                        log.append((step, a))
                    entry_f = row_f[i][entering]
                    if entry_f is None:
                        entry_f = row_f[i][entering] = _shadow((an, a[1], a[2]))
                    if up:
                        entry_f = -entry_f
                    f = step_f * entry_f
                    if normal and abs(entry_f) >= _NORMAL and abs(f) < inf:
                        total[i] += f
                        size[i] += abs(f)
                    else:
                        size[i] = inf
            # the basis and every reduced cost are unchanged, the columns
            # before ``entering`` stay non-improving and ``entering`` is not
            # improving at its other bound: Bland's scan resumes after it
            status[entering] = _AT_UPPER if up else _AT_LOWER
            first = entering + 1
            flips += 1
            continue
        if step[0]:
            # a pivot's step is a long quotient: into the basic values, after
            # each row's short logged moves
            for i in range(m):
                an = tab_n[i][entering]
                if not an or i == leaving:
                    continue
                a = (-an if up else an, tab_o[i][entering], tab_e[i][entering])
                if moves[i] is not None:
                    read(i)
                beta[i] = _add(beta[i], _mul(step, a))
                shadow[i] = None
        new_value = _add(lo[entering], step) if up else _sub(hi[entering], step)
        out = basis[leaving]
        status[out] = _AT_LOWER if hit_lower else _AT_UPPER
        written = [i for i in range(m) if tab_n[i][entering]]
        prow = _pivot(tab_n, tab_o, tab_e, leaving, entering)
        for i in written:
            row_f[i] = [None] * n_allowed
        basis[leaving] = entering
        status[entering] = _BASIC
        beta[leaving] = new_value
        moves[leaving] = shadow[leaving] = None
        total[leaving] = size[leaving] = 0.0
        _eliminate(dn, do, de, dn[entering], do[entering], de[entering], prow)
        first = 0
        pivots += 1
    raise ArithmeticError("simplex iteration limit exceeded")


def _feasible_start(a, rlo, rup, xlo, xup) -> _Start:
    """Phase 1 for ranged rows and per-variable boxes given as triples, exactly.

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
    tab_o = []
    tab_e = []
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
        tab_o.append([v[1] for v in row] + [1] * (2 * m))
        tab_e.append([v[2] for v in row] + [0] * (2 * m))
        beta.append((abs(resid[0]), resid[1], resid[2]))
        basis.append(n + m + i)

    phase1 = [_ZERO] * (n + m) + [(-1, 1, 0)] * m
    _run_phase(tab_n, tab_o, tab_e, beta, status, basis, lo, hi, phase1, ncols)
    infeasibility = _ZERO
    for i in range(m):
        if basis[i] >= n + m:
            infeasibility = _add(infeasibility, beta[i])
    if infeasibility[0] > 0:
        raise LinearProgramInfeasible(f"phase-1 residual {_float(infeasibility):.3e}")

    # drive leftover zero-level artificials out of the basis.  Each row's
    # slack column starts as +-1 times its artificial column and row
    # operations keep that relation, so a basic artificial always has a
    # nonzero entry in its own nonbasic slack column and no artificial
    # stays basic, redundant rows included (``test_duplicated_row``).  Phase
    # 2 then never reads the artificial columns, and the start drops them
    for i in range(m):
        if basis[i] < n + m:
            continue
        for j in range(n + m):
            if status[j] != _BASIC and tab_n[i][j]:
                status[basis[i]] = _AT_LOWER
                _pivot(tab_n, tab_o, tab_e, i, j)
                beta[i] = lo[j] if status[j] == _AT_LOWER else hi[j]
                basis[i] = j
                status[j] = _BASIC
                break

    w = n + m
    return _Start(n=n, tab_n=tuple(tuple(r[:w]) for r in tab_n),
                  tab_o=tuple(tuple(r[:w]) for r in tab_o),
                  tab_e=tuple(tuple(r[:w]) for r in tab_e), beta=tuple(beta),
                  status=tuple(status[:w]), basis=tuple(basis), lo=tuple(lo[:w]),
                  hi=tuple(hi[:w]))


# the start phase 2 last ran on and its ``_Floats``: the nine targets of a
# configuration run on one start in turn, and a start, thousands of long
# ints, is matched by identity
_last_floats = None


def _phase_two(start: _Start, c, costed_only=False):
    """Phase 2 on ``start``: the optimum of c.x as a float, and the basic
    values, statuses and basis it ends on.

    The rows are the start's own, shared read-only by every phase 2 on it; a
    pivot copies a row before writing it (``_pivot``).  So are the floats the
    shadow tests read, a ``_Floats`` kept for the start phase 2 last ran on.
    With ``costed_only`` only the basic values of costed columns are folded
    (``_run_phase``), the ones the optimum reads.
    """
    global _last_floats
    n, m = start.n, len(start.tab_n)
    if len(c) != n:
        raise ValueError(f"the objective must have {n} entries, got {len(c)}")
    cvec = [_ZERO if v == 0 else _number(v) for v in c]
    if _last_floats is None or _last_floats[0] is not start:
        _last_floats = (start, _Floats(start.beta, n + m))
    beta, status, basis = list(start.beta), list(start.status), list(start.basis)
    lo, hi = start.lo, start.hi
    _run_phase(list(start.tab_n), list(start.tab_o), list(start.tab_e), beta, status, basis,
               lo, hi, cvec + [_ZERO] * m, n + m, costed_only=costed_only,
               floats=_last_floats[1])
    row = {b: i for i, b in enumerate(basis)}
    optimum = _ZERO
    for j, cj in enumerate(cvec):
        if cj[0]:
            s = status[j]
            xj = beta[row[j]] if s == _BASIC else hi[j] if s == _AT_UPPER else lo[j]
            if xj[0]:
                optimum = _add(optimum, _mul(cj, xj))
    return _float(optimum), beta, status, basis


def _maximize(start: _Start, c):
    """Phase 2 on ``start``: (optimum, x) of c.x as floats."""
    optimum, beta, status, basis = _phase_two(start, c)
    n = start.n
    x = [start.hi[j] if status[j] == _AT_UPPER else start.lo[j] for j in range(n)]
    for b, v in zip(basis, beta):
        if b < n:
            x[b] = v
    return optimum, [_float(v) for v in x]


def _optimum(start: _Start, c) -> float:
    """``_maximize(start, c)[0]``, with the same pivots and bits, from a phase 2
    that folds only the rows the optimum reads."""
    return _phase_two(start, c, costed_only=True)[0]


def solve_bounded_lp(c, a, row_lower, row_upper, x_lower, x_upper):
    """Maximize c.x with ranged rows and per-variable boxes, exactly.

    Returns (optimum, x) as floats; raises ``LinearProgramInfeasible`` when
    the constraints admit no point and ``ValueError`` when the lengths
    disagree or a value is not finite.  All inputs may be ints, floats
    (converted exactly) or rationals such as Fractions.
    """
    def numbers(values):
        return [_number(v) for v in values]

    start = _feasible_start([numbers(row) for row in a], numbers(row_lower),
                            numbers(row_upper), numbers(x_lower), numbers(x_upper))
    return _maximize(start, c)
