"""The exact simplex's phase routine against a frozen copy of its plain form.

``_frozen_run_phase`` is ``simplex._run_phase`` as it was before bound flips
were decided on a float shadow and their moves deferred: every flip tests
every row and updates every basic value exactly.  Each test runs one solve
with the library's routine and once with the frozen copy in its place and
requires, after every phase, the same basis, statuses, canonical basic
values and pivot and flip counts, and the same result (or the same
exception).  The frozen copy also logs its flip tests, so each hand-built
LP below can show that it reaches the comparison it was built for.
"""

from fractions import Fraction

import numpy as np
import pytest

from test_oracles import (_canonical, _certify_like, _constructed_profile, _fraction,
                          _phase_one, _random_lps, _verify_like)
from tfqkd.channel import GainMatrix
from tfqkd.decoy3 import TARGETS_3
from tfqkd.dyadic import _ONE, _ZERO, _add, _div, _less, _mul, _sub
from tfqkd.oracles import lp_bounds, simplex
from tfqkd.oracles.simplex import (_AT_LOWER, _AT_UPPER, _BASIC, _MAX_ITER, _eliminate,
                                   _entries, _feasible_start, _maximize, _number, _optimum,
                                   _pivot, solve_bounded_lp)


def _frozen_reaches(room, step, rate) -> bool:
    lhs = room[0] * step[1] * rate[1]
    rhs = step[0] * rate[0] * room[1]
    k = step[2] + rate[2] - room[2]
    return lhs << k >= rhs if k >= 0 else lhs >= rhs << -k


def _frozen_run_phase(tab_n, tab_o, tab_e, beta, status, basis, lo, hi, cobj, n_allowed,
                      log=None):
    """The plain phase routine; returns (pivots, flips) and appends each flip
    test's ``(room, step, rate, verdict)`` to ``log``."""
    m = len(tab_n)
    dn = [c[0] for c in cobj[:n_allowed]]
    do = [c[1] for c in cobj[:n_allowed]]
    de = [c[2] for c in cobj[:n_allowed]]
    for i in range(m):
        cn, co, ce = cobj[basis[i]]
        if cn:
            _eliminate(dn, do, de, cn, co, ce, _entries(tab_n[i], tab_o[i], tab_e[i]))
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
            return pivots, flips
        step = None if hi[entering] is None else _sub(hi[entering], lo[entering])
        leaving = -1
        hit_lower = True
        for i in range(m):
            an = tab_n[i][entering]
            if not an:
                continue
            b = basis[i]
            hits_low = (an > 0) == up
            if hits_low:
                room = _sub(beta[i], lo[b])
            elif hi[b] is None:
                continue
            else:
                room = _sub(hi[b], beta[i])
            rate = (abs(an), tab_o[i][entering], tab_e[i][entering])
            if leaving < 0 and step is not None:
                reaches = _frozen_reaches(room, step, rate)
                if log is not None:
                    log.append((room, step, rate, reaches))
                if reaches:
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
                    a = (an, tab_o[i][entering], tab_e[i][entering])
                    move = a if unit else _mul(step, a)
                    beta[i] = _sub(beta[i], move) if up else _add(beta[i], move)
        if leaving < 0:
            status[entering] = _AT_UPPER if up else _AT_LOWER
            first = entering + 1
            flips += 1
            continue
        new_value = _add(lo[entering], step) if up else _sub(hi[entering], step)
        out = basis[leaving]
        status[out] = _AT_LOWER if hit_lower else _AT_UPPER
        prow = _pivot(tab_n, tab_o, tab_e, leaving, entering)
        basis[leaving] = entering
        status[entering] = _BASIC
        beta[leaving] = new_value
        _eliminate(dn, do, de, dn[entering], do[entering], de[entering], prow)
        first = 0
        pivots += 1
    raise ArithmeticError("simplex iteration limit exceeded")


_LIBRARY_RUN_PHASE = simplex._run_phase


def _recorded(monkeypatch, run, solve, log=None):
    """``solve()`` with ``run`` as the phase routine: its result (or exception
    type and message) and, per phase, basis, statuses, basic values and the
    (pivots, flips) the routine returns.  The library's keywords (the shared
    floats of ``_phase_two``) go to ``run`` only without a ``log``; the
    frozen copy takes the number of columns and the log instead."""
    phases = []

    def recording(tab_n, tab_o, tab_e, beta, status, basis, lo, hi, cobj, **kwargs):
        if log is None:
            counts = run(tab_n, tab_o, tab_e, beta, status, basis, lo, hi, cobj, **kwargs)
        else:
            counts = run(tab_n, tab_o, tab_e, beta, status, basis, lo, hi, cobj, len(cobj),
                         log=log)
        assert all(map(_canonical, beta))
        phases.append((tuple(basis), tuple(status), tuple(beta), counts))

    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_run_phase", recording)
        try:
            result = solve()
        except (ArithmeticError, ValueError, simplex.LinearProgramInfeasible) as exc:
            result = (type(exc).__name__, str(exc))
    return result, phases


def _same_as_frozen(monkeypatch, solve):
    """Require the library's phases and result to be the frozen copy's; return
    the frozen copy's flip-test log."""
    log = []
    want = _recorded(monkeypatch, _frozen_run_phase, solve, log)
    got = _recorded(monkeypatch, _LIBRARY_RUN_PHASE, solve)
    assert got == want
    return log


def _targets_solve(start_of, side, targets):
    """A solve that builds a start, then runs phase 2 for each target."""
    def solve():
        start = start_of()
        results = []
        for u, v in targets:
            c = [0] * (side * side)
            c[u * side + v] = 1
            results.append(_maximize(start, c))
        return results
    return solve


class TestMatchesFrozenPhase:
    """Same phases, counts and results as the frozen copy on the LPs the
    package solves."""

    @pytest.mark.parametrize("decoys,seed", [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)])
    def test_certify_like(self, decoys, seed, monkeypatch):
        gains, mu, nu = _certify_like(np.random.default_rng([decoys, seed]), decoys)
        n_trunc = lp_bounds.DEFAULT_TRUNCATION
        log = _same_as_frozen(monkeypatch, _targets_solve(
            lambda: lp_bounds._start.__wrapped__(gains.q, mu, nu, n_trunc), n_trunc + 1,
            TARGETS_3))
        assert any(reaches for *_, reaches in log)

    @pytest.mark.parametrize("seed,index", [(1, 0), (1, 1), (1, 7), (2, 1)])
    def test_verify_draws_both_starts(self, seed, index, monkeypatch):
        # the product start, and phase 1's start on the same rows
        gains, mu, nu = _verify_like(seed, index)
        n_trunc = lp_bounds.DEFAULT_TRUNCATION
        for start_of in (lambda: lp_bounds._start.__wrapped__(gains.q, mu, nu, n_trunc),
                         lambda: _phase_one(gains.q, mu, nu, n_trunc)):
            _same_as_frozen(monkeypatch, _targets_solve(start_of, n_trunc + 1, TARGETS_3))

    @pytest.mark.slow
    def test_constructed_profile_both_phases(self, monkeypatch):
        # 51 phase-1 and 167 phase-2 pivots
        gains, mu, nu = _constructed_profile()
        _same_as_frozen(monkeypatch, _targets_solve(
            lambda: lp_bounds._start.__wrapped__(gains.q, mu, nu, 10), 11, [(1, 2)]))

    def test_random_lps(self, monkeypatch):
        for c, a, lower, upper in _random_lps():
            n = len(c)
            _same_as_frozen(monkeypatch, lambda: solve_bounded_lp(c, a, lower, upper,
                                                                 np.zeros(n), np.ones(n)))

    def test_zero_gains_both_starts(self, monkeypatch):
        # phase 1's start, and the fully degenerate product start
        gains, mu, nu = GainMatrix(q=((0.0,) * 3,) * 3), (0.1, 1e-2, 1e-3), (0.1, 1e-2, 1e-3)
        n_trunc = 8

        def product_start():
            factors = lp_bounds._factors(mu, nu, n_trunc)
            scales, lower, upper = lp_bounds._windows(gains.q, mu, nu, factors)
            return lp_bounds._product_start(mu, nu, n_trunc, factors, scales, lower, upper)

        for start_of in (lambda: lp_bounds._start.__wrapped__(gains.q, mu, nu, n_trunc),
                         product_start):
            _same_as_frozen(monkeypatch, _targets_solve(start_of, n_trunc + 1,
                                                        [(0, 0), (1, 1), (0, 2)]))


def _rows_as_eager(monkeypatch, solve):
    """``solve()`` with each phase run by the library's routine and by the
    frozen copy on copies of its inputs; requires every phase to end with
    the same tableau (``tab_n``, ``tab_o``, ``tab_e``), basic values,
    statuses, basis and counts, entry for entry.  Returns the phases'
    (pivots, flips)."""
    counts = []

    def both(tab_n, tab_o, tab_e, beta, status, basis, lo, hi, cobj, **kwargs):
        tabs = [[list(r) for r in tab] for tab in (tab_n, tab_o, tab_e)]
        state = [list(beta), list(status), list(basis)]
        want = _frozen_run_phase(*tabs, *state, lo, hi, cobj, len(cobj))
        got = _LIBRARY_RUN_PHASE(tab_n, tab_o, tab_e, beta, status, basis, lo, hi, cobj,
                                 **kwargs)
        assert got == want
        assert [[tuple(r) for r in tab] for tab in (tab_n, tab_o, tab_e)] == \
            [[tuple(r) for r in tab] for tab in tabs]
        assert [beta, status, basis] == state
        counts.append(got)
        return got

    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_run_phase", both)
        try:
            solve()
        except simplex.LinearProgramInfeasible:
            pass
    return counts


class TestDeferredRows:
    """A pivot writes its own row and the other rows of its column record it,
    applying it to an entry when the entry is read.  A phase that ends with
    every row current (phase 1, ``_maximize``'s phase 2) leaves the tableau
    the eager update of the frozen copy leaves, entry for entry."""

    @pytest.mark.parametrize("decoys,seed", [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)])
    def test_certify_like(self, decoys, seed, monkeypatch):
        gains, mu, nu = _certify_like(np.random.default_rng([decoys, seed]), decoys)
        n_trunc = lp_bounds.DEFAULT_TRUNCATION
        counts = _rows_as_eager(monkeypatch, _targets_solve(
            lambda: lp_bounds._start.__wrapped__(gains.q, mu, nu, n_trunc), n_trunc + 1,
            TARGETS_3))
        assert len(counts) == 9

    @pytest.mark.parametrize("seed,index", [(1, 0), (1, 1), (1, 7), (2, 1)])
    def test_verify_draws_both_starts(self, seed, index, monkeypatch):
        gains, mu, nu = _verify_like(seed, index)
        n_trunc = lp_bounds.DEFAULT_TRUNCATION
        for start_of in (lambda: lp_bounds._start.__wrapped__(gains.q, mu, nu, n_trunc),
                         lambda: _phase_one(gains.q, mu, nu, n_trunc)):
            counts = _rows_as_eager(monkeypatch, _targets_solve(start_of, n_trunc + 1,
                                                                TARGETS_3))
            assert sum(pivots for pivots, _ in counts) > 0

    def test_random_lps_phase_one(self, monkeypatch):
        # phase 1 pivots more than once on 83 of the 100, infeasible ones
        # included, so rows record several pivots before the end
        pivoted = 0
        for c, a, lower, upper in _random_lps():
            n = len(c)
            counts = _rows_as_eager(monkeypatch, lambda: solve_bounded_lp(
                c, a, lower, upper, np.zeros(n), np.ones(n)))
            pivoted += counts[0][0] > 1
        assert pivoted > 50


def _counted(monkeypatch, read):
    """``read()`` and the (pivots, flips) of each phase it runs."""
    counts = []

    def counting(*args, **kwargs):
        counts.append(_LIBRARY_RUN_PHASE(*args, **kwargs))
        return counts[-1]

    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_run_phase", counting)
        result = read()
    return result, counts


def _same_optimum(monkeypatch, start, costs):
    """``_optimum`` gives ``_maximize``'s optimum bits with the same counts."""
    for c in costs:
        want, want_counts = _counted(monkeypatch, lambda: _maximize(start, c)[0])
        got, got_counts = _counted(monkeypatch, lambda: _optimum(start, c))
        assert (got.hex(), got_counts) == (want.hex(), want_counts)


def _unit_costs(side, targets):
    costs = []
    for u, v in targets:
        c = [0] * (side * side)
        c[u * side + v] = 1
        costs.append(c)
    return costs


class TestOptimumReader:
    """The reader of ``lp_yield_bound``, which folds only the rows of costed
    basic columns at the end of phase 2, against ``_maximize``."""

    @pytest.mark.parametrize("decoys,seed", [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)])
    def test_certify_like(self, decoys, seed, monkeypatch):
        gains, mu, nu = _certify_like(np.random.default_rng([decoys, seed]), decoys)
        n_trunc = lp_bounds.DEFAULT_TRUNCATION
        _same_optimum(monkeypatch, lp_bounds._start.__wrapped__(gains.q, mu, nu, n_trunc),
                      _unit_costs(n_trunc + 1, TARGETS_3))

    @pytest.mark.parametrize("seed,index", [(1, 0), (1, 1), (1, 7), (2, 1)])
    def test_verify_draws_both_starts(self, seed, index, monkeypatch):
        gains, mu, nu = _verify_like(seed, index)
        n_trunc = lp_bounds.DEFAULT_TRUNCATION
        for start in (lp_bounds._start.__wrapped__(gains.q, mu, nu, n_trunc),
                      _phase_one(gains.q, mu, nu, n_trunc)):
            _same_optimum(monkeypatch, start, _unit_costs(n_trunc + 1, TARGETS_3))

    def test_random_lps(self, monkeypatch):
        solved = 0
        for c, a, lower, upper in _random_lps():
            n = len(c)
            try:
                start = _feasible_start([list(map(_number, row)) for row in a],
                                        list(map(_number, lower)), list(map(_number, upper)),
                                        [_number(0)] * n, [_number(1)] * n)
            except simplex.LinearProgramInfeasible:
                continue
            _same_optimum(monkeypatch, start, [c])
            solved += 1
        assert solved == 35    # the others are infeasible


def _unchanged_floats(start):
    """Every float the phase 2s on ``start`` filled in its shared ``_Floats``
    is the float of the start's own number: no pivot wrote a shared row."""
    last, floats = simplex._last_floats
    assert last is start
    for i, row in enumerate(floats.rows):
        for j, f in enumerate(row):
            assert f is None or f == simplex._shadow((start.tab_n[i][j], start.tab_o[i][j],
                                                      start.tab_e[i][j]))
    for f, v in zip(floats.beta_f, start.beta):
        assert f is None or f == simplex._shadow(v)
    for fs, vs in ((floats.lo_f, start.lo), (floats.hi_f, start.hi)):
        assert all(f is None or f == simplex._shadow(v) for f, v in zip(fs, vs))
    return sum(f is not None for row in floats.rows for f in row)


class TestSharedStart:
    """The nine phase 2s of ``lp_yield_bound`` on one start read its rows in
    place and share its floats: the targets give the same optimum bits and
    (pivots, flips) forward and in reverse, and the start, its rows and its
    floats are as built afterwards.  ``TestOptimumReader`` compares the
    same optima with ``_maximize``'s, whose phases share the same floats."""

    @staticmethod
    def _orders(monkeypatch, start_of, side):
        start = start_of()
        costs = _unit_costs(side, TARGETS_3)

        def read(first, c):
            return _counted(monkeypatch, lambda: _optimum(first, c))

        forward = [read(start, c) for c in costs]
        backward = [read(start, c) for c in reversed(costs)][::-1]
        assert [(opt.hex(), counts) for opt, counts in forward] == \
            [(opt.hex(), counts) for opt, counts in backward]
        assert _unchanged_floats(start) > 0
        # a fresh start of the same configuration: rows, basic values,
        # statuses, basis and bounds
        assert start == start_of()
        return sum(counts[0][0] for _, counts in forward)

    @pytest.mark.parametrize("decoys,seed", [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)])
    def test_certify_like(self, decoys, seed, monkeypatch):
        gains, mu, nu = _certify_like(np.random.default_rng([decoys, seed]), decoys)
        n_trunc = lp_bounds.DEFAULT_TRUNCATION
        self._orders(monkeypatch, lambda: lp_bounds._start.__wrapped__(gains.q, mu, nu, n_trunc),
                     n_trunc + 1)

    @pytest.mark.parametrize("seed,index", [(1, 0), (1, 1), (1, 7), (2, 1)])
    def test_verify_draws_both_starts(self, seed, index, monkeypatch):
        gains, mu, nu = _verify_like(seed, index)
        n_trunc = lp_bounds.DEFAULT_TRUNCATION
        for start_of in (lambda: lp_bounds._start.__wrapped__(gains.q, mu, nu, n_trunc),
                         lambda: _phase_one(gains.q, mu, nu, n_trunc)):
            # each start's phase 2s pivot
            assert self._orders(monkeypatch, start_of, n_trunc + 1) > 0

    def test_pivots_copy_only_the_rows_they_write(self):
        # the rows of a start are tuples; a pivot turns into lists exactly the
        # pivot row and the rows with a nonzero entry in its column
        gains, mu, nu = _certify_like(np.random.default_rng([4, 0]), 4)
        start = lp_bounds._start.__wrapped__(gains.q, mu, nu, lp_bounds.DEFAULT_TRUNCATION)
        tab_n, tab_o, tab_e = start.tab_n, start.tab_o, start.tab_e
        rows = [list(tab) for tab in (tab_n, tab_o, tab_e)]
        col = next(j for j in range(len(tab_n[0])) if 0 < sum(bool(r[j]) for r in tab_n) < 4)
        written = [i for i, r in enumerate(tab_n) if r[col]]
        _pivot(*rows, written[0], col)
        for tab, shared in zip(rows, (tab_n, tab_o, tab_e)):
            assert [i for i, r in enumerate(tab) if r is not shared[i]] == written
            assert all(type(tab[i]) is list for i in written)


class TestShadowCounts:
    """How decisive the float shadow is: the nine phase 2s of ``lp_yield_bound``
    on a fresh start of each configuration make these numbers of pivots, bound
    flips and exact reads (``_folded``).  A looser allowance leaves more flip
    tests to the exact arithmetic and folds more often, with the same optima."""

    # (decoys, seed): (pivots, flips, folds) of the nine targets
    COUNTS = {(3, 0): (2, 127, 6), (3, 1): (7, 189, 8), (3, 2): (0, 45, 5),
              (4, 0): (16, 264, 13), (4, 1): (16, 264, 13), (4, 2): (16, 264, 13)}

    @pytest.mark.parametrize("decoys,seed", COUNTS)
    def test_certify_like(self, decoys, seed, monkeypatch):
        gains, mu, nu = _certify_like(np.random.default_rng([decoys, seed]), decoys)
        n_trunc = lp_bounds.DEFAULT_TRUNCATION
        start = lp_bounds._start.__wrapped__(gains.q, mu, nu, n_trunc)
        folds = []
        folded = simplex._folded

        def counted(*args):
            folds.append(None)
            return folded(*args)

        monkeypatch.setattr(simplex, "_folded", counted)
        phases = [_counted(monkeypatch, lambda: _optimum(start, c))[1]
                  for c in _unit_costs(n_trunc + 1, TARGETS_3)]
        pivots, flips = (sum(p[0][k] for p in phases) for k in (0, 1))
        assert (pivots, flips, len(folds)) == self.COUNTS[decoys, seed]


class TestEliminatedEntries:
    """How much of the tableau the nine phase 2s of ``lp_yield_bound`` form:
    the entries they pass to ``_eliminate``, pricing and the reduced-cost
    row included, on the configurations of ``TestShadowCounts``.  Rewriting
    every row of a pivot's column at the pivot passes 990 / 2,880 / 450 and
    7,120 for each 4-decoy configuration."""

    COUNTS = {(3, 0): 822, (3, 1): 2042, (3, 2): 450,
              (4, 0): 3826, (4, 1): 3826, (4, 2): 3826}

    @pytest.mark.parametrize("decoys,seed", COUNTS)
    def test_certify_like(self, decoys, seed, monkeypatch):
        gains, mu, nu = _certify_like(np.random.default_rng([decoys, seed]), decoys)
        n_trunc = lp_bounds.DEFAULT_TRUNCATION
        start = lp_bounds._start.__wrapped__(gains.q, mu, nu, n_trunc)
        entries = []
        eliminate = simplex._eliminate

        def counted(rn, ro, re, fn, fo, fe, pivot_row):
            entries.append(len(pivot_row))
            eliminate(rn, ro, re, fn, fo, fe, pivot_row)

        monkeypatch.setattr(simplex, "_eliminate", counted)
        for c in _unit_costs(n_trunc + 1, TARGETS_3):
            _optimum(start, c)
        assert sum(entries) == self.COUNTS[decoys, seed]


def _gaps(log):
    """``room - step * rate`` of each logged flip test, exactly."""
    return [_fraction(room) - _fraction(step) * _fraction(rate) for room, step, rate, _ in log]


_THIRD = Fraction(1, 3)
_TINY = Fraction(1, 10 ** 30)
_HUGE = 3 ** 700    # about 1e334, past the double range


class TestShadowEdges:
    """Hand-built LPs whose flip tests sit where a float test without its
    error bound, or with a weakened comparison, would decide wrongly; each
    runs through ``solve_bounded_lp`` as the frozen copy runs it.

    The LP max c.x over one row lower <= x0 + r x1 (+ r2 x2) <= upper makes
    x0 basic after phase 1, at the row's lower end; in phase 2 x1 enters
    with the flip cap 1 and the test is x0's room >= 1 * r."""

    @staticmethod
    def _solve(monkeypatch, c, a, lower, upper, x_lower, x_upper):
        return _same_as_frozen(monkeypatch, lambda: solve_bounded_lp(c, [a], [lower], [upper],
                                                                    x_lower, x_upper))

    def test_room_equal_to_step_times_rate(self, monkeypatch):
        log = self._solve(monkeypatch, [0, 1], [1, _THIRD], _THIRD, 2, [0, 0], [5, 1])
        assert 0 in _gaps(log)

    @pytest.mark.parametrize("side", [-1, 1])
    def test_room_within_1e_30_of_step_times_rate(self, side, monkeypatch):
        lower = _THIRD * (1 + side * _TINY)
        log = self._solve(monkeypatch, [0, 1], [1, _THIRD], lower, 2, [0, 0], [5, 1])
        assert any(gap and abs(gap) <= _THIRD * _TINY and (gap > 0) == (side > 0)
                   for gap in _gaps(log))

    def test_pending_sum_rounds_across_the_test(self, monkeypatch):
        # x1 flips, leaving x0 = 1 - r1 pending; then x2's test reads
        # 1 - r1 < r2 by 2**-121, but fl(1 - fl(r1)) = 1.0 > fl(r2) = 1 - 2**-53
        r1 = Fraction(1, 2 ** 54) + Fraction(1, 2 ** 120)
        r2 = 1 - Fraction(1, 2 ** 54) - Fraction(1, 2 ** 121)
        log = self._solve(monkeypatch, [0, 1, 1], [1, r1, r2], 1, 2, [0, 0, 0], [5, 1, 1])
        assert -Fraction(1, 2 ** 121) in _gaps(log)
        assert 1.0 - float(r1) == 1.0 and float(r2) == 1 - 2 ** -53

    def test_moves_round_the_same_way(self, monkeypatch):
        # x1..x4 flip, moving x0 by +(1 - y), -(1 + x), +(1 - y), -(1 + x):
        # each float rounds up, to +-1, so the running sum reads 0 where the
        # moves sum to -2 (x + y).  x5's test then reads low >= a5 on the
        # floats, clear of the first part of the allowance, while exactly x0
        # = low - 2 (x + y) falls 2**-70 short of a5: only the part for the
        # moves' rounding, (k + 4) u M_k = 32 u, sends it to the exact test
        x, y, low = Fraction(1, 2 ** 54), Fraction(1, 2 ** 55), Fraction(1, 2 ** 10)
        a5 = low - 2 * (x + y) + Fraction(1, 2 ** 70)
        log = self._solve(monkeypatch, [0, 1, 1, 1, 1, 1],
                          [1, -(1 - y), 1 + x, -(1 - y), 1 + x, a5], low, 10,
                          [0] * 6, [4, 1, 1, 1, 1, 1])
        assert -Fraction(1, 2 ** 70) in _gaps(log)
        assert float(1 - y) == 1.0 and float(-(1 + x)) == -1.0
        room, need = float(low) + (1.0 - 1.0 + 1.0 - 1.0), float(a5)
        assert room - need > 2.0 ** -50 * (room + need)

    def test_capped_moves_round_three_times(self, monkeypatch):
        # the row -x0 + r1 x1 - r2 x2 within [-low, w - low] makes x0 basic at
        # low.  x1 and x2 flip with caps c1, c2 other than 1, moving x0 by
        # +c1 r1 and -c2 r2, each near 1: the caps' and the entries' floats
        # and the products of those floats all round the same way, so each
        # move's float is about 3u above the move.  The slack then flips down
        # across its window w, moving x0 by -w: exactly x0's room falls
        # 2**-80 short of w, while the floats read it about 6u over, above
        # the first part of the allowance and above (k + 1/8) u M_k = 4.25u,
        # which would cover one rounding per move; only the second part,
        # (k + 4) u M_k = 12u, which covers three per move, sends it to the
        # exact test
        u = Fraction(1, 2 ** 53)

        def rounding(i, up):
            # within 2**-73 of the midpoint below or above 1 + i 2**-52
            return 1 + Fraction(i, 2 ** 52) + (-u if up else u) * (1 - Fraction(1, 2 ** 20))

        c1, r1 = rounding(2 ** 26, True), rounding(2 ** 25 + 1, True)
        c2, r2 = rounding(2 ** 26, False), rounding(2 ** 25 - 1, False)
        low = Fraction(1, 2 ** 10)
        w = low + c1 * r1 - c2 * r2 + Fraction(1, 2 ** 80)
        log = self._solve(monkeypatch, [-Fraction(1, 2 ** 20), 1, 1], [-1, r1, -r2], -low,
                          w - low, [0, 0, 0], [4, c1, c2])
        assert -Fraction(1, 2 ** 80) in _gaps(log)
        f1, f2 = float(c1) * float(r1), -(float(c2) * float(r2))
        assert Fraction(f1) - c1 * r1 > 2.99 * u and Fraction(f2) + c2 * r2 > 2.99 * u
        room, need, size = float(low) + (f1 + f2), float(w), abs(f1) + abs(f2)
        assert room - need > 2.0 ** -50 * (room + need) + (2 + 1 / 8) * 2.0 ** -53 * size

    @pytest.mark.parametrize("rate,cap,lower", [
        # the rate's float is subnormal, 2**-1074 for 1.4 * 2**-1074: the
        # float product is 2**-974, under the room 1.2 * 2**-974
        (Fraction(7, 5) / 2 ** 1074, 2 ** 100, Fraction(6, 5) / 2 ** 974),
        # the rate's float is 0; the cap * rate is 1.5 * 2**-900 > room
        (Fraction(3, 2) / 2 ** 1100, 2 ** 200, Fraction(1, 2 ** 900)),
    ], ids=["subnormal", "zero"])
    def test_rate_float_subnormal_or_zero(self, rate, cap, lower, monkeypatch):
        log = self._solve(monkeypatch, [0, 1], [1, rate], lower, 1, [0, 0], [5, cap])
        assert float(rate) < 2.0 ** -1022 and any(gap < 0 for gap in _gaps(log))

    def test_room_and_product_in_the_subnormal_range(self, monkeypatch):
        # s = 2**-1074.  After x1 flips, x0's room is 2**-1062 + 2**-1099,
        # whose shadow is fl(L) + fl(-r1) = 2**-1062 + s; x2's cap * rate is
        # 2**-1062 + s / 4, rounded to 2**-1062: the shadow's difference s
        # is above any relative allowance, which underflows to 0
        s = Fraction(1, 2 ** 1074)
        lower = Fraction(1, 2 ** 1062) + s / 2 + Fraction(1, 2 ** 1100)
        r1 = s / 2 - Fraction(1, 2 ** 1100)
        r2 = Fraction(1, 2 ** 1022) + Fraction(1, 2 ** 1036)
        log = self._solve(monkeypatch, [0, 1, 1], [1, r1, r2], lower, 1, [0, 0, 0],
                          [1, 1, Fraction(1, 2 ** 40)])
        assert -(s / 4 - Fraction(1, 2 ** 1099)) in _gaps(log)
        assert float(lower) - float(r1) == 2.0 ** -1062 + 2.0 ** -1074
        assert float(r2) * 2.0 ** -40 == 2.0 ** -1062

    @pytest.mark.parametrize("extra", [0, 1])
    def test_value_past_the_double_range(self, extra, monkeypatch):
        # x0 = 3**700 + extra after phase 1: its float overflows
        log = self._solve(monkeypatch, [0, 1], [1, _HUGE], _HUGE + extra, 2 * _HUGE,
                          [0, 0], [2 * _HUGE, 1])
        assert _gaps(log)[-1] == extra
        with pytest.raises(OverflowError):
            float(_HUGE)

    @pytest.mark.parametrize("x0_top", [2, Fraction(5, 3), 2 + _TINY, 2 - _TINY])
    def test_slack_flips_across_its_window(self, x0_top, monkeypatch):
        # max x0: the slack enters, falling across its window 5/3 with rate
        # 1 in x0's row, whose room is x0_top - 1/3
        log = self._solve(monkeypatch, [1, 0], [1, _THIRD], _THIRD, 2, [0, 0], [x0_top, 1])
        assert any(_fraction(step) == Fraction(5, 3) for _, step, _, _ in log)
