"""Verification layer: Fock enumeration, gain series, exact LP."""

import copy
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from tfqkd.channel import (ChannelParams, GainMatrix, IntensitySettings,
                           simulate_gains, standard_noise, theoretical_yield)
from tfqkd.decoy3 import TARGETS_3
from tfqkd.decoy4 import yield_bounds
from tfqkd.errors import InconsistentGainsError, TfqkdError
from tfqkd.oracles import (dark_adjusted_yield, fock_yield, lp_bounds, lp_yield_bound,
                           series_gain, simplex, solve_bounded_lp)
from tfqkd.oracles.fock import gain_reconstruction_error
from tfqkd.oracles.simplex import (_AT_LOWER, _AT_UPPER, _BASIC, LinearProgramInfeasible,
                                   _feasible_start, _maximize, _number)
from tfqkd.oracles.simplex import _Start as _SimplexStart

GOLDEN_LP = json.loads((Path(__file__).parent / "data" / "golden_lp.json").read_text())


def _fraction(v) -> Fraction:
    """A simplex number, the triple ``(n, o, e)`` for ``n / (o * 2**e)``, as a ``Fraction``."""
    n, o, e = v
    return Fraction(n, o << e) if e >= 0 else Fraction(n << -e, o)


def _canonical(v) -> bool:
    """``n`` odd, ``o`` odd and positive, ``gcd(n, o) == 1``; zero is ``(0, 1, 0)``."""
    n, o, e = v
    if not n:
        return v == (0, 1, 0)
    return n & 1 == 1 and o > 0 and o & 1 == 1 and math.gcd(n, o) == 1


class TestFockYield:
    def test_vacuum(self):
        params = standard_noise(20, 20)
        assert fock_yield(params, 0, 0) == 0.0

    def test_single_photon_aligned(self):
        params = ChannelParams(eta_a=0.42, eta_b=0.9)
        assert fock_yield(params, 1, 0) == pytest.approx(0.21, rel=1e-12)

    def test_agrees_with_closed_form_up_to_eight_photons(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            params = ChannelParams(eta_a=float(rng.uniform(0.01, 1.0)),
                                   eta_b=float(rng.uniform(0.01, 1.0)),
                                   theta_a=float(rng.uniform(-0.5, 0.5)),
                                   theta_b=float(rng.uniform(-0.5, 0.5)))
            for n in range(0, 9):
                for m in range(0, 9 - n):
                    assert fock_yield(params, n, m) == pytest.approx(
                        theoretical_yield(params, n, m), abs=1e-10)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            fock_yield(standard_noise(10, 10), 7, 6)


class TestSeriesGain:
    def test_vacuum_no_darks(self):
        params = standard_noise(10, 30, p_d=0.0)
        assert series_gain(params, 0.0, 0.0) == 0.0

    def test_matches_closed_form_without_darks(self):
        params = standard_noise(10, 30, p_d=0.0)
        err, tol = gain_reconstruction_error(params, 0.1, 0.05, 40)
        assert err <= tol + 1e-15

    def test_matches_closed_form_with_darks(self):
        # the documented dark-count augmentation restores exact agreement
        params = standard_noise(10, 30, p_d=1e-7)
        err, tol = gain_reconstruction_error(params, 0.1, 0.05, 40)
        assert err <= tol + 1e-15

    def test_admissible_tail_is_the_poisson_tail(self):
        # summed from the first excluded term: one minus the head reads 0.0
        _, tol = gain_reconstruction_error(standard_noise(10, 30, p_d=0.0), 0.1, 0.05, 40)
        with mpmath.workdps(30):
            tail = mpmath.fsum(mpmath.exp(-m) * m ** k / mpmath.factorial(k)
                               for m in (mpmath.mpf(0.1), mpmath.mpf(0.05))
                               for k in range(41, 120))
        assert tol == pytest.approx(float(tail), rel=1e-13, abs=0)

    def test_truncation_guard(self):
        with pytest.raises(ValueError):
            series_gain(standard_noise(10, 10), 0.1, 0.1, n_max=10)


def _random_lps():
    """One hundred small seeded LPs (c, a, lower, upper) over the unit box."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        a = rng.uniform(-1, 1, size=(m, n))
        upper = rng.uniform(0.5, 2.0, size=m)
        lower = upper - rng.uniform(0.1, 2.0, size=m)
        yield rng.uniform(-1, 1, size=n), a, lower, upper


class TestSimplex:
    def test_ranged_row(self):
        opt, x = solve_bounded_lp([1, 1], [[1, 2]], [0], [3], [0, 0], [2, 2])
        assert opt == pytest.approx(2.5, abs=1e-12)
        assert x == pytest.approx([2.0, 0.5])

    def test_equality_row(self):
        opt, _ = solve_bounded_lp([1, 1], [[1, 2]], [3], [3], [0, 0], [2, 2])
        assert opt == pytest.approx(2.5, abs=1e-12)

    def test_variable_at_upper_bound(self):
        opt, x = solve_bounded_lp([-1, 1], [[1, 1]], [1], [2], [0, 0], [5, 5])
        assert opt == pytest.approx(2.0, abs=1e-12)

    def test_infeasible(self):
        with pytest.raises(LinearProgramInfeasible):
            solve_bounded_lp([1, 0], [[1, 1]], [5, ], [6], [0, 0], [1, 1])

    def test_duplicated_row(self):
        # each row's slack column stays a multiple of its artificial column,
        # so phase 1 drives every artificial out, duplicated rows included,
        # and the start keeps only the structural and slack columns: here and
        # on every other phase-1 start the tests build
        a, lower, upper = [[1, 2], [1, 1]], [1, 0], [3, 1.5]

        def numbers(values):
            return [_number(v) for v in values]

        starts = [_feasible_start([numbers(row) for row in a + [a[0]]],
                                  numbers(lower + [lower[0]]), numbers(upper + [upper[0]]),
                                  numbers([0, 0]), numbers([2, 2]))]
        for c, rows, lo, up in _random_lps():
            try:
                starts.append(_feasible_start([numbers(row) for row in rows], numbers(lo),
                                              numbers(up), numbers([0] * len(c)),
                                              numbers([1] * len(c))))
            except LinearProgramInfeasible:
                pass
        gains, mu, nu = _constructed_profile()
        starts.append(_phase_one(gains.q, mu, nu, 10))
        for seed, index in [(1, 0), (1, 1), (1, 7), (2, 1)]:
            gains, mu, nu = _verify_like(seed, index)
            starts.append(_phase_one(gains.q, mu, nu, lp_bounds.DEFAULT_TRUNCATION))
        assert len(starts) == 1 + 35 + 1 + 4
        for start in starts:
            width = start.n + len(start.tab_n)
            assert all(b < width for b in start.basis)
            assert all(len(row) == width for tab in (start.tab_n, start.tab_o, start.tab_e)
                       for row in tab)
        for c in ([1, 1], [1, -1], [-1, 2]):
            assert solve_bounded_lp(c, a + [a[0]], lower + [lower[0]], upper + [upper[0]],
                                    [0, 0], [2, 2]) == solve_bounded_lp(c, a, lower, upper,
                                                                        [0, 0], [2, 2])

    def test_pinned_basic_slack_survives_phase_two(self):
        # a redundant row whose slack (column 2) stays basic, pinned at zero
        # by its window of width 0: phase 2 prices it from its zero cost and
        # moves only x (column 0), here by a bound flip of the slack s0
        # (column 1), and leaves the start as it was
        one, zero = (1, 1, 0), (0, 1, 0)
        start = _SimplexStart(n=1,
                              tab_n=((1, 1, 0), (0, 0, 1)), tab_o=((1,) * 3,) * 2,
                              tab_e=((0,) * 3,) * 2,
                              beta=((1, 1, 1), zero),
                              status=(_BASIC, _AT_UPPER, _BASIC),
                              basis=(0, 2),
                              lo=(zero,) * 3, hi=((1, 1, -1), one, zero))
        before = copy.deepcopy(start)
        assert _maximize(start, [1]) == (1.5, [1.5])
        assert start == before

    def test_input_types_give_identical_solutions(self):
        # ints, floats and Fractions of the same rationals: one LP
        c, a = [3, 2, -1], [[1, 2, 1], [2, -1, 3]]
        lower, upper, x_hi = [0, -2], [4, 5], [3, 3, 3]
        as_ints = solve_bounded_lp(c, a, lower, upper, [0, 0, 0], x_hi)
        for kind in (float, Fraction):
            cast = [kind(v) for v in c], [[kind(v) for v in row] for row in a]
            assert solve_bounded_lp(*cast, [kind(v) for v in lower], [kind(v) for v in upper],
                                    [kind(0)] * 3, [kind(v) for v in x_hi]) == as_ints
        assert as_ints == (9.6, [2.8, 0.6, 0.0])

    @pytest.mark.parametrize("lp", [
        ([1, 0], [[1]], [0], [1], [0, 0], [1, 1]),           # row shorter than c
        ([1, 0], [[1, 0, 1]], [0], [1], [0, 0], [1, 1]),     # row longer than c
        ([1], [[1]], [0], [1], [0, 0], [1, 1]),              # c shorter than the box
        ([1, 0], [[1, 0]], [0, 0], [1], [0, 0], [1, 1]),     # one lower window too many
        ([1, 0], [[1, 0]], [0], [1], [0, 0], [1]),           # upper box too short
    ])
    def test_shape_mismatch_rejected(self, lp):
        with pytest.raises(ValueError, match="entries|match"):
            solve_bounded_lp(*lp)

    @pytest.mark.parametrize("where", range(6))
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, where, value):
        lp = [[1, 1], [[1, 2]], [0], [3], [0, 0], [2, 2]]
        if where == 1:
            lp[1][0][1] = value
        else:
            lp[where][0] = value
        with pytest.raises(ValueError, match="finite"):
            solve_bounded_lp(*lp)

    @pytest.mark.parametrize("tiny,huge", [(5e-324, 1e308), (1e-300, 1e308), (5e-324, 1e-300)])
    def test_extreme_data_round_once(self, tiny, huge):
        # max c.x with a0 x0 <= u0, a1 x1 <= u1 over x0 in [0, 1], x1 in
        # [0, huge]: x_j = min(u_j / a_j, hi_j), computed in Fractions and
        # rounded once, also where it underflows or the box caps it
        c = [huge / 3, tiny * 7]
        a = [[huge, 0.0], [0.0, tiny * 3]]
        upper, hi = [tiny * 5, huge / 7], [1.0, huge]
        x = [min(Fraction(u) / Fraction(row[j]), Fraction(h))
             for j, (u, row, h) in enumerate(zip(upper, a, hi))]
        want = float(sum(Fraction(cj) * xj for cj, xj in zip(c, x)))
        assert solve_bounded_lp(c, a, [0.0, 0.0], upper, [0.0, 0.0], hi) == \
            (want, [float(v) for v in x])

    def test_against_reference_solver(self):
        # each solution is also pinned bit for bit (see TestGoldenLpPath)
        pinned = []
        for c, a, lower, upper in _random_lps():
            n = len(c)
            try:
                mine, x = solve_bounded_lp(c, a, lower, upper,
                                           np.zeros(n), np.ones(n))
                pinned.append([mine.hex(), [v.hex() for v in x]])
            except LinearProgramInfeasible:
                mine = None
                pinned.append(None)
            res = linprog(-c, A_ub=np.vstack([a, -a]),
                          b_ub=np.concatenate([upper, -lower]),
                          bounds=[(0, 1)] * n, method="highs")
            if mine is None:
                assert res.status == 2
            else:
                assert res.status == 0
                assert mine == pytest.approx(-res.fun, abs=1e-8)
        assert pinned == GOLDEN_LP["random_lps"]


_RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda n, o, e: Fraction(n, o) / Fraction(2) ** e,
              st.integers(-8, 8), st.integers(1, 8), st.integers(-4, 4)),
    st.builds(lambda n, o, e: Fraction(n, o) / Fraction(2) ** e,
              st.integers(-2 ** 400, 2 ** 400), st.integers(1, 2 ** 400),
              st.integers(-1200, 1200)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(x=_RATIONALS, y=_RATIONALS, z=_RATIONALS,
       row=st.lists(_RATIONALS, min_size=4, max_size=4),
       pivot=st.lists(_RATIONALS, min_size=4, max_size=4))
def test_number_arithmetic_matches_fraction(x, y, z, row, pivot):
    """Each operation on ``(n, o, e)`` triples gives ``Fraction``'s value, canonically."""
    a, b, c = _number(x), _number(y), _number(z)
    assert all(map(_canonical, (a, b, c))) and _fraction(a) == x
    results = [(simplex._add(a, b), x + y), (simplex._sub(a, b), x - y),
               (simplex._mul(a, b), x * y)]
    if y:
        results.append((simplex._div(a, b), x / y))
    for got, want in results:
        assert _canonical(got) and _fraction(got) == want
    assert simplex._less(a, b) == (x < y)
    # the wide draws reach 2**+-1600: past the double range both raise
    try:
        want = float(x)
    except OverflowError:
        with pytest.raises(OverflowError):
            simplex._float(a)
    else:
        assert simplex._float(a) == want
    if x:
        # r_j -= x * p_j over the nonzero entries of ``pivot``
        rn, ro, re = (list(part) for part in zip(*map(_number, row)))
        entries = [(j, *_number(p)) for j, p in enumerate(pivot) if p]
        simplex._eliminate(rn, ro, re, *a, entries)
        got = list(zip(rn, ro, re))
        assert all(map(_canonical, got))
        assert [_fraction(v) for v in got] == [r - x * p for r, p in zip(row, pivot)]


def _constructed_profile():
    """Gains of the single-yield profile Y_12 = 0.37, with their intensities.

    Assembled in exact rational arithmetic and rounded once: the oracle
    expects inputs accurate to a few ulps.
    """
    mu = (0.1, 1e-2, 1e-3)
    nu = (0.2, 2e-2, 2e-3)
    q = tuple(tuple(float(Fraction("0.37") * Fraction(math.exp(-(a + b)))
                          * Fraction(a) * Fraction(b) ** 2 / 2)
                    for b in nu) for a in mu)
    return GainMatrix(q=q), mu, nu


class TestLpYieldBound:
    @pytest.mark.slow
    def test_recovers_constructed_profile(self):
        # the LP must pin the profile's one yield
        gains, mu, nu = _constructed_profile()
        assert lp_yield_bound(gains, mu, nu, (1, 2), 10) == pytest.approx(
            0.37, abs=1e-9)

    @pytest.mark.slow
    def test_recovers_random_constructed_profiles(self):
        # one hundred small LPs whose optimum is known by construction
        rng = np.random.default_rng(11)
        for _ in range(100):
            u, v = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            value = float(rng.uniform(0.05, 0.95))
            strong = float(rng.uniform(0.05, 0.3))
            mu = (strong, strong * 0.1, strong * 0.01)
            nu = tuple(v_ * float(rng.uniform(0.8, 1.2)) for v_ in mu)
            q = tuple(tuple(float(Fraction(value) * Fraction(math.exp(-(a + b)))
                                  * Fraction(a) ** u * Fraction(b) ** v
                                  / (math.factorial(u) * math.factorial(v)))
                            for b in nu) for a in mu)
            got = lp_yield_bound(GainMatrix(q=q), mu, nu, (u, v),
                                 max(u, v) + 2)
            assert got == pytest.approx(value, abs=1e-9)

    def test_zero_gains_zero_optima(self):
        mu = (0.1, 1e-2, 1e-3)
        gains = GainMatrix(q=((0.0,) * 3,) * 3)
        for target in ((0, 0), (1, 1), (0, 2)):
            assert lp_yield_bound(gains, mu, mu, target, 8) <= 1e-12

    def test_truncation_precondition(self):
        gains = GainMatrix(q=((0.0,) * 3,) * 3)
        with pytest.raises(ValueError):
            lp_yield_bound(gains, (0.1, 0.01, 0.001), (0.1, 0.01, 0.001), (1, 1), 2)

    def test_inconsistent_gains(self):
        mu = (0.1, 1e-2, 1e-3)
        q = [[0.9] * 3 for _ in range(3)]
        q[0][0] = 0.0
        gains = GainMatrix(q=tuple(map(tuple, q)))
        for _ in range(2):  # the memo holds no exceptions: every call raises
            with pytest.raises(InconsistentGainsError):
                lp_yield_bound(gains, mu, mu, (1, 1), 8)

    @pytest.mark.parametrize("mu,n_trunc", [
        ((math.inf, 1e-2, 2e-3), 8), ((math.nan, 1e-2, 2e-3), 8), ((-0.1, 1e-2, 2e-3), 8),
        ((0.1, 1e-2, 2e-3), 10.5), ((0.1, 1e-2, 2e-3), True), ((0.1, 1e-2, 2e-3), "8"),
        ((0.1, 1e-2, 2e-3), 10**6),
    ])
    def test_bad_intensity_or_truncation_rejected(self, mu, n_trunc):
        gains = GainMatrix(q=((0.0,) * 3,) * 3)
        with pytest.raises(ValueError, match="intensities must|truncation order must"):
            lp_yield_bound(gains, mu, (0.1, 1e-2, 1e-3), (1, 1), n_trunc)

    @pytest.mark.parametrize("target", [(-1, 3), (0, -2), (-1, -1)])
    def test_negative_target_rejected(self, target):
        mu = (0.1, 1e-2, 1e-3)
        gains = GainMatrix(q=((0.0,) * 3,) * 3)
        with pytest.raises(ValueError):
            lp_yield_bound(gains, mu, mu, target, 8)

    @pytest.mark.parametrize("target", [(0.5, 1), (1.0, 1), (1, 2.0), (True, 1), (0, False),
                                        ("1", 1), 5, (1,), (1, 1, 1)])
    def test_non_integer_target_rejected(self, target):
        mu = (0.1, 1e-2, 1e-3)
        gains = GainMatrix(q=((0.0,) * 3,) * 3)
        with pytest.raises(ValueError, match="integers"):
            lp_yield_bound(gains, mu, mu, target, 8)

    def test_numpy_integer_target_accepted(self):
        mu = (0.1, 1e-2, 1e-3)
        gains = GainMatrix(q=((0.0,) * 3,) * 3)
        assert lp_yield_bound(gains, mu, mu, (np.int64(1), np.int64(1)), 8) == \
            lp_yield_bound(gains, mu, mu, (1, 1), 8)

    def test_dominance_chain_spot(self):
        params = standard_noise(25, 35)
        mu = (0.12, 8e-3, 1.5e-3)
        nu = (0.1, 6e-3, 1.2e-3)
        s = IntensitySettings(alpha_a=0.2, alpha_b=0.2, mu=mu, nu=nu)
        gains = simulate_gains(params, s)
        bounds = yield_bounds(gains, s, exact=True)
        for target in ((0, 0), (1, 1), (2, 2), (1, 3)):
            true = dark_adjusted_yield(params, *target)
            lp = lp_yield_bound(gains, mu, nu, target)
            assert true <= lp + 1e-9
            assert lp <= bounds.get(*target) + 1e-9


@settings(derandomize=True, deadline=None, max_examples=5)
@given(losses=st.tuples(st.floats(10, 45), st.floats(10, 45)), decoys=st.sampled_from((3, 4)),
       weak=st.lists(st.floats(8e-4, 3e-2), min_size=2, max_size=2, unique=True),
       strong=st.floats(0.08, 0.15), skew=st.floats(0.8, 1.2))
def test_dominance_chain_on_verify_configurations(losses, decoys, weak, strong, skew):
    """true yield <= LP <= exact bound <= float bound, drawn as ``tfqkd verify`` draws."""
    params = standard_noise(*losses)
    w0, w1 = sorted(weak, reverse=True)
    if decoys == 3:
        mu, nu = (strong, w0, w1), (strong * skew, w0 * 1.1, w1 * 0.9)
    else:
        mu, nu = (w0, w1, w1 * 0.1, strong), (w0 * 1.2, w1 * 0.95, w1 * 0.11, strong * 1.1)
    s = IntensitySettings(alpha_a=0.2, alpha_b=0.2, mu=mu, nu=nu)
    gains = simulate_gains(params, s)
    exact, floats = yield_bounds(gains, s, exact=True), yield_bounds(gains, s)
    for target in TARGETS_3:
        true = dark_adjusted_yield(params, *target)
        lp = lp_yield_bound(gains, mu, nu, target)
        assert true <= lp + 1e-9 and lp <= exact.get(*target) + 1e-9, target
        assert exact.get(*target) <= floats.get(*target), target


_INTENSITIES = st.tuples(*[st.floats(0, 0.5)] * 3)
_EXTREME = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                     st.sampled_from([-0.1, 0.0, 12.0, 500.0, 1e300, -1, 1, True, "4"]))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(mu=_INTENSITIES, nu=_INTENSITIES,
       q=st.one_of(st.floats(0, 1).map(lambda y: ((y,) * 3,) * 3),   # consistent: Y_nm = y
                   st.tuples(*[st.tuples(*[st.floats(0, 1)] * 3)] * 3)),
       target=st.tuples(st.integers(0, 2), st.integers(0, 2)), extra=st.integers(0, 2),
       spoil=st.one_of(st.none(), st.tuples(st.integers(0, 6), _EXTREME)))
def test_lp_yield_bound_contract(mu, nu, q, target, extra, spoil):
    """Any input gives a finite bound in [0, 1], a ValueError or a TfqkdError.

    ``spoil`` puts an extreme value in place of one intensity (0-5) or of
    the truncation order (6).
    """
    mu, nu, n_trunc = list(mu), list(nu), max(target) + 2 + extra
    if spoil is not None:
        k, value = spoil
        if k == 6:
            n_trunc = value
        else:
            (mu if k < 3 else nu)[k % 3] = value
    try:
        got = lp_yield_bound(GainMatrix(q=q), mu, nu, target, n_trunc)
    except (ValueError, TfqkdError):
        return
    assert math.isfinite(got) and 0.0 <= got <= 1.0


@pytest.mark.parametrize("mean,n_max", [(0.3, 10), (11.0, 10), (12.0, 10), (50.0, 10),
                                        (500.0, 10), (760.0, 4)])
def test_poisson_upper_tail(mean, n_max):
    # past the mode the tail is most of the mass: an upward sum cut at
    # n_max + 400 terms gives 1.5e-5 at mean 500, and one that starts from
    # an underflowed term gives 0 at mean 760
    with mpmath.workdps(40):
        m = mpmath.mpf(mean)
        head = mpmath.fsum(mpmath.exp(-m) * m ** k / mpmath.factorial(k) for k in range(n_max + 1))
        reference = float(1 - head)
    assert lp_bounds.poisson_upper_tail(mean, n_max) == pytest.approx(reference, rel=1e-14,
                                                                      abs=0)


def _certify_like(rng, decoys):
    """Gains and intensities of one jittered configuration, 3 or 4 decoys."""
    params = standard_noise(float(rng.uniform(12, 24)), float(rng.uniform(20, 30)))
    w0 = float(rng.uniform(5e-3, 1e-2))
    w1 = w0 * float(rng.uniform(0.2, 0.3))
    strong = float(rng.uniform(0.09, 0.12))
    if decoys == 3:
        mu = (strong, w0, w1)
        nu = (strong * float(rng.uniform(0.9, 1.1)), w0 * 1.1, w1 * 0.9)
    else:
        mu = (w0, w1, w1 * 0.1, strong)
        nu = (w0 * 1.2, w1 * 0.95, w1 * 0.11, strong * 1.1)
    settings = IntensitySettings(alpha_a=0.2, alpha_b=0.2, mu=mu, nu=nu)
    return simulate_gains(params, settings), mu, nu


class TestLpMemo:
    """One phase 1 per configuration gives the optima of one-shot solves."""

    @pytest.mark.parametrize("decoys,seed", [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)])
    def test_memo_equals_one_shot(self, decoys, seed):
        gains, mu, nu = _certify_like(np.random.default_rng([decoys, seed]), decoys)
        n_trunc = lp_bounds.DEFAULT_TRUNCATION
        side = n_trunc + 1
        rows, lower, upper = lp_bounds._constraints(gains.q, mu, nu, n_trunc)
        # the triples as Fractions, an outside input solve_bounded_lp converts
        rows = [[_fraction(v) for v in row] for row in rows]
        lower, upper = ([_fraction(v) for v in window] for window in (lower, upper))
        lp_bounds._start.cache_clear()
        for u, v in TARGETS_3:
            c = [0] * (side * side)
            c[u * side + v] = 1
            one_shot, _ = solve_bounded_lp(c, rows, lower, upper,
                                           [0] * (side * side), [1] * (side * side))
            assert lp_yield_bound(gains, mu, nu, (u, v)) == min(max(one_shot, 0.0), 1.0)
        assert lp_bounds._start.cache_info().misses == 1

    def test_call_order_does_not_matter(self):
        gains, mu, nu = _certify_like(np.random.default_rng(5), 3)
        n_trunc = lp_bounds.DEFAULT_TRUNCATION
        lp_bounds._start.cache_clear()
        fresh = lp_yield_bound(gains, mu, nu, (0, 0))
        lp_bounds._start.cache_clear()
        before = copy.deepcopy(lp_bounds._start(gains.q, mu, nu, n_trunc))
        lp_yield_bound(gains, mu, nu, (1, 3))
        after = lp_yield_bound(gains, mu, nu, (0, 0))
        assert lp_bounds._start.cache_info().hits == 2
        assert after == fresh
        # phase 2 works on a copy: the cached start is the one phase 1 left
        assert lp_bounds._start(gains.q, mu, nu, n_trunc) == before


class _Start(NamedTuple):
    """The simplex start as it was when ``start_sha256`` was recorded: the
    same fields, but the tableau as one list of rows and every number a
    ``Fraction``."""
    n: int
    tab: tuple
    beta: tuple
    status: tuple
    basis: tuple
    lo: tuple
    hi: tuple


def _fraction_view(start):
    """``start``, a start of simplex triples, as the ``_Start`` of ``Fraction``s above."""
    return _Start(n=start.n,
                  tab=tuple(tuple(map(_fraction, zip(*row)))
                            for row in zip(start.tab_n, start.tab_o, start.tab_e)),
                  beta=tuple(map(_fraction, start.beta)),
                  status=start.status, basis=start.basis,
                  lo=tuple(map(_fraction, start.lo)),
                  hi=tuple(None if v is None else _fraction(v) for v in start.hi))


def _rows_by_basis(start):
    """``start`` with its tableau rows and basic values sorted by basic variable."""
    order = sorted(range(len(start.basis)), key=start.basis.__getitem__)

    def pick(rows):
        return tuple(rows[i] for i in order)

    return start._replace(tab_n=pick(start.tab_n), tab_o=pick(start.tab_o),
                          tab_e=pick(start.tab_e), beta=pick(start.beta),
                          basis=pick(start.basis))


class TestGoldenLpPath:
    """The exact simplex pinned bit for bit, path included.

    ``data/golden_lp.json`` holds, written before phase 2 kept a reduced-cost
    row: every ``lp_yield_bound`` of the six ``_certify_like`` configurations
    of ``TestLpMemo`` as ``float.hex()``; the optimum and ``x`` of each
    feasible LP of ``_random_lps`` (null for an infeasible one), checked by
    ``TestSimplex.test_against_reference_solver``; and for one 3-decoy and
    one 4-decoy configuration a sha256 of ``repr`` of the cached start with
    its rows sorted by basic variable (in ``Fraction``s, hence
    ``_fraction_view``) and one of the nine phase-2 optima and ``x``.  The
    start's row order is not pinned: phase 1 leaves its rows in the order of
    its pivots, the product start in the order of its basis, and phase 2
    reads a row only through its basic variable.  A different basis changes
    the start digest; a different phase-2 pivot sequence, at a degenerate
    optimum, ``x``.
    """

    @pytest.mark.parametrize("record", GOLDEN_LP["lp_optima"],
                             ids=lambda r: f"d{r['decoys']}-s{r['seed']}")
    def test_lp_optima(self, record):
        decoys, seed = record["decoys"], record["seed"]
        gains, mu, nu = _certify_like(np.random.default_rng([decoys, seed]), decoys)
        got = [lp_yield_bound(gains, mu, nu, target).hex() for target in TARGETS_3]
        assert got == record["hex"]

    @pytest.mark.parametrize("record", GOLDEN_LP["starts"], ids=lambda r: f"d{r['decoys']}")
    def test_start_and_phase2_digests(self, record):
        decoys, seed = record["decoys"], record["seed"]
        gains, mu, nu = _certify_like(np.random.default_rng([decoys, seed]), decoys)
        n_trunc = lp_bounds.DEFAULT_TRUNCATION
        side = n_trunc + 1
        start = lp_bounds._start(gains.q, mu, nu, n_trunc)
        assert hashlib.sha256(repr(_fraction_view(_rows_by_basis(start))).encode()
                              ).hexdigest() == record["start_sha256"]
        digest = hashlib.sha256()
        for u, v in TARGETS_3:
            c = [Fraction(0)] * (side * side)
            c[u * side + v] = Fraction(1)
            opt, x = _maximize(start, c)
            digest.update(" ".join(t.hex() for t in [opt, *x]).encode() + b"\n")
        assert digest.hexdigest() == record["phase2_sha256"]

    @pytest.mark.slow
    def test_constructed_profile_path(self):
        # the LP of ``test_recovers_constructed_profile`` (n = 121, m = 9)
        # makes 51 phase-1 and 167 phase-2 pivots, far more than the
        # certify-like configurations above: its optimum and a sha256 of its
        # ``x``, bit for bit
        gains, mu, nu = _constructed_profile()
        side = 11
        c = [0] * (side * side)
        c[1 * side + 2] = 1
        opt, x = _maximize(lp_bounds._start(gains.q, mu, nu, side - 1), c)
        assert opt.hex() == "0x1.7ae147ae147b3p-2"
        assert hashlib.sha256(" ".join(v.hex() for v in x).encode()).hexdigest() == \
            "0a5f9c8c6ddce4e6761b57b4397a1a8831ac0c045e517a7fef46eb2a1ad275fb"


class TestCanonicalNumbers:
    """The ratio test breaks ties with tuple ``==``, which is equality of
    values only between canonical triples: every number of a cached start,
    and every basic value after each phase, is one.  Phase 1 runs only where
    the product start is infeasible, here for the constructed profile."""

    @pytest.mark.parametrize("case", [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2),
                                      pytest.param("constructed", marks=pytest.mark.slow)],
                             ids=lambda c: c if isinstance(c, str) else f"d{c[0]}-s{c[1]}")
    def test_starts_and_basic_values(self, case, monkeypatch):
        phases = []
        run_phase = simplex._run_phase

        def checked(tab_n, tab_o, tab_e, beta, *rest, **kwargs):
            run_phase(tab_n, tab_o, tab_e, beta, *rest, **kwargs)
            phases.append(all(map(_canonical, beta)))

        monkeypatch.setattr(simplex, "_run_phase", checked)
        if case == "constructed":
            (gains, mu, nu), targets = _constructed_profile(), [(1, 2)]
        else:
            gains, mu, nu = _certify_like(np.random.default_rng(list(case)), case[0])
            targets = TARGETS_3
        side = lp_bounds.DEFAULT_TRUNCATION + 1
        lp_bounds._start.cache_clear()
        start = lp_bounds._start(gains.q, mu, nu, side - 1)
        numbers = [v for row in zip(start.tab_n, start.tab_o, start.tab_e) for v in zip(*row)]
        numbers += [*start.beta, *start.lo, *(v for v in start.hi if v is not None)]
        assert all(map(_canonical, numbers))
        for u, v in targets:
            c = [0] * (side * side)
            c[u * side + v] = 1
            _maximize(start, c)
        assert phases == [True] * ((case == "constructed") + len(targets))


def _verify_like(seed, index):
    """Gains and intensities of config ``index`` of ``tfqkd verify --seed``."""
    rng = np.random.default_rng(seed)
    for i in range(index + 1):
        params = standard_noise(float(rng.uniform(10, 45)), float(rng.uniform(10, 45)))
        weak = sorted(rng.uniform(8e-4, 3e-2, size=2), reverse=True)
        strong = float(rng.uniform(0.08, 0.15))
        if i % 2 == 0:
            mu = (strong, weak[0], weak[1])
            nu = (strong * float(rng.uniform(0.8, 1.2)), weak[0] * 1.1, weak[1] * 0.9)
        else:
            mu = (weak[0], weak[1], weak[1] * 0.1, strong)
            nu = (weak[0] * 1.2, weak[1] * 0.95, weak[1] * 0.11, strong * 1.1)
    settings = IntensitySettings(alpha_a=0.2, alpha_b=0.2, mu=mu, nu=nu)
    return simulate_gains(params, settings), mu, nu


def _phase_one(q, mu, nu, n_trunc):
    """The start phase 1 gives on the rows of ``lp_bounds._constraints``."""
    n_vars = (n_trunc + 1) ** 2
    return _feasible_start(*lp_bounds._constraints(q, mu, nu, n_trunc),
                           [(0, 1, 0)] * n_vars, [(1, 1, 0)] * n_vars)


@pytest.fixture
def phase_one_calls(monkeypatch):
    """The number of phase-1 runs of ``lp_bounds._start`` so far, in a list."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _feasible_start(*args)

    monkeypatch.setattr(lp_bounds, "_feasible_start", counted)
    lp_bounds._start.cache_clear()
    return calls


class TestProductStart:
    """``lp_bounds._start`` writes the product basis down where it is feasible
    and runs phase 1 only where it is not; every optimum stays the one phase
    1's start gives."""

    # (configuration, how phase 1's start compares with the product start)
    CASES = [(("certify", 3, 3), "equal"), (("certify", 3, 4), "equal"),
             (("certify", 4, 3), "equal"), (("certify", 4, 4), "equal"),
             (("verify", 1, 0), "equal"), (("verify", 1, 1), "equal"),
             (("verify", 1, 7), "other_basis"), (("verify", 2, 1), "other_vertex"),
             (("zero_intensity", 14, 22), "equal")]

    @staticmethod
    def _config(case):
        """``("certify", decoys, seed)``, ``("verify", seed, index)`` or
        ``("zero_intensity", loss_a, loss_b)``: a 3-decoy channel whose
        weakest decoys are 0."""
        kind, a, b = case
        if kind == "certify":
            return _certify_like(np.random.default_rng([a, b]), a)
        if kind == "verify":
            return _verify_like(a, b)
        settings = IntensitySettings(alpha_a=0.2, alpha_b=0.2, mu=(0.11, 0.009, 0.0),
                                     nu=(0.1, 0.01, 0.0))
        return simulate_gains(standard_noise(a, b), settings), settings.mu, settings.nu

    @pytest.mark.parametrize("case,relation", CASES, ids=lambda c: "-".join(map(str, c))
                             if isinstance(c, tuple) else c)
    def test_optima_equal_phase_one(self, case, relation, phase_one_calls):
        gains, mu, nu = self._config(case)
        n_trunc = lp_bounds.DEFAULT_TRUNCATION
        side = n_trunc + 1
        reference = _phase_one(gains.q, mu, nu, n_trunc)
        for u, v in TARGETS_3:
            c = [0] * (side * side)
            c[u * side + v] = 1
            want, _ = _maximize(reference, c)
            assert lp_yield_bound(gains, mu, nu, (u, v)) == min(max(want, 0.0), 1.0)
        assert phase_one_calls == [0]
        start = lp_bounds._start(gains.q, mu, nu, n_trunc)
        if _rows_by_basis(reference) == start:
            got = "equal"
        else:
            # a different feasible basis, or phase 1 left some structurals at
            # their upper bound on the same basis
            got = "other_vertex" if sorted(reference.basis) == list(start.basis) else \
                "other_basis"
        assert got == relation

    @pytest.mark.parametrize("case", [("certify", 3, 0), ("certify", 4, 0),
                                      ("zero_intensity", 15, 25)],
                             ids=lambda c: "-".join(map(str, c)))
    def test_basis_times_tableau(self, case):
        # B T = [A | I] and B x_B = lo, exactly, for the basis columns B of A
        gains, mu, nu = self._config(case)
        n_trunc = lp_bounds.DEFAULT_TRUNCATION
        rows, lower, _ = lp_bounds._constraints(gains.q, mu, nu, n_trunc)
        start = lp_bounds._start(gains.q, mu, nu, n_trunc)
        assert start.basis == tuple(n * (n_trunc + 1) + m for n in range(len(mu))
                                    for m in range(len(mu)))
        a = [[_fraction(v) for v in row] for row in rows]
        tab = [[_fraction(v) for v in zip(*row)]
               for row in zip(start.tab_n, start.tab_o, start.tab_e)]
        m = len(a)
        for i, row in enumerate(a):
            basic = [row[j] for j in start.basis]
            unit = [Fraction(int(k == i)) for k in range(m)]
            assert [sum(b * t[j] for b, t in zip(basic, tab)) for j in range(len(tab[0]))] \
                == row + unit
            assert sum(b * _fraction(x) for b, x in zip(basic, start.beta)) == \
                _fraction(lower[i])

    @pytest.mark.parametrize("case", ["duplicate_intensities", "d4_n_trunc_2",
                                      "constructed", "zero_gains"])
    def test_falls_back_to_phase_one(self, case, phase_one_calls):
        if case == "duplicate_intensities":
            # a constant yield profile fits any intensities: Q_kl = 0.3
            mu, nu, n_trunc = (0.1, 0.01, 0.01), (0.2, 0.02, 2e-3), 6
            gains = GainMatrix(q=((0.3,) * 3,) * 3)
        elif case == "zero_gains":
            # every lower window 0: the product start is feasible but fully
            # degenerate, and phase 1's start needs far fewer pivots
            mu = nu = (0.1, 1e-2, 1e-3)
            gains, n_trunc = GainMatrix(q=((0.0,) * 3,) * 3), 8
        elif case == "d4_n_trunc_2":
            gains, mu, nu = _certify_like(np.random.default_rng([4, 0]), 4)
            n_trunc = 2
        else:
            (gains, mu, nu), n_trunc = _constructed_profile(), 10
        start = lp_bounds._start(gains.q, mu, nu, n_trunc)
        assert phase_one_calls == [1]
        assert start == _phase_one(gains.q, mu, nu, n_trunc)
        if case == "duplicate_intensities":
            assert 0.3 - 1e-9 <= lp_yield_bound(gains, mu, nu, (0, 0), n_trunc) <= 1.0

    def test_inconsistent_gains_still_raise(self, phase_one_calls):
        mu = (0.1, 1e-2, 1e-3)
        q = [[0.9] * 3 for _ in range(3)]
        q[0][0] = 0.0
        with pytest.raises(InconsistentGainsError):
            lp_yield_bound(GainMatrix(q=tuple(map(tuple, q))), mu, mu, (1, 1), 8)
        assert phase_one_calls == [1]
