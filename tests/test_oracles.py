"""Verification layer: Fock enumeration, gain series, exact LP."""

import copy
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from tfqkd.channel import (ChannelParams, GainMatrix, IntensitySettings,
                           simulate_gains, standard_noise, theoretical_yield)
from tfqkd.decoy3 import TARGETS_3, yield_bounds_3
from tfqkd.errors import InconsistentGainsError
from tfqkd.oracles import (dark_adjusted_yield, fock_yield, lp_bounds, lp_yield_bound,
                           series_gain, solve_bounded_lp)
from tfqkd.oracles.fock import gain_reconstruction_error
from tfqkd.oracles.simplex import LinearProgramInfeasible


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

    def test_truncation_guard(self):
        with pytest.raises(ValueError):
            series_gain(standard_noise(10, 10), 0.1, 0.1, n_max=10)


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

    def test_against_reference_solver(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            a = rng.uniform(-1, 1, size=(m, n))
            upper = rng.uniform(0.5, 2.0, size=m)
            lower = upper - rng.uniform(0.1, 2.0, size=m)
            c = rng.uniform(-1, 1, size=n)
            try:
                mine, _ = solve_bounded_lp(c, a, lower, upper,
                                           np.zeros(n), np.ones(n))
            except LinearProgramInfeasible:
                mine = None
            res = linprog(-c, A_ub=np.vstack([a, -a]),
                          b_ub=np.concatenate([upper, -lower]),
                          bounds=[(0, 1)] * n, method="highs")
            if mine is None:
                assert res.status == 2
            else:
                assert res.status == 0
                assert mine == pytest.approx(-res.fun, abs=1e-8)


class TestLpYieldBound:
    def test_recovers_constructed_profile(self):
        # gains from a single-yield profile, assembled in exact rational
        # arithmetic and rounded once (the oracle expects inputs accurate to
        # a few ulps); the LP must pin that yield
        from fractions import Fraction
        mu = (0.1, 1e-2, 1e-3)
        nu = (0.2, 2e-2, 2e-3)
        q = tuple(tuple(float(Fraction("0.37") * Fraction(math.exp(-(a + b)))
                              * Fraction(a) * Fraction(b) ** 2 / 2)
                        for b in nu) for a in mu)
        gains = GainMatrix(q=q)
        assert lp_yield_bound(gains, mu, nu, (1, 2), 10) == pytest.approx(
            0.37, abs=1e-9)

    def test_recovers_random_constructed_profiles(self):
        # one hundred small LPs whose optimum is known by construction
        from fractions import Fraction
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

    @pytest.mark.parametrize("target", [(-1, 3), (0, -2), (-1, -1)])
    def test_negative_target_rejected(self, target):
        mu = (0.1, 1e-2, 1e-3)
        gains = GainMatrix(q=((0.0,) * 3,) * 3)
        with pytest.raises(ValueError):
            lp_yield_bound(gains, mu, mu, target, 8)

    @pytest.mark.parametrize("target", [(0.5, 1), (1.0, 1), (1, 2.0), (True, 1), (0, False),
                                        ("1", 1)])
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
        bounds = yield_bounds_3(gains, mu, nu, exact=True)
        for target in ((0, 0), (1, 1), (2, 2), (1, 3)):
            true = dark_adjusted_yield(params, *target)
            lp = lp_yield_bound(gains, mu, nu, target)
            assert true <= lp + 1e-9
            assert lp <= bounds.get(*target) + 1e-9


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
