"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Most criteria run on Table-1 noise (``standard_noise``: misalignment error
0.02, phase mismatch 0.02 pi, dark-count probability 1e-7).  Two criteria
are statements about the dark-count-free channel and run on
``standard_noise(..., p_d=0.0)``, with misalignment and phase mismatch kept:

* criterion 1 checks the bounds against ``theoretical_yield``, the
  dark-count-free yield formula.  That formula is the profile that generates
  the gains only when p_d = 0; with dark counts the generating profile is
  ``dark_adjusted_yield`` = (1-p_d) Y + p_d (1-p_d) (1-eta_a)^n (1-eta_b)^m,
  which at low loss sits ~p_d Y below Y, so a sound and tight bound may lie
  below the dark-free baseline;
* criterion 1b is the companion for Table-1 noise: the same configurations,
  with dark counts, checked against the generating profile
  ``dark_adjusted_yield``;
* criterion 5 fits the square-root-of-transmittance slope of the optimized
  rate out to 100 dB of total loss.  With dark counts the error rates reach
  the dark-count wall (between 80 and 90 dB total at p_d = 1e-7) and the key
  rate is zero there even with exact yields, so the scaling law is tested
  where it holds: without dark counts;
* criterion 9 checks truncation stability on the Table-1 noise sweep.
"""

import json
import math
import time

import numpy as np
import pytest

from tfqkd.channel import (GainMatrix, IntensitySettings, simulate_gains,
                           standard_noise, theoretical_yield)
from tfqkd.decoy3 import TARGETS_3
from tfqkd.decoy4 import yield_bounds
from tfqkd.optimize import (FluctuationSpec, OptimizationSpec, optimize_rate,
                            worst_case_fluctuation)
from tfqkd.oracles import dark_adjusted_yield, fock_yield, lp_yield_bound
from tfqkd.oracles.fock import gain_reconstruction_error
from tfqkd.rate import key_rate, x_basis_statistics

from coordinate_search import coordinate_descent

SEED = 20260810


def _report(criterion, passed, detail):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    return line


def _random_config(rng, index, **noise):
    """One randomized (params, settings) pair; Table-1 noise unless overridden."""
    loss_a = float(rng.uniform(0, 50))
    loss_b = float(rng.uniform(0, 50))
    params = standard_noise(loss_a, loss_b, **noise)
    if index % 2 == 0:
        strong = float(rng.uniform(0.02, 0.5))
        mu = (strong, 1e-4, 1e-5)
        nu = (strong * float(rng.uniform(0.7, 1.4)), 1.1e-4, 0.9e-5)
    else:
        strong = float(rng.uniform(0.05, 0.5))
        mu = (1e-3, 1e-4, 1e-5, strong)
        nu = (1.2e-3, 0.8e-4, 1.1e-5, strong * float(rng.uniform(0.7, 1.4)))
    settings = IntensitySettings(alpha_a=0.2, alpha_b=0.2, mu=mu, nu=nu)
    return params, settings, (loss_a, loss_b)


def _soundness_worst(baseline, **noise):
    """Worst bound-minus-baseline margin over 200 seeded configurations."""
    rng = np.random.default_rng(SEED)
    worst = (math.inf, None)
    for i in range(200):
        params, settings, losses = _random_config(rng, i, **noise)
        gains = simulate_gains(params, settings)
        bounds = yield_bounds(gains, settings, exact=True)
        for target, value in bounds.items():
            margin = value - baseline(params, *target)
            if margin < worst[0]:
                worst = (margin, (losses, settings.n_decoys, target))
    return worst


class TestCriterion1Soundness:
    def test_bounds_above_dark_free_yields(self):
        # gains from the dark-count-free channel, whose generating profile
        # is exactly theoretical_yield
        t0 = time.time()
        worst, where = _soundness_worst(theoretical_yield, p_d=0.0)
        passed = worst >= -1e-12
        detail = (f"worst bound-minus-yield margin {worst:+.3e} at {where}; "
                  f"{time.time() - t0:.0f}s")
        _report("1 (soundness vs yields, dark-count-free channel)", passed,
                detail)
        assert passed, f"a yield bound lies below the true yield: {detail}"

    def test_bounds_above_generating_profile(self):
        # companion: the physically meaningful soundness statement
        t0 = time.time()
        worst, where = _soundness_worst(dark_adjusted_yield)
        passed = worst >= -1e-12
        _report("1b (companion: soundness vs generating profile)", passed,
                f"worst margin {worst:+.3e} at {where}; {time.time() - t0:.0f}s")
        assert passed


class TestCriterion2DominanceChain:
    def test_chain(self):
        t0 = time.time()
        rng = np.random.default_rng(SEED + 1)
        worst_low = (math.inf, None)   # lp - true
        worst_mid = (math.inf, None)   # four-decoy bound - lp
        worst_34 = (math.inf, None)    # three-decoy bound - four-decoy bound
        for i in range(50):
            loss_a = float(rng.uniform(10, 50))
            loss_b = float(rng.uniform(10, 50))
            params = standard_noise(loss_a, loss_b)
            # moderate separations: the exact LP resolves the chain at 1e-9
            # only while the duals of the weakly-weighted rows stay below
            # the reciprocal of the double-precision data windows
            w0 = float(rng.uniform(1e-2, 3e-2))
            w1 = w0 * float(rng.uniform(0.25, 0.35))
            strong = float(rng.uniform(0.08, 0.15))
            four = i % 2 == 1
            if four:
                w2 = w1 * float(rng.uniform(0.25, 0.35))
                mu = (w0, w1, w2, strong)
                nu = (w0 * 1.15, w1 * 0.9, w2 * 1.1, strong * 1.1)
            else:
                mu = (strong, w0, w1)
                nu = (strong * 1.1, w0 * 1.15, w1 * 0.9)
            settings = IntensitySettings(alpha_a=0.2, alpha_b=0.2, mu=mu, nu=nu)
            gains = simulate_gains(params, settings)
            bounds = yield_bounds(gains, settings, exact=True)
            if four:
                sub = GainMatrix(q=tuple(tuple(gains.q[r][c] for c in (0, 1, 2))
                                         for r in (0, 1, 2)))
                three_set = yield_bounds(sub, IntensitySettings(
                    alpha_a=0.0, alpha_b=0.0, mu=settings.mu[:3], nu=settings.nu[:3]),
                    exact=True)
            targets = [TARGETS_3[(2 * i) % 9], TARGETS_3[(2 * i + 1) % 9]]
            for target in targets:
                true = dark_adjusted_yield(params, *target)
                lp = lp_yield_bound(gains, settings.mu, settings.nu, target, 10)
                analytic = bounds.get(*target)
                if lp - true < worst_low[0]:
                    worst_low = (lp - true, (i, target))
                if analytic - lp < worst_mid[0]:
                    worst_mid = (analytic - lp, (i, target))
                if four:
                    three = three_set.get(*target)
                    if three - analytic < worst_34[0]:
                        worst_34 = (three - analytic, (i, target))
        passed = (worst_low[0] >= -1e-9 and worst_mid[0] >= -1e-9
                  and worst_34[0] >= -1e-9)
        detail = (f"lp-true {worst_low[0]:+.2e}, bound-lp {worst_mid[0]:+.2e}, "
                  f"3dec-4dec {worst_34[0]:+.2e}; {time.time() - t0:.0f}s")
        _report("2 (LP dominance chain)", passed, detail)
        assert worst_low[0] >= -1e-9, detail
        assert worst_mid[0] >= -1e-9, detail
        assert worst_34[0] >= -1e-9, detail


class TestCriterion3OracleEquivalence:
    def test_fock_matches_closed_form(self):
        rng = np.random.default_rng(SEED + 2)
        worst = 0.0
        from tfqkd.channel import ChannelParams
        for _ in range(20):
            params = ChannelParams(eta_a=float(rng.uniform(0.01, 1.0)),
                                   eta_b=float(rng.uniform(0.01, 1.0)),
                                   theta_a=float(rng.uniform(-0.5, 0.5)),
                                   theta_b=float(rng.uniform(-0.5, 0.5)))
            for n in range(0, 9):
                for m in range(0, 9 - n):
                    diff = abs(fock_yield(params, n, m)
                               - theoretical_yield(params, n, m))
                    worst = max(worst, diff)
        passed = worst < 1e-10
        _report("3a (enumeration vs closed-form yields)", passed,
                f"max |difference| {worst:.3e}")
        assert passed

    def test_gain_series_reconstruction(self):
        worst = 0.0
        for loss_a, loss_b, mu, nu in ((10, 30, 0.1, 0.05), (20, 20, 0.3, 0.2),
                                       (35, 5, 0.05, 0.4)):
            params = standard_noise(loss_a, loss_b)
            err, tol = gain_reconstruction_error(params, mu, nu, 40)
            worst = max(worst, err - tol)
        passed = worst <= 1e-15
        _report("3b (gain series reconstruction)", passed,
                f"max error beyond Poisson tail {worst:.3e}")
        assert passed


class TestCriterion4NoiselessExactness:
    def test_error_rate_exactly_zero(self):
        params = standard_noise(13, 13 + 10 * math.log10(2), p_d=0.0,
                                misalignment=0.0, phase_mismatch=0.0)
        # eta_a alpha_a^2 == eta_b alpha_b^2 held exactly in floating point
        alpha_a = 0.25
        alpha_b = alpha_a * math.sqrt(2.0)
        ia = params.eta_a * alpha_a * alpha_a
        ib = params.eta_b * alpha_b * alpha_b
        stats = x_basis_statistics(params, alpha_a, alpha_b)
        passed = (stats.e_x == 0.0) if ia == ib else None
        if passed is None:
            # fall back to a bitwise-matched pair
            params = standard_noise(20, 20, p_d=0.0, misalignment=0.0,
                                    phase_mismatch=0.0)
            stats = x_basis_statistics(params, 0.3, 0.3)
            passed = stats.e_x == 0.0
        _report("4a (noiseless matched arrivals give e_x = 0)", passed,
                f"e_x = {stats.e_x!r}")
        assert passed

    def test_zero_gains_zero_bounds(self):
        mu = (0.1, 1e-4, 1e-5)
        gains = GainMatrix(q=((0.0,) * 3,) * 3)
        homogeneous = ((0, 0), (2, 2), (0, 2), (2, 0), (0, 4), (4, 0))
        bounds = yield_bounds(gains, IntensitySettings(alpha_a=0.0, alpha_b=0.0, mu=mu, nu=mu))
        values = [bounds.get(*t) for t in homogeneous]
        passed = all(v == 0.0 for v in values)
        _report("4b (all-zero gains zero the homogeneous bounds)", passed,
                f"values {values}")
        assert passed


def _optimized_sweep(**noise):
    """Optimized 4-decoy rate on the symmetric-loss acceptance grid."""
    points = []
    for per_arm in (20, 25, 30, 35, 40, 45, 50):
        params = standard_noise(per_arm, per_arm, **noise)
        res = optimize_rate(params, OptimizationSpec(decoys=4, multistart=8,
                                                     seed=SEED))
        points.append((per_arm, params, res))
    return points


@pytest.fixture(scope="module")
def symmetric_sweep():
    """The acceptance grid on Table-1 noise."""
    return _optimized_sweep()


@pytest.fixture(scope="module")
def dark_free_sweep():
    """The acceptance grid on the dark-count-free channel."""
    return _optimized_sweep(p_d=0.0)


class TestCriterion5SqrtScaling:
    def test_slope(self, dark_free_sweep):
        label = "5 (sqrt-transmittance slope over 40-100 dB, no dark counts)"
        total = [2 * p for p, _, _ in dark_free_sweep]
        rates = [res.rate for _, _, res in dark_free_sweep]
        dead = [t for t, r in zip(total, rates) if r <= 0]
        if dead:
            detail = f"optimized rate is zero at total loss {dead} dB"
            _report(label, False, detail)
            pytest.fail(detail)
        slope = float(np.polyfit(total, np.log10(rates), 1)[0])
        passed = -0.062 <= slope <= -0.040
        detail = f"fitted slope {slope:.4f} (sqrt(eta) scaling: -0.05)"
        _report(label, passed, detail)
        assert passed, f"{detail} outside [-0.062, -0.040]"


class TestCriterion6AsymmetryAdvantage:
    def test_advantage_and_monotonicity(self):
        t0 = time.time()
        spec = OptimizationSpec(decoys=3, multistart=8, seed=SEED)
        spec_sym = OptimizationSpec(decoys=3, multistart=8, seed=SEED,
                                    symmetric=True)
        free = optimize_rate(standard_noise(10, 40), spec).rate
        tied = optimize_rate(standard_noise(10, 40), spec_sym).rate
        r15 = optimize_rate(standard_noise(15, 40), spec).rate
        r20 = optimize_rate(standard_noise(20, 40), spec).rate
        advantage = free >= 1.1 * tied and free > 0
        monotone = free >= r15 >= r20
        passed = advantage and monotone
        _report("6 (asymmetry advantage and loss monotonicity)", passed,
                f"free {free:.3e} vs tied {tied:.3e}; "
                f"R(10,40) {free:.3e} >= R(15,40) {r15:.3e} >= R(20,40) {r20:.3e}; "
                f"{time.time() - t0:.0f}s")
        assert advantage
        assert monotone


def _tolerable_loss(decoys, weak, magnitude, lo=20.0, hi=60.0, step=0.125):
    """Largest symmetric per-arm loss with worst-case rate above 1e-10."""
    cache = {}

    def center(per_arm):
        if per_arm not in cache:
            params = standard_noise(per_arm, per_arm)
            spec = OptimizationSpec(decoys=decoys, weak_decoys=weak,
                                    multistart=6, seed=SEED)
            cache[per_arm] = (params, optimize_rate(params, spec, maxiter=200))
        return cache[per_arm]

    def tolerable(per_arm):
        params, opt = center(per_arm)
        if opt.rate <= 1e-10:
            return False
        if magnitude == 0.0:
            return True
        wc = worst_case_fluctuation(
            params, opt.settings,
            FluctuationSpec(magnitude=magnitude, budget=32, seed=SEED),
            stop_below=1e-10)
        return wc.rate > 1e-10

    if not tolerable(lo):
        return lo
    while hi - lo > step:
        mid = 0.5 * (lo + hi)
        if tolerable(mid):
            lo = mid
        else:
            hi = mid
    return lo


class TestCriterion7FluctuationRobustness:
    @pytest.mark.parametrize("decoys,weak", [(3, (1e-2, 1e-3)),
                                             (4, (1e-1, 1e-2, 1e-3))])
    def test_threshold_shift(self, decoys, weak):
        t0 = time.time()
        base = _tolerable_loss(decoys, weak, 0.0)
        shift_02 = base - _tolerable_loss(decoys, weak, 0.2, lo=base - 4.0,
                                          hi=base + 0.5)
        shift_04 = base - _tolerable_loss(decoys, weak, 0.4, lo=base - 8.0,
                                          hi=base + 0.5)
        # criterion thresholds are on the total (two-arm) loss
        passed = 2 * shift_02 < 3.0 and 2 * shift_04 < 10.0
        _report(f"7 ({decoys}-decoy fluctuation robustness)", passed,
                f"max total loss {2 * base:.2f} dB; decrease "
                f"{2 * shift_02:.2f} dB at r=0.2 (< 3), "
                f"{2 * shift_04:.2f} dB at r=0.4 (< 10); {time.time() - t0:.0f}s")
        assert 2 * shift_02 < 3.0
        assert 2 * shift_04 < 10.0


class TestCriterion8NonConvexity:
    def test_corner_descent_stalls(self):
        params = standard_noise(20, 0)
        spec = OptimizationSpec(decoys=3, multistart=16, seed=SEED)
        stuck = coordinate_descent(params, spec)
        best = optimize_rate(params, spec)
        passed = stuck.rate < best.rate
        _report("8 (corner coordinate descent stalls)", passed,
                f"descent {stuck.rate:.3e} < multistart {best.rate:.3e}")
        assert passed


def _truncated_phase_error(res, alpha_a, alpha_b, order):
    """The phase-error bound of a ``key_rate`` result summed term by term over
    photon numbers n, m <= ``order``, each stored bound in place of yield 1."""
    def weights(alpha):
        return [math.exp(-0.5 * alpha * alpha) * alpha ** n / math.sqrt(math.factorial(n))
                for n in range(order + 1)]
    wa, wb = weights(alpha_a), weights(alpha_b)
    parity = [0.0, 0.0]
    for n in range(order + 1):
        for m in range(n % 2, order + 1, 2):
            y = min(max(res.bounds.bounds.get((n, m), 1.0), 0.0), 1.0)
            parity[n % 2] += wa[n] * wb[m] * math.sqrt(y)
    return min((parity[0] ** 2 + parity[1] ** 2) / res.p_x, 1.0)


class TestCriterion9TruncationStability:
    def test_phase_error_stable(self, symmetric_sweep):
        worst = 0.0
        for _, params, res in symmetric_sweep:
            if res.rate <= 0:
                continue
            s = res.settings
            rate = key_rate(params, s)
            for order in (40, 80):
                series = _truncated_phase_error(rate, s.alpha_a, s.alpha_b, order)
                worst = max(worst, abs(rate.e_z_upp - series))
        passed = worst < 1e-10
        _report("9 (truncation stability)", passed,
                f"max |e_z - e_z(series to 40, 80)| = {worst:.3e}")
        assert passed


class TestCriterion10Determinism:
    def test_sweep_byte_identical(self, tmp_path):
        from tfqkd.cli import main
        t0 = time.time()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "decoys": 3,
                                   "multistart": 6, "seed": 17}))
        outputs = []
        for workers in (1, 4, 8):
            out = tmp_path / f"sweep_w{workers}.csv"
            code = main(["sweep", "--config", str(cfg),
                         "--grid-a", "20", "30", "--grid-b", "22", "28",
                         "--workers", str(workers), "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        passed = outputs[0] == outputs[1] == outputs[2]
        _report("10 (sweep determinism across worker counts)", passed,
                f"byte-identical over 1/4/8 workers; {time.time() - t0:.0f}s")
        assert passed
