"""Multistart optimization and worst-case fluctuation search."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import Bounds, OptimizeWarning, minimize

from tfqkd import channel, optimize, rate
from tfqkd.channel import ChannelParams, IntensitySettings, standard_noise
from tfqkd.errors import InfeasibleFluctuationError, TfqkdError
from tfqkd.optimize import (FluctuationSpec, OptimizationSpec, _nelder_mead, _starts,
                            coordinate_descent, optimize_rate,
                            worst_case_fluctuation)
from tfqkd.rate import key_rate

SPEC3 = OptimizationSpec(decoys=3, multistart=6, seed=5)


class PerCell:
    """The scorer of ``_RateParts`` without the sharing: one ``key_rate`` call
    per point, and a count of the distinct (mu, nu) pairs it was given."""

    def __init__(self, params, f, n_cut):
        self.params, self.f, self.n_cut = params, f, n_cut
        self.pairs = set()

    @property
    def bound_sets(self):
        return len(self.pairs)

    def rate(self, alpha_a, alpha_b, mu, nu):
        settings_ = IntensitySettings(alpha_a=alpha_a, alpha_b=alpha_b, mu=mu, nu=nu)
        value = key_rate(self.params, settings_, self.f, self.n_cut).rate
        self.pairs.add((mu, nu))
        return value


class TestOptimizationSpec:
    def test_defaults(self):
        spec = OptimizationSpec(decoys=3)
        assert spec.weak_decoys == (1e-4, 1e-5)
        assert spec.strongest_box == (1e-3, 1.0)
        spec4 = OptimizationSpec(decoys=4)
        assert spec4.weak_decoys == (1e-3, 1e-4, 1e-5)
        assert spec4.strongest_box == (1e-2, 1.0)

    def test_wide_weak_decoys_extend_the_box(self):
        spec = OptimizationSpec(decoys=4, weak_decoys=(1e-1, 1e-2, 1e-3))
        lo, hi = spec.strongest_box
        assert lo == 1.0 and hi > lo

    def test_settings_roundtrip(self):
        s = SPEC3.settings((0.2, 0.3, 0.1, 0.09))
        assert s.alpha_a == 0.2 and s.alpha_b == 0.3
        assert s.mu == (0.1, 1e-4, 1e-5)
        assert s.nu == (0.09, 1e-4, 1e-5)

    def test_symmetric_vector(self):
        spec = OptimizationSpec(decoys=3, symmetric=True)
        s = spec.settings((0.2, 0.1))
        assert s.alpha_a == s.alpha_b == 0.2
        assert s.mu == s.nu

    def test_invalid_weak_decoys(self):
        with pytest.raises(ValueError):
            OptimizationSpec(decoys=3, weak_decoys=(1e-5, 1e-4))


class TestOptimizeRate:
    def test_reproducible(self):
        params = standard_noise(30, 30)
        a = optimize_rate(params, SPEC3)
        b = optimize_rate(params, SPEC3)
        assert a.rate == b.rate
        assert a.vector == b.vector

    def test_symmetric_channel_symmetric_optimum(self):
        params = standard_noise(30, 30)
        res = optimize_rate(params, OptimizationSpec(decoys=3, multistart=8, seed=5))
        assert res.rate > 0
        assert abs(res.vector[0] - res.vector[1]) <= 1e-3 * res.vector[0]
        assert abs(res.vector[2] - res.vector[3]) <= 1e-3 * res.vector[2]

    def test_lossier_side_uses_brighter_signal(self):
        params = standard_noise(40, 10)
        res = optimize_rate(params, OptimizationSpec(decoys=3, multistart=8, seed=5))
        assert res.rate > 0
        assert res.vector[0] ** 2 > res.vector[1] ** 2

    def test_symmetric_constraint_never_better(self):
        params = standard_noise(10, 40)
        free = optimize_rate(params, OptimizationSpec(decoys=3, multistart=8, seed=5))
        tied = optimize_rate(params, OptimizationSpec(decoys=3, multistart=8, seed=5,
                                                      symmetric=True))
        assert free.rate >= tied.rate

    def test_trace_records_every_restart(self):
        params = standard_noise(30, 30)
        res = optimize_rate(params, SPEC3)
        assert len(res.trace) >= SPEC3.multistart
        assert all("rate" in t and "vector" in t for t in res.trace)
        assert all(isinstance(t["nfev"], int) and t["nfev"] >= 1 for t in res.trace)
        winner = res.trace[res.best_start]
        assert winner["rate"] == res.rate and winner["vector"] == res.vector

    def test_corner_descent_stalls_below_multistart(self):
        params = standard_noise(20, 0)
        spec = OptimizationSpec(decoys=3, multistart=8, seed=5)
        stuck = coordinate_descent(params, spec)
        best = optimize_rate(params, spec)
        assert stuck.rate < best.rate


class TestWorstCaseFluctuation:
    def setup_method(self):
        self.params = standard_noise(30, 30)
        self.center = optimize_rate(self.params, SPEC3).settings

    def test_zero_magnitude_equals_center(self):
        wc = worst_case_fluctuation(self.params, self.center,
                                    FluctuationSpec(magnitude=0.0))
        assert wc.rate == key_rate(self.params, self.center).rate

    def test_non_increasing_in_magnitude(self):
        rates = []
        for r in (0.0, 0.1, 0.2):
            wc = worst_case_fluctuation(self.params, self.center,
                                        FluctuationSpec(magnitude=r, budget=16, seed=3))
            rates.append(wc.rate)
        assert rates[0] >= rates[1] >= rates[2]

    def test_worst_at_most_center(self):
        wc = worst_case_fluctuation(self.params, self.center,
                                    FluctuationSpec(magnitude=0.2, budget=16, seed=3))
        assert wc.rate <= key_rate(self.params, self.center).rate

    def test_reproducible(self):
        spec = FluctuationSpec(magnitude=0.2, budget=16, seed=3)
        a = worst_case_fluctuation(self.params, self.center, spec)
        b = worst_case_fluctuation(self.params, self.center, spec)
        assert a.rate == b.rate and a.vector == b.vector

    def test_each_distinct_vector_reaches_key_rate_once(self, monkeypatch):
        seen = []
        original = rate._RateParts.rate

        def recording(self, alpha_a, alpha_b, mu, nu):
            seen.append((alpha_a, alpha_b, mu, nu))
            return original(self, alpha_a, alpha_b, mu, nu)

        monkeypatch.setattr(rate._RateParts, "rate", recording)
        wc = worst_case_fluctuation(self.params, self.center,
                                    FluctuationSpec(magnitude=0.2, budget=16, seed=3))
        assert len(seen) == len(set(seen)) == wc.distinct_evaluations < wc.evaluations

    def test_overlapping_ranges_rejected(self):
        from tfqkd.channel import IntensitySettings
        tight = IntensitySettings(alpha_a=0.2, alpha_b=0.2,
                                  mu=(0.1, 0.09, 1e-5), nu=(0.1, 0.09, 1e-5))
        with pytest.raises(InfeasibleFluctuationError):
            worst_case_fluctuation(self.params, tight,
                                   FluctuationSpec(magnitude=0.2))

    def test_early_stop_threshold(self):
        wc = worst_case_fluctuation(self.params, self.center,
                                    FluctuationSpec(magnitude=0.3, budget=16, seed=3),
                                    stop_below=1e2)
        # the threshold exceeds every possible rate, so the very first
        # candidate below it short-circuits the search
        assert wc.evaluations <= 3


class TestPinnedFluctuationSearch:
    """The fluctuation benchmark's search, pinned bit for bit.

    Nominal settings and losses are the benchmark's (``benchmark/inputs.json``)
    copied as literals; r = 0.2, budget 64, seed 0.  The rate, every entry of
    the worst vector, the request count, the distinct vectors and the
    distinct intensity pairs among them must not move when the bound path or
    the search's bookkeeping changes.
    """

    NOMINAL = {
        3: ((12.0, 20.0), 0.10015779576739696, 0.22673734035678894,
            (0.001001913581935574, 1e-4, 1e-5), (0.001001952695641186, 1e-4, 1e-5)),
        4: ((14.0, 22.0), 0.11069436968860202, 0.2557377480805112,
            (0.001, 1e-4, 1e-5, 0.9543975178109179),
            (0.001, 1e-4, 1e-5, 0.9999862863220885)),
    }
    EXPECTED = {
        3: ("0x1.70ba397c2f504p-12",
            ("0x1.06f8d22c81d1ap-7", "0x1.f9610d5029590p-5", "0x1.3b142784012b8p-10",
             "0x1.f75104d551d69p-14", "0x1.8d95db52ed92ep-17", "0x1.3b2fe0dd8362cp-10",
             "0x1.f6da150695752p-14", "0x1.92a737110e454p-17"),
            1043, 1000, 806),
        4: ("0x1.ec1b409159ab8p-13",
            ("0x1.41362005e8d85p-7", "0x1.41768109862b4p-4", "0x1.a36e2eb1c432ep-11",
             "0x1.4f8b588e368f2p-14", "0x1.0c6f7a0b5ed8ep-17", "0x1.9a779fe53267ep-1",
             "0x1.3a92a30553261p-10", "0x1.f75104d551d69p-14", "0x1.92a737110e453p-17",
             "0x1.9998297ee0f8cp-1"),
            2747, 1833, 1001),
    }

    @pytest.mark.parametrize("decoys", (3, 4))
    def test_rate_vector_and_evaluations(self, decoys):
        loss, alpha_a, alpha_b, mu, nu = self.NOMINAL[decoys]
        center = IntensitySettings(alpha_a=alpha_a, alpha_b=alpha_b, mu=mu, nu=nu)
        wc = worst_case_fluctuation(standard_noise(*loss), center,
                                    FluctuationSpec(magnitude=0.2, budget=64, seed=0))
        rate, vector, evaluations, distinct, bound_sets = self.EXPECTED[decoys]
        assert wc.rate.hex() == rate
        assert tuple(v.hex() for v in wc.vector) == vector
        assert wc.evaluations == evaluations
        assert wc.distinct_evaluations == distinct
        assert wc.bound_sets == bound_sets


class TestPinnedOptimizeSearch:
    """The optimize benchmark's searches, pinned bit for bit.

    The benchmark's cells at their centre losses (3 decoys with
    ``multistart=4``, 4 decoys with ``multistart=2``), one default-spec and
    one symmetric-spec point, all with ``maxiter=100``.  The rate, every
    entry of the vector, the winning start and every start's ``nfev`` must
    not move when the start scan or the rate assembly changes.  The kept
    miss at (10, 45) dB is left out.
    """

    CASES = {
        "d3-12-24": (3, (12.0, 24.0), {"multistart": 4}, "0x1.69e8f713f868fp-13",
                     ("0x1.111cb6e830e42p-4", "0x1.d2fadb2adf6acp-3",
                      "0x1.106eaf9e3d3cep-10", "0x1.06d4a99bbeee4p-10"),
                     0, (229, 167, 101, 101)),
        "d3-16-30": (3, (16.0, 30.0), {"multistart": 4}, "0x1.6517bb712c0fdp-15",
                     ("0x1.cba1572cc3483p-5", "0x1.ec46690ed6e1ep-3",
                      "0x1.15f338bddfe9ap-10", "0x1.e1bb7abc20fc8p-2"),
                     0, (166, 167, 101, 101)),
        "d3-20-36": (3, (20.0, 36.0), {"multistart": 4}, "0x1.27738c3aa88fep-17",
                     ("0x1.6de87be6c1d70p-5", "0x1.e659e76f7b3e2p-3",
                      "0x1.0624dd2f1a9fcp-10", "0x1.d92ac9d912c8ap-2"),
                     1, (170, 174, 101, 101)),
        "d4-14-26": (4, (14.0, 26.0), {"multistart": 2}, "0x1.1ca0e00e7d1e1p-13",
                     ("0x1.3c689846c2b08p-4", "0x1.18bdbdca66ea2p-2",
                      "0x1.8e6c38dafa24cp-1", "0x1.0000000000000p+0"),
                     0, (165, 167)),
        "d4-18-32": (4, (18.0, 32.0), {"multistart": 2}, "0x1.0ef9b0e2d0225p-15",
                     ("0x1.0006a3a40529ap-4", "0x1.19e1e7b4fb5bap-2",
                      "0x1.687757cebe54ap-1", "0x1.0000000000000p+0"),
                     1, (180, 166)),
        "d3-default-20-0": (3, (20.0, 0.0), {}, "0x1.521c53e424ed9p-11",
                            ("0x1.19cc6519c9209p-2", "0x1.11c9cc4f5900ap-5",
                             "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10"),
                            6, (240, 174, 169, 167, 167, 174, 177, 166,
                                101, 101, 107, 107, 101, 101, 89, 101)),
        "d3-symmetric-12-24": (3, (12.0, 24.0), {"symmetric": True}, "0x1.881e9462d1689p-17",
                               ("0x1.e782fe96c3370p-5", "0x1.0624dd2f1a9fep-10"),
                               4, (50, 122, 47, 66, 65, 63, 56, 61,
                                   67, 67, 49, 67, 67, 67, 67, 67)),
    }
    # distinct intensity pairs given bounds, scan and local searches together
    BOUND_SETS = {"d3-12-24": 540, "d3-16-30": 477, "d3-20-36": 488, "d4-14-26": 340,
                  "d4-18-32": 349, "d3-default-20-0": 1908, "d3-symmetric-12-24": 450}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rate_vector_and_starts(self, case):
        decoys, loss, spec_args, rate, vector, best_start, nfev = self.CASES[case]
        res = optimize_rate(standard_noise(*loss), OptimizationSpec(decoys=decoys, **spec_args),
                            maxiter=100)
        assert res.rate.hex() == rate
        assert tuple(v.hex() for v in res.vector) == vector
        assert res.best_start == best_start
        assert tuple(t["nfev"] for t in res.trace) == nfev
        assert res.bound_sets == self.BOUND_SETS[case]

    def test_default_spec_and_budget(self):
        # the default iteration budget: two starts stop at the 3 * maxiter
        # evaluation cut, which no case above reaches
        res = optimize_rate(standard_noise(12.0, 24.0), OptimizationSpec(decoys=3))
        assert res.rate.hex() == "0x1.74686cd53868dp-13"
        assert tuple(v.hex() for v in res.vector) == (
            "0x1.1c59da8e2cfecp-4", "0x1.ea00417af2e88p-3",
            "0x1.0627023695d78p-10", "0x1.e17ff54e72f62p-2")
        assert res.best_start == 3
        assert tuple(t["nfev"] for t in res.trace) == (
            1200, 786, 257, 653, 1200, 227, 615, 582, 101, 101, 107, 107, 101, 101, 576, 101)
        assert res.bound_sets == 4524


class TestStartScanSharing:
    """The start scan builds one gain matrix per strongest-decoy pair: 16
    for the 624 cells of a free spec, 4 for the 72 of a symmetric one."""

    @pytest.mark.parametrize("decoys, symmetric, expected",
                             ((3, False, 16), (3, True, 4), (4, False, 16)))
    def test_one_gain_matrix_per_intensity_pair(self, monkeypatch, decoys, symmetric,
                                                expected):
        calls = []
        original = channel.simulate_gains

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (channel, rate, optimize):
            if getattr(module, "simulate_gains", None) is original:
                monkeypatch.setattr(module, "simulate_gains", counting)
        spec = OptimizationSpec(decoys=decoys, multistart=4, symmetric=symmetric)
        _starts(spec, optimize._RateParts(standard_noise(12, 24), 1.0, 40))
        assert len(calls) == expected

    @pytest.mark.parametrize("symmetric", (False, True))
    def test_cells_score_as_key_rate(self, symmetric):
        params = standard_noise(14, 26)
        spec = OptimizationSpec(decoys=3, symmetric=symmetric)
        lo, hi = spec.box()
        parts = rate._RateParts(params, 1.0, 40)
        rng = np.random.default_rng(3)
        for _ in range(40):
            p = np.exp(rng.uniform(np.log(lo), np.log(hi)))
            expected = key_rate(params, spec.settings(p)).rate
            assert parts.rate(*spec._point(p)) == expected

    @pytest.mark.parametrize("spec, loss", [
        (OptimizationSpec(decoys=3, multistart=6, seed=5), (20, 0)),
        (OptimizationSpec(decoys=4, symmetric=True), (30, 30)),
        # the widest amplitudes overflow the X-basis click probability
        (OptimizationSpec(decoys=3, alpha_box=(1e-3, 60.0)), (0, 0)),
    ], ids=["d3", "d4-symmetric", "d3-saturating"])
    def test_same_starts_and_first_error_as_key_rate_per_cell(self, monkeypatch, spec, loss):
        params = standard_noise(*loss)

        def scan():
            try:
                return [p.tolist()
                        for p in _starts(spec, optimize._RateParts(params, 1.0, 40))]
            except TfqkdError as exc:
                return type(exc), str(exc)

        shared = scan()
        monkeypatch.setattr(optimize, "_RateParts", PerCell)
        assert scan() == shared


class TestSearchesShareParts:
    """Every search scores its points through its own ``_RateParts``; with
    ``PerCell`` in its place (one ``key_rate`` call per point) each returns
    the same result, counts and traces included, bit for bit."""

    @staticmethod
    def both(monkeypatch, search):
        shared = search()
        monkeypatch.setattr(optimize, "_RateParts", PerCell)
        return shared, search()

    CENTERS = {
        3: IntensitySettings(alpha_a=0.08, alpha_b=0.09, mu=(0.05, 1e-4, 1e-5),
                             nu=(0.06, 1e-4, 1e-5)),
        4: IntensitySettings(alpha_a=0.08, alpha_b=0.09, mu=(1e-3, 1e-4, 1e-5, 0.3),
                             nu=(1e-3, 1e-4, 1e-5, 0.35)),
    }

    # thresholds a few corners into each box's search
    STOP_BELOW = {3: 5.27e-6, 4: 5.42e-6}

    @pytest.mark.parametrize("decoys", (3, 4))
    @pytest.mark.parametrize("magnitude, stop", [(0.2, False), (0.0, False), (0.2, True)],
                             ids=["full", "magnitude-0", "stop-below"])
    def test_worst_case_fluctuation(self, monkeypatch, decoys, magnitude, stop):
        params = standard_noise(30, 30)
        fspec = FluctuationSpec(magnitude=magnitude, budget=8, seed=1)
        stop_below = self.STOP_BELOW[decoys] if stop else None
        shared, per_cell = self.both(monkeypatch, lambda: worst_case_fluctuation(
            params, self.CENTERS[decoys], fspec, stop_below=stop_below))
        assert shared.rate.hex() == per_cell.rate.hex()
        assert shared == per_cell
        assert 1 <= shared.bound_sets <= shared.distinct_evaluations

    def test_optimize_rate_symmetric(self, monkeypatch):
        spec = OptimizationSpec(decoys=3, multistart=4, symmetric=True)
        shared, per_cell = self.both(monkeypatch, lambda: optimize_rate(
            standard_noise(12, 24), spec, maxiter=40))
        assert shared.rate.hex() == per_cell.rate.hex()
        assert shared == per_cell  # the trace, with each start's nfev, included

    def test_coordinate_descent(self, monkeypatch):
        # an amplitude box whose lower corner already has a positive rate
        spec = OptimizationSpec(decoys=3, alpha_box=(0.05, 0.6))
        shared, per_cell = self.both(monkeypatch, lambda: coordinate_descent(
            standard_noise(20, 0), spec))
        assert shared.rate > 0.0
        assert shared.rate.hex() == per_cell.rate.hex()
        assert shared == per_cell
        assert shared.bound_sets > 1


def _box_problem(seed):
    """A seeded bounded problem: dimension 1-10; a quadratic, a plateau of
    ties or a kinked sum whose minimum may lie outside the box; a start with
    coordinates on the upper bound or at zero, or outside the box; budgets
    that may cut the search by iterations or by calls."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    lo = rng.uniform(-2.0, 1.0, n)
    hi = lo + rng.uniform(0.05, 3.0, n)
    target = rng.uniform(lo - 1.0, hi + 1.0)
    weight = rng.uniform(0.2, 5.0, n)
    kind = seed % 3

    def fun(x):
        if kind == 2:
            return float(np.sum(weight * np.abs(x - target)))
        q = float(np.sum(weight * (x - target) ** 2))
        return math.floor(8.0 * q) / 8.0 if kind == 1 else q

    x0 = rng.uniform(lo, hi)
    on_hi = rng.random(n) < 0.3
    x0[on_hi] = hi[on_hi]
    x0[(rng.random(n) < 0.3) & (lo < 0) & (hi > 0)] = 0.0
    if seed % 7 == 0:
        x0 += rng.uniform(-1.0, 1.0, n)
    xatol, fatol = [(1e-6, 1e-14), (1e-8, 1e-16), (1e-3, 1e-3)][int(rng.integers(3))]
    maxiter = int(rng.choice([5, 30, 100, 400]))
    maxfev = [math.inf, 3 * maxiter, int(rng.integers(1, 4 * n + 4))][int(rng.integers(3))]
    return fun, x0, lo, hi, xatol, fatol, maxiter, maxfev


class TestNelderMeadMatchesScipy:
    """``_nelder_mead`` returns SciPy's ``minimize(method="Nelder-Mead",
    bounds=...)`` vertex and call count bit for bit."""

    @staticmethod
    def check(fun, x0, lo, hi, xatol, fatol, maxiter, maxfev):
        x, nfev = _nelder_mead(fun, x0, lo, hi, xatol, fatol, maxiter, maxfev)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)  # a start outside the box
            res = minimize(fun, x0, method="Nelder-Mead", bounds=Bounds(lo, hi),
                           options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter,
                                    "maxfev": maxfev})
        assert x.tobytes() == res.x.tobytes()
        assert nfev == res.nfev

    @pytest.mark.parametrize("block", range(3))
    def test_seeded_problems(self, block):
        # 300 problems; every branch runs, the outside contraction's shrink too
        for seed in range(100 * block, 100 * block + 100):
            self.check(*_box_problem(seed))

    @pytest.mark.parametrize("maxfev", [2, 4, 5, 6, 7, 8, 9, math.inf])
    def test_flat_objective_shrinks_every_iteration(self, maxfev):
        # no reflection or contraction ever improves, so each iteration
        # shrinks; the cuts land in the first simplex and in the shrinks.  The
        # first shrink's first vertex, (0.000125, 0.5, 1), is the one better
        # point: a cut after it (7, 8) must still sort it to the front
        self.check(lambda x: -1.0 if x[0] == 0.000125 else 0.0, np.array([0.0, 0.5, 1.0]),
                   np.zeros(3), np.ones(3), 1e-6, 1e-14, 50, maxfev)


_ODD_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 2.5, 0.0, -1.0,
                     0.5, 1e-3]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 40),
)


def _mostly(valid, odd):
    """Draws from ``valid`` three times in four, so that most examples pass
    construction and reach the use of the object."""
    return st.integers(0, 3).flatmap(lambda k: odd if k == 3 else st.sampled_from(valid))


class TestConstructorContract:
    """A spec or channel either fails at construction with ``ValueError`` or
    can be used: no late numpy warning, ``TypeError`` or math domain error."""

    @pytest.mark.parametrize("make", [
        lambda: OptimizationSpec(decoys=3, strongest_box=(0.01, math.inf)),
        lambda: OptimizationSpec(decoys=3, alpha_box=(1e-3, math.inf)),
        lambda: OptimizationSpec(decoys=3, weak_decoys=(math.nan, 1e-5),
                                 strongest_box=(0.01, 1.0)),
        lambda: OptimizationSpec(decoys=3, multistart=2.5),
        lambda: OptimizationSpec(decoys=3, seed=-1),
        lambda: FluctuationSpec(magnitude=0.1, budget=2.5),
        lambda: FluctuationSpec(magnitude=0.1, seed=-1),
        lambda: ChannelParams(eta_a=0.1, eta_b=0.1, theta_a=math.nan),
        lambda: ChannelParams(eta_a=0.1, eta_b=0.1, delta=math.inf),
        lambda: ChannelParams(eta_a=0.1, eta_b=0.1, delta=1e308),
        lambda: ChannelParams(eta_a=0.1, eta_b=0.1, theta_a=1e308, theta_b=-1e308),
    ], ids=["strongest-inf", "alpha-inf", "weak-nan", "multistart-2.5", "spec-seed-negative",
            "budget-2.5", "fluctuation-seed-negative", "theta-nan", "delta-inf",
            "delta-pi-overflows", "net-theta-overflows"])
    def test_rejected_at_construction(self, make):
        with pytest.raises(ValueError):
            make()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(decoys=st.sampled_from([3, 4]), symmetric=st.booleans(),
           alpha=_mostly([(1e-3, 1.5), (0.05, 0.6), (1e-3, 1e6)],
                         st.tuples(_ODD_NUMBERS, _ODD_NUMBERS)),
           strongest=_mostly([None, (0.02, 1.0), (0.5, 1e300)],
                             st.tuples(_ODD_NUMBERS, _ODD_NUMBERS)),
           multistart=_mostly([1, 2, 3], _ODD_NUMBERS),
           seed=_mostly([0, 7, 2 ** 40], _ODD_NUMBERS))
    def test_optimization_spec(self, decoys, symmetric, alpha, strongest, multistart, seed):
        try:
            spec = OptimizationSpec(decoys=decoys, alpha_box=alpha, strongest_box=strongest,
                                    multistart=multistart, seed=seed, symmetric=symmetric)
        except ValueError:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                points = _starts(spec, optimize._RateParts(standard_noise(12, 24), 1.0, 40))
            except TfqkdError:
                return  # extreme boxes saturate the rate: a package error
        lo, hi = spec.box()
        assert len(points) == max(spec.multistart, 2)
        assert all(np.all(lo <= p) and np.all(p <= hi) for p in points)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(magnitude=_mostly([0.0, 0.2, 0.9], _ODD_NUMBERS),
           budget=_mostly([0, 4, 64], _ODD_NUMBERS), seed=_mostly([0, 7, 2 ** 40], _ODD_NUMBERS))
    def test_fluctuation_spec(self, magnitude, budget, seed):
        try:
            fspec = FluctuationSpec(magnitude=magnitude, budget=budget, seed=seed)
        except ValueError:
            return
        # what the search does with them
        np.random.default_rng(fspec.seed)
        assert len(range(fspec.budget)) == fspec.budget

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(eta=_mostly([(0.1, 0.01), (1.0, 0.0), (1e-300, 0.5)],
                       st.tuples(_ODD_NUMBERS, _ODD_NUMBERS)),
           p_d=_mostly([0.0, 1e-7, 0.5], _ODD_NUMBERS),
           angles=st.tuples(*[_mostly([0.0, 0.28, -3.0], _ODD_NUMBERS)] * 3))
    def test_channel_params(self, eta, p_d, angles):
        try:
            params = ChannelParams(eta_a=eta[0], eta_b=eta[1], p_d=p_d, theta_a=angles[0],
                                   theta_b=angles[1], delta=angles[2])
        except ValueError:
            return
        settings_ = IntensitySettings(alpha_a=0.1, alpha_b=0.2, mu=(0.2, 1e-3, 1e-4),
                                      nu=(0.3, 1e-3, 1e-4))
        try:
            res = key_rate(params, settings_)
        except TfqkdError:
            return
        assert 0.0 <= res.rate <= 1.0
