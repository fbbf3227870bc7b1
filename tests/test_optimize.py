"""Multistart optimization and worst-case fluctuation search."""

import pytest

from tfqkd.channel import IntensitySettings, standard_noise
from tfqkd.errors import InfeasibleFluctuationError
from tfqkd.optimize import (FluctuationSpec, OptimizationSpec,
                            coordinate_descent, optimize_rate,
                            worst_case_fluctuation)
from tfqkd.rate import key_rate

SPEC3 = OptimizationSpec(decoys=3, multistart=6, seed=5)


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
        lo, _ = spec.box()
        stuck = coordinate_descent(params, spec, start=lo, first_coordinate=1)
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
        import tfqkd.optimize
        seen = []

        def recording(params, settings, *args):
            seen.append((settings.alpha_a, settings.alpha_b, settings.mu, settings.nu))
            return key_rate(params, settings, *args)

        monkeypatch.setattr(tfqkd.optimize, "key_rate", recording)
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
    the worst vector and the request count must not move when the bound path
    or the search's bookkeeping changes.
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
            1043),
        4: ("0x1.ec1b409159ab8p-13",
            ("0x1.41362005e8d85p-7", "0x1.41768109862b4p-4", "0x1.a36e2eb1c432ep-11",
             "0x1.4f8b588e368f2p-14", "0x1.0c6f7a0b5ed8ep-17", "0x1.9a779fe53267ep-1",
             "0x1.3a92a30553261p-10", "0x1.f75104d551d69p-14", "0x1.92a737110e453p-17",
             "0x1.9998297ee0f8cp-1"),
            2747),
    }

    @pytest.mark.parametrize("decoys", (3, 4))
    def test_rate_vector_and_evaluations(self, decoys):
        loss, alpha_a, alpha_b, mu, nu = self.NOMINAL[decoys]
        center = IntensitySettings(alpha_a=alpha_a, alpha_b=alpha_b, mu=mu, nu=nu)
        wc = worst_case_fluctuation(standard_noise(*loss), center,
                                    FluctuationSpec(magnitude=0.2, budget=64, seed=0))
        rate, vector, evaluations = self.EXPECTED[decoys]
        assert wc.rate.hex() == rate
        assert tuple(v.hex() for v in wc.vector) == vector
        assert wc.evaluations == evaluations
