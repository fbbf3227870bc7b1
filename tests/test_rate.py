"""Phase-error bound, entropies, key-rate assembly, benchmark."""

import math

import pytest

from tfqkd.channel import IntensitySettings, standard_noise
from tfqkd.decoy3 import YieldBounds
from tfqkd.rate import (_RateParts, binary_entropy, key_rate, phase_error_upper,
                        plob_bound)


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_limits(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_reference_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.49992, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestPlob:
    def test_half_product(self):
        assert plob_bound(0.5, 1.0) == 1.0

    def test_zero(self):
        assert plob_bound(0.0, 0.7) == 0.0

    def test_small_product(self):
        assert plob_bound(0.1, 0.1) == pytest.approx(0.014500, abs=1e-6)

    def test_unit_product_rejected(self):
        with pytest.raises(ValueError):
            plob_bound(1.0, 1.0)

    def test_high_loss_keeps_relative_accuracy(self):
        # 80 + 80 dB: -log2(1 - p) is p / ln 2 to far below double precision
        eta = 10.0 ** -8
        assert plob_bound(eta, eta) == pytest.approx(eta * eta / math.log(2), rel=1e-15)

    def test_infinite_loss_is_positive_zero(self):
        eta = standard_noise(math.inf, 20).eta_a
        value = plob_bound(eta, 0.01)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def parity_partials(alpha, n_max):
    w = [math.exp(-0.5 * alpha * alpha)]
    for n in range(1, n_max + 1):
        w.append(w[-1] * alpha / math.sqrt(n))
    return sum(w[0::2]), sum(w[1::2])


class TestPhaseErrorUpper:
    def test_zero_stored_bounds_small_amplitudes(self):
        bounds = YieldBounds()
        for target in ((0, 0), (1, 1), (2, 2), (0, 2), (2, 0), (0, 4), (4, 0),
                       (1, 3), (3, 1)):
            bounds.bounds[target] = 0.0
        res = phase_error_upper(bounds, 0.05, 0.05, p_x=0.01, n_cut=40)
        # everything except the tiny unbounded tail is switched off
        assert res.e_z_upp < 1e-8

    def test_vacuum_amplitudes_all_default(self):
        res = phase_error_upper(YieldBounds(), 0.0, 0.0, p_x=1.0, n_cut=40)
        assert res.e_z_upp == pytest.approx(1.0, abs=1e-12)

    def test_all_one_yields_brute_force(self):
        # separable closed form against the raw double series to order 80;
        # p_x is chosen above the product so the unit clamp stays inactive
        alpha_a, alpha_b = 0.37, 0.52
        ea, oa = parity_partials(alpha_a, 80)
        eb, ob = parity_partials(alpha_b, 80)
        brute = (ea * eb) ** 2 + (oa * ob) ** 2
        p_x = 2.0 * brute
        res = phase_error_upper(YieldBounds(), alpha_a, alpha_b, p_x=p_x, n_cut=40)
        assert res.e_z_upp == pytest.approx(0.5, rel=1e-12)

    def test_truncation_stability(self):
        params = standard_noise(25, 25)
        s = IntensitySettings(alpha_a=0.2, alpha_b=0.2,
                              mu=(0.1, 1e-4, 1e-5), nu=(0.1, 1e-4, 1e-5))
        r40 = key_rate(params, s, n_cut=40)
        r80 = key_rate(params, s, n_cut=80)
        assert abs(r40.e_z_upp - r80.e_z_upp) < 1e-10

    def test_tail_below_target(self):
        res = phase_error_upper(YieldBounds(), 1.4, 1.4, p_x=0.5, n_cut=40)
        assert res.tail < 1e-10

    def test_p_x_zero_rejected(self):
        with pytest.raises(ValueError):
            phase_error_upper(YieldBounds(), 0.1, 0.1, p_x=0.0)


class TestKeyRate:
    def test_positive_at_low_loss(self):
        params = standard_noise(0, 0)
        s = IntensitySettings(alpha_a=0.5, alpha_b=0.5,
                              mu=(1e-3, 1e-4, 1e-5, 0.5), nu=(1e-3, 1e-4, 1e-5, 0.5))
        res = key_rate(params, s)
        assert res.rate > 0

    def test_extreme_loss_clamps_to_zero(self):
        params = standard_noise(200, 200)
        s = IntensitySettings(alpha_a=0.1, alpha_b=0.1,
                              mu=(0.1, 1e-4, 1e-5), nu=(0.1, 1e-4, 1e-5))
        res = key_rate(params, s)
        assert res.rate == 0.0

    def test_per_event_additivity(self):
        params = standard_noise(25, 25)
        s = IntensitySettings(alpha_a=0.2, alpha_b=0.2,
                              mu=(0.1, 1e-4, 1e-5), nu=(0.1, 1e-4, 1e-5))
        res = key_rate(params, s)
        assert res.rate == max(res.rate_omega_c, 0.0) + max(res.rate_omega_d, 0.0)
        assert res.rate_omega_c == res.rate_omega_d

    def test_monotone_in_loss_at_fixed_settings(self):
        s = IntensitySettings(alpha_a=0.17, alpha_b=0.17,
                              mu=(0.1, 1e-4, 1e-5), nu=(0.1, 1e-4, 1e-5))
        rates = [key_rate(standard_noise(d, d), s).rate for d in (20, 25, 30, 35)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_vacuum_signal_gives_zero_rate(self):
        params = standard_noise(20, 20, p_d=0.0)
        s = IntensitySettings(alpha_a=0.0, alpha_b=0.0,
                              mu=(0.1, 1e-4, 1e-5), nu=(0.1, 1e-4, 1e-5))
        res = key_rate(params, s)
        assert res.rate == 0.0
        assert res.p_x == 0.0

    def test_reconciliation_efficiency_lowers_rate(self):
        params = standard_noise(25, 25)
        s = IntensitySettings(alpha_a=0.17, alpha_b=0.17,
                              mu=(0.1, 1e-4, 1e-5), nu=(0.1, 1e-4, 1e-5))
        assert key_rate(params, s, f=1.2).rate < key_rate(params, s, f=1.0).rate

    @pytest.mark.parametrize("f", [math.nan, math.inf, -0.5])
    def test_bad_reconciliation_efficiency_rejected(self, f):
        s = IntensitySettings(alpha_a=0.17, alpha_b=0.17,
                              mu=(0.1, 1e-4, 1e-5), nu=(0.1, 1e-4, 1e-5))
        with pytest.raises(ValueError):
            key_rate(standard_noise(25, 25), s, f=f)


class TestNCutRange:
    # n_cut sizes the weight series, so one outside [10, 640] is refused where
    # it enters; a huge one must never reach the allocation
    SETTINGS = IntensitySettings(alpha_a=0.17, alpha_b=0.17,
                                 mu=(0.1, 1e-4, 1e-5), nu=(0.1, 1e-4, 1e-5))

    @pytest.mark.parametrize("n_cut", [9, 641, 40.5, True])
    def test_rejected_everywhere_it_enters(self, n_cut):
        with pytest.raises(ValueError, match="n_cut"):
            key_rate(standard_noise(25, 25), self.SETTINGS, n_cut=n_cut)
        with pytest.raises(ValueError, match="n_cut"):
            phase_error_upper(YieldBounds(), 0.17, 0.17, p_x=0.5, n_cut=n_cut)
        with pytest.raises(ValueError, match="n_cut"):
            _RateParts(standard_noise(25, 25), 1.0, n_cut)

    def test_rejected_on_the_zero_p_x_branch(self):
        s = IntensitySettings(alpha_a=0.0, alpha_b=0.0,
                              mu=(0.1, 1e-4, 1e-5), nu=(0.1, 1e-4, 1e-5))
        with pytest.raises(ValueError, match="n_cut"):
            key_rate(standard_noise(20, 20, p_d=0.0), s, n_cut=641)

    @pytest.mark.parametrize("n_cut", [10, 640])
    def test_range_ends_accepted(self, n_cut):
        rate = key_rate(standard_noise(25, 25), self.SETTINGS, n_cut=n_cut).rate
        assert rate == _RateParts(standard_noise(25, 25), 1.0, n_cut).rate(
            0.17, 0.17, self.SETTINGS.mu, self.SETTINGS.nu)
