"""Channel model: special function, statistics, gains and yields."""

import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from tfqkd.channel import (ChannelParams, GainMatrix, IntensitySettings, bessel_i0,
                           db_to_transmittance, gain, standard_noise,
                           theoretical_yield, x_basis_statistics)
from tfqkd.errors import SaturationError
from tfqkd.rate import key_rate, plob_bound


def bessel_series(x, terms):
    """Independent power-series oracle sum_k (x/2)^(2k) / (k!)^2."""
    total = 0.0
    for k in range(terms):
        total += (x / 2.0) ** (2 * k) / math.factorial(k) ** 2
    return total


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_series_oracle_small(self):
        assert bessel_i0(1.0) == pytest.approx(bessel_series(1.0, 30), rel=1e-14)
        assert bessel_i0(1.0) == pytest.approx(1.2660658777520084, rel=1e-13)

    def test_series_oracle_ten(self):
        assert bessel_i0(10.0) == pytest.approx(bessel_series(10.0, 60), rel=1e-13)
        assert bessel_i0(10.0) == pytest.approx(2815.716628466254, rel=1e-13)

    @pytest.mark.parametrize("x", [0.3, 3.0, 15.0, 19.9, 20.1, 25.0, 60.0, 200.0, 700.0])
    def test_high_precision_reference(self, x):
        ref = float(mpmath.besseli(0, mpmath.mpf(x)))
        assert bessel_i0(x) == pytest.approx(ref, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bessel_i0(-1.0)

    def test_saturation(self):
        with pytest.raises(SaturationError):
            bessel_i0(800.0)


class TestXBasisStatistics:
    def test_noiseless_symmetric_error_free(self):
        params = ChannelParams(eta_a=1.0, eta_b=1.0)
        stats = x_basis_statistics(params, 1.0, 1.0)
        assert stats.e_x == 0.0
        assert stats.chi == stats.gamma == 1.0

    def test_error_free_for_matched_arrivals(self):
        # eta_a alpha_a^2 == eta_b alpha_b^2 exactly, no noise -> e_x == 0
        params = ChannelParams(eta_a=0.5, eta_b=0.125)
        stats = x_basis_statistics(params, 0.5, 1.0)
        assert params.eta_a * 0.25 == params.eta_b * 1.0
        assert stats.e_x == 0.0

    def test_vacuum_no_darks_gives_no_clicks(self):
        params = ChannelParams(eta_a=0.7, eta_b=0.4)
        stats = x_basis_statistics(params, 0.0, 0.0)
        assert stats.p_x == 0.0
        assert math.isnan(stats.e_x)

    def test_against_high_precision_closed_form(self):
        # literal closed forms evaluated in 50-digit arithmetic
        params = standard_noise(20, 20)
        alpha = mpmath.mpf("0.5")
        with mpmath.workdps(50):
            eta = mpmath.mpf(10) ** mpmath.mpf(-2)
            gamma = (eta * alpha ** 2 + eta * alpha ** 2) / 2
            theta = 2 * mpmath.asin(mpmath.sqrt(mpmath.mpf("0.02")))
            phi = mpmath.mpf("0.02") * mpmath.pi
            chi = alpha * alpha * mpmath.sqrt(eta * eta) * mpmath.cos(phi) * mpmath.cos(theta)
            pd = mpmath.mpf("1e-7")
            num = mpmath.e ** (-chi) - (1 - pd) * mpmath.e ** (-gamma)
            den = mpmath.e ** (-chi) + mpmath.e ** chi - 2 * (1 - pd) * mpmath.e ** (-gamma)
            e_x_ref = float(num / den)
            p_x_ref = float((1 - pd) * (mpmath.e ** (-chi) + mpmath.e ** chi)
                            * mpmath.e ** (-gamma) / 2 - (1 - pd) ** 2 * mpmath.e ** (-2 * gamma))
        stats = x_basis_statistics(params, 0.5, 0.5)
        assert stats.e_x == pytest.approx(e_x_ref, rel=1e-12)
        assert stats.p_x == pytest.approx(p_x_ref, rel=1e-12)

    def test_event_symmetry_single_value(self):
        # one number serves both detector events for this model
        params = standard_noise(13, 29)
        s1 = x_basis_statistics(params, 0.3, 0.4)
        s2 = x_basis_statistics(params, 0.3, 0.4)
        assert s1 == s2


class TestGain:
    def test_vacuum_no_darks(self):
        params = ChannelParams(eta_a=0.6, eta_b=0.3)
        assert gain(params, 0.0, 0.0) == 0.0

    def test_vacuum_with_darks(self):
        params = ChannelParams(eta_a=0.6, eta_b=0.3, p_d=1e-3)
        assert gain(params, 0.0, 0.0) == pytest.approx(1e-3 * (1 - 1e-3), rel=1e-12)

    def test_series_reconstruction(self):
        # Poisson mixture of the closed-form yields reproduces the gain
        from tfqkd.oracles.fock import gain_reconstruction_error
        params = standard_noise(10, 30, p_d=0.0)
        err, tol = gain_reconstruction_error(params, 0.1, 0.05, 40)
        assert err <= tol + 1e-15

    def test_matches_literal_formula(self):
        params = standard_noise(17, 23)
        mu_k, nu_l = 0.21, 0.07
        arriving = mu_k * params.eta_a + nu_l * params.eta_b
        literal = (1 - params.p_d) * (
            math.exp(-arriving / 2)
            * bessel_i0(math.sqrt(mu_k * nu_l * params.eta_a * params.eta_b)
                        * math.cos(params.theta))
            - (1 - params.p_d) * math.exp(-arriving))
        assert gain(params, mu_k, nu_l) == pytest.approx(literal, rel=1e-12)

    @pytest.mark.parametrize("mu_k, nu_l", [(50.0, 50.0), (30.0, 60.0), (25.0, 20.0)])
    def test_asymptotic_bessel_branch(self, mu_k, nu_l):
        # mu_k nu_l eta_a eta_b cos^2(theta) > 400 puts the Bessel argument
        # past 20, where the gain takes log I0 from the asymptotic series
        params = standard_noise(0, 0)
        x = math.sqrt(mu_k * nu_l * params.eta_a * params.eta_b) * math.cos(params.theta)
        assert x > 20.0
        with mpmath.workdps(50):
            s = mpmath.mpf(mu_k) * params.eta_a + mpmath.mpf(nu_l) * params.eta_b
            one_m_pd = 1 - mpmath.mpf(params.p_d)
            literal = one_m_pd * (mpmath.exp(-s / 2) * mpmath.besseli(0, x)
                                  - one_m_pd * mpmath.exp(-s))
        assert gain(params, mu_k, nu_l) == pytest.approx(float(literal), rel=1e-13)

    def test_overflowing_gain_is_saturation(self):
        # expm1(s/2 + log I0(x)) overflows at 1e4 arriving photons
        settings_ = IntensitySettings(alpha_a=0.1, alpha_b=0.1, mu=(1e6, 1e-4, 1e-5),
                                      nu=(0.1, 1e-4, 1e-5))
        with pytest.raises(SaturationError, match="overflows the gain"):
            key_rate(standard_noise(20, 20), settings_)

    def test_finite_just_below_the_overflow(self):
        # the exponent is 709.74, past the 709 cut of the X-basis check: the
        # gain is still finite and keeps its value
        params = ChannelParams(eta_a=1.0, eta_b=1.0)
        assert gain(params, 356.8, 356.8).hex() == "0x1.5a278b66e4b17p-6"


class TestTheoreticalYield:
    def test_vacuum_vacuum_zero(self):
        params = standard_noise(20, 20)
        assert theoretical_yield(params, 0, 0) == 0.0

    def test_single_photon_aligned(self):
        params = ChannelParams(eta_a=0.37, eta_b=0.9)
        assert theoretical_yield(params, 1, 0) == pytest.approx(0.37 / 2, rel=1e-12)
        assert theoretical_yield(params, 0, 1) == pytest.approx(0.9 / 2, rel=1e-12)

    def test_two_two_matches_enumeration(self):
        from tfqkd.oracles import fock_yield
        params = standard_noise(11, 7)
        assert theoretical_yield(params, 2, 2) == pytest.approx(
            fock_yield(params, 2, 2), abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0),
           st.integers(0, 8), st.integers(0, 8))
    def test_in_unit_interval(self, eta_a, eta_b, n, m):
        params = ChannelParams(eta_a=eta_a, eta_b=eta_b,
                               theta_a=0.28, theta_b=0.05)
        y = theoretical_yield(params, n, m)
        assert 0.0 <= y <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.001, 0.06), st.floats(0.001, 0.06),
           st.integers(0, 6), st.integers(0, 6))
    def test_monotone_in_transmittance_at_high_loss(self, eta_a, eta_b, n, m):
        # extra transmittance helps while eta (n + m) stays below ~1.4; beyond
        # that the single-click event genuinely turns around, see
        # test_not_monotone_near_unit_transmittance
        base = ChannelParams(eta_a=eta_a, eta_b=eta_b, theta_a=0.28)
        up_a = ChannelParams(eta_a=eta_a * 1.1, eta_b=eta_b, theta_a=0.28)
        up_b = ChannelParams(eta_a=eta_a, eta_b=eta_b * 1.1, theta_a=0.28)
        y = theoretical_yield(base, n, m)
        assert theoretical_yield(up_a, n, m) >= y - 1e-12
        assert theoretical_yield(up_b, n, m) >= y - 1e-12

    @pytest.mark.parametrize("theta_b", [0.3, -0.2])
    def test_aligned_alice_matches_enumeration_and_mirror(self, theta_b):
        # theta_a = 0 with theta_b != 0 reads the mirrored channel's survivor
        # table, transposed
        from tfqkd.oracles import fock_yield
        params = ChannelParams(eta_a=0.3, eta_b=0.7, theta_b=theta_b)
        mirror = ChannelParams(eta_a=0.7, eta_b=0.3, theta_a=theta_b)
        for n in range(6):
            for m in range(6):
                y = theoretical_yield(params, n, m)
                assert y == pytest.approx(fock_yield(params, n, m), abs=1e-15)
                assert y == pytest.approx(theoretical_yield(mirror, m, n), abs=1e-15)

    def test_not_monotone_near_unit_transmittance(self):
        # counterexample: three photons bunch at a balanced splitter, so a
        # brighter channel makes the exactly-one-detector event less likely
        lo = ChannelParams(eta_a=0.5, eta_b=0.5)
        hi = ChannelParams(eta_a=0.5, eta_b=1.0)
        assert theoretical_yield(lo, 0, 3) == pytest.approx(0.296875, rel=1e-12)
        assert theoretical_yield(hi, 0, 3) == pytest.approx(0.125, rel=1e-12)


class TestTypes:
    def test_db_round_trip(self):
        assert db_to_transmittance(20) == pytest.approx(0.01, rel=1e-14)

    def test_intensity_ordering_three(self):
        with pytest.raises(ValueError):
            IntensitySettings(alpha_a=0.1, alpha_b=0.1,
                              mu=(0.1, 0.1, 0.01), nu=(0.1, 0.01, 0.001))

    def test_intensity_ordering_four(self):
        # strongest must come last and dominate the first three
        IntensitySettings(alpha_a=0.1, alpha_b=0.1,
                          mu=(1e-3, 1e-4, 1e-5, 0.2), nu=(1e-3, 1e-4, 1e-5, 0.2))
        with pytest.raises(ValueError):
            IntensitySettings(alpha_a=0.1, alpha_b=0.1,
                              mu=(0.2, 1e-4, 1e-5, 1e-3), nu=(1e-3, 1e-4, 1e-5, 0.2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_settings_rejected(self, bad):
        mu = (0.1, 1e-4, 1e-5)
        for kwargs in ({"alpha_a": bad, "mu": mu}, {"alpha_a": 0.1, "mu": (bad,) + mu[1:]}):
            with pytest.raises(ValueError, match="finite"):
                IntensitySettings(alpha_b=0.1, nu=mu, **kwargs)

    def test_gain_matrix_range(self):
        from tfqkd.channel import GainMatrix
        with pytest.raises(ValueError):
            GainMatrix(q=((0.1, 0.2, 1.2), (0.1, 0.2, 0.3), (0.1, 0.2, 0.3)))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(eta_a=1.2, eta_b=0.5)
        with pytest.raises(ValueError):
            ChannelParams(eta_a=0.5, eta_b=0.5, p_d=1.0)


# gain entries: in range, extreme, negative, subnormal or not finite
_GAIN_ENTRIES = st.one_of(
    st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2, 2), st.sampled_from([-0.0, 5e-324, -5e-324, 2.2e-308, 1.0 + 2.0 ** -52,
                                         -1e-300, 1.7976931348623157e308, math.nan,
                                         math.inf, -math.inf]))
# square matrices of 0 to 5 rows, or ragged ones
_GAIN_ROWS = st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(_GAIN_ENTRIES, min_size=n, max_size=n) | st.lists(_GAIN_ENTRIES, max_size=5),
    min_size=n, max_size=n))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(q=_GAIN_ROWS, omega=st.sampled_from(["c", "d", "x"]))
def test_gain_matrix_contract(q, omega):
    """Any entries either raise ``ValueError`` or give a 3x3 or 4x4 matrix
    of floats in [0, 1]."""
    try:
        gains = GainMatrix(q=q, omega=omega)
    except ValueError:
        return
    assert gains.size in (3, 4) and all(len(row) == gains.size for row in gains.q)
    assert all(type(v) is float and 0.0 <= v <= 1.0 for row in gains.q for v in row)


@pytest.mark.parametrize("call", [
    lambda: db_to_transmittance(math.nan),
    lambda: db_to_transmittance(-1.0),
    lambda: bessel_i0(math.nan),
    lambda: bessel_i0(-1.0),
    lambda: gain(standard_noise(10, 10), math.nan, 0.1),
    lambda: gain(standard_noise(10, 10), 0.1, math.nan),
    lambda: gain(standard_noise(10, 10), -0.1, 0.1),
    lambda: plob_bound(1.5, 0.5),
    lambda: plob_bound(0.5, 1.5),
    lambda: plob_bound(-0.5, -0.5),
    lambda: plob_bound(math.nan, 0.5),
    lambda: plob_bound(1.0, 1.0),
], ids=["loss-nan", "loss-negative", "i0-nan", "i0-negative", "gain-mu-nan", "gain-nu-nan",
        "gain-negative", "plob-above-1", "plob-b-above-1", "plob-both-negative", "plob-nan",
        "plob-product-1"])
def test_public_helpers_reject_nan_and_out_of_range(call):
    """NaN or out-of-range arguments raise instead of giving NaN or a number."""
    with pytest.raises(ValueError):
        call()
