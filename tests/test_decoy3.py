"""Three-decoy analytical yield bounds."""

import pytest
from hypothesis import given, settings, strategies as st

from tfqkd.channel import (GainMatrix, IntensitySettings, simulate_gains,
                           standard_noise, theoretical_yield)
from tfqkd.decoy3 import TARGETS_3, cancellation_coeffs
from tfqkd.decoy4 import yield_bounds
from tfqkd.errors import DegenerateIntensityError, InconsistentGainsError
from tfqkd.oracles import dark_adjusted_yield
from tfqkd.rate import key_rate

MU = (0.1, 1e-4, 1e-5)
NU = (0.1, 1e-4, 1e-5)


def ordered_triples(min_value=1e-4, max_value=1.0):
    """Strictly ordered positive intensity triples with healthy gaps."""
    return st.tuples(st.floats(0.2, max_value), st.floats(0.01, 0.1),
                     st.floats(min_value, 0.004)).map(
        lambda t: (t[0], t[1], t[2]))


class TestCancellationCoeffs:
    def test_normalization(self):
        for target in ((0, 0), (1, 1), (2, 2), (0, 2), (2, 0), (1, 3), (3, 1)):
            c = cancellation_coeffs(target, (0.5, 0.3, 0.2), (0.4, 0.2, 0.1))
            assert c[0][0] == 1.0

    def test_known_entry(self):
        c = cancellation_coeffs((2, 2), (0.5, 0.3, 0.2), (0.4, 0.2, 0.1))
        assert c[0][1] == pytest.approx(-3.0, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(ordered_triples(), ordered_triples())
    def test_cancellation_conditions(self, mu, nu):
        # the (2,2) family removes zeroth and first moments on both sides
        c = cancellation_coeffs((2, 2), mu, nu)
        scale = max(abs(v) for row in c for v in row)
        for i in range(3):
            assert sum(c[i]) == pytest.approx(0.0, abs=1e-10 * scale)
            assert sum(nu[j] * c[i][j] for j in range(3)) == pytest.approx(
                0.0, abs=1e-10 * scale)
        for j in range(3):
            assert sum(c[i][j] for i in range(3)) == pytest.approx(
                0.0, abs=1e-10 * scale)
            assert sum(mu[i] * c[i][j] for i in range(3)) == pytest.approx(
                0.0, abs=1e-10 * scale)

    @settings(max_examples=25, deadline=None)
    @given(ordered_triples(), ordered_triples())
    def test_moment_kills_per_family(self, mu, nu):
        # each family's removed photon-number pairs give a vanishing functional
        kills = {
            (0, 0): [(1, 0), (2, 0), (0, 1), (0, 2), (1, 2), (2, 1)],
            (1, 1): [(0, 0), (2, 0), (0, 2), (2, 2), (0, 5), (2, 5)],
            (0, 2): [(0, 0), (1, 1), (2, 3), (1, 0), (2, 0), (5, 1)],
            (1, 3): [(0, 0), (2, 2), (0, 4), (2, 6), (4, 0), (4, 1)],
        }
        for target, pairs in kills.items():
            c = cancellation_coeffs(target, mu, nu)
            scale = max(abs(v) for row in c for v in row)
            for n, m in pairs:
                functional = sum(c[i][j] * mu[i] ** n * nu[j] ** m
                                 for i in range(3) for j in range(3))
                assert functional == pytest.approx(0.0, abs=1e-9 * scale)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateIntensityError):
            cancellation_coeffs((2, 2), (0.1, 0.1, 0.01), (0.4, 0.2, 0.1))
        with pytest.raises(DegenerateIntensityError):
            cancellation_coeffs((2, 2), (0.1, 0.05, 0.0), (0.4, 0.2, 0.1))

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            cancellation_coeffs((5, 5), MU, NU)


class TestBoundY3:
    def test_zero_gains_homogeneous_targets(self):
        gains = GainMatrix(q=((0.0,) * 3,) * 3)
        bounds = yield_bounds(gains, IntensitySettings(alpha_a=0.0, alpha_b=0.0, mu=MU, nu=NU))
        for target in ((0, 0), (2, 2), (0, 2), (2, 0), (0, 4), (4, 0)):
            assert bounds.get(*target) == 0.0

    def test_soundness_at_reference_point(self):
        params = standard_noise(20, 20)
        settings_ = IntensitySettings(alpha_a=0.3, alpha_b=0.3, mu=MU, nu=NU)
        gains = simulate_gains(params, settings_)
        bounds = yield_bounds(gains, settings_)
        for target in TARGETS_3:
            bound = bounds.get(*target)
            assert bound >= theoretical_yield(params, *target) - 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0, 45), st.floats(0, 45), st.floats(0.02, 0.4))
    def test_soundness_random_configs(self, loss_a, loss_b, strongest):
        params = standard_noise(loss_a, loss_b)
        mu = (strongest, 1e-4, 1e-5)
        nu = (strongest * 1.17, 1.1e-4, 0.9e-5)
        settings_ = IntensitySettings(alpha_a=0.25, alpha_b=0.25, mu=mu, nu=nu)
        gains = simulate_gains(params, settings_)
        bounds = yield_bounds(gains, settings_)
        for target in TARGETS_3:
            bound = bounds.get(*target)
            assert bound >= dark_adjusted_yield(params, *target) - 1e-12

    def test_exchange_symmetry_exact(self):
        params = standard_noise(14, 33)
        mu = (0.2, 2e-4, 3e-5)
        nu = (0.13, 1.2e-4, 1.1e-5)
        s = IntensitySettings(alpha_a=0.2, alpha_b=0.3, mu=mu, nu=nu)
        gains = simulate_gains(params, s)
        swapped = GainMatrix(q=tuple(tuple(gains.q[i][j] for i in range(3))
                                     for j in range(3)))
        bounds = yield_bounds(gains, s)
        mirrored = yield_bounds(swapped, IntensitySettings(alpha_a=0.0, alpha_b=0.0,
                                                           mu=nu, nu=mu))
        for (n, m) in TARGETS_3:
            assert bounds.get(n, m) == mirrored.get(m, n)

    def test_mirror_pair_equal_for_symmetric_settings(self):
        params = standard_noise(25, 25)
        s = IntensitySettings(alpha_a=0.3, alpha_b=0.3, mu=MU, nu=MU)
        gains = simulate_gains(params, s)
        bounds = yield_bounds(gains, s)
        assert bounds.get(1, 3) == bounds.get(3, 1)

    def test_inconsistent_gains_raise(self):
        # a gain pattern no yield profile can produce: strong signal pair
        # silent, everything else loud
        q = [[0.9] * 3 for _ in range(3)]
        q[0][0] = 0.0
        with pytest.raises(InconsistentGainsError):
            yield_bounds(GainMatrix(q=tuple(map(tuple, q))),
                         IntensitySettings(alpha_a=0.0, alpha_b=0.0, mu=MU, nu=NU))

    def test_clamped_to_unit_interval(self):
        params = standard_noise(3, 3)
        s = IntensitySettings(alpha_a=0.3, alpha_b=0.3, mu=MU, nu=NU)
        gains = simulate_gains(params, s)
        bounds = yield_bounds(gains, s)
        for _, value in bounds.items():
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("mu,nu", [
        # a coefficient denominator (5e-324 * 1e-4) underflows to zero
        ((0.1, 1e-4, 5e-324), (0.1, 1e-4, 1e-5)),
        # finite coefficients whose gain-combination terms overflow to +-inf
        ((1e-3, 1e-4, 1e-300, 0.5), (1e-3, 1e-4, 1e-5, 0.5)),
    ])
    def test_intensities_beyond_double_range_are_degenerate(self, mu, nu):
        s = IntensitySettings(alpha_a=0.2, alpha_b=0.2, mu=mu, nu=nu)
        with pytest.raises(DegenerateIntensityError):
            key_rate(standard_noise(20, 20), s)

    def test_exact_mode_agrees_with_float(self):
        params = standard_noise(22, 28)
        mu = (0.12, 8e-3, 1.5e-3)
        nu = (0.1, 6e-3, 1.2e-3)
        s = IntensitySettings(alpha_a=0.2, alpha_b=0.2, mu=mu, nu=nu)
        gains = simulate_gains(params, s)
        floats = yield_bounds(gains, s, exact=False)
        exacts = yield_bounds(gains, s, exact=True)
        for target in TARGETS_3:
            f = floats.get(*target)
            e = exacts.get(*target)
            assert f == pytest.approx(e, rel=1e-7, abs=1e-10)
