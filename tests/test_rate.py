"""Phase-error bound, entropies, key-rate assembly, benchmark."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from tfqkd.channel import IntensitySettings, standard_noise
from tfqkd.decoy3 import TARGETS_3, YieldBounds
from tfqkd.errors import SaturationError, TfqkdError
from tfqkd.rate import (_amplitude_series, _phase_error, _RateParts, _savings, binary_entropy,
                        key_rate, phase_error_upper, plob_bound)


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


def double_series(bounds, alpha_a, alpha_b, p_x, order):
    """The phase-error bound summed term by term over n, m <= ``order``, a
    stored bound in place of yield 1 where there is one."""
    def weights(alpha):
        return [math.exp(-0.5 * alpha * alpha) * alpha ** n / math.sqrt(math.factorial(n))
                for n in range(order + 1)]
    wa, wb = weights(alpha_a), weights(alpha_b)
    parity = [[], []]
    for n in range(order + 1):
        for m in range(n % 2, order + 1, 2):
            y = bounds.bounds.get((n, m), 1.0)
            parity[n % 2].append(wa[n] * wb[m] * math.sqrt(min(max(y, 0.0), 1.0)))
    even, odd = math.fsum(parity[0]), math.fsum(parity[1])
    return min((even * even + odd * odd) / p_x, 1.0)


class TestPhaseErrorUpper:
    def test_zero_stored_bounds_small_amplitudes(self):
        bounds = YieldBounds()
        for target in TARGETS_3:
            bounds.bounds[target] = 0.0
        # everything except the tiny unbounded tail is switched off
        assert phase_error_upper(bounds, 0.05, 0.05, p_x=0.01) < 1e-8

    def test_vacuum_amplitudes_all_default(self):
        assert phase_error_upper(YieldBounds(), 0.0, 0.0, p_x=1.0) == pytest.approx(1.0, abs=1e-12)

    def test_all_one_yields_brute_force(self):
        # separable closed form against the raw double series to order 80;
        # p_x is chosen above the product so the unit clamp stays inactive
        alpha_a, alpha_b = 0.37, 0.52
        ea, oa = parity_partials(alpha_a, 80)
        eb, ob = parity_partials(alpha_b, 80)
        brute = (ea * eb) ** 2 + (oa * ob) ** 2
        p_x = 2.0 * brute
        assert phase_error_upper(YieldBounds(), alpha_a, alpha_b, p_x=p_x) == pytest.approx(
            0.5, rel=1e-12)

    def test_truncation_stability(self):
        # the closed form against the double series cut at orders 40 and 80
        params = standard_noise(25, 25)
        s = IntensitySettings(alpha_a=0.2, alpha_b=0.2,
                              mu=(0.1, 1e-4, 1e-5), nu=(0.1, 1e-4, 1e-5))
        res = key_rate(params, s)
        for order in (40, 80):
            series = double_series(res.bounds, 0.2, 0.2, res.p_x, order)
            assert abs(res.e_z_upp - series) < 1e-10

    def test_tail_below_target(self):
        # at the top of the default amplitude box, what the double series
        # holds past order 40 is below 1e-10
        p_x = 0.5
        closed = phase_error_upper(YieldBounds(), 1.4, 1.4, p_x=p_x)
        assert abs(closed - double_series(YieldBounds(), 1.4, 1.4, p_x, 40)) < 1e-10

    # yields drawn from [0, 1]: where the stored bounds cancel most of
    # E_a E_b, the closed form keeps an absolute error of a few ulps of the
    # all-one value scale / p_x, hence the absolute allowance
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(alpha_a=st.floats(1e-3, 1.8), alpha_b=st.floats(1e-3, 1.8),
           yields=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
           headroom=st.floats(1.0, 100.0))
    def test_stored_bounds_match_double_series(self, alpha_a, alpha_b, yields, headroom):
        bounds = YieldBounds()
        bounds.bounds.update(zip(TARGETS_3, yields))
        ea, oa = parity_partials(alpha_a, 80)
        eb, ob = parity_partials(alpha_b, 80)
        scale = (ea * eb) ** 2 + (oa * ob) ** 2
        p_x = headroom * scale  # keeps the unit clamp inactive
        expected = double_series(bounds, alpha_a, alpha_b, p_x, 80)
        got = phase_error_upper(bounds, alpha_a, alpha_b, p_x)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-14 * scale / p_x)

    def test_p_x_zero_rejected(self):
        with pytest.raises(ValueError):
            phase_error_upper(YieldBounds(), 0.1, 0.1, p_x=0.0)

    @pytest.mark.parametrize("alpha_a, alpha_b, p_x", [
        (math.nan, 0.1, 0.5), (math.inf, 0.1, 0.5), (-0.1, 0.1, 0.5), (0.1, -math.inf, 0.5),
        (0.1, 0.1, math.nan), (0.1, 0.1, math.inf),
    ], ids=["alpha-nan", "alpha-inf", "alpha-negative", "alpha-b-minus-inf", "p_x-nan",
            "p_x-inf"])
    def test_bad_input_rejected(self, alpha_a, alpha_b, p_x):
        with pytest.raises(ValueError):
            phase_error_upper(YieldBounds(), alpha_a, alpha_b, p_x)

    # exp(-alpha^2 / 2) is subnormal at 37.7 and 0 at 39: every weight would
    # vanish and e_z_upp read 0, a key that no yield supports
    @pytest.mark.parametrize("alpha", [37.7, 39.0])
    def test_underflowing_vacuum_weight_is_saturation(self, alpha):
        with pytest.raises(SaturationError):
            phase_error_upper(YieldBounds(), alpha, 0.03, p_x=0.5)
        s = IntensitySettings(alpha_a=alpha, alpha_b=0.03,
                              mu=(0.1, 1e-4, 1e-5), nu=(0.1, 1e-4, 1e-5))
        params = standard_noise(70, 0)
        with pytest.raises(SaturationError):
            key_rate(params, s)
        with pytest.raises(SaturationError):
            _RateParts(params, 1.0).rate(alpha, 0.03, s.mu, s.nu)


def reference_phase_error(bounds, series_a, series_b, p_x):
    """Frozen reference: the phase-error bound's per-bound loop as it read
    before each bound set's savings were built once."""
    if not 0.0 < p_x < math.inf:
        raise ValueError(f"phase_error_upper needs a finite p_x > 0, got {p_x}")
    wa, even_a, odd_a = series_a
    wb, even_b, odd_b = series_b
    even, odd = even_a * even_b, odd_a * odd_b
    for (n, m), y in bounds.items():
        if n >= len(wa) or m >= len(wb) or (n + m) % 2:
            continue
        saving = wa[n] * wb[m] * (1.0 - math.sqrt(min(max(y, 0.0), 1.0)))
        if n % 2 == 0:
            even -= saving
        else:
            odd -= saving
    even = max(even, 0.0)
    odd = max(odd, 0.0)
    return min((even * even + odd * odd) / p_x, 1.0)


# yields mostly small, where a saving's last bits survive the subtraction,
# else outside [0, 1] or not finite
_YIELDS = st.floats(0.0, 1.0).map(lambda u: u ** 4) | st.sampled_from(
    [0.0, -0.0, 1.0, 5e-324, -0.5, 2.0, -1e-300, 1e300, math.inf, -math.inf, math.nan])
# any map: both parities, indices past a short series
_YIELD_MAPS = st.dictionaries(st.tuples(st.integers(0, 60), st.integers(0, 60)), _YIELDS,
                              max_size=8)
_AMPLITUDES = st.floats(-3.0, 0.5).map(lambda e: 10.0 ** e) | st.just(0.0)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(bounds=_YIELD_MAPS | st.builds(lambda ys, extra: {**dict(zip(TARGETS_3, ys)), **extra},
                                      st.lists(_YIELDS, min_size=9, max_size=9), _YIELD_MAPS),
       alpha_a=_AMPLITUDES, alpha_b=_AMPLITUDES, headroom=st.floats(0.25, 4.0))
def test_savings_loop_matches_per_bound_loop(bounds, alpha_a, alpha_b, headroom):
    """The phase error from each set's precomputed savings equals the
    per-bound loop bit for bit."""
    series_a, series_b = _amplitude_series(alpha_a), _amplitude_series(alpha_b)
    # p_x near the all-one value, so the unit clamp is mostly inactive
    p_x = headroom * ((series_a[1] * series_b[1]) ** 2 + (series_a[2] * series_b[2]) ** 2)
    expected = reference_phase_error(bounds, series_a, series_b, p_x).hex()
    assert _phase_error(_savings(bounds), series_a, series_b, p_x).hex() == expected
    assert phase_error_upper(YieldBounds(bounds), alpha_a, alpha_b, p_x).hex() == expected


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


# floats from the edges of the double range: non-finite, signed zeros,
# subnormals, huge values, and log-uniform magnitudes in between
SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 1e300,
           1.7976931348623157e308, -1e-3, 1.0)
extreme = st.one_of(st.sampled_from(SPECIAL), st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e),
                    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def mostly(draw, usual):
    """Mostly ``usual``, else an extreme float."""
    return draw(extreme if draw(st.integers(0, 7)) == 7 else usual)


# the next weaker intensity's share of the last: nearly equal, or far below
ratio = st.one_of(st.floats(-7.0, -0.05).map(lambda e: 1.0 - 10.0 ** e),
                  st.floats(-4.0, -0.3).map(lambda e: 10.0 ** e))


@st.composite
def _party(draw, decoys):
    """A decoy set in ``IntensitySettings`` order: mostly strictly ordered,
    the strongest intensity log-uniform in [1e-6, 3] or [1e-320, 1e3], or
    extreme; else ``decoys`` extreme floats."""
    if draw(st.integers(0, 7)) == 7:
        return tuple(draw(extreme) for _ in range(decoys))
    values = [draw(mostly(st.one_of(st.floats(-6.0, 0.5), st.floats(-320.0, 3.0))
                          .map(lambda e: 10.0 ** e)))]
    for _ in range(decoys - 1):
        values.append(values[-1] * draw(ratio))
    return tuple(values) if decoys == 3 else (*values[1:], values[0])


@st.composite
def _key_rate_inputs(draw):
    decoys = draw(st.sampled_from([3, 4]))
    alphas = [draw(mostly(st.floats(0.0, 1.5))) for _ in range(2)]
    losses = [draw(mostly(st.floats(0.0, 80.0))) for _ in range(2)]
    f = draw(mostly(st.sampled_from([1.0, 1.16])))
    return decoys, alphas, draw(_party(decoys)), draw(_party(decoys)), losses, f


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_key_rate_inputs())
@example((3, (0.17, 0.17), (0.1, 1e-4, 1e-5), (0.1, 1e-4, 1e-5), (25.0, 25.0), 1.0))
@example((4, (0.11, 0.26), (1e-3, 1e-4, 1e-5, 0.95), (1e-3, 1e-4, 1e-5, 1.0), (14.0, 22.0), 1.0))
def test_key_rate_contract(inputs):
    """Every input raises ``TfqkdError`` or ``ValueError``, or gives a finite
    rate in [0, 1]."""
    decoys, (alpha_a, alpha_b), mu, nu, losses, f = inputs
    try:
        settings_ = IntensitySettings(alpha_a=alpha_a, alpha_b=alpha_b, mu=mu, nu=nu)
        rate = key_rate(standard_noise(*losses), settings_, f=f).rate
    except (TfqkdError, ValueError):
        return
    assert math.isfinite(rate) and 0.0 <= rate <= 1.0, rate
