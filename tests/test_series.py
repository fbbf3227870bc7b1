"""Symmetric-polynomial series helpers."""

import math
from fractions import Fraction
from itertools import combinations_with_replacement, islice

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfqkd.errors import SaturationError
from tfqkd.series import (_four_tails, _hom_sym, _tails, _triple_tails, d_n, exp_f_tail,
                          exp_h_tail, hom_sym_sum)


def hom_brute(values, degree):
    return sum(math.prod(combo)
               for combo in combinations_with_replacement(values, degree))


class TestHomSymSum:
    def test_degree_zero_is_one(self):
        assert hom_sym_sum((0.4, 0.2, 0.1, 0.05), 0) == 1.0
        assert hom_sym_sum((), 0) == 1.0

    def test_degree_one(self):
        assert hom_sym_sum((1, 2, 3, 4), 1) == 10.0

    def test_all_ones_degree_two(self):
        # number of multisets of size 2 from 4 symbols: C(5, 2)
        assert hom_sym_sum((1.0, 1.0, 1.0, 1.0), 2) == 10.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.01, 2.0), min_size=2, max_size=4),
           st.integers(0, 6))
    def test_matches_enumeration(self, values, degree):
        assert hom_sym_sum(values, degree) == pytest.approx(
            hom_brute(values, degree), rel=1e-12)


class TestExpTails:
    def test_h_tail_matches_exponential_bracket(self):
        # third-order divided difference of exp equals the damped h-series
        nu = (0.4, 0.2, 0.1)
        v3 = (nu[0] - nu[1]) * (nu[0] - nu[2]) * (nu[1] - nu[2])
        bracket = (math.exp(nu[1]) * (nu[0] - nu[2])
                   + math.exp(nu[2]) * (nu[1] - nu[0])
                   + math.exp(nu[0]) * (nu[2] - nu[1]))
        assert -v3 * exp_h_tail(nu, 2) == pytest.approx(bracket, rel=1e-12)

    def test_h_tail_brute_force(self):
        vals = (0.5, 0.3, 0.2, 0.05)
        brute = sum(hom_brute(vals, n - 4) / math.factorial(n) for n in range(4, 40))
        assert exp_h_tail(vals, 4) == pytest.approx(brute, rel=1e-13)

    def test_f_tail_matches_exponential_bracket(self):
        mu = (0.5, 0.04, 0.008)
        v3 = (mu[0] - mu[1]) * (mu[0] - mu[2]) * (mu[1] - mu[2])
        bracket = (math.exp(mu[2]) * (mu[1] ** 2 - mu[0] ** 2)
                   + math.exp(mu[1]) * (mu[0] ** 2 - mu[2] ** 2)
                   + math.exp(mu[0]) * (mu[2] ** 2 - mu[1] ** 2)
                   - (mu[0] - mu[1]) * (mu[0] - mu[2]) * (mu[1] - mu[2]))
        assert -v3 * exp_f_tail(mu, 3) == pytest.approx(bracket, rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.001, 1.5), min_size=3, max_size=3, unique=True))
    def test_tails_non_negative(self, vals):
        assert exp_h_tail(vals, 2) >= 0.0
        assert exp_f_tail(vals, 3) >= 0.0
        assert exp_f_tail(vals, 4) >= 0.0


def _mp_h(values, count=90):
    """h_0 .. h_{count-1} of the values in the current mpmath precision, by
    h_k(x_j..x_q) = x_j h_{k-1}(x_j..x_q) + h_k(x_{j+1}..x_q)."""
    row = [mpmath.mpf(1)] * len(values) + [mpmath.mpf(0)]  # row[j] = h_k(values[j:])
    h = [row[0]]
    for _ in range(1, count):
        for j in range(len(values) - 1, -1, -1):
            row[j] = mpmath.mpf(values[j]) * row[j] + row[j + 1]
        h.append(row[0])
    return h


def _mp_tail(weight, start):
    """Sum over n >= start of weight(n) / n! to 1e-60 relative."""
    total, n = mpmath.mpf(0), start
    while True:
        term = weight(n) / mpmath.factorial(n)
        total += term
        if n > start + 3 and term < total * mpmath.mpf("1e-60"):
            return total
        n += 1


def _ulps(value, reference):
    return abs(mpmath.mpf(value) - reference) / math.ulp(float(reference))


class TestTailAccuracy:
    def test_within_eight_ulps_of_sixty_digits(self):
        # strongest intensities 3e-3 .. 2, weak ones 1e-5 .. 3e-2; the
        # reference f weights come from the Jacobi-Trudi form
        # s_(n-2,1) = h_1 h_{n-2} - h_{n-1}, not from the split the code uses
        rng = np.random.default_rng(20261018)
        worst = 0.0
        with mpmath.workdps(60):
            for _ in range(300):
                strong = float(rng.uniform(3e-3, 2.0))
                weak = sorted((float(10.0 ** rng.uniform(-5.0, math.log10(3e-2)))
                               for _ in range(3)), reverse=True)
                mu3, mu4 = (strong, weak[0], weak[1]), (weak[0], weak[1], weak[2], strong)
                h3, h4 = _mp_h(mu3), _mp_h(mu4)
                f = lambda n: h3[1] * h3[n - 2] - h3[n - 1]
                pairs = ((exp_h_tail(mu3, 2), _mp_tail(lambda n: h3[n - 2], 2)),
                         (exp_h_tail(mu4, 3), _mp_tail(lambda n: h4[n - 3], 3)),
                         (exp_h_tail(mu4, 4), _mp_tail(lambda n: h4[n - 4], 4)),
                         (exp_f_tail(mu3, 3), _mp_tail(f, 3)),
                         (exp_f_tail(mu3, 4), _mp_tail(f, 4)))
                worst = max([worst] + [_ulps(x, ref) for x, ref in pairs])
        assert worst <= 8.0


class TestTailRange:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            exp_h_tail((0.2, -0.1), 2)
        with pytest.raises(ValueError):
            exp_f_tail((0.2, 0.1, -0.1), 3)

    def test_start_range(self):
        with pytest.raises(ValueError):
            exp_h_tail((0.2, 0.1), -1)
        with pytest.raises(ValueError):
            exp_f_tail((0.2, 0.1, 0.05), 2)

    def test_unconverged_tail_is_saturation(self):
        with pytest.raises(SaturationError):
            exp_h_tail((150.0, 1e-4, 1e-5), 2)
        with pytest.raises(SaturationError, match=r"\(150\.0, 0\.0001, 1e-05\)"):
            _triple_tails(150.0, 1e-4, 1e-5)

    def test_negative_triple_rejected(self):
        with pytest.raises(ValueError):
            _triple_tails(0.2, 0.1, -0.1)


def reference_tail(values, shift, start):
    """One tail per call, the loop the fused tails replaced: sum over n >= start
    of h_{n-shift}(values) / n!, each call running its own recurrence."""
    hs = islice(_hom_sym(values), start - shift, None)
    fact = float(math.factorial(start))
    total = next(hs) / fact
    for k, h in zip(range(1, 200), hs):
        fact *= start + k
        term = h / fact
        total += term
        if k > 3 and term < total * 1e-18:
            return total
    raise SaturationError(f"series tail over {values} did not converge in 200 terms")


def outcome(compute):
    """Hex digits of every value computed, or the error's type and message."""
    try:
        return [v.hex() for v in compute()]
    except (SaturationError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def reference_triple(a, b, c):
    return (reference_tail((a, b, c), 2, 2),
            a * (b + c) * reference_tail((a, b, c), 3, 3) + b * c * reference_tail((b, c), 3, 3),
            a * (b + c) * reference_tail((a, b, c), 3, 4) + b * c * reference_tail((b, c), 3, 4))


intensity = st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e)
# the two tails of a four-value set that the combined (0,4) formulas read
FOUR_HEADS = ((4, 4), (3, 3))


class TestFusedTails:
    """The fused tails equal one reference call per tail, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(intensity, intensity, intensity)
    def test_triple_tails_match_per_call_loop(self, a, b, c):
        assert outcome(lambda: _triple_tails(a, b, c)) == outcome(
            lambda: reference_triple(a, b, c))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(intensity, min_size=2, max_size=4))
    def test_heads_of_one_value_set_match_per_call_loop(self, values):
        values = tuple(values)
        heads = ((2, 2), (3, 3), (3, 4), (4, 4))
        assert outcome(lambda: _tails(values, heads)) == outcome(
            lambda: [reference_tail(values, shift, start) for shift, start in heads])

    def test_saturation_and_message_match_per_call_loop(self):
        # between a = 76.8 and 77.5 the three sums over (a, b, c) stop
        # converging one after another (h_k overflows near k = 163)
        for a in np.arange(76.0, 78.0, 0.1):
            a = float(a)
            assert outcome(lambda: _triple_tails(a, 2e-3, 3e-5)) == outcome(
                lambda: reference_triple(a, 2e-3, 3e-5)), a

    @pytest.mark.parametrize("values", [(5e-6, 2e-6, 1e-6), (1e-6, 1e-6, 1e-6),
                                        (2e-7, 1e-7, 1e-8), (0.0, 0.0, 0.0)])
    def test_earliest_stop_matches_per_call_loop(self, values):
        # values this small stop every sum at its first allowed term
        assert outcome(lambda: _triple_tails(*values)) == outcome(
            lambda: reference_triple(*values))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.tuples(intensity, intensity, intensity, intensity))
    def test_four_tails_match_the_generator_loop(self, values):
        assert outcome(lambda: _four_tails(*values)) == outcome(
            lambda: _tails(values, FOUR_HEADS))

    def test_four_tails_saturation_matches_the_generator_loop(self):
        # from a = 77.5 the sum from 3 stops converging, from about 77.9
        # the sum from 4 as well; the message names the four values either way
        raised = set()
        for a in np.arange(77.0, 78.5, 0.05):
            values = (float(a), 2e-3, 3e-5, 0.9)
            got = outcome(lambda: _four_tails(*values))
            assert got == outcome(lambda: _tails(values, FOUR_HEADS)), values
            raised.add(isinstance(got, str))
        assert raised == {False, True}

    @pytest.mark.parametrize("values", [(0.0, 0.0, 0.0, 0.0), (0.0, 1e-3, 0.0, 0.5),
                                        (5e-7, 2e-7, 1e-7, 1e-8), (0.1, -0.1, 0.0, 0.0)])
    def test_four_tails_edges_match_the_generator_loop(self, values):
        assert outcome(lambda: _four_tails(*values)) == outcome(
            lambda: _tails(values, FOUR_HEADS))

    def test_public_tails_match_per_call_loop(self):
        vals = (0.7, 2e-3, 3e-5, 0.9)
        assert exp_h_tail(vals, 3) == reference_tail(vals, 3, 3)
        assert exp_f_tail(vals[:3], 4) == reference_triple(*vals[:3])[2]


def d_n_exact(values, n):
    """Exact-rational replay of the recursion, as an independent oracle."""
    vals = [Fraction(v) for v in values]
    e3 = sum(vals[i] * vals[j] * vals[k]
             for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4))
    e4 = vals[0] * vals[1] * vals[2] * vals[3]
    d = {4: e3}
    for i in range(5, n + 1):
        acc = Fraction(0)
        for j in range(1, i - 4 + 1):
            acc += sum(v ** j for v in vals) * d[i - j]
        h = sum(math.prod(c) for c in combinations_with_replacement(vals, i - 5)) \
            if i - 5 > 0 else Fraction(1)
        acc -= e4 * h
        d[i] = acc / (i - 4)
    return d[n]


class TestDn:
    def test_base_case_all_ones(self):
        assert d_n((1.0, 1.0, 1.0, 1.0), 4) == 4.0

    def test_base_case_elementary(self):
        vals = (0.5, 0.4, 0.2, 0.1)
        e3 = (0.5 * 0.4 * 0.2 + 0.5 * 0.4 * 0.1 + 0.5 * 0.2 * 0.1 + 0.4 * 0.2 * 0.1)
        assert d_n(vals, 4) == pytest.approx(e3, rel=1e-14)

    def test_exact_rational_oracle_n6(self):
        vals = (0.5, 0.4, 0.2, 0.1)
        assert d_n(vals, 6) == pytest.approx(float(d_n_exact(vals, 6)), rel=1e-12)

    def test_exact_rational_oracle_deeper(self):
        vals = (1.2, 0.7, 0.3, 0.05)
        for n in (5, 7, 9, 12):
            assert d_n(vals, n) == pytest.approx(float(d_n_exact(vals, n)), rel=1e-11)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0.01, 1.5), min_size=4, max_size=4))
    def test_non_negative_through_order_forty(self, vals):
        for n in range(4, 41, 6):
            assert d_n(vals, n) >= 0.0
