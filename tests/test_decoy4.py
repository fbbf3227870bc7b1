"""Four-decoy combined yield bounds."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tfqkd.channel import (GainMatrix, IntensitySettings, simulate_gains,
                           standard_noise, theoretical_yield)
from tfqkd.decoy3 import cancellation_coeffs
from tfqkd.decoy4 import SUBSETS, _d04, _d13, _p04, _q13, yield_bounds
from tfqkd.oracles import dark_adjusted_yield
from tfqkd.series import d_n, exp_h_tail, hom_sym_sum

MU4 = (1e-3, 1e-4, 1e-5, 0.3)
NU4 = (1.3e-3, 0.8e-4, 1.2e-5, 0.25)


def combined_coefficient(mu, nu, target, ds, n, m):
    """Photon-number functional of the weighted subset combinations."""
    acc = 0.0
    for d, slots in zip(ds, SUBSETS):
        if d is None:
            continue
        msub = tuple(mu[i] for i in slots)
        nsub = tuple(nu[i] for i in slots)
        c = cancellation_coeffs(target, msub, nsub)
        acc += d * sum(c[a][b] * msub[a] ** n * nsub[b] ** m
                       for a in range(3) for b in range(3))
    return acc


class TestCombinationStructure:
    def test_extra_families_removed_y04(self):
        ds = _d04(MU4, NU4)
        ref = abs(combined_coefficient(MU4, NU4, (0, 2), ds, 0, 4))
        for n in range(0, 8):
            assert combined_coefficient(MU4, NU4, (0, 2), ds, n, 2) == pytest.approx(
                0.0, abs=1e-9 * ref)
        for m in range(0, 8):
            assert combined_coefficient(MU4, NU4, (0, 2), ds, 3, m) == pytest.approx(
                0.0, abs=1e-9 * ref)

    def test_surviving_weights_y04(self):
        # coefficient of the (0, m) family is the closed-form prefactor times
        # a homogeneous polynomial; the (n >= 4, m) family adds the monomial
        # weight of the four intensities
        ds = _d04(MU4, NU4)
        m0, m1, m2, m3 = MU4
        n0, n1, n2, n3 = NU4
        cross = n0 * (m1 - m2) - n1 * (m0 - m2) + n2 * (m0 - m1)
        kern = (m0 - m1) * (m0 - m2) * (n0 - n1) * (n0 - n2)
        p = _p04(MU4, NU4)

        def a04(m):
            return -kern * p / (m1 * m2 * m3 * cross) * hom_sym_sum(NU4, m - 3)

        for m in (3, 4, 6):
            assert combined_coefficient(MU4, NU4, (0, 2), ds, 0, m) == pytest.approx(
                a04(m), rel=1e-9)
        for n, m in ((4, 3), (5, 4), (6, 3)):
            expected = (-m0 * m1 * m2 * m3 * a04(m) * hom_sym_sum(MU4, n - 4))
            assert combined_coefficient(MU4, NU4, (0, 2), ds, n, m) == pytest.approx(
                expected, rel=1e-9)

    def test_extra_families_removed_y13(self):
        q13, _ = _q13(MU4, NU4)
        ds = _d13(MU4, NU4, q13)
        ref = abs(combined_coefficient(MU4, NU4, (1, 3), ds, 1, 3))
        for n in range(0, 8):
            assert combined_coefficient(MU4, NU4, (1, 3), ds, n, 2) == pytest.approx(
                0.0, abs=1e-9 * ref)
        for m in range(0, 8):
            assert combined_coefficient(MU4, NU4, (1, 3), ds, 3, m) == pytest.approx(
                0.0, abs=1e-9 * ref)

    def test_high_order_weights_follow_recursion_y13(self):
        q13, _ = _q13(MU4, NU4)
        ds = _d13(MU4, NU4, q13)
        base = combined_coefficient(MU4, NU4, (1, 3), ds, 1, 4)
        for n in (4, 5, 6, 7):
            ratio = combined_coefficient(MU4, NU4, (1, 3), ds, n, 4) / base
            assert ratio == pytest.approx(d_n(MU4, n), rel=1e-8)

    def test_saturated_series_closed_form(self):
        # term-by-term double series against the separable closed form
        m0, m1, m2, m3 = MU4
        n0, n1, n2, n3 = NU4
        cross = n0 * (m1 - m2) - n1 * (m0 - m2) + n2 * (m0 - m1)
        kern = (m0 - m1) * (m0 - m2) * (n0 - n1) * (n0 - n2)
        p = _p04(MU4, NU4)
        closed = m0 * kern * p / cross * exp_h_tail(MU4, 4) * exp_h_tail(NU4, 3)
        brute = math.fsum(
            m0 * kern * p / cross * hom_sym_sum(NU4, m - 3) * hom_sym_sum(MU4, n - 4)
            / (math.factorial(n) * math.factorial(m))
            for n in range(4, 50) for m in range(3, 50))
        assert closed == pytest.approx(brute, rel=1e-12)


class TestBounds4:
    def setup_method(self):
        self.params = standard_noise(30, 30)
        self.settings = IntensitySettings(alpha_a=0.4, alpha_b=0.4, mu=MU4, nu=NU4)
        self.gains = simulate_gains(self.params, self.settings)

    def test_soundness(self):
        bounds = yield_bounds(self.gains, self.settings)
        for target in ((0, 4), (4, 0), (1, 3), (3, 1)):
            bound = bounds.get(*target)
            assert bound >= theoretical_yield(self.params, *target) - 1e-12
            assert bound >= dark_adjusted_yield(self.params, *target) - 1e-12

    def test_dominates_weakest_subset_three_decoy(self):
        # never looser than the plain three-decoy bound on the weak triple
        sub_gains = GainMatrix(q=tuple(tuple(self.gains.q[i][j] for j in (0, 1, 2))
                                       for i in (0, 1, 2)))
        mu3, nu3 = MU4[:3], NU4[:3]
        four = yield_bounds(self.gains, self.settings)
        three = yield_bounds(sub_gains, IntensitySettings(alpha_a=0.0, alpha_b=0.0,
                                                          mu=mu3, nu=nu3))
        assert four.get(0, 4) <= three.get(0, 4) + 1e-12
        assert four.get(1, 3) <= three.get(1, 3) + 1e-12

    def test_party_swap_exact(self):
        swapped = GainMatrix(q=tuple(tuple(self.gains.q[i][j] for i in range(4))
                                     for j in range(4)))
        bounds = yield_bounds(self.gains, self.settings)
        mirrored = yield_bounds(swapped, IntensitySettings(alpha_a=0.0, alpha_b=0.0,
                                                           mu=NU4, nu=MU4))
        assert bounds.get(4, 0) == mirrored.get(0, 4)
        assert bounds.get(3, 1) == mirrored.get(1, 3)

    def test_all_one_gains_saturate(self):
        ones = GainMatrix(q=((1.0,) * 4,) * 4)
        bounds = yield_bounds(ones, self.settings)
        for _, value in bounds.items():
            assert value == 1.0

    def test_three_decoy_delegation(self):
        mu3 = (0.1, 1e-4, 1e-5)
        s3 = IntensitySettings(alpha_a=0.3, alpha_b=0.3, mu=mu3, nu=mu3)
        gains3 = simulate_gains(self.params, s3)
        from tfqkd.decoy3 import yield_bounds_3
        direct = yield_bounds_3(gains3, mu3, mu3)
        routed = yield_bounds(gains3, s3)
        assert routed.bounds == direct.bounds
        assert set(routed.provenance.values()) == {"3-decoy"}

    def test_tilde_path_for_equal_weak_triples(self):
        mu = (1e-3, 1e-4, 1e-5, 0.3)
        nu = (1e-3, 1e-4, 1e-5, 0.25)
        s = IntensitySettings(alpha_a=0.4, alpha_b=0.4, mu=mu, nu=nu)
        gains = simulate_gains(self.params, s)
        bound = yield_bounds(gains, s).get(0, 4)
        assert 0.0 <= bound <= 1.0
        assert bound >= dark_adjusted_yield(self.params, 0, 4) - 1e-12
        from tfqkd.oracles import lp_yield_bound
        assert bound >= lp_yield_bound(gains, mu, nu, (0, 4)) - 1e-9

    def test_degenerate_path_continuity(self):
        # approaching equal weak triples along a generic ray, the generic
        # value at relative distance 1e-3 stays close to the tilde value at 0
        mu = (1e-3, 1e-4, 1e-5, 0.3)
        direction = (1.0, 0.7, 1.3)
        t = 1e-3
        nu_near = tuple(mu[i] * (1.0 + t * direction[i]) for i in range(3)) + (0.25,)
        nu_at = (1e-3, 1e-4, 1e-5, 0.25)
        s_near = IntensitySettings(alpha_a=0.4, alpha_b=0.4, mu=mu, nu=nu_near)
        s_at = IntensitySettings(alpha_a=0.4, alpha_b=0.4, mu=mu, nu=nu_at)
        near = yield_bounds(simulate_gains(self.params, s_near), s_near).get(0, 4)
        at = yield_bounds(simulate_gains(self.params, s_at), s_at).get(0, 4)
        assert near == pytest.approx(at, rel=1e-4)

    def test_proportional_weak_triples_fall_back(self):
        mu = (1e-3, 1e-4, 1e-5, 0.3)
        nu = tuple(v * 1.001 for v in mu[:3]) + (0.25,)
        s = IntensitySettings(alpha_a=0.4, alpha_b=0.4, mu=mu, nu=nu)
        gains = simulate_gains(self.params, s)
        bounds = yield_bounds(gains, s)
        bound = bounds.get(0, 4)
        warnings = [w for w in bounds.warnings if w.startswith("(0,4):")]
        assert warnings and "proportional" in warnings[0]
        assert 0.0 <= bound <= 1.0

    def test_unit_level_combination_is_homogeneous(self):
        # with all gains zero the weighted subset combination vanishes
        from tfqkd.decoy3 import _VECTOR_FOR_TARGET, _combine, _prepare, _vectors
        from tfqkd.decoy4 import _SUBSETS, _combine_subsets
        zeros = GainMatrix(q=((0.0,) * 4,) * 4)
        num, qt, mu, nu = _prepare(zeros.q, MU4, NU4, 4, False)
        va, vb = (_vectors([tuple(x[i] for i in slot) for slot in SUBSETS], num)
                  for x in (mu, nu))
        ia, ib = _VECTOR_FOR_TARGET[0, 2]
        slots = qt[_SUBSETS[:, :, None], _SUBSETS[:, None, :]]
        h04, _ = _combine_subsets(*_combine(va[:, ia], vb[:, ib], slots), _d04(mu, nu), num)
        assert h04 == 0.0

    def test_yield_bounds_reports_all_nine(self):
        bounds = yield_bounds(self.gains, self.settings)
        assert set(bounds.bounds) == {(0, 0), (1, 1), (2, 2), (0, 2), (2, 0),
                                      (0, 4), (4, 0), (1, 3), (3, 1)}
        assert bounds.get(5, 5) == 1.0


class TestProvenance:
    def _bounds(self, loss_db):
        s = IntensitySettings(alpha_a=0.4, alpha_b=0.4, mu=MU4, nu=NU4)
        gains = simulate_gains(standard_noise(loss_db, loss_db), s)
        weakest = GainMatrix(q=tuple(row[:3] for row in gains.q[:3]))
        three = yield_bounds(weakest, IntensitySettings(alpha_a=0.0, alpha_b=0.0,
                                                        mu=MU4[:3], nu=NU4[:3]))
        return yield_bounds(gains, s), three.get(0, 4)

    def test_subset_pair_wins(self):
        bounds, three = self._bounds(0.0)
        assert bounds.provenance[0, 4] == "3-decoy subsets (0,1,2)x(0,1,2)"
        assert bounds.get(0, 4) == three

    def test_combined_formula_wins(self):
        bounds, three = self._bounds(30.0)
        assert bounds.provenance[0, 4] == "4-decoy combined"
        assert bounds.get(0, 4) < three


class TestMemo:
    def setup_method(self):
        # proportional weak triples, so the bound set carries a warning too
        nu = tuple(v * 1.001 for v in MU4[:3]) + (0.25,)
        self.first = IntensitySettings(alpha_a=0.4, alpha_b=0.4, mu=MU4, nu=nu)
        self.second = IntensitySettings(alpha_a=0.1, alpha_b=0.3, mu=MU4, nu=nu)
        self.gains = simulate_gains(standard_noise(30, 30), self.first)

    def test_amplitudes_share_equal_but_distinct_results(self):
        assert simulate_gains(standard_noise(30, 30), self.second) == self.gains
        one = yield_bounds(self.gains, self.first)
        two = yield_bounds(self.gains, self.second)
        assert one.warnings
        assert one == two
        assert one is not two
        assert one.bounds is not two.bounds
        assert one.provenance is not two.provenance
        assert one.warnings is not two.warnings

    def test_mutation_does_not_reach_later_calls(self):
        one = yield_bounds(self.gains, self.first)
        reference = copy.deepcopy(one)
        one.bounds[0, 0] = 2.0
        one.provenance.clear()
        one.warnings.append("changed")
        assert yield_bounds(self.gains, self.first) == reference

    def test_unchanged_after_cache_clear(self):
        from tfqkd.decoy4 import _memo
        for exact in (False, True):
            before = yield_bounds(self.gains, self.first, exact=exact)
            _memo.cache_clear()
            assert yield_bounds(self.gains, self.first, exact=exact) == before


def _gate_corpus():
    """Seeded (losses, mu, nu) for the float >= exact gate: 3-decoy sets, then
    4-decoy sets whose weak triples cycle through generic, pairwise equal
    (degenerate variant), proportional x1.001 (skipped combined formula) and
    near-degenerate nu_i = mu_i (1 + (i+1) 1e-7), plus one known near miss."""
    rng = np.random.default_rng(20261018)
    out = []
    for _ in range(60):
        loss = tuple(float(v) for v in rng.uniform(0.0, 50.0, size=2))
        strong = rng.uniform(0.05, 0.5, size=2)
        w0 = 10.0 ** rng.uniform(-3.5, -1.5, size=2)
        w1 = w0 * rng.uniform(0.05, 0.5, size=2)
        out.append((loss, (float(strong[0]), float(w0[0]), float(w1[0])),
                    (float(strong[1]), float(w0[1]), float(w1[1]))))
    for i in range(56):
        loss = tuple(float(v) for v in rng.uniform(0.0, 50.0, size=2))
        w0 = 10.0 ** rng.uniform(-3.5, -1.5)
        w1 = w0 * rng.uniform(0.1, 0.6)
        w2 = w1 * rng.uniform(0.1, 0.6)
        mu = (float(w0), float(w1), float(w2), float(rng.uniform(0.05, 0.5)))
        strong_b = float(rng.uniform(0.05, 0.5))
        if i % 4 == 0:
            weak = tuple(sorted((float(v * rng.uniform(0.7, 1.4)) for v in mu[:3]),
                                reverse=True))
        elif i % 4 == 1:
            weak = mu[:3]
        elif i % 4 == 2:
            weak = tuple(v * 1.001 for v in mu[:3])
        else:
            weak = tuple(mu[k] * (1.0 + (k + 1) * 1e-7) for k in range(3))
        out.append((loss, mu, weak + (strong_b,)))
    mu = (0.03, 0.005, 0.0025, 0.17)
    out.append(((30.0, 30.0), mu,
                tuple(mu[k] * (1.0 + (k + 1) * 1e-7) for k in range(3)) + (0.25,)))
    return out


class TestFloatDominatesExact:
    def test_float_bound_at_or_above_exact_bound(self):
        # no tolerance: the float path's rounding credit must cover its error
        checked = 0
        below = []
        for loss, mu, nu in _gate_corpus():
            settings = IntensitySettings(alpha_a=0.2, alpha_b=0.2, mu=mu, nu=nu)
            gains = simulate_gains(standard_noise(*loss), settings)
            floats = yield_bounds(gains, settings)
            for target, exact in yield_bounds(gains, settings, exact=True).items():
                checked += 1
                if floats.get(*target) < exact:
                    below.append((loss, mu, nu, target, floats.get(*target), exact))
        assert checked >= 1000
        assert not below, below[:3]


GOLDEN = Path(__file__).parent / "data" / "golden_bounds.json"


class TestGoldenBounds:
    """Float and exact bound sets pinned bit for bit on 43 corpus entries.

    ``data/golden_bounds.json`` holds, for the 3-decoy sets 0, 6, ..., 54 of
    ``_gate_corpus()``, its first 32 4-decoy sets (eight of each weak-triple
    kind) and the near miss, every entry's ``float.hex()`` in key order with
    its provenance and the set's warnings, written before the per-set
    vectors replaced per-combination coefficient matrices.
    """

    def test_bound_sets_bit_identical(self):
        corpus = _gate_corpus()
        records = json.loads(GOLDEN.read_text())
        kinds = {len(corpus[r["index"]][1]) for r in records}
        assert len({r["index"] for r in records}) >= 40 and kinds == {3, 4}
        names = {p for r in records for _, _, p in r["provenance"]}
        assert {"3-decoy", "4-decoy combined", "4-decoy degenerate"} <= names
        assert any(r["warnings"] for r in records)
        for rec in records:
            loss, mu, nu = corpus[rec["index"]]
            settings = IntensitySettings(alpha_a=0.2, alpha_b=0.2, mu=mu, nu=nu)
            gains = simulate_gains(standard_noise(*loss), settings)
            got = yield_bounds(gains, settings, exact=rec["exact"])
            where = (rec["index"], rec["exact"])
            assert [[n, m, v.hex()] for (n, m), v in got.bounds.items()] == rec["bounds"], where
            assert [[n, m, p] for (n, m), p in got.provenance.items()] == rec["provenance"], where
            assert got.warnings == rec["warnings"], where
