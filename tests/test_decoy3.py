"""Three-decoy analytical yield bounds."""

import math
from itertools import chain, combinations, starmap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_decoy4 import _gate_corpus
from tfqkd import decoy3
from tfqkd.channel import (_EXP_MAX, GainMatrix, IntensitySettings, simulate_gains,
                           standard_noise, theoretical_yield)
from tfqkd.decoy3 import TARGETS_3, cancellation_coeffs
from tfqkd.decoy4 import yield_bounds
from tfqkd.dyadic import Dyadic
from tfqkd.errors import DegenerateIntensityError, InconsistentGainsError, SaturationError
from tfqkd.oracles import dark_adjusted_yield
from tfqkd.rate import key_rate
from tfqkd.series import _triple_tails

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

    @pytest.mark.parametrize("mu", [(math.nan, 0.1, 0.01), (math.inf, 0.1, 0.01),
                                    (1e308, 0.1, 0.01), (0.3, 0.1, 1e-320)])
    def test_non_finite_coefficients_are_degenerate(self, mu):
        with pytest.raises(DegenerateIntensityError, match="coefficient vector entries"):
            cancellation_coeffs((0, 0), mu, (0.3, 0.1, 0.01))

    def test_overflowing_products_are_degenerate(self):
        # every vector entry is finite, their products are not
        mu = (0.3, 1e-78, 1e-79)
        with pytest.raises(DegenerateIntensityError, match="cancellation coefficients"):
            cancellation_coeffs((0, 0), mu, mu)


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


# Frozen reference: the block formulas as they read before the per-triple
# factors moved into ``_side``; each side is (triple, its three tails).
def reference_oriented(g, gerr, g13, err13, a, b):
    (mu0, mu1, mu2), ta = a
    (nu0, nu1, nu2), tb = b
    denom = (mu0 - mu1) * (mu0 - mu2) * (nu0 - nu1) * (nu0 - nu2)
    pref02 = 2 * mu1 * mu2 / denom
    h2_nu = nu0 * nu0 + nu1 * nu1 + nu2 * nu2 + nu0 * nu1 + nu0 * nu2 + nu1 * nu2
    pref04 = 24 * mu1 * mu2 / (denom * h2_nu)
    e1_nu = nu0 + nu1 + nu2
    pref13 = -6 * (mu1 + mu2) / (denom * e1_nu)
    return ((g * pref02, gerr * abs(pref02)), (g * pref04, gerr * abs(pref04)),
            (g13 * pref13 + 6 * (tb[0] * ta[1]) / e1_nu, err13 * abs(pref13)))


def reference_block(g, gerr, a, b, num):
    first = (reference_oriented(g[0], gerr[0], g[1], gerr[1], a, b)
             + reference_oriented(g[2], gerr[2], g[3], gerr[3], b, a))
    values = [float(raw) + float(err) for raw, err in first]
    y13, y31 = min(max(values[2], 0.0), 1.0), min(max(values[5], 0.0), 1.0)
    if b[0][0] > a[0][0]:
        a, b, y13, y31 = b, a, y31, y13
    (mu0, mu1, mu2), ta = a
    (nu0, nu1, nu2), tb = b
    denom = (mu0 - mu1) * (mu0 - mu2) * (nu0 - nu1) * (nu0 - nu2)
    pref00 = mu1 * mu2 * nu1 * nu2 / denom
    e2_nu = nu0 * nu1 + nu0 * nu2 + nu1 * nu2
    e2_mu = mu0 * mu1 + mu0 * mu2 + mu1 * mu2
    pref11 = (mu1 + mu2) * (nu1 + nu2) / denom
    raw = g[5] * pref11 + num(y13) * e2_nu / 6 + num(y31) * e2_mu / 6 + tb[2] + ta[2]
    values += (float(g[4] * pref00) + float(gerr[4] * abs(pref00)),
               float(raw) + float(gerr[5] * abs(pref11)),
               float(4 * g[6] / denom) + float(4 * gerr[6] / abs(denom)))
    return values


def block_outcomes(mu, nu, loss, exact, block):
    """Each subset-pair block's unclamped values of a 4-decoy set as hex, or
    the exception type, with ``block`` taking the library's ``_side``s
    (``block is None``) or the reference's."""
    settings_ = IntensitySettings(alpha_a=0.1, alpha_b=0.1, mu=mu, nu=nu)
    gains = simulate_gains(standard_noise(*loss), settings_)
    num, qtilde, mu, nu = decoy3._prepare(gains.q, mu, nu, 4, exact)
    triples = [tuple(sorted(t, reverse=True)) for t in combinations(range(4), 3)]
    out = []
    for rows in triples:
        for cols in triples:
            ta, tb = tuple(mu[i] for i in rows), tuple(nu[j] for j in cols)
            try:
                va, vb = decoy3._vectors((ta, tb), num)
                q = np.array(qtilde)[np.ix_(rows, cols)]
                if exact:
                    g = decoy3._exact_combine([*va.tolist(), *vb.tolist()], *decoy3._BLOCK_ROWS,
                                              q.reshape(-1).tolist(), num)
                    gerr = [0] * len(g)
                else:
                    g, gerr = decoy3._combine(va[_REF_PAIR_A], vb[_REF_PAIR_B], q)
                if block is None:
                    sides = decoy3._side(ta, num), decoy3._side(tb, num)
                    values = decoy3._block(g, gerr, *sides, num)
                else:
                    sides = [(t, tuple(map(num, _triple_tails(*map(float, t)))))
                             for t in (ta, tb)]
                    values = block(g, gerr, *sides, num)
                out.append([v.hex() for v in values])
            except Exception as exc:  # the exception type is part of the outcome
                out.append(type(exc))
    return out


def _fluctuation_sets(count):
    """4-decoy (mu, nu, loss) moved by up to +-20% around the 4-decoy
    fluctuation workload's nominal settings, losses by up to 1 dB."""
    rng = np.random.default_rng(20261020)
    mu = (0.001, 1e-4, 1e-5, 0.9543975178109179)
    nu = (0.001, 1e-4, 1e-5, 0.9999862863220885)
    return [(tuple(float(v * rng.uniform(0.8, 1.2)) for v in mu),
             tuple(float(v * rng.uniform(0.8, 1.2)) for v in nu),
             tuple(float(v + rng.uniform(-1.0, 1.0)) for v in (14.0, 22.0)))
            for _ in range(count)]


def _equal_and_proportional_sets():
    """The gate corpus's 4-decoy sets whose weak triples are pairwise equal
    or proportional (x1.001), as (mu, nu, loss)."""
    return [(mu, nu, loss) for i, (loss, mu, nu) in enumerate(_gate_corpus())
            if len(mu) == 4 and (i - 60) % 4 in (1, 2)]


class TestBlockMatchesReference:
    """The library's blocks equal the frozen reference bit for bit."""

    @pytest.mark.parametrize("exact,count", [(False, 300), (True, 30)])
    def test_blocks(self, exact, count):
        corpus = _fluctuation_sets(count) + _equal_and_proportional_sets()
        assert len(corpus) == count + 28
        for mu, nu, loss in corpus:
            assert block_outcomes(mu, nu, loss, exact, None) == block_outcomes(
                mu, nu, loss, exact, reference_block), (mu, nu, loss)


# Frozen reference: the three-decoy bound set as it read when it ran on the
# shared numpy batch path (``_prepare``, ``_vectors``, ``_combine`` and
# ``_block_bounds`` with the ``_finite`` and ``_clamp`` they called), before
# its one block moved to plain numbers.
_REF_PAIR_A = np.array([ka for ka, _ in decoy3._PAIRS])
_REF_PAIR_B = np.array([kb for _, kb in decoy3._PAIRS])
_REF_TO_TARGETS = np.array([decoy3._EVALUATED.index(t) for t in TARGETS_3])


def _ref_finite(values, what):
    if values.dtype != object and not np.isfinite(values).all():
        raise decoy3._degenerate(what)


def _ref_prepare(q, mu, nu, size, exact):
    mu, nu = tuple(mu), tuple(nu)
    if len(q) != size or len(mu) != size or len(nu) != size:
        raise ValueError(f"expected {size} decoys per party and a {size}x{size} gain matrix")
    decoy3.check_intensities(mu, "mu")
    decoy3.check_intensities(nu, "nu")
    if max(mu) + max(nu) > _EXP_MAX:
        raise SaturationError(
            f"exp(mu + nu) overflows for intensities {max(mu)} and {max(nu)}")
    num = Dyadic if exact else float
    dtype = object if exact else float
    qtilde = np.array([[num(math.exp(mu_k + nu_l)) * num(g) for nu_l, g in zip(nu, row)]
                       for mu_k, row in zip(mu, q)], dtype=dtype)
    return num, qtilde, tuple(map(num, mu)), tuple(map(num, nu))


def _ref_vectors(triples, num):
    entries = chain.from_iterable(chain.from_iterable(starmap(decoy3._triple_vectors,
                                                              triples)))
    try:
        v = np.fromiter(entries, object if num is Dyadic else float,
                        9 * len(triples)).reshape(-1, 3, 3)
    except ZeroDivisionError:
        raise decoy3._degenerate("coefficient vector entries") from None
    _ref_finite(v, "coefficient vector entries")
    return v


@np.errstate(all="ignore")
def _ref_combine(a, b, qtilde):
    terms = ((a[..., :, None] * b[..., None, :]) * qtilde).reshape(-1, 9)
    if terms.dtype == object:
        rows = terms.tolist()
        return [sum(row) for row in rows], [0] * len(rows)
    _ref_finite(terms, "gain combination terms")
    return (list(map(math.fsum, terms.tolist())),
            [decoy3._EPS_COMBINE * e for e in map(math.fsum, np.abs(terms).tolist())])


def _ref_clamp(values, targets, formula):
    bad = values < -1e-9
    if bad.any():
        index = int(bad.argmax())
        raise InconsistentGainsError(
            f"{formula} bound for yield {targets[index % len(targets)]} is "
            f"{float(values.flat[index])}; the gains are not producible by any yield profile")
    return np.minimum(np.maximum(values, 0.0), 1.0)


def _ref_block_bounds(g, gerr, sides, num):
    n = len(decoy3._PAIRS)
    try:
        values = np.array([decoy3._block(g[n * i:n * i + n], gerr[n * i:n * i + n], a, b, num)
                           for i, (a, b) in enumerate(sides)])
    except ZeroDivisionError:
        raise decoy3._degenerate("bound prefactors") from None
    except OverflowError:
        raise decoy3._past_double_range("block bound") from None
    _ref_finite(values, "bound prefactors")
    return _ref_clamp(values, decoy3._EVALUATED, "3-decoy")[:, _REF_TO_TARGETS]


def reference_bounds3(q, mu, nu, exact):
    num, qtilde, mu, nu = _ref_prepare(q, mu, nu, 3, exact)
    va, vb = _ref_vectors((mu, nu), num)
    g, gerr = _ref_combine(va[_REF_PAIR_A], vb[_REF_PAIR_B], qtilde)
    sides = [(decoy3._side(mu, num), decoy3._side(nu, num))]
    bounds = dict(zip(TARGETS_3, _ref_block_bounds(g, gerr, sides, num)[0].tolist()))
    return bounds, dict.fromkeys(bounds, "3-decoy"), []


def bound_set_outcome(bound_set, q, mu, nu, exact):
    """A bound set as its entries in order with their type and ``.hex()``,
    provenance and warnings, or the exception type and message."""
    try:
        bounds, provenance, warnings = bound_set(q, mu, nu, exact)
    except Exception as exc:  # the exception and its message are the outcome
        return type(exc), str(exc)
    return ([(t, type(v), v.hex()) for t, v in bounds.items()],
            list(provenance.items()), warnings)


def _moved_3_decoy_sets(count):
    """3-decoy (mu, nu, loss) with every intensity moved by up to +-20% and
    the losses by up to 1 dB: half around the 3-decoy fluctuation nominal
    settings, half around the optimize workload's cells (default weak decoys,
    strongest decoys on the start scan's axis)."""
    rng = np.random.default_rng(20261021)
    fluctuation = ((0.001001913581935574, 1e-4, 1e-5), (0.001001952695641186, 1e-4, 1e-5),
                   (12.0, 20.0))
    strongest = (1e-3, 1e-2, 0.1, 1.0)
    out = []
    for i in range(count):
        if i % 2 == 0:
            mu, nu, loss = fluctuation
        else:
            mu = (strongest[rng.integers(4)], 1e-4, 1e-5)
            nu = (strongest[rng.integers(4)], 1e-4, 1e-5)
            loss = ((12.0, 24.0), (16.0, 30.0), (20.0, 36.0))[rng.integers(3)]
        out.append((tuple(float(v * rng.uniform(0.8, 1.2)) for v in mu),
                    tuple(float(v * rng.uniform(0.8, 1.2)) for v in nu),
                    tuple(float(v + rng.uniform(-1.0, 1.0)) for v in loss)))
    return out


def _gains(mu, nu, loss):
    settings_ = IntensitySettings(alpha_a=0.2, alpha_b=0.2, mu=mu, nu=nu)
    return simulate_gains(standard_noise(*loss), settings_).q


_LOUD = ((0.5,) * 3,) * 3
_SILENT_SIGNAL = ((0.0, 0.9, 0.9), (0.9,) * 3, (0.9,) * 3)  # no yield profile gives it
# random gains with (2,0), (4,0), (1,1) and (2,2) below the slack: the
# first in evaluation order raises
_MANY_BELOW = ((0.773, 0.030, 0.707), (0.374, 0.091, 0.661), (0.931, 0.207, 0.630))
# (q, mu, nu): each way a 3-decoy set can fail, and extreme sets that pass
_DEGENERATE_SETS = [
    (_LOUD, (0.1, 1e-4, 1e-4), (0.1, 1e-4, 1e-5)),  # coincident
    (_LOUD, (0.1, 1e-4, 1e-5), (0.1, 0.1 * (1 + 1e-7), 1e-5)),  # nearly coincident
    (_LOUD, (0.1, 1e-4, 0.0), (0.1, 1e-4, 1e-5)),  # zero
    (_LOUD, (0.1, 1e-4, 5e-324), (0.1, 1e-4, 1e-5)),  # subnormal: a vector divides by 0
    (_LOUD, (0.1, 1e-310, 5e-320), (0.1, 1e-310, 5e-320)),  # subnormal pair
    (_LOUD, (0.1, 1e-160, 1e-161), (0.1, 1e-160, 1e-161)),  # vector entries overflow
    (_LOUD, (0.1, 1e-120, 1e-121), (0.1, 1e-120, 1e-121)),  # gain terms overflow
    (_LOUD, (1e-150, 5e-151, 1e-151), (1e-150, 5e-151, 1e-151)),  # prefactors
    (_LOUD, (1e-100, 5e-101, 1e-101), (0.3, 0.2, 0.1)),  # prefactors
    (_LOUD, (2e-299, 1e-299, 5e-300), (34.0, 3.0, 2.0)),  # exact past the double range
    (_LOUD, (1e-200, 5e-201, 1e-201), (0.3, 0.2, 0.1)),
    (_LOUD, (0.1, 1e-30, 1e-31), (0.2, 1e-30, 1e-31)),
    (_LOUD, (400.0, 1e-4, 1e-5), (400.0, 1e-4, 1e-5)),  # exp(mu + nu) overflows
    (_LOUD, (354.0, 1e-4, 1e-5), (355.0, 1e-4, 1e-5)),  # just below the overflow
    (_LOUD, (math.nan, 1e-4, 1e-5), (0.1, 1e-4, 1e-5)),
    (_SILENT_SIGNAL, MU, NU),  # inconsistent gains
    (_MANY_BELOW, MU, NU),
    (((math.inf, 0.5, 0.5), (0.5,) * 3, (0.5,) * 3), MU, NU),
    (((math.nan, 0.5, 0.5), (0.5,) * 3, (0.5,) * 3), MU, NU),
    (((-0.5, 0.5, 0.5), (0.5,) * 3, (0.5,) * 3), MU, NU),
    (((0.0,) * 3,) * 3, MU, NU),
    (((1e300,) * 3,) * 3, MU, NU),
]


class TestBounds3MatchesReference:
    """The plain-number three-decoy bound set equals the frozen numpy path
    bit for bit: bounds, provenance, warnings, or exception and message."""

    @pytest.mark.parametrize("exact", [False, True])
    def test_gate_corpus(self, exact):
        corpus = [(loss, mu, nu) for loss, mu, nu in _gate_corpus() if len(mu) == 3]
        assert len(corpus) == 60
        for loss, mu, nu in corpus:
            q = _gains(mu, nu, loss)
            assert bound_set_outcome(decoy3._bounds3, q, mu, nu, exact) == \
                bound_set_outcome(reference_bounds3, q, mu, nu, exact), (loss, mu, nu)

    @pytest.mark.parametrize("exact,count", [(False, 300), (True, 300)])
    def test_moved_nominal_settings(self, exact, count):
        for mu, nu, loss in _moved_3_decoy_sets(count):
            q = _gains(mu, nu, loss)
            assert bound_set_outcome(decoy3._bounds3, q, mu, nu, exact) == \
                bound_set_outcome(reference_bounds3, q, mu, nu, exact), (loss, mu, nu)

    @pytest.mark.parametrize("exact", [False, True])
    def test_degenerate_sets(self, exact):
        kinds = set()
        for q, mu, nu in _DEGENERATE_SETS:
            for a, b, rows in ((mu, nu, q), (nu, mu, tuple(zip(*q)))):
                got = bound_set_outcome(decoy3._bounds3, rows, a, b, exact)
                assert got == bound_set_outcome(reference_bounds3, rows, a, b, exact), (a, b)
                kinds.add(got[0] if isinstance(got[0], type) else "bounds")
        assert {"bounds", DegenerateIntensityError, SaturationError,
                InconsistentGainsError} <= kinds
