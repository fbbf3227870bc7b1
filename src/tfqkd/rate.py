"""Secret-key-rate assembly: phase-error bound, entropies, benchmark.

The phase-error upper bound feeds the certified yield bounds into two
squared coherent-amplitude series (even and odd photon-number parity).  Only
nine yields carry non-trivial bounds; everything else enters at its maximum
value 1, which makes the remainder of the double series separable and
exactly summable, so the truncation order only controls how much of the sum
is evaluated term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

from .channel import (ChannelParams, GainMatrix, IntensitySettings, XBasisStats,
                      simulate_gains, x_basis_statistics)
from .decoy3 import YieldBounds
from .decoy4 import yield_bounds

_TAIL_TARGET = 1e-10
_MAX_N_CUT = 640


def binary_entropy(x: float) -> float:
    """h2(x) in bits, with h2(0) = h2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy needs x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def plob_bound(eta_a: float, eta_b: float) -> float:
    """Repeaterless point-to-point benchmark -log2(1 - eta_a * eta_b).

    Evaluated as -log1p(-product) / ln 2, which keeps full relative accuracy
    when the product of transmittances is tiny (and is +0.0 when it is 0).
    """
    product = eta_a * eta_b
    if not 0.0 <= product < 1.0:
        raise ValueError("plob_bound needs eta_a * eta_b in [0, 1)")
    return -math.log1p(-product) / math.log(2.0)


class _AmplitudeSeries:
    """The weights w_n = e^(-alpha^2/2) alpha^n / sqrt(n!) of one amplitude.

    One pass of the recurrence w_n = w_(n-1) alpha / sqrt(n), grown on
    demand, feeds the full sums over even and odd n and the head sums up to
    any ``n_cut``.  Every phase-error bound at this amplitude can share it.
    """

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.weights = [math.exp(-0.5 * alpha * alpha)]
        self._parity = None
        self._heads = {}

    def _grow(self, n_max: int) -> None:
        alpha, w = self.alpha, self.weights
        for n in range(len(w), n_max + 1):
            w.append(w[-1] * alpha / math.sqrt(n))

    def parity_sums(self) -> tuple[float, float]:
        """Full sums of the weights over even and odd n."""
        if self._parity is None:
            alpha, w = self.alpha, self.weights
            even = odd = 0.0
            n = 0
            while True:
                if n % 2 == 0:
                    even += w[n]
                else:
                    odd += w[n]
                n += 1
                if n == len(w):
                    # the recurrence of ``_grow``, inlined: this loop is hot
                    w.append(w[-1] * alpha / math.sqrt(n))
                if w[n] < (even + odd + 1e-300) * 1e-20 and n > 4:
                    break
                if n > 5000:  # pragma: no cover - unreachable for sane amplitudes
                    raise ArithmeticError("parity sums failed to converge")
            self._parity = (even, odd)
        return self._parity

    def head_sums(self, n_cut: int) -> tuple[float, float]:
        """Sums of w_0 .. w_n_cut over even and odd n."""
        sums = self._heads.get(n_cut)
        if sums is None:
            self._grow(n_cut)
            w = self.weights
            sums = self._heads[n_cut] = (sum(w[0:n_cut + 1:2]), sum(w[1:n_cut + 1:2]))
        return sums


@dataclass(frozen=True)
class PhaseErrorResult:
    e_z_upp: float
    n_cut: int
    tail: float


def phase_error_upper(bounds: YieldBounds, alpha_a: float, alpha_b: float,
                      p_x: float, n_cut: int = 40) -> PhaseErrorResult:
    """Upper bound on the phase error rate from the stored yield bounds.

    Yields without a stored bound count as 1.  The part of the double series
    beyond ``n_cut`` is added in closed form (it only ever multiplies yield
    value 1), and ``n_cut`` doubles until that analytic remainder is below
    1e-10, which the sqrt(n!) decay makes immediate for any sane amplitude.
    ``n_cut`` must be an integer in [10, 640].

    The bound has two parts: each amplitude's weight series (its weights,
    full parity sums and head sums, from one pass of the recurrence), which
    does not read the bounds, and the remainder, which does.  A call builds
    both series afresh; the searches of ``optimize`` share them per amplitude.
    """
    _check_n_cut(n_cut)
    return _phase_error(bounds, _AmplitudeSeries(alpha_a), _AmplitudeSeries(alpha_b),
                        p_x, n_cut)


def _phase_error(bounds: YieldBounds, series_a: _AmplitudeSeries,
                 series_b: _AmplitudeSeries, p_x: float, n_cut: int) -> PhaseErrorResult:
    """The bound-dependent part of ``phase_error_upper``, on given series."""
    if p_x <= 0.0:
        raise ValueError("phase_error_upper needs p_x > 0")
    full_even_a, full_odd_a = series_a.parity_sums()
    full_even_b, full_odd_b = series_b.parity_sums()
    while True:
        head_even_a, head_odd_a = series_a.head_sums(n_cut)
        head_even_b, head_odd_b = series_b.head_sums(n_cut)
        tail_even = full_even_a * full_even_b - head_even_a * head_even_b
        tail_odd = full_odd_a * full_odd_b - head_odd_a * head_odd_b
        tail = max(tail_even, 0.0) + max(tail_odd, 0.0)
        if tail < _TAIL_TARGET or n_cut >= _MAX_N_CUT:
            break
        n_cut *= 2
    even = head_even_a * head_even_b + max(tail_even, 0.0)
    odd = head_odd_a * head_odd_b + max(tail_odd, 0.0)
    wa, wb = series_a.weights, series_b.weights
    # subtract what the stored bounds save relative to yield 1
    for (n, m), y in bounds.items():
        if n > n_cut or m > n_cut or (n + m) % 2:
            continue
        saving = wa[n] * wb[m] * (1.0 - math.sqrt(min(max(y, 0.0), 1.0)))
        if n % 2 == 0:
            even -= saving
        else:
            odd -= saving
    even = max(even, 0.0)
    odd = max(odd, 0.0)
    e_z = (even * even + odd * odd) / p_x
    return PhaseErrorResult(e_z_upp=min(e_z, 1.0), n_cut=n_cut, tail=tail)


@dataclass(frozen=True)
class KeyRateResult:
    """Rate and all intermediate quantities of one evaluation.

    The two detector events are statistically identical for the simulated
    channel, so the per-event terms coincide; both are reported and the
    total is their clamped sum.
    """

    rate: float
    rate_omega_c: float
    rate_omega_d: float
    e_x: float
    e_z_upp: float
    p_x: float
    f: float
    n_cut: int
    tail: float
    bounds: YieldBounds = field(repr=False, default=None)


def key_rate(params: ChannelParams, settings: IntensitySettings, f: float = 1.0,
             n_cut: int = 40, gains: GainMatrix | None = None,
             bounds: YieldBounds | None = None) -> KeyRateResult:
    """Secret key rate for one parameter point.

    Gains are simulated from the channel model unless provided; yield bounds
    are computed from the gains unless provided.  The basis-choice
    probabilities are taken as 1 (asymptotic limit).
    """
    _check_efficiency(f)
    _check_n_cut(n_cut)
    stats = x_basis_statistics(params, settings.alpha_a, settings.alpha_b)
    if gains is None:
        gains = simulate_gains(params, settings)
    if bounds is None:
        bounds = yield_bounds(gains, settings)
    if stats.p_x <= 0.0:
        return KeyRateResult(rate=0.0, rate_omega_c=0.0, rate_omega_d=0.0,
                             e_x=stats.e_x, e_z_upp=math.nan, p_x=stats.p_x,
                             f=f, n_cut=n_cut, tail=0.0, bounds=bounds)
    phase = phase_error_upper(bounds, settings.alpha_a, settings.alpha_b,
                              stats.p_x, n_cut)
    r_omega, rate = _rates(stats, phase.e_z_upp, f)
    return KeyRateResult(rate=rate, rate_omega_c=r_omega, rate_omega_d=r_omega,
                         e_x=stats.e_x, e_z_upp=phase.e_z_upp, p_x=stats.p_x,
                         f=f, n_cut=phase.n_cut, tail=phase.tail, bounds=bounds)


def _check_efficiency(f: float) -> None:
    if not (math.isfinite(f) and f >= 0.0):
        raise ValueError(f"reconciliation efficiency must be finite and >= 0, got {f}")


def _check_n_cut(n_cut) -> None:
    # the weight series hold n_cut + 1 terms, so an unbounded one exhausts memory
    ok = isinstance(n_cut, Integral) and not isinstance(n_cut, bool)
    if not (ok and 10 <= n_cut <= _MAX_N_CUT):
        raise ValueError(f"n_cut must be an integer in [10, {_MAX_N_CUT}], got {n_cut!r}")


def _rates(stats: XBasisStats, e_z_upp: float, f: float) -> tuple[float, float]:
    """The rate of one detector event and the clamped total of both."""
    e_x = min(max(stats.e_x, 0.0), 1.0)
    if e_z_upp >= 0.5 or e_x >= 0.5:
        # error rates at or beyond 1/2 leave nothing to distill; the entropy
        # formula turns around there and must not be evaluated
        r_omega = 0.0
    else:
        r_omega = stats.p_x * (1.0 - binary_entropy(e_z_upp) - f * binary_entropy(e_x))
    return r_omega, max(r_omega, 0.0) + max(r_omega, 0.0)


class _RateParts:
    """``key_rate(params, settings, f, n_cut).rate`` over many settings that
    share intensities and amplitudes, each part built once.

    The gains and yield bounds depend only on the decoy intensities (mu, nu)
    and an amplitude series only on its amplitude; both are built on first
    use and kept while this object lives.  Per call only the X-basis
    statistics, the bound-dependent part of the phase-error bound and the
    entropies are evaluated, in ``key_rate``'s order, so the rates are
    bit-identical and the first call that fails raises ``key_rate``'s error.

    Every search in ``optimize`` scores its points through one such object,
    which holds all the reuse of that search: nothing outlives it.
    """

    def __init__(self, params: ChannelParams, f: float, n_cut: int):
        _check_efficiency(f)
        _check_n_cut(n_cut)
        self.params, self.f, self.n_cut = params, f, n_cut
        self._bounds = {}
        self._series = {}

    @property
    def bound_sets(self) -> int:
        """The number of distinct (mu, nu) pairs given bounds so far."""
        return len(self._bounds)

    def _amplitude(self, alpha: float) -> _AmplitudeSeries:
        series = self._series.get(alpha)
        if series is None:
            series = self._series[alpha] = _AmplitudeSeries(alpha)
        return series

    def rate(self, alpha_a: float, alpha_b: float, mu: tuple, nu: tuple) -> float:
        stats = x_basis_statistics(self.params, alpha_a, alpha_b)
        bounds = self._bounds.get((mu, nu))
        if bounds is None:
            settings = IntensitySettings(alpha_a=alpha_a, alpha_b=alpha_b, mu=mu, nu=nu)
            gains = simulate_gains(self.params, settings)
            bounds = self._bounds[mu, nu] = yield_bounds(gains, settings)
        if stats.p_x <= 0.0:
            return 0.0
        phase = _phase_error(bounds, self._amplitude(alpha_a), self._amplitude(alpha_b),
                             stats.p_x, self.n_cut)
        return _rates(stats, phase.e_z_upp, self.f)[1]
