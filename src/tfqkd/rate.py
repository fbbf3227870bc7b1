"""Secret-key-rate assembly: phase-error bound, entropies, benchmark.

The phase-error upper bound feeds the certified yield bounds into two
squared coherent-amplitude series (even and odd photon-number parity).  Only
nine yields carry non-trivial bounds; everything else enters at its maximum
value 1, so the double series is the product of the two amplitudes' full
parity sums minus what the nine stored bounds save: a closed form, with no
truncation order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .channel import (ChannelParams, GainMatrix, IntensitySettings, XBasisStats,
                      simulate_gains, x_basis_statistics)
from .decoy3 import YieldBounds
from .decoy4 import yield_bounds
from .errors import SaturationError


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
    Each transmittance must lie in [0, 1], and their product below 1.
    """
    if not (0.0 <= eta_a <= 1.0 and 0.0 <= eta_b <= 1.0):
        raise ValueError(f"plob_bound needs transmittances in [0, 1], got {eta_a}, {eta_b}")
    product = eta_a * eta_b
    if not product < 1.0:
        raise ValueError("plob_bound needs eta_a * eta_b in [0, 1)")
    return -math.log1p(-product) / math.log(2.0)


def _underflows(alpha: float) -> bool:
    """Whether the vacuum weight e^(-alpha^2/2) of an amplitude is zero or
    subnormal, which leaves every weight without precision."""
    return math.exp(-0.5 * alpha * alpha) < sys.float_info.min


def _amplitude_series(alpha: float) -> tuple[list[float], float, float]:
    """The weights w_n = e^(-alpha^2/2) alpha^n / sqrt(n!) of one amplitude
    and their full sums over even and odd n.

    One pass of the recurrence w_n = w_(n-1) alpha / sqrt(n) adds weights
    until one falls below 1e-20 of the sum so far.  Every phase-error bound
    at this amplitude can share the result.  An amplitude that is negative or
    not finite is a ``ValueError``; one whose vacuum weight underflows is a
    ``SaturationError``, since its zero weights would certify a key without
    any yield to support it.
    """
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"amplitudes must be finite and >= 0, got {alpha}")
    if _underflows(alpha):
        raise SaturationError(f"the vacuum weight exp(-alpha^2/2) underflows "
                              f"for amplitude {alpha}")
    w = [math.exp(-0.5 * alpha * alpha)]
    even = odd = 0.0
    n = 0
    # ends: past n ~ alpha^2, which the underflow check bounds, the weights
    # fall faster than geometrically
    while True:
        if n % 2 == 0:
            even += w[n]
        else:
            odd += w[n]
        n += 1
        w.append(w[-1] * alpha / math.sqrt(n))
        if w[n] < (even + odd + 1e-300) * 1e-20 and n > 4:
            return w, even, odd


def phase_error_upper(bounds: YieldBounds, alpha_a: float, alpha_b: float,
                      p_x: float) -> float:
    """Upper bound on the phase error rate from the stored yield bounds.

    Yields without a stored bound count as 1, so the double series over
    photon numbers (n, m) is the product of the two amplitudes' parity sums
    minus what each stored bound saves against yield 1: a closed form with
    no truncation.  Amplitudes must be finite and >= 0, and ``p_x`` finite
    and > 0 (``ValueError``); an amplitude whose vacuum weight e^(-alpha^2/2)
    underflows raises ``SaturationError``.

    The bound has three parts: each amplitude's weight series
    (``_amplitude_series``), which does not read the bounds, and the
    savings factors of the bounds (``_savings``), which read nothing else.
    A call builds all three afresh; the searches of ``optimize`` share the
    series per amplitude and the savings per bound set.
    """
    series_a, series_b = _amplitude_series(alpha_a), _amplitude_series(alpha_b)
    return _phase_error(_savings(bounds), series_a, series_b, p_x)


def _savings(bounds: YieldBounds) -> tuple:
    """(n, m, n even, 1 - sqrt(y)) of each stored bound y on a yield (n, m)
    with n + m even, y clamped to [0, 1], in ``bounds.items()`` order: what
    the bound saves against yield 1, per unit weight.  The other parity
    does not enter the phase error."""
    return tuple((n, m, n % 2 == 0, 1.0 - math.sqrt(min(max(y, 0.0), 1.0)))
                 for (n, m), y in bounds.items() if (n + m) % 2 == 0)


def _phase_error(savings: tuple, series_a: tuple, series_b: tuple, p_x: float) -> float:
    """The bound-dependent part of ``phase_error_upper``, on given
    ``_savings`` and series."""
    if not 0.0 < p_x < math.inf:
        raise ValueError(f"phase_error_upper needs a finite p_x > 0, got {p_x}")
    wa, even_a, odd_a = series_a
    wb, even_b, odd_b = series_b
    even, odd = even_a * even_b, odd_a * odd_b
    # subtract what the stored bounds save relative to yield 1; a weight
    # past the series is below 1e-20 of it, and its yield stays 1
    for n, m, even_n, factor in savings:
        if n >= len(wa) or m >= len(wb):
            continue
        saving = wa[n] * wb[m] * factor
        if even_n:
            even -= saving
        else:
            odd -= saving
    even = max(even, 0.0)
    odd = max(odd, 0.0)
    return min((even * even + odd * odd) / p_x, 1.0)


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
    bounds: YieldBounds = field(repr=False, default=None)


def key_rate(params: ChannelParams, settings: IntensitySettings, f: float = 1.0,
             gains: GainMatrix | None = None, bounds: YieldBounds | None = None) -> KeyRateResult:
    """Secret key rate for one parameter point.

    Gains are simulated from the channel model unless provided; yield bounds
    are computed from the gains unless provided.  The basis-choice
    probabilities are taken as 1 (asymptotic limit).
    """
    _check_efficiency(f)
    stats = x_basis_statistics(params, settings.alpha_a, settings.alpha_b)
    if gains is None:
        gains = simulate_gains(params, settings)
    if bounds is None:
        bounds = yield_bounds(gains, settings)
    if stats.p_x <= 0.0:
        return KeyRateResult(rate=0.0, rate_omega_c=0.0, rate_omega_d=0.0,
                             e_x=stats.e_x, e_z_upp=math.nan, p_x=stats.p_x,
                             f=f, bounds=bounds)
    e_z_upp = phase_error_upper(bounds, settings.alpha_a, settings.alpha_b, stats.p_x)
    r_omega, rate = _rates(stats, e_z_upp, f)
    return KeyRateResult(rate=rate, rate_omega_c=r_omega, rate_omega_d=r_omega,
                         e_x=stats.e_x, e_z_upp=e_z_upp, p_x=stats.p_x,
                         f=f, bounds=bounds)


def _check_efficiency(f: float) -> None:
    if not (math.isfinite(f) and f >= 0.0):
        raise ValueError(f"reconciliation efficiency must be finite and >= 0, got {f}")


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
    """``key_rate(params, settings, f).rate`` over many settings that
    share intensities and amplitudes, each part built once.

    The gains and yield bounds depend only on the decoy intensities (mu, nu)
    and an amplitude's weights and parity sums only on the amplitude.  Of
    each (mu, nu) pair's bounds only their ``_savings`` factors are kept;
    they and the series are built on first use and kept while this object
    lives.  Per call only the X-basis statistics, the sum of the savings
    weighted by the series and the entropies are evaluated, in
    ``key_rate``'s order, so the rates are bit-identical and the first call
    that fails raises ``key_rate``'s error.

    Every search in ``optimize`` scores its points through one such object,
    which holds all the reuse of that search: nothing outlives it.
    """

    def __init__(self, params: ChannelParams, f: float):
        _check_efficiency(f)
        self.params, self.f = params, f
        self._savings = {}
        self._series = {}

    @property
    def bound_sets(self) -> int:
        """The number of distinct (mu, nu) pairs given bounds so far."""
        return len(self._savings)

    def _amplitude(self, alpha: float) -> tuple:
        series = self._series.get(alpha)
        if series is None:
            series = self._series[alpha] = _amplitude_series(alpha)
        return series

    def rate(self, alpha_a: float, alpha_b: float, mu: tuple, nu: tuple) -> float:
        stats = x_basis_statistics(self.params, alpha_a, alpha_b)
        savings = self._savings.get((mu, nu))
        if savings is None:
            settings = IntensitySettings(alpha_a=alpha_a, alpha_b=alpha_b, mu=mu, nu=nu)
            gains = simulate_gains(self.params, settings)
            savings = self._savings[mu, nu] = _savings(yield_bounds(gains, settings))
        if stats.p_x <= 0.0:
            return 0.0
        e_z_upp = _phase_error(savings, self._amplitude(alpha_a), self._amplitude(alpha_b),
                               stats.p_x)
        return _rates(stats, e_z_upp, self.f)[1]
