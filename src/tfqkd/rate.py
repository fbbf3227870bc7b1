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

from .channel import (ChannelParams, GainMatrix, IntensitySettings,
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


def _amplitude_weights(alpha: float, n_max: int) -> list[float]:
    """w_n = e^(-alpha^2/2) alpha^n / sqrt(n!) for n = 0 .. n_max."""
    w = [math.exp(-0.5 * alpha * alpha)]
    for n in range(1, n_max + 1):
        w.append(w[-1] * alpha / math.sqrt(n))
    return w


def _parity_sums(alpha: float) -> tuple[float, float]:
    """Full sums of the amplitude weights over even and odd n."""
    even = odd = 0.0
    w = math.exp(-0.5 * alpha * alpha)
    n = 0
    while True:
        if n % 2 == 0:
            even += w
        else:
            odd += w
        n += 1
        w_next = w * alpha / math.sqrt(n)
        if w_next < (even + odd + 1e-300) * 1e-20 and n > 4:
            break
        w = w_next
        if n > 5000:  # pragma: no cover - unreachable for sane amplitudes
            raise ArithmeticError("parity sums failed to converge")
    return even, odd


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
    """
    if p_x <= 0.0:
        raise ValueError("phase_error_upper needs p_x > 0")
    if n_cut < 10:
        raise ValueError("n_cut must be >= 10")
    full_even_a, full_odd_a = _parity_sums(alpha_a)
    full_even_b, full_odd_b = _parity_sums(alpha_b)
    while True:
        wa = _amplitude_weights(alpha_a, n_cut)
        wb = _amplitude_weights(alpha_b, n_cut)
        head_even_a = sum(wa[0::2])
        head_odd_a = sum(wa[1::2])
        head_even_b = sum(wb[0::2])
        head_odd_b = sum(wb[1::2])
        tail_even = full_even_a * full_even_b - head_even_a * head_even_b
        tail_odd = full_odd_a * full_odd_b - head_odd_a * head_odd_b
        tail = max(tail_even, 0.0) + max(tail_odd, 0.0)
        if tail < _TAIL_TARGET or n_cut >= _MAX_N_CUT:
            break
        n_cut *= 2
    even = head_even_a * head_even_b + max(tail_even, 0.0)
    odd = head_odd_a * head_odd_b + max(tail_odd, 0.0)
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
    if not (math.isfinite(f) and f >= 0.0):
        raise ValueError(f"reconciliation efficiency must be finite and >= 0, got {f}")
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
    e_x = min(max(stats.e_x, 0.0), 1.0)
    if phase.e_z_upp >= 0.5 or e_x >= 0.5:
        # error rates at or beyond 1/2 leave nothing to distill; the entropy
        # formula turns around there and must not be evaluated
        r_omega = 0.0
    else:
        r_omega = stats.p_x * (1.0 - binary_entropy(phase.e_z_upp)
                               - f * binary_entropy(e_x))
    rate = max(r_omega, 0.0) + max(r_omega, 0.0)
    return KeyRateResult(rate=rate, rate_omega_c=r_omega, rate_omega_d=r_omega,
                         e_x=stats.e_x, e_z_upp=phase.e_z_upp, p_x=stats.p_x,
                         f=f, n_cut=phase.n_cut, tail=phase.tail, bounds=bounds)
