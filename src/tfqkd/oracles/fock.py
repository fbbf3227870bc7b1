"""Photon-number ground truths: exact Fock-state enumeration and gain series.

``fock_yield`` recomputes the click probability for number-state inputs from
first principles (binomial loss, per-photon polarization split, balanced
beam splitter) without using the closed combinatorial formula of the core
model, so agreement between the two is a genuine cross-check.
"""

from __future__ import annotations

import math

from ..channel import ChannelParams, gain, theoretical_yield

_MAX_TOTAL_PHOTONS = 12


def _one_port_probability(k: int, t: int, theta_a: float, theta_b: float) -> float:
    """P(all k + t surviving photons leave through one chosen output port).

    The survivors sit in two input modes with polarization directions
    theta_a and theta_b; projecting the beam-splitter output on the
    other port's vacuum leaves a two-mode state whose norm is accumulated
    over the number of photons that ended up in the misaligned
    polarization component.
    """
    if k == 0 and t == 0:
        return 1.0
    ua = (math.cos(theta_a) / math.sqrt(2.0), math.sin(theta_a) / math.sqrt(2.0))
    ub = (math.cos(theta_b) / math.sqrt(2.0), math.sin(theta_b) / math.sqrt(2.0))
    total = 0.0
    for s in range(0, k + t + 1):
        amp = 0.0
        for a in range(0, k + 1):
            b = s - a
            if b < 0 or b > t:
                continue
            amp += (math.comb(k, a) * ua[0] ** (k - a) * ua[1] ** a
                    * math.comb(t, b) * ub[0] ** (t - b) * ub[1] ** b)
        weight = math.factorial(k + t - s) * math.factorial(s)
        total += amp * amp * weight
    return total / (math.factorial(k) * math.factorial(t))


def fock_yield(params: ChannelParams, n: int, m: int) -> float:
    """Click probability for inputs |n>, |m>, by direct enumeration.

    Dark counts are excluded to match the optics-only yield definition.
    """
    if n < 0 or m < 0:
        raise ValueError("photon numbers must be >= 0")
    if n + m > _MAX_TOTAL_PHOTONS:
        raise ValueError(f"fock_yield supports n + m <= {_MAX_TOTAL_PHOTONS}")
    eta_a, eta_b = params.eta_a, params.eta_b
    total = 0.0
    for k in range(n + 1):
        wa = math.comb(n, k) * eta_a ** k * (1.0 - eta_a) ** (n - k)
        for t in range(m + 1):
            wb = math.comb(m, t) * eta_b ** t * (1.0 - eta_b) ** (m - t)
            total += wa * wb * _one_port_probability(k, t, params.theta_a, params.theta_b)
    return total - (1.0 - eta_a) ** n * (1.0 - eta_b) ** m


def dark_adjusted_yield(params: ChannelParams, n: int, m: int) -> float:
    """Yield of the full detector model, dark counts included.

    The optics-only yield formula deliberately has no dark-count term; this
    documented augmentation is the exact profile that reproduces the
    simulated gains as a Poisson mixture:
    Y' = (1 - p_d) Y + p_d (1 - p_d) (1-eta_a)^n (1-eta_b)^m.
    """
    base = theoretical_yield(params, n, m)
    vac = (1.0 - params.eta_a) ** n * (1.0 - params.eta_b) ** m
    one_m_pd = 1.0 - params.p_d
    return one_m_pd * base + params.p_d * one_m_pd * vac


def poisson_weight(mean: float, n: int) -> float:
    if mean < 0:
        raise ValueError("mean must be >= 0")
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))


def poisson_upper_tail(mean: float, n_max: int) -> float:
    """P(N > n_max) for a Poisson variable, to full relative accuracy.

    Summed upward from the first excluded term while the tail is the smaller
    side: one minus the head would lose the tiny tails that appear here to
    rounding.  Past the mode the tail holds about half the mass or more, so
    one minus the head is accurate there, while the upward sum would stop
    long before the terms peak near ``mean`` or start from an underflowed
    first term.
    """
    if mean > n_max + 1:
        return 1.0 - math.fsum(poisson_weight(mean, n) for n in range(n_max + 1))
    term = poisson_weight(mean, n_max + 1)
    total = term
    for n in range(n_max + 2, n_max + 400):
        term *= mean / n
        total += term
        if term < total * 1e-18:
            break
    return total


def series_gain(params: ChannelParams, mu: float, nu: float, n_max: int = 40) -> float:
    """Gain rebuilt as a Poisson mixture of photon-number yields.

    Truncated at ``n_max`` photons per party; includes the dark-count
    augmentation so the result matches the closed-form gain of the channel
    model within the Poisson tail mass.
    """
    if n_max < 20:
        raise ValueError("n_max must be >= 20")
    wa = [poisson_weight(mu, n) for n in range(n_max + 1)]
    wb = [poisson_weight(nu, m) for m in range(n_max + 1)]
    terms = []
    for n in range(n_max + 1):
        if wa[n] == 0.0:
            continue
        for m in range(n_max + 1):
            y = theoretical_yield(params, n, m)
            if y:
                terms.append(wa[n] * wb[m] * y)
    mixture = math.fsum(terms)
    one_m_pd = 1.0 - params.p_d
    dark = params.p_d * one_m_pd * math.exp(-mu * params.eta_a - nu * params.eta_b)
    return one_m_pd * mixture + dark


def gain_reconstruction_error(params: ChannelParams, mu: float, nu: float,
                              n_max: int = 40) -> tuple[float, float]:
    """(|closed form - series|, admissible Poisson tail) for one intensity pair."""
    closed = gain(params, mu, nu)
    series = series_gain(params, mu, nu, n_max)
    return abs(closed - series), poisson_upper_tail(mu, n_max) + poisson_upper_tail(nu, n_max)
