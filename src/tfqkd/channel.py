"""Physical model of the twin-field link: losses, misalignment, detector noise.

Both parties send pulses through lossy channels (transmittances ``eta_a``,
``eta_b``) to an untrusted middle node that interferes them on a balanced
beam splitter and reports which threshold detector clicked.  Everything here
is a pure closed-form function of the parameters; the two click events are
statistically identical for this model, so a single number is returned and
used for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import SaturationError

# Largest argument for which exp() stays finite in double precision.
_EXP_MAX = 709.0


def db_to_transmittance(loss_db: float) -> float:
    """Channel transmittance for a given loss in dB (eta = 10**(-dB/10)); an
    infinite loss gives 0, a negative or NaN one raises ``ValueError``."""
    if not loss_db >= 0:
        raise ValueError(f"loss must be >= 0 dB, got {loss_db}")
    return 10.0 ** (-loss_db / 10.0)


def transmittance_to_db(eta: float) -> float:
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmittance must be in (0, 1], got {eta}")
    return -10.0 * math.log10(eta)


@dataclass(frozen=True)
class ChannelParams:
    """Channel and detector parameters.

    eta_a, eta_b : transmittance of Alice's / Bob's channel, in [0, 1]
    p_d          : dark-count probability per detector per gate, in [0, 1)
    theta_a/b    : polarization shift angle on each side (radians); only the
                   difference enters the interference visibility, while the
                   individual angles enter the photon-number yields
    delta        : phase mismatch as a fraction of pi (phase = delta * pi)
    """

    eta_a: float
    eta_b: float
    p_d: float = 0.0
    theta_a: float = 0.0
    theta_b: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta_a <= 1.0 or not 0.0 <= self.eta_b <= 1.0:
            raise ValueError("transmittances must lie in [0, 1]")
        if not 0.0 <= self.p_d < 1.0:
            raise ValueError("dark-count probability must lie in [0, 1)")
        # the net angle and the phase must stay finite too, or their cosines
        # fail inside the rate
        if not all(map(math.isfinite, (self.theta_a, self.theta_b, self.delta,
                                       self.theta, self.phase))):
            raise ValueError("misalignment angles and phase mismatch must be finite")

    @property
    def theta(self) -> float:
        """Net polarization misalignment between the two arms."""
        return self.theta_a - self.theta_b

    @property
    def phase(self) -> float:
        return self.delta * math.pi


def standard_noise(loss_a_db: float, loss_b_db: float, *, p_d: float = 1e-7,
                   misalignment: float = 0.02, phase_mismatch: float = 0.02) -> ChannelParams:
    """Channel parameters with the usual experimental noise profile.

    ``misalignment`` is the polarization error probability; it maps to a
    shift angle 2*arcsin(sqrt(misalignment)) on Alice's side with Bob's side
    kept at zero.  ``phase_mismatch`` is the phase offset as a fraction of pi.
    """
    return ChannelParams(
        eta_a=db_to_transmittance(loss_a_db),
        eta_b=db_to_transmittance(loss_b_db),
        p_d=p_d,
        theta_a=2.0 * math.asin(math.sqrt(misalignment)),
        theta_b=0.0,
        delta=phase_mismatch,
    )


def _check_decoy_ordering(values: tuple[float, ...], label: str) -> None:
    """Enforce the strict ordering convention of a decoy set.

    Three intensities are listed strongest-first; with four, the strongest is
    appended last, i.e. values[3] > values[0] > values[1] > values[2].
    """
    if len(values) == 3:
        ordered = values
    elif len(values) == 4:
        ordered = (values[3], values[0], values[1], values[2])
    else:
        raise ValueError(f"{label} must contain 3 or 4 intensities, got {len(values)}")
    if any(v < 0 for v in values):
        raise ValueError(f"{label} intensities must be >= 0")
    for hi, lo in zip(ordered, ordered[1:]):
        if not hi > lo:
            raise ValueError(f"{label} intensities must be strictly ordered, got {values}")


@dataclass(frozen=True)
class IntensitySettings:
    """Signal amplitudes and decoy intensity sets of the two parties.

    ``alpha_a``/``alpha_b`` are the real coherent-state amplitudes used for
    key generation (the corresponding intensities are their squares).  ``mu``
    and ``nu`` are each party's decoy intensities, three or four per party,
    listed in the conventional order checked by ``_check_decoy_ordering``.
    """

    alpha_a: float
    alpha_b: float
    mu: tuple[float, ...]
    nu: tuple[float, ...]

    def __post_init__(self):
        if self.alpha_a < 0 or self.alpha_b < 0:
            raise ValueError("amplitudes must be >= 0")
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        object.__setattr__(self, "nu", tuple(float(v) for v in self.nu))
        if not all(map(math.isfinite, (self.alpha_a, self.alpha_b, *self.mu, *self.nu))):
            raise ValueError("amplitudes and intensities must be finite")
        _check_decoy_ordering(self.mu, "mu")
        _check_decoy_ordering(self.nu, "nu")
        if len(self.mu) != len(self.nu):
            raise ValueError("both parties must use the same number of decoys")

    @property
    def n_decoys(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class GainMatrix:
    """Z-basis gains Q[k][l] for each pair of decoy intensities.

    The event tag records which detector the gains refer to; for the channel
    model implemented here the two detectors are interchangeable and
    simulated matrices are identical for both.
    """

    q: tuple[tuple[float, ...], ...]
    omega: str = "c"

    def __post_init__(self):
        q = tuple(tuple(float(v) for v in row) for row in self.q)
        object.__setattr__(self, "q", q)
        size = len(q)
        if size not in (3, 4) or any(len(row) != size for row in q):
            raise ValueError("gain matrix must be square, 3x3 or 4x4")
        if self.omega not in ("c", "d"):
            raise ValueError("omega must be 'c' or 'd'")
        for row in q:
            for v in row:
                if not 0.0 <= v <= 1.0 or math.isnan(v):
                    raise ValueError(f"gains must lie in [0, 1], got {v}")

    @property
    def size(self) -> int:
        return len(self.q)


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Power series below x = 20, asymptotic expansion above; relative error
    stays below 1e-12 across [0, 700].  Arguments beyond the exponent range
    raise ``SaturationError``, negative or NaN ones ``ValueError``.
    """
    if not x >= 0:
        raise ValueError("bessel_i0 requires x >= 0")
    if x > _EXP_MAX:
        raise SaturationError(f"bessel_i0 overflows for x = {x}")
    if x <= 20.0:
        return 1.0 + _bessel_i0_minus_1(x)
    # Asymptotic series e^x/sqrt(2 pi x) * sum_k a_k with
    # a_{k+1}/a_k = (2k+1)^2 / (8 (k+1) x); truncate at its smallest term.
    term = 1.0
    total = 1.0
    for k in range(0, 40):
        nxt = term * (2 * k + 1) ** 2 / (8.0 * (k + 1) * x)
        if nxt >= term:
            break
        term = nxt
        total += term
        if term < total * 1e-18:
            break
    return math.exp(x) / math.sqrt(2.0 * math.pi * x) * total


@dataclass(frozen=True)
class XBasisStats:
    """Bit error rate and click probability of the key-generation basis.

    ``e_x`` is NaN when the click probability vanishes (no events to err on).
    ``gamma`` and ``chi`` are the arriving mean photon number and the
    interference-visibility cross term they derive from.
    """

    e_x: float
    p_x: float
    gamma: float
    chi: float


def x_basis_statistics(params: ChannelParams, alpha_a: float, alpha_b: float) -> XBasisStats:
    """Error rate and click probability for coherent-state key rounds.

    Written in expm1 form so both outputs keep full relative accuracy at
    high loss, where the naive differences of near-unit exponentials lose
    everything; gamma >= |chi| always holds, so every expm1 term below is
    non-negative and nothing cancels.
    """
    if alpha_a < 0 or alpha_b < 0:
        raise ValueError("amplitudes must be >= 0")
    ia = params.eta_a * alpha_a * alpha_a
    ib = params.eta_b * alpha_b * alpha_b
    gamma = 0.5 * (ia + ib)
    # chi = alpha_a alpha_b sqrt(eta_a eta_b) cos(phase) cos(theta); the
    # sqrt(ia*ib) form makes chi == gamma exact when ia == ib bitwise.
    chi = math.sqrt(ia * ib) * math.cos(params.phase) * math.cos(params.theta)
    if not gamma + abs(chi) <= _EXP_MAX:
        raise SaturationError(f"arriving intensities {ia} and {ib} overflow the "
                              "X-basis click probability")
    p_d = params.p_d
    one_m_pd = 1.0 - p_d
    em_minus = math.expm1(gamma - chi)   # e^(gamma-chi) - 1
    em_plus = math.expm1(gamma + chi)    # e^(gamma+chi) - 1
    den = em_minus + em_plus + 2.0 * p_d
    if den == 0.0:
        e_x = math.nan
    else:
        e_x = (em_minus + p_d) / den
    p_x = one_m_pd * math.exp(-2.0 * gamma) * (0.5 * (em_minus + em_plus) + p_d)
    return XBasisStats(e_x=e_x, p_x=p_x, gamma=gamma, chi=chi)


def _bessel_i0_minus_1(x: float) -> float:
    """I0(x) - 1 to full relative accuracy for x <= 20, the power series that
    ``bessel_i0`` and the gain formula use there."""
    q = 0.25 * x * x
    term = 1.0
    total = 0.0
    for k in range(1, 200):
        term *= q / (k * k)
        total += term
        if term < (total + 1.0) * 1e-18:
            break
    return total


def gain(params: ChannelParams, mu_k: float, nu_l: float) -> float:
    """Probability of a one-detector click for phase-randomized inputs.

    Q = (1-p_d) e^{-s} [expm1(s/2 + log I0(x)) + p_d] with s the total
    arriving intensity; every bracket term is non-negative, so the result is
    relative-accurate even when it is many orders below 1.  The yield bounds
    difference these gains against each other and genuinely need that.
    A negative or NaN intensity raises ``ValueError``.
    """
    if not (mu_k >= 0 and nu_l >= 0):
        raise ValueError("intensities must be >= 0")
    arriving = mu_k * params.eta_a + nu_l * params.eta_b
    x = abs(math.sqrt(mu_k * nu_l * params.eta_a * params.eta_b) * math.cos(params.theta))
    if x <= 20.0:
        log_i0 = math.log1p(_bessel_i0_minus_1(x))
    else:  # x > 20 once mu_k nu_l eta_a eta_b cos^2(theta) > 400
        log_i0 = math.log(bessel_i0(x))
    one_m_pd = 1.0 - params.p_d
    # caught, not range-checked against _EXP_MAX: just below the overflow
    # e^{-s} is subnormal and the gain is still finite
    try:
        bracket = math.expm1(0.5 * arriving + log_i0) + params.p_d
    except OverflowError:
        raise SaturationError(f"arriving intensity {arriving} overflows the gain "
                              f"({mu_k}, {nu_l})") from None
    q = one_m_pd * math.exp(-arriving) * bracket
    return min(max(q, 0.0), 1.0)


def simulate_gains(params: ChannelParams, settings: IntensitySettings) -> GainMatrix:
    """Gain matrix over all decoy pairs of the given settings."""
    rows = tuple(
        tuple(gain(params, mu_k, nu_l) for nu_l in settings.nu)
        for mu_k in settings.mu
    )
    return GainMatrix(q=rows, omega="c")


@lru_cache(maxsize=64)
def _survivor_click_table(tan_a: float, tan_b: float, size: int) -> tuple[tuple[float, ...], ...]:
    """Table T[k][t]: combinatorial weight of k + t surviving photons ending
    up in a single output port, before the per-photon loss factors.

    With one party perfectly aligned the triple sum collapses to a single
    sum, which matters for the large tables the gain-series checks need.
    """
    if tan_a == 0.0 and tan_b != 0.0:
        # the same single sum with the parties exchanged
        return tuple(zip(*_survivor_click_table(tan_b, tan_a, size)))
    table = []
    for k in range(size + 1):
        row = []
        for t in range(size + 1):
            if tan_b == 0.0:
                # Only terms with no misaligned photons on Bob's side survive.
                acc = 0.0
                for i in range(0, k + 1):
                    acc += math.comb(k, i) ** 2 * tan_a ** (2 * i) \
                        * math.factorial(k + t - i) * math.factorial(i)
                row.append(acc)
                continue
            acc = []
            for i in range(0, k + 1):
                for j in range(0, t + 1):
                    for p in range(max(0, i + j - t), min(k, i + j) + 1):
                        pow_a = i + p
                        pow_b = i + 2 * j - p
                        term = math.comb(k, i) * math.comb(t, j) \
                            * math.comb(k, p) * math.comb(t, i + j - p) \
                            * math.factorial(k + t - i - j) * math.factorial(i + j)
                        fa = tan_a ** pow_a if pow_a else 1.0
                        fb = tan_b ** pow_b if pow_b else 1.0
                        acc.append(term * fa * fb)
            row.append(math.fsum(acc))
        table.append(tuple(row))
    return tuple(table)


def theoretical_yield(params: ChannelParams, n: int, m: int) -> float:
    """Click probability given exactly n and m photons sent (no dark counts).

    Closed combinatorial sum over the photons that survive each lossy channel
    and their polarization components; compensated summation keeps the heavy
    cancellation between the all-in-one-port weight and the no-survivor term
    under control.
    """
    if n < 0 or m < 0:
        raise ValueError("photon numbers must be >= 0")
    if n > 60 or m > 60:
        raise ValueError("photon numbers beyond 60 are not supported")
    eta_a, eta_b = params.eta_a, params.eta_b
    tan_a, tan_b = math.tan(params.theta_a), math.tan(params.theta_b)
    cos2_a, cos2_b = math.cos(params.theta_a) ** 2, math.cos(params.theta_b) ** 2
    table = _survivor_click_table(tan_a, tan_b, max(n, m))
    terms = []
    for k in range(n + 1):
        ca = math.comb(n, k) * eta_a ** k * (1.0 - eta_a) ** (n - k) * cos2_a ** k \
            / (math.factorial(k) * 2 ** k)
        if ca == 0.0:
            continue
        for t in range(m + 1):
            cb = math.comb(m, t) * eta_b ** t * (1.0 - eta_b) ** (m - t) * cos2_b ** t \
                / (math.factorial(t) * 2 ** t)
            if cb == 0.0:
                continue
            terms.append(ca * cb * table[k][t])
    terms.append(-((1.0 - eta_a) ** n) * ((1.0 - eta_b) ** m))
    y = math.fsum(terms)
    return min(max(y, 0.0), 1.0)


