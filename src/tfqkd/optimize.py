"""Global rate optimization and worst-case intensity-fluctuation analysis.

The rate is not a convex function of the amplitudes and decoy intensities
(coordinate descent from a corner provably stalls on asymmetric channels),
so optimization is multistart Nelder-Mead over a box: cheap in the at most
four free dimensions used here and immune to the non-convexity.  Everything
is seeded and the winner is reduced deterministically (best value, ties
broken on the lexicographically smallest parameter vector), so repeated
runs agree bit for bit regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from scipy.optimize import Bounds, minimize, minimize_scalar

from .channel import ChannelParams, IntensitySettings
from .errors import InfeasibleFluctuationError
from .rate import key_rate

_DEFAULT_WEAK = {3: (1e-4, 1e-5), 4: (1e-3, 1e-4, 1e-5)}


@dataclass(frozen=True)
class OptimizationSpec:
    """Free parameters, fixed weak decoys and search boxes for one run.

    The free parameters are the two signal amplitudes and each party's
    strongest decoy intensity; the weaker decoys stay fixed (their optima
    are always as small as practical, so nothing is lost).  With
    ``symmetric`` the two parties share one amplitude and one strongest
    decoy, emulating the equal-settings baseline.
    """

    decoys: int = 4
    weak_decoys: tuple = None
    alpha_box: tuple = (1e-3, 1.5)
    strongest_box: tuple = None
    multistart: int = 16
    seed: int = 0
    symmetric: bool = False

    def __post_init__(self):
        if self.decoys not in (3, 4):
            raise ValueError("decoys must be 3 or 4")
        weak = self.weak_decoys
        if weak is None:
            weak = _DEFAULT_WEAK[self.decoys]
        weak = tuple(float(w) for w in weak)
        if len(weak) != self.decoys - 1:
            raise ValueError(f"{self.decoys}-decoy settings need {self.decoys - 1} "
                             f"fixed weak decoys")
        if any(w <= 0 for w in weak) or any(a <= b for a, b in zip(weak, weak[1:])):
            raise ValueError("weak decoys must be positive and strictly decreasing")
        object.__setattr__(self, "weak_decoys", weak)
        box = self.strongest_box
        if box is None:
            lo = 10.0 * weak[0]
            hi = 1.0
            if lo >= hi:
                # wide weak decoys push the default floor past 1; keep the
                # box non-empty by extending it upward instead
                hi = 12.0 * weak[0]
            box = (lo, hi)
        if not 0 < box[0] < box[1]:
            raise ValueError("strongest-decoy box must be positive and non-empty")
        if box[0] <= weak[0]:
            raise ValueError("strongest-decoy box must sit above the weak decoys")
        object.__setattr__(self, "strongest_box", (float(box[0]), float(box[1])))
        if not 0 < self.alpha_box[0] < self.alpha_box[1]:
            raise ValueError("amplitude box must be positive and non-empty")
        if self.multistart < 1:
            raise ValueError("multistart must be >= 1")

    def box(self):
        a_lo, a_hi = self.alpha_box
        s_lo, s_hi = self.strongest_box
        if self.symmetric:
            return np.array([a_lo, s_lo]), np.array([a_hi, s_hi])
        return np.array([a_lo, a_lo, s_lo, s_lo]), np.array([a_hi, a_hi, s_hi, s_hi])

    def settings(self, p) -> IntensitySettings:
        """Intensity settings for one parameter vector."""
        if self.symmetric:
            alpha_a = alpha_b = float(p[0])
            strong_a = strong_b = float(p[1])
        else:
            alpha_a, alpha_b = float(p[0]), float(p[1])
            strong_a, strong_b = float(p[2]), float(p[3])
        if self.decoys == 3:
            mu = (strong_a,) + self.weak_decoys
            nu = (strong_b,) + self.weak_decoys
        else:
            mu = self.weak_decoys + (strong_a,)
            nu = self.weak_decoys + (strong_b,)
        return IntensitySettings(alpha_a=alpha_a, alpha_b=alpha_b, mu=mu, nu=nu)


@dataclass
class OptimizationResult:
    """The best rate found and where.  ``optimize_rate`` traces each start
    (start, vector, rate and its own ``nfev``) and names the winning one in
    ``best_start``, an index into ``trace``."""

    settings: IntensitySettings
    rate: float
    vector: tuple
    trace: list = field(repr=False, default_factory=list)
    best_start: int | None = None


def _objective(params: ChannelParams, spec: OptimizationSpec, f: float, n_cut: int):
    lo, hi = spec.box()

    def fun(p):
        q = np.clip(p, lo, hi)
        return -key_rate(params, spec.settings(q), f, n_cut).rate
    return fun


def _grid_axis(lo: float, hi: float, points: int):
    return np.exp(np.linspace(math.log(lo), math.log(hi), points))


def _starts(spec: OptimizationSpec, fun, params: ChannelParams):
    """Deterministic multistart points for the local searches.

    The positive-rate basin is a small pocket of the box (most of it clamps
    to zero key), so random starts alone routinely miss it.  Two scans
    locate it: a coarse geometric product grid, and a sweep of
    matched-arrival points alpha_i = sqrt(t / eta_i) -- the interference
    only stays clean when the two arriving signal intensities are similar,
    so the pocket hugs that surface however asymmetric the losses are.  The
    best cells seed the local searches, topped up with seeded log-uniform
    samples.
    """
    lo, hi = spec.box()
    n_alpha = 1 if spec.symmetric else 2
    # the positive-rate pocket spans roughly a factor two in amplitude, so
    # the scan spacing must stay below that
    a_axis = _grid_axis(max(lo[0], 0.03), hi[0], 6)
    s_axis = _grid_axis(lo[n_alpha], hi[n_alpha], 4)
    axes = [a_axis] * n_alpha + [s_axis] * n_alpha
    cells = [np.array(cell) for cell in product(*axes)]
    for t in _grid_axis(3e-7, 3e-2, 12):
        alpha_a = min(max(math.sqrt(t / params.eta_a), lo[0]), hi[0])
        alpha_b = min(max(math.sqrt(t / params.eta_b), lo[0]), hi[0])
        alphas = [alpha_a] if spec.symmetric else [alpha_a, alpha_b]
        for s in s_axis:
            cells.append(np.array(alphas + [s] * n_alpha))
    scored = sorted((fun(p), tuple(p)) for p in cells)
    seeds = [np.array(p) for _, p in scored[:max(2, spec.multistart // 2)]]
    center = np.concatenate([
        0.5 * (lo[:n_alpha] + hi[:n_alpha]),
        np.exp(0.5 * (np.log(lo[n_alpha:]) + np.log(hi[n_alpha:]))),
    ])
    points = seeds + [center]
    rng = np.random.default_rng(spec.seed)
    while len(points) < spec.multistart:
        alphas = rng.uniform(lo[:n_alpha], hi[:n_alpha])
        strongs = np.exp(rng.uniform(np.log(lo[n_alpha:]), np.log(hi[n_alpha:])))
        points.append(np.concatenate([alphas, strongs]))
    return points[:max(spec.multistart, len(seeds))]


def optimize_rate(params: ChannelParams, spec: OptimizationSpec, f: float = 1.0,
                  n_cut: int = 40, maxiter: int = 400) -> OptimizationResult:
    """Best key rate over the spec's free parameters, multistart Nelder-Mead."""
    fun = _objective(params, spec, f, n_cut)
    lo, hi = spec.box()
    bounds = Bounds(lo, hi)
    trace = []
    best = None
    for index, start in enumerate(_starts(spec, fun, params)):
        res = minimize(fun, start, method="Nelder-Mead", bounds=bounds,
                       options={"xatol": 1e-6, "fatol": 1e-14, "maxiter": maxiter,
                                "maxfev": 3 * maxiter})
        x = tuple(float(v) for v in np.clip(res.x, lo, hi))
        rate = -fun(np.array(x))
        trace.append({"start": tuple(float(v) for v in start), "vector": x, "rate": rate,
                      "nfev": int(res.nfev)})
        if best is None or rate > best[0] or (rate == best[0] and x < best[1]):
            best = (rate, x, index)
    rate, x, index = best
    return OptimizationResult(settings=spec.settings(x), rate=rate, vector=x, trace=trace,
                              best_start=index)


def coordinate_descent(params: ChannelParams, spec: OptimizationSpec, f: float = 1.0,
                       n_cut: int = 40, start=None, first_coordinate: int = 1,
                       sweeps: int = 8) -> OptimizationResult:
    """Cyclic single-coordinate maximization from a fixed starting point.

    Kept as a deliberately greedy reference method: on asymmetric channels
    it stalls far below the multistart optimum when started from a corner of
    the amplitude box, which is exactly the regression the tests pin down.
    """
    fun = _objective(params, spec, f, n_cut)
    lo, hi = spec.box()
    if start is None:
        start = hi.copy()
    x = np.clip(np.asarray(start, dtype=float), lo, hi)
    dim = len(x)
    order = [(first_coordinate + k) % dim for k in range(dim)]
    trace = []
    current = fun(x)
    for _ in range(sweeps):
        improved = False
        for i in order:
            def line(t, i=i):
                y = x.copy()
                y[i] = t
                return fun(y)
            res = minimize_scalar(line, bounds=(lo[i], hi[i]), method="bounded",
                                  options={"xatol": 1e-7})
            if res.fun < current - 1e-15:
                x[i] = res.x
                current = res.fun
                improved = True
            trace.append({"coordinate": i, "vector": tuple(map(float, x)),
                          "rate": -current})
        if not improved:
            break
    xt = tuple(float(v) for v in x)
    return OptimizationResult(settings=spec.settings(xt), rate=-current,
                              vector=xt, trace=trace)


@dataclass(frozen=True)
class FluctuationSpec:
    """Uncorrelated relative fluctuations around a nominal intensity point.

    ``magnitude`` r maps every fluctuating intensity c to the interval
    [c (1-r), c (1+r)] (half-width reading of a percentage fluctuation).
    Both the signal intensities (the squared amplitudes) and all decoy
    intensities of both parties fluctuate.
    """

    magnitude: float
    budget: int = 64
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.magnitude <= 0.9:
            raise ValueError("fluctuation magnitude must lie in [0, 0.9]")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")


@dataclass
class FluctuationResult:
    """The worst rate found and where; ``evaluations`` counts the rate
    requests, ``distinct_evaluations`` the distinct vectors among them, each
    evaluated once."""

    rate: float
    vector: tuple
    settings: IntensitySettings
    evaluations: int
    distinct_evaluations: int


def _fluct_intervals(center: IntensitySettings, fspec: FluctuationSpec):
    """Centers and [lo, hi] rails of every fluctuating intensity.

    The vector layout is (signal_a, signal_b, mu..., nu...) with signal
    intensities stored as squares of the amplitudes.
    """
    r = fspec.magnitude
    centers = [center.alpha_a ** 2, center.alpha_b ** 2, *center.mu, *center.nu]
    lo = [c * (1.0 - r) for c in centers]
    hi = [c * (1.0 + r) for c in centers]

    def check_order(values, rails_lo, rails_hi, label):
        # descending physical order: strongest first
        order = sorted(range(len(values)), key=lambda i: -values[i])
        for a, b in zip(order, order[1:]):
            if not rails_lo[a] > rails_hi[b]:
                raise InfeasibleFluctuationError(
                    f"{label} fluctuation ranges overlap between intensities "
                    f"{values[a]} and {values[b]} at magnitude {r}")

    n = len(center.mu)
    check_order(center.mu, lo[2:2 + n], hi[2:2 + n], "mu")
    check_order(center.nu, lo[2 + n:], hi[2 + n:], "nu")
    return centers, lo, hi


def _vector_settings(center: IntensitySettings, vec):
    n = len(center.mu)
    return IntensitySettings(alpha_a=math.sqrt(vec[0]), alpha_b=math.sqrt(vec[1]),
                             mu=tuple(vec[2:2 + n]), nu=tuple(vec[2 + n:]))


def worst_case_fluctuation(params: ChannelParams, center: IntensitySettings,
                           fspec: FluctuationSpec, f: float = 1.0, n_cut: int = 40,
                           stop_below: float = None) -> FluctuationResult:
    """Minimum key rate over the fluctuation box around ``center``.

    Evaluates every box vertex, the center and ``budget`` seeded interior
    samples, then polishes the best candidate with a bounded local descent;
    the reduction is a deterministic min with lexicographic tie-break on the
    intensity vector.  With ``stop_below`` the search returns early once any
    candidate drops below that rate (enough for threshold queries).
    """
    centers, lo, hi = _fluct_intervals(center, fspec)

    evaluations = 0
    rates = {}  # each distinct vector reaches key_rate once; the polish repeats them

    def rate_at(vec) -> float:
        nonlocal evaluations
        evaluations += 1
        key = tuple(float(v) for v in vec)
        if key not in rates:
            rates[key] = key_rate(params, _vector_settings(center, key), f, n_cut).rate
        return rates[key]

    best = (rate_at(tuple(centers)), tuple(centers))
    if fspec.magnitude == 0.0:
        return FluctuationResult(rate=best[0], vector=best[1],
                                 settings=_vector_settings(center, best[1]),
                                 evaluations=evaluations, distinct_evaluations=len(rates))

    def consider(vec) -> bool:
        nonlocal best
        r = rate_at(vec)
        if r < best[0] or (r == best[0] and vec < best[1]):
            best = (r, tuple(vec))
        return stop_below is not None and best[0] < stop_below

    stopped = False
    for corner in product(*zip(lo, hi)):
        if consider(corner):
            stopped = True
            break
    if not stopped and fspec.budget:
        rng = np.random.default_rng(fspec.seed)
        for _ in range(fspec.budget):
            vec = tuple(rng.uniform(lo, hi))
            if consider(vec):
                stopped = True
                break
    if not stopped:
        res = minimize(lambda v: rate_at(np.clip(v, lo, hi)), np.array(best[1]),
                       method="Nelder-Mead", bounds=Bounds(np.array(lo), np.array(hi)),
                       options={"xatol": 1e-8, "fatol": 1e-16, "maxiter": 400})
        vec = tuple(float(v) for v in np.clip(res.x, lo, hi))
        consider(vec)
    return FluctuationResult(rate=best[0], vector=best[1],
                             settings=_vector_settings(center, best[1]),
                             evaluations=evaluations, distinct_evaluations=len(rates))
