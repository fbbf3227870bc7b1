"""Global rate optimization and worst-case intensity-fluctuation analysis.

The rate is not a convex function of the amplitudes and decoy intensities
(coordinate descent from a corner provably stalls on asymmetric channels),
so optimization is multistart Nelder-Mead over a box: cheap in the at most
four free dimensions used here and immune to the non-convexity.  Everything
is seeded and the winner is reduced deterministically (best value, ties
broken on the lexicographically smallest parameter vector), so repeated
runs agree bit for bit regardless of evaluation order.

The local searches, ``optimize_rate``'s and the polish of
``worst_case_fluctuation``, run on ``_nelder_mead``, a copy of SciPy's
bounded Nelder-Mead that gives its results bit for bit, so the module needs
only numpy; loading SciPy takes longer than a small search.  Only the greedy
reference method ``coordinate_descent`` imports SciPy, when it is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from numbers import Integral

import numpy as np

from .channel import ChannelParams, IntensitySettings
from .errors import InfeasibleFluctuationError
from .rate import _RateParts, key_rate  # noqa: F401  (benchmark/spans.py wraps key_rate)

_DEFAULT_WEAK = {3: (1e-4, 1e-5), 4: (1e-3, 1e-4, 1e-5)}


def _check_count(value, name: str, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_box(box, label: str) -> None:
    if not (len(box) == 2 and all(map(math.isfinite, box)) and 0 < box[0] < box[1]):
        raise ValueError(f"{label} box must be finite, positive and non-empty, got {box}")


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
        if (not all(0 < w < math.inf for w in weak)
                or any(a <= b for a, b in zip(weak, weak[1:]))):
            raise ValueError("weak decoys must be finite, positive and strictly decreasing")
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
        _check_box(box, "strongest-decoy")
        if box[0] <= weak[0]:
            raise ValueError("strongest-decoy box must sit above the weak decoys")
        object.__setattr__(self, "strongest_box", (float(box[0]), float(box[1])))
        _check_box(self.alpha_box, "amplitude")
        _check_count(self.multistart, "multistart", 1)
        _check_count(self.seed, "seed", 0)

    def box(self):
        a_lo, a_hi = self.alpha_box
        s_lo, s_hi = self.strongest_box
        if self.symmetric:
            return np.array([a_lo, s_lo]), np.array([a_hi, s_hi])
        return np.array([a_lo, a_lo, s_lo, s_lo]), np.array([a_hi, a_hi, s_hi, s_hi])

    def settings(self, p) -> IntensitySettings:
        """Intensity settings for one parameter vector."""
        alpha_a, alpha_b, mu, nu = self._point(p)
        return IntensitySettings(alpha_a=alpha_a, alpha_b=alpha_b, mu=mu, nu=nu)

    def _point(self, p) -> tuple:
        """The amplitudes and decoy sets (alpha_a, alpha_b, mu, nu) of one
        parameter vector."""
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
        return alpha_a, alpha_b, mu, nu


@dataclass
class OptimizationResult:
    """The best rate found and where.  ``optimize_rate`` traces each start
    (start, vector, rate and its own ``nfev``) and names the winning one in
    ``best_start``, an index into ``trace``.  ``bound_sets`` counts the
    distinct decoy-intensity pairs the search built yield bounds for."""

    settings: IntensitySettings
    rate: float
    vector: tuple
    trace: list = field(repr=False, default_factory=list)
    best_start: int | None = None
    bound_sets: int = 0


class _BudgetSpent(Exception):
    """A call past the evaluation limit of ``_nelder_mead``."""


def _nelder_mead(fun, x0, lo, hi, xatol: float, fatol: float, maxiter: int,
                 maxfev: float = math.inf):
    """Minimize ``fun`` over the box [lo, hi] from ``x0`` by Nelder-Mead;
    returns the best vertex, which lies in the box, and the number of calls.

    This is SciPy 1.17.1's ``minimize(fun, x0, method="Nelder-Mead",
    bounds=Bounds(lo, hi))`` (``scipy.optimize._optimize._minimize_neldermead``)
    with ``adaptive=False``, no initial simplex and no callback, operation for
    operation, so a search gives SciPy's vertex and call count to the bit.
    Two differences: ``fun`` gets the simplex's own row, not a copy, so it
    must not modify its argument; a start outside the box is clipped
    without SciPy's warning.

    Adapted from SciPy under its BSD-3-Clause license:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.clip(np.asarray(x0, dtype=float), lo, hi)
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    # a vertex pushed past the upper bound reflects into the box
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return fun(x)

    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    for _ in range(2):  # SciPy sorts the initial simplex twice
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = np.clip((1 + rho) * xbar - rho * sim[-1], lo, hi)
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = np.clip((1 + rho * chi) * xbar - rho * chi * sim[-1], lo, hi)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = np.clip((1 + psi * rho) * xbar - psi * rho * sim[-1], lo, hi)
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = np.clip((1 - psi) * xbar + psi * sim[-1], lo, hi)
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]), lo, hi)
                    fsim[j] = f(sim[j])
            iterations += 1
        except _BudgetSpent:  # the call at the limit ends the iteration
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], nfev


def _objective(spec: OptimizationSpec, parts: _RateParts):
    """Minus the rate at a parameter vector, scored by the search's ``parts``.
    Nelder-Mead clips its vertices to the box and ``coordinate_descent``
    searches each coordinate within its bounds, so no vector needs clipping."""
    def fun(p):
        return -parts.rate(*spec._point(p))
    return fun


def _grid_axis(lo: float, hi: float, points: int):
    return np.exp(np.linspace(math.log(lo), math.log(hi), points))


def _starts(spec: OptimizationSpec, parts: _RateParts):
    """Deterministic multistart points for the local searches.

    The positive-rate basin is a small pocket of the box (most of it clamps
    to zero key), so random starts alone routinely miss it.  Two scans
    locate it: a coarse geometric product grid, and a sweep of
    matched-arrival points alpha_i = sqrt(t / eta_i) -- the interference
    only stays clean when the two arriving signal intensities are similar,
    so the pocket hugs that surface however asymmetric the losses are.  The
    best cells seed the local searches, topped up with seeded log-uniform
    samples.

    The cells share their parts: the 624 cells (72 symmetric) span only 16
    strongest-decoy pairs (4) and a few dozen amplitudes.  Each pair's gains
    and yield bounds and each amplitude's weight series are built once, on
    first use in cell order, in the search's ``parts``; per cell only the
    X-basis statistics, the rest of the phase-error bound and the entropies
    are evaluated.
    Every cell's rate is bit-identical to ``key_rate``'s.
    """
    params = parts.params
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
    # each cell is scored where Nelder-Mead, which clips its start, begins
    values = [-parts.rate(*spec._point(q)) for q in np.clip(cells, lo, hi).tolist()]
    scored = sorted(zip(values, map(tuple, cells)))
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
    """Best key rate over the spec's free parameters, multistart Nelder-Mead.

    The start scan and every local search score their points through one
    ``_RateParts``: the scan's bound sets and amplitudes, the first points
    Nelder-Mead visits, are built once.
    """
    parts = _RateParts(params, f, n_cut)
    fun = _objective(spec, parts)
    lo, hi = spec.box()
    trace = []
    best = None
    for index, start in enumerate(_starts(spec, parts)):
        x, nfev = _nelder_mead(fun, start, lo, hi, xatol=1e-6, fatol=1e-14,
                               maxiter=maxiter, maxfev=3 * maxiter)
        x = tuple(float(v) for v in x)
        rate = -fun(np.array(x))
        trace.append({"start": tuple(float(v) for v in start), "vector": x, "rate": rate,
                      "nfev": nfev})
        if best is None or rate > best[0] or (rate == best[0] and x < best[1]):
            best = (rate, x, index)
    rate, x, index = best
    return OptimizationResult(settings=spec.settings(x), rate=rate, vector=x, trace=trace,
                              best_start=index, bound_sets=parts.bound_sets)


def coordinate_descent(params: ChannelParams, spec: OptimizationSpec) -> OptimizationResult:
    """Cyclic single-coordinate maximization from the lower corner of the box.

    Kept as a deliberately greedy reference method: on asymmetric channels
    it stalls far below the multistart optimum when started from a corner of
    the amplitude box, which is exactly the regression the tests pin down.
    Eight sweeps over the coordinates, starting with the second, at f = 1
    and n_cut = 40.
    """
    # the one SciPy use left in the package: importing it costs half a second
    # and half the process's memory, so only this reference method pays it
    from scipy.optimize import minimize_scalar

    parts = _RateParts(params, 1.0, 40)
    fun = _objective(spec, parts)
    lo, hi = spec.box()
    x = lo.copy()
    order = [*range(1, len(x)), 0]
    trace = []
    current = fun(x)
    for _ in range(8):
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
                              vector=xt, trace=trace, bound_sets=parts.bound_sets)


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
        _check_count(self.budget, "budget", 0)
        _check_count(self.seed, "seed", 0)


@dataclass
class FluctuationResult:
    """The worst rate found and where; ``evaluations`` counts the rate
    requests, ``distinct_evaluations`` the distinct vectors among them, each
    evaluated once, and ``bound_sets`` the distinct decoy-intensity pairs
    among those, each given yield bounds once."""

    rate: float
    vector: tuple
    settings: IntensitySettings
    evaluations: int
    distinct_evaluations: int
    bound_sets: int


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


def _vector_point(center: IntensitySettings, vec) -> tuple:
    """The amplitudes and decoy sets (alpha_a, alpha_b, mu, nu) of one
    fluctuation vector."""
    n = len(center.mu)
    return math.sqrt(vec[0]), math.sqrt(vec[1]), tuple(vec[2:2 + n]), tuple(vec[2 + n:])


def worst_case_fluctuation(params: ChannelParams, center: IntensitySettings,
                           fspec: FluctuationSpec, f: float = 1.0, n_cut: int = 40,
                           stop_below: float = None) -> FluctuationResult:
    """Minimum key rate over the fluctuation box around ``center``.

    Evaluates every box vertex, the center and ``budget`` seeded interior
    samples, then polishes the best candidate with a bounded local descent;
    the reduction is a deterministic min with lexicographic tie-break on the
    intensity vector.  With ``stop_below`` the search returns early once any
    candidate drops below that rate (enough for threshold queries).

    Every vector is scored through one ``_RateParts``: each distinct decoy
    pair (mu, nu) gets its gains and yield bounds once, each distinct
    amplitude its weight series once.
    """
    centers, lo, hi = _fluct_intervals(center, fspec)
    parts = _RateParts(params, f, n_cut)

    evaluations = 0
    rates = {}  # each distinct vector is scored once; the polish repeats them

    def rate_at(vec) -> float:
        nonlocal evaluations
        evaluations += 1
        key = tuple(float(v) for v in vec)
        if key not in rates:
            rates[key] = parts.rate(*_vector_point(center, key))
        return rates[key]

    def result() -> FluctuationResult:
        return FluctuationResult(rate=best[0], vector=best[1],
                                 settings=IntensitySettings(*_vector_point(center, best[1])),
                                 evaluations=evaluations, distinct_evaluations=len(rates),
                                 bound_sets=parts.bound_sets)

    best = (rate_at(tuple(centers)), tuple(centers))
    if fspec.magnitude == 0.0:
        return result()

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
        x, _ = _nelder_mead(rate_at, best[1], np.array(lo), np.array(hi),
                            xatol=1e-8, fatol=1e-16, maxiter=400)
        consider(tuple(float(v) for v in x))
    return result()
