"""The three workloads: inputs made from the seed, operations, output checks.

Every workload runs in rounds.  A round is a fixed list of operations whose
inputs come from ``numpy.random.default_rng([seed, round])``, so the same
seed gives the same inputs and every run attempts whole rounds of the same
operations.  Inputs are drawn in narrow cells around fixed centres: the
cost of an operation and the key rate it produces change steeply with the
losses and intensities, and wide draws would make two runs with different
seeds measure different amounts of work.

Every operation starts with the package's ``lru_cache``s emptied
(``clear_caches``), as a fresh ``tfqkd`` process starts: no operation finds
values an earlier one left, the first operation of a run costs what the
others cost, and a fixed input can be timed again and again.

The program is called only through module attributes (``optimize.
optimize_rate``, ``lp_bounds.lp_yield_bound``, ...), which is where the
traced run puts its wrappers.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tfqkd import channel, decoy3, decoy4, optimize, rate
from tfqkd.oracles import fock, lp_bounds

INPUTS_FILE = Path(__file__).resolve().parent / "inputs.json"

TARGETS = decoy3.TARGETS_3

# optimize: the Nelder-Mead budget is capped at 100 iterations per start,
# where the optimized rates still agree with the default budget's to 1e-4
# relative; the local searches then nearly always use the whole budget, so
# each point evaluates an almost fixed number of rates.  The spec's own seed
# (its random starts) stays at its default 0; the seed moves the losses.
MAXITER = 100
MULTISTART = {3: 4, 4: 2}
# Each 3-decoy cell is drawn twice per round: a 3-decoy point costs a fifth
# of a 4-decoy one, and its rate needs as many samples to be steady.
OPTIMIZE_LOSS = {3: ((12.0, 24.0), (12.0, 24.0), (16.0, 30.0), (16.0, 30.0),
                     (20.0, 36.0), (20.0, 36.0)),
                 4: ((14.0, 26.0), (18.0, 32.0))}
LOSS_JITTER_DB = 0.15
# The optimizer miss kept as a failing operation: inputs fixed, default spec.
FAULT_LOSS = (10.0, 45.0)
CHECK_POINTS = 4

# fluctuation: fixed nominal settings from inputs.json; the seed sets the
# search's interior samples.
FLUCTUATION = 0.2
FLUCTUATION_OPS = {3: 4, 4: 1}
NOMINAL_LOSS = {3: (12.0, 20.0), 4: (14.0, 22.0)}

# certify: configurations built like ``tfqkd verify`` builds them (3 decoys:
# mu = (s, w0, w1), nu = (s k, 1.1 w0, 0.9 w1); 4 decoys: mu = (w0, w1,
# 0.1 w1, s), nu = (1.2 w0, 0.95 w1, 0.11 w1, 1.1 s)) from cells inside
# verify's ranges, with amplitudes matching the arriving intensities.
CERTIFY_CELLS = {
    3: ({"loss": (15.0, 25.0), "weak": (1e-2, 2e-3), "strong": 0.10, "skew": 1.0},
        {"loss": (20.0, 28.0), "weak": (5e-3, 1e-3), "strong": 0.12, "skew": 0.9}),
    4: ({"loss": (14.0, 24.0), "weak": (1e-2, 2e-3), "strong": 0.10, "skew": 1.1},),
}
CERTIFY_JITTER = 0.02
ARRIVAL_GRID = tuple(float(t) for t in np.geomspace(1e-6, 1e-2, 9))


@dataclass
class Op:
    """One operation: its inputs, and after the run its output and timing."""

    decoys: int
    inputs: dict
    id: int = -1
    known_fault: bool = False
    output: object = None
    seconds: float = 0.0
    loop_seconds: float = 0.0
    loops: int = 0
    traced: bool = False
    failure: str | None = None


def clear_caches() -> None:
    """Empty every ``functools`` cache held by a module of the package."""
    for name, module in list(sys.modules.items()):
        if name == "tfqkd" or name.startswith("tfqkd."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def load_inputs() -> dict:
    with open(INPUTS_FILE) as fh:
        return json.load(fh)


def _jitter_loss(rng, centre):
    return tuple(float(c + rng.uniform(-LOSS_JITTER_DB, LOSS_JITTER_DB)) for c in centre)


def _seed(rng) -> int:
    return int(rng.integers(2 ** 31))


def _settings(nominal: dict) -> channel.IntensitySettings:
    return channel.IntensitySettings(alpha_a=nominal["alpha_a"], alpha_b=nominal["alpha_b"],
                                     mu=tuple(nominal["mu"]), nu=tuple(nominal["nu"]))


def _spec(op: Op) -> optimize.OptimizationSpec:
    if op.known_fault:
        return optimize.OptimizationSpec(decoys=3)
    return optimize.OptimizationSpec(decoys=op.decoys, multistart=MULTISTART[op.decoys])


def _matched_point(params, spec, arrival, strong_a, strong_b):
    """Box point whose amplitudes make both arriving intensities ``arrival``."""
    lo, hi = spec.box()
    alphas = [min(max(math.sqrt(arrival / eta), lo[0]), hi[0])
              for eta in (params.eta_a, params.eta_b)]
    return np.array(alphas + [strong_a, strong_b])


class Optimize:
    """``optimize_rate`` at seeded asymmetric loss pairs, one point per op."""

    name = "optimize"

    def __init__(self, stored: dict):
        self.witness = stored["witness"]

    def round_ops(self, rng) -> list[Op]:
        ops = [Op(d, {"loss": _jitter_loss(rng, centre), "check_seed": _seed(rng)})
               for d in (3, 4) for centre in OPTIMIZE_LOSS[d]]
        ops.append(Op(3, {"loss": FAULT_LOSS, "check_seed": _seed(rng)},
                      known_fault=True))
        return ops

    def run(self, op: Op):
        params = channel.standard_noise(*op.inputs["loss"])
        if op.known_fault:
            return optimize.optimize_rate(params, _spec(op))
        return optimize.optimize_rate(params, _spec(op), maxiter=MAXITER)

    def check(self, op: Op) -> str | None:
        res = op.output
        params = channel.standard_noise(*op.inputs["loss"])
        spec = _spec(op)
        lo, hi = spec.box()
        vec = np.array(res.vector)
        if not (np.all(lo <= vec) and np.all(vec <= hi)):
            return f"vector {res.vector} outside the spec box"
        again = rate.key_rate(params, res.settings)
        if again.rate != res.rate:
            return f"key_rate at the returned settings is {again.rate!r}, not {res.rate!r}"
        rng = np.random.default_rng(op.inputs["check_seed"])
        points = []
        for _ in range(CHECK_POINTS):
            arrival = 10.0 ** rng.uniform(-6.5, -3.0)
            strong = np.exp(rng.uniform(np.log(lo[2:]), np.log(hi[2:])))
            points.append(_matched_point(params, spec, arrival, *strong))
        if op.known_fault:
            points.append(np.array(self.witness["vector"]))
        for p in points:
            probe = rate.key_rate(params, spec.settings(p)).rate
            if probe > res.rate:
                return (f"rate {res.rate!r} below key_rate {probe!r} at box point "
                        f"{tuple(float(v) for v in p)}")
        gains = channel.simulate_gains(params, res.settings)
        exact = decoy4.yield_bounds(gains, res.settings, exact=True)
        true = {t: fock.dark_adjusted_yield(params, *t) for t in TARGETS}
        for t in TARGETS:
            if exact.get(*t) < true[t] - 1e-12:
                return f"exact bound {exact.get(*t)!r} on Y{t} below the true yield {true[t]!r}"
            if again.bounds.get(*t) < exact.get(*t):
                return f"float bound {again.bounds.get(*t)!r} on Y{t} below the exact bound"
        ceiling = rate.key_rate(params, res.settings, bounds=decoy3.YieldBounds(bounds=true)).rate
        if res.rate > ceiling * (1.0 + 1e-9):
            return f"rate {res.rate!r} above {ceiling!r}, the rate from the true yields"
        return None

    def warm_up(self) -> None:
        params = channel.standard_noise(25.0, 25.0)
        for d in (3, 4):
            spec = optimize.OptimizationSpec(decoys=d)
            for vec in ((0.2, 0.25, 0.05, 0.06), (0.3, 0.35, 0.2, 0.3)):
                rate.key_rate(params, spec.settings(vec))


class Fluctuation:
    """``worst_case_fluctuation`` around the stored nominal settings."""

    name = "fluctuation"

    def __init__(self, stored: dict):
        self.nominal = {int(d): v for d, v in stored["nominal"].items()}

    def round_ops(self, rng) -> list[Op]:
        return [Op(d, {"loss": tuple(self.nominal[d]["loss"]),
                                  "centre": _settings(self.nominal[d]),
                                  "fspec_seed": _seed(rng), "check_seed": _seed(rng)})
                for d in (3, 4) for _ in range(FLUCTUATION_OPS[d])]

    def run(self, op: Op):
        params = channel.standard_noise(*op.inputs["loss"])
        fspec = optimize.FluctuationSpec(magnitude=FLUCTUATION, seed=op.inputs["fspec_seed"])
        return optimize.worst_case_fluctuation(params, op.inputs["centre"], fspec)

    def check(self, op: Op) -> str | None:
        res = op.output
        params = channel.standard_noise(*op.inputs["loss"])
        centre = op.inputs["centre"]
        centre_rate = rate.key_rate(params, centre).rate
        if res.rate > centre_rate:
            return f"worst rate {res.rate!r} above the centre rate {centre_rate!r}"
        values = [centre.alpha_a ** 2, centre.alpha_b ** 2, *centre.mu, *centre.nu]
        rails = [(c * (1.0 - FLUCTUATION), c * (1.0 + FLUCTUATION)) for c in values]
        if len(res.vector) != len(values) or not all(
                lo <= v <= hi for v, (lo, hi) in zip(res.vector, rails)):
            return f"worst vector {res.vector} outside the rails"
        n = len(centre.mu)
        rng = np.random.default_rng(op.inputs["check_seed"])
        for _ in range(CHECK_POINTS):
            corner = [rail[int(bit)] for rail, bit in zip(rails, rng.integers(2, size=len(rails)))]
            settings = channel.IntensitySettings(
                alpha_a=math.sqrt(corner[0]), alpha_b=math.sqrt(corner[1]),
                mu=tuple(corner[2:2 + n]), nu=tuple(corner[2 + n:]))
            corner_rate = rate.key_rate(params, settings).rate
            if res.rate > corner_rate:
                return f"worst rate {res.rate!r} above key_rate {corner_rate!r} at a box corner"
        again = rate.key_rate(params, res.settings).rate
        if again != res.rate:
            return f"key_rate at the returned settings is {again!r}, not {res.rate!r}"
        if res.evaluations < 2 ** len(values) + 1:
            return f"only {res.evaluations} evaluations for {len(values)} intensities"
        return None

    def warm_up(self) -> None:
        params = channel.standard_noise(25.0, 25.0)
        fspec = optimize.FluctuationSpec(magnitude=0.0)
        for d in (3, 4):
            spec = optimize.OptimizationSpec(decoys=d)
            optimize.worst_case_fluctuation(params, spec.settings((0.2, 0.25, 0.05, 0.06)), fspec)


@dataclass
class Certificate:
    gains: channel.GainMatrix
    settings: channel.IntensitySettings
    exact: decoy3.YieldBounds
    lp: dict
    true: dict
    rate: float


def _certify_settings(rng, cell: dict, decoys: int) -> tuple:
    def move(v):
        return float(v * (1.0 + rng.uniform(-CERTIFY_JITTER, CERTIFY_JITTER)))
    loss = _jitter_loss(rng, cell["loss"])
    w0, w1 = (move(w) for w in cell["weak"])
    strong, skew = move(cell["strong"]), move(cell["skew"])
    if decoys == 3:
        mu = (strong, w0, w1)
        nu = (strong * skew, w0 * 1.1, w1 * 0.9)
    else:
        mu = (w0, w1, w1 * 0.1, strong)
        nu = (w0 * 1.2, w1 * 0.95, w1 * 0.11, strong * skew)
    return loss, channel.IntensitySettings(alpha_a=0.2, alpha_b=0.2, mu=mu, nu=nu)


def certify(params, settings) -> Certificate:
    """Exact bounds, LP bounds and true yields of one configuration.

    The rate is the best key rate its exact bounds certify over amplitudes
    that match the two arriving intensities on ``ARRIVAL_GRID``.
    """
    gains = channel.simulate_gains(params, settings)
    exact = decoy4.yield_bounds(gains, settings, exact=True)
    lp = {t: lp_bounds.lp_yield_bound(gains, settings.mu, settings.nu, t) for t in TARGETS}
    true = {t: fock.dark_adjusted_yield(params, *t) for t in TARGETS}
    best = 0.0
    for arrival in ARRIVAL_GRID:
        at = channel.IntensitySettings(alpha_a=min(math.sqrt(arrival / params.eta_a), 1.5),
                                       alpha_b=min(math.sqrt(arrival / params.eta_b), 1.5),
                                       mu=settings.mu, nu=settings.nu)
        best = max(best, rate.key_rate(params, at, gains=gains, bounds=exact).rate)
    return Certificate(gains, settings, exact, lp, true, best)


class Certify:
    """Exact bounds, LP bounds on all nine yields and true yields per config."""

    name = "certify"

    def __init__(self, stored: dict):
        pass

    def round_ops(self, rng) -> list[Op]:
        ops = []
        for d in (3, 4):
            for cell in CERTIFY_CELLS[d]:
                loss, settings = _certify_settings(rng, cell, d)
                ops.append(Op(d, {"loss": loss, "settings": settings}))
        return ops

    def run(self, op: Op):
        return certify(channel.standard_noise(*op.inputs["loss"]), op.inputs["settings"])

    def check(self, op: Op) -> str | None:
        cert = op.output
        floats = decoy4.yield_bounds(cert.gains, cert.settings)
        for t in TARGETS:
            true, lp, exact, fl = cert.true[t], cert.lp[t], cert.exact.get(*t), floats.get(*t)
            if not (true <= lp + 1e-9 and lp <= exact + 1e-9 and exact <= fl):
                return (f"Y{t}: true {true!r} <= lp {lp!r} <= exact {exact!r} "
                        f"<= float {fl!r} does not hold")
        if op.decoys == 4:
            q = cert.gains.q
            sub = channel.GainMatrix(q=tuple(row[:3] for row in q[:3]), omega=cert.gains.omega)
            three = decoy3.yield_bounds_3(sub, cert.settings.mu[:3], cert.settings.nu[:3],
                                          exact=True)
            for t in TARGETS:
                if cert.exact.get(*t) > three.get(*t):
                    return (f"Y{t}: 4-decoy exact bound {cert.exact.get(*t)!r} above the "
                            f"3-decoy bound {three.get(*t)!r} on the three weakest intensities")
        return None

    def warm_up(self) -> None:
        params = channel.standard_noise(30.0, 30.0)
        settings = channel.IntensitySettings(alpha_a=0.2, alpha_b=0.2, mu=(0.09, 7e-3, 1.5e-3),
                                             nu=(0.09, 7.7e-3, 1.35e-3))
        gains = channel.simulate_gains(params, settings)
        decoy4.yield_bounds(gains, settings, exact=True)
        lp_bounds.lp_yield_bound(gains, settings.mu, settings.nu, (0, 0))
        fock.dark_adjusted_yield(params, 1, 1)


WORKLOADS = {w.name: w for w in (Optimize, Fluctuation, Certify)}
