"""Command-line interface: scenario configs, sweeps, verification runs.

Subcommands: rate, sweep, optimize, fluctuation, bounds, verify, plob.
Every scenario field has a default and a JSON type (``_FIELDS``); it is read
from its flag, else from the JSON config file, else its default, and a value
of the wrong type is a ``ConfigError``.  A subcommand registers only the
flags it reads.  Losses are given in dB, converted internally to
transmittances.  Each subcommand returns its output text, which ``main``
writes to ``--out`` or stdout.  Sweep rows are computed point-by-point
(optionally in a process pool), then sorted and formatted deterministically,
so identical seeds give byte-identical output regardless of the worker count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import math
import sys

from .channel import (GainMatrix, IntensitySettings, db_to_transmittance,
                      simulate_gains, standard_noise)
from .decoy4 import yield_bounds
from .errors import ConfigError, TfqkdError
from .optimize import (FluctuationSpec, OptimizationSpec, optimize_rate,
                       worst_case_fluctuation)
from .oracles import dark_adjusted_yield, lp_yield_bound
from .rate import _RateParts, key_rate, plob_bound

GAINS_SCHEMA_VERSION = 1
CONFIG_SCHEMA_VERSION = 1

SWEEP_COLUMNS = ["loss_a_db", "loss_b_db", "rate", "alpha_a", "alpha_b",
                 "strongest_mu", "strongest_nu", "arriving_a", "arriving_b",
                 "plob", "beats_plob", "error"]


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# JSON type -> test of a decoded value
_TYPES = {
    "number": _number,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "array of numbers": lambda v: isinstance(v, list) and all(map(_number, v)),
    "pair of numbers": lambda v: isinstance(v, list) and len(v) == 2 and all(map(_number, v)),
}

# scenario field -> (default, JSON type, add_argument keywords of its flag or
# None); a field whose default is None may also be null
_FIELDS = {
    "loss_a_db": (20.0, "number", {"type": float}),
    "loss_b_db": (20.0, "number", {"type": float}),
    "p_d": (1e-7, "number", None),
    "misalignment": (0.02, "number", None),
    "phase_mismatch": (0.02, "number", None),
    "decoys": (4, "integer", {"type": int, "choices": (3, 4)}),
    "weak_decoys": (None, "array of numbers", None),
    "f": (1.0, "number", {"type": float, "help": "reconciliation efficiency (default 1.0)"}),
    "n_cut": (40, "integer", None),
    "seed": (0, "integer", {"type": int}),
    "multistart": (16, "integer", None),
    "symmetric_intensities": (False, "boolean", {
        "action": "store_true", "default": None,
        "help": "force equal settings for the two parties"}),
    "alpha_box": (None, "pair of numbers", None),
    "strongest_box": (None, "pair of numbers", None),
    "gains": (None, "string", {"help": "measured gains file (JSON)"}),
    "fluctuation": (None, "number", {"type": float, "help": "relative fluctuation magnitude"}),
}


def _fmt(x) -> str:
    """Deterministic number formatting; infinities get a sentinel string."""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return repr(x)
    return str(x)


def _strict(obj):
    """``obj`` with every non-finite float replaced by its ``_fmt`` string."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return _fmt(obj)
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def _read_json(path, what: str) -> dict:
    """The JSON object in the file ``path``; ``what`` names the file in errors."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return data


def ingest_gains(path) -> tuple[GainMatrix, tuple, tuple]:
    """Load a measured gain matrix with its intensity sets from JSON."""
    data = _read_json(path, "gains file")
    if data.get("schema_version") != GAINS_SCHEMA_VERSION:
        raise ConfigError("gains file must declare schema_version 1")
    for key in ("mu", "nu", "Q"):
        if key not in data:
            raise ConfigError(f"gains file is missing '{key}'")
    try:
        mu = tuple(float(v) for v in data["mu"])
        nu = tuple(float(v) for v in data["nu"])
        q = data["Q"]
        if len(q) != len(mu) or any(len(row) != len(nu) for row in q):
            raise ConfigError("gain matrix dimensions do not match intensity lists")
        gains = GainMatrix(q=tuple(tuple(float(v) for v in row) for row in q),
                           omega=data.get("omega", "c"))
        IntensitySettings(alpha_a=0.0, alpha_b=0.0, mu=mu, nu=nu)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return gains, mu, nu


def emit_gains(gains: GainMatrix, settings: IntensitySettings) -> dict:
    return {
        "schema_version": GAINS_SCHEMA_VERSION,
        "mu": list(settings.mu),
        "nu": list(settings.nu),
        "omega": gains.omega,
        "Q": [list(row) for row in gains.q],
    }


def _scenario(args) -> dict:
    """Every ``_FIELDS`` entry, from its flag, else the config, else its
    default, type-checked."""
    cfg = _read_json(args.config, "config") if args.config else {}
    version = cfg.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version}")
    sc = {}
    for name, (default, kind, _) in _FIELDS.items():
        value = getattr(args, name, None)
        if value is None:
            value = cfg.get(name, default)
        if not (value is None and default is None or _TYPES[kind](value)):
            raise ConfigError(f"{name} must be of JSON type {kind}"
                              f"{' or null' if default is None else ''}, got {value!r}")
        sc[name] = value
    if sc["decoys"] not in (3, 4):
        raise ConfigError("decoys must be 3 or 4")
    if not (sc["loss_a_db"] >= 0 and sc["loss_b_db"] >= 0):
        raise ConfigError("losses must be >= 0 dB")
    return sc


def _params(sc):
    return standard_noise(sc["loss_a_db"], sc["loss_b_db"], p_d=sc["p_d"],
                          misalignment=sc["misalignment"],
                          phase_mismatch=sc["phase_mismatch"])


def _opt_spec(sc) -> OptimizationSpec:
    boxes = {name: tuple(sc[name]) for name in ("weak_decoys", "alpha_box", "strongest_box")
             if sc[name] is not None}
    return OptimizationSpec(decoys=sc["decoys"], multistart=sc["multistart"],
                            seed=sc["seed"], symmetric=sc["symmetric_intensities"], **boxes)


def _given(value, default):
    return default if value is None else value


def _point(args, sc, params) -> tuple[IntensitySettings, GainMatrix]:
    """Settings and gains at the fixed point of ``rate`` and ``bounds``.

    Alice's amplitude defaults to 0.1 and Bob's to Alice's.  A gains file
    fixes the intensities; otherwise the gains are simulated at the spec's
    settings of the flags, Bob's strongest decoy defaulting to Alice's and
    hers to the floor of the strongest-decoy box.
    """
    alpha_a = _given(getattr(args, "alpha_a", None), 0.1)
    alpha_b = _given(getattr(args, "alpha_b", None), alpha_a)
    if sc["gains"] is not None:
        gains, mu, nu = ingest_gains(sc["gains"])
        return IntensitySettings(alpha_a=alpha_a, alpha_b=alpha_b, mu=mu, nu=nu), gains
    spec = _opt_spec(sc)
    strong = _given(args.strongest_mu, spec.strongest_box[0])
    vector = ((alpha_a, strong) if spec.symmetric else
              (alpha_a, alpha_b, strong, _given(args.strongest_nu, strong)))
    settings = spec.settings(vector)
    return settings, simulate_gains(params, settings)


def _plob(eta_a, eta_b) -> float:
    try:
        return plob_bound(eta_a, eta_b)
    except ValueError:
        return math.inf


def _result_record(sc, result, bounds=None):
    rec = {
        "rate": result.rate,
        "rate_omega_c": result.rate_omega_c,
        "rate_omega_d": result.rate_omega_d,
        "e_x": result.e_x,
        "e_z_upp": result.e_z_upp,
        "p_x": result.p_x,
        "f": result.f,
        "n_cut": result.n_cut,
        "tail": result.tail,
        "loss_a_db": sc["loss_a_db"],
        "loss_b_db": sc["loss_b_db"],
    }
    if bounds is not None:
        rec["yield_bounds"] = {f"{n},{m}": v for (n, m), v in sorted(bounds.items())}
        rec["bound_provenance"] = {f"{n},{m}": v
                                   for (n, m), v in sorted(bounds.provenance.items())}
        rec["warnings"] = list(bounds.warnings)
    return rec


def _json_dump(obj) -> str:
    return json.dumps(_strict(obj), indent=2, sort_keys=True, allow_nan=False,
                      default=_fmt) + "\n"


def cmd_rate(args) -> tuple[str, int]:
    sc = _scenario(args)
    params = _params(sc)
    if sc["gains"] is None and None in (args.alpha_a, args.strongest_mu):
        settings = optimize_rate(params, _opt_spec(sc), sc["f"], sc["n_cut"]).settings
        gains = None
    else:
        settings, gains = _point(args, sc, params)
    result = key_rate(params, settings, sc["f"], sc["n_cut"], gains=gains)
    return _json_dump(_result_record(sc, result, result.bounds if args.dump_bounds else None)), 0


def _sweep_point(job):
    sc, loss_a, loss_b = job
    row = {"loss_a_db": loss_a, "loss_b_db": loss_b, "error": ""}
    try:
        # decorrelate the per-point searches while keeping them reproducible
        sc = dict(sc, loss_a_db=loss_a, loss_b_db=loss_b,
                  seed=sc["seed"] * 1000003 + int(round(10 * (loss_a * 211 + loss_b))))
        params = _params(sc)
        opt = optimize_rate(params, _opt_spec(sc), sc["f"], sc["n_cut"])
        s = opt.settings
        plob = _plob(params.eta_a, params.eta_b)
        row.update({
            "rate": opt.rate,
            "alpha_a": s.alpha_a,
            "alpha_b": s.alpha_b,
            "strongest_mu": max(s.mu),
            "strongest_nu": max(s.nu),
            "arriving_a": params.eta_a * s.alpha_a ** 2,
            "arriving_b": params.eta_b * s.alpha_b ** 2,
            "plob": plob,
            "beats_plob": opt.rate > plob,
        })
    except (TfqkdError, ValueError, OverflowError) as exc:
        row["error"] = str(exc)
        for col in SWEEP_COLUMNS:
            row.setdefault(col, "")
    return row


def cmd_sweep(args) -> tuple[str, int]:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    sc = _scenario(args)
    # a bad scenario value fails every point alike: reject it once, up front
    _RateParts(_params(sc), sc["f"], sc["n_cut"])
    _opt_spec(sc)
    grid_a = args.grid_a or [sc["loss_a_db"]]
    grid_b = args.grid_b or [sc["loss_b_db"]]
    jobs = [(sc, a, b) for a in grid_a for b in grid_b]
    # the pool forks all its workers at the first submit, so start no idle ones
    workers = min(args.workers, len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(job) for job in jobs]
    rows.sort(key=lambda r: (r["loss_a_db"], r["loss_b_db"]))
    if args.format == "json":
        return _json_dump(rows), 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row.get(col, "")) for col in SWEEP_COLUMNS])
    return buf.getvalue(), 0


def cmd_optimize(args) -> tuple[str, int]:
    sc = _scenario(args)
    params = _params(sc)
    opt = optimize_rate(params, _opt_spec(sc), sc["f"], sc["n_cut"])
    rec = {
        "rate": opt.rate,
        "vector": list(opt.vector),
        "alpha_a": opt.settings.alpha_a,
        "alpha_b": opt.settings.alpha_b,
        "mu": list(opt.settings.mu),
        "nu": list(opt.settings.nu),
        "restarts": [{"rate": t["rate"], "vector": list(t["vector"])} for t in opt.trace],
        "loss_a_db": sc["loss_a_db"],
        "loss_b_db": sc["loss_b_db"],
    }
    return _json_dump(rec), 0


def cmd_fluctuation(args) -> tuple[str, int]:
    sc = _scenario(args)
    if sc["fluctuation"] is None:
        raise ConfigError("fluctuation magnitude required (--fluctuation or config)")
    params = _params(sc)
    opt = optimize_rate(params, _opt_spec(sc), sc["f"], sc["n_cut"])
    fspec = FluctuationSpec(magnitude=float(sc["fluctuation"]),
                            budget=args.budget, seed=sc["seed"])
    wc = worst_case_fluctuation(params, opt.settings, fspec, sc["f"], sc["n_cut"])
    rec = {
        "center_rate": opt.rate,
        "worst_rate": wc.rate,
        "magnitude": fspec.magnitude,
        "worst_vector": list(wc.vector),
        "center_vector": list(opt.vector),
        "evaluations": wc.evaluations,
    }
    return _json_dump(rec), 0


def cmd_bounds(args) -> tuple[str, int]:
    sc = _scenario(args)
    settings, gains = _point(args, sc, _params(sc))
    yb = yield_bounds(gains, settings, exact=args.exact)
    rec = {
        "mu": list(settings.mu),
        "nu": list(settings.nu),
        "bounds": {f"{n},{m}": v for (n, m), v in sorted(yb.items())},
        "provenance": {f"{n},{m}": v for (n, m), v in sorted(yb.provenance.items())},
        "warnings": list(yb.warnings),
        "gains": emit_gains(gains, settings),
    }
    return _json_dump(rec), 0


def cmd_verify(args) -> tuple[str, int]:
    """Oracle dominance suite: true yield <= LP <= analytical bounds."""
    if args.configs < 1:
        raise ConfigError(f"--configs must be >= 1, got {args.configs}")
    sc = _scenario(args)
    import numpy as np
    rng = np.random.default_rng(sc["seed"])
    failures = 0
    lines = []
    for i in range(args.configs):
        loss_a = float(rng.uniform(10, 45))
        loss_b = float(rng.uniform(10, 45))
        params = _params(dict(sc, loss_a_db=loss_a, loss_b_db=loss_b))
        decoys = 3 if i % 2 == 0 else 4
        weak = sorted(rng.uniform(8e-4, 3e-2, size=2), reverse=True)
        strong = float(rng.uniform(0.08, 0.15))
        if decoys == 3:
            mu = (strong, weak[0], weak[1])
            nu = (strong * float(rng.uniform(0.8, 1.2)), weak[0] * 1.1, weak[1] * 0.9)
        else:
            mu = (weak[0], weak[1], weak[1] * 0.1, strong)
            nu = (weak[0] * 1.2, weak[1] * 0.95, weak[1] * 0.11, strong * 1.1)
        settings = IntensitySettings(alpha_a=0.2, alpha_b=0.2, mu=mu, nu=nu)
        gains = simulate_gains(params, settings)
        bounds = yield_bounds(gains, settings, exact=True)
        for target in sorted(bounds.bounds):
            true = dark_adjusted_yield(params, *target)
            lp = lp_yield_bound(gains, mu, nu, target)
            analytic = bounds.get(*target)
            ok = true <= lp + 1e-9 and lp <= analytic + 1e-9
            lines.append(f"config {i} ({loss_a:.1f}/{loss_b:.1f} dB, {decoys} decoys) "
                         f"Y{target}: true {true:.3e} <= lp {lp:.3e} <= bound {analytic:.3e} "
                         f"{'PASS' if ok else 'FAIL'}\n")
            failures += not ok
    lines.append(f"verify: {failures} failures\n")
    return "".join(lines), 1 if failures else 0


def cmd_plob(args) -> tuple[str, int]:
    sc = _scenario(args)
    value = _plob(db_to_transmittance(sc["loss_a_db"]), db_to_transmittance(sc["loss_b_db"]))
    return _json_dump({"loss_a_db": sc["loss_a_db"], "loss_b_db": sc["loss_b_db"],
                       "plob": value}), 0


def _add_flags(p, *fields):
    """``--config``, ``--out`` and the flags of the named scenario fields."""
    p.add_argument("--config", help="JSON scenario config")
    p.add_argument("--out", help="output path (default stdout)")
    for name in fields:
        p.add_argument("--" + name.replace("_", "-"), **_FIELDS[name][2])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfqkd",
        description="Key-rate bounds and optimization for twin-field QKD "
                    "with independent decoy intensities")
    sub = parser.add_subparsers(dest="command", required=True)
    search = ("loss_a_db", "loss_b_db", "decoys", "f", "seed", "symmetric_intensities")

    p = sub.add_parser("rate", help="evaluate one parameter point")
    _add_flags(p, *search, "gains")
    for flag in ("--alpha-a", "--alpha-b", "--strongest-mu", "--strongest-nu"):
        p.add_argument(flag, type=float)
    p.add_argument("--dump-bounds", action="store_true")
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("sweep", help="optimized rate over a loss grid")
    _add_flags(p, *search)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--grid-a", dest="grid_a", type=float, nargs="+")
    p.add_argument("--grid-b", dest="grid_b", type=float, nargs="+")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("optimize", help="optimize intensities at one point")
    _add_flags(p, *search)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("fluctuation", help="worst-case rate under fluctuations")
    _add_flags(p, *search, "fluctuation")
    p.add_argument("--budget", type=int, default=64)
    p.set_defaults(fn=cmd_fluctuation)

    p = sub.add_parser("bounds", help="yield bounds from simulated or measured gains")
    _add_flags(p, "loss_a_db", "loss_b_db", "decoys", "symmetric_intensities", "gains")
    for flag in ("--strongest-mu", "--strongest-nu"):
        p.add_argument(flag, type=float)
    p.add_argument("--exact", action="store_true",
                   help="evaluate the bound formulas in exact rational arithmetic")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("verify", help="run the oracle dominance suite")
    _add_flags(p, "seed")
    p.add_argument("--configs", type=int, default=5)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("plob", help="repeaterless benchmark for given losses")
    _add_flags(p, "loss_a_db", "loss_b_db")
    p.set_defaults(fn=cmd_plob)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.fn(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (TfqkdError, ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(_json_dump({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
