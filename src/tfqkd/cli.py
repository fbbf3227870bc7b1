"""Command-line interface: scenario configs, sweeps, verification runs.

Subcommands: rate, sweep, optimize, fluctuation, bounds, verify, plob.
Scenario options come from a JSON config file and/or flags (flags win);
losses are given in dB, converted internally to transmittances.  Sweep rows
are computed point-by-point (optionally in a process pool), then sorted and
formatted deterministically, so identical seeds give byte-identical output
regardless of the worker count.
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
from .rate import key_rate, plob_bound

GAINS_SCHEMA_VERSION = 1
CONFIG_SCHEMA_VERSION = 1

SWEEP_COLUMNS = ["loss_a_db", "loss_b_db", "rate", "alpha_a", "alpha_b",
                 "strongest_mu", "strongest_nu", "arriving_a", "arriving_b",
                 "plob", "beats_plob", "error"]


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


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    version = cfg.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version}")
    return cfg


def ingest_gains(path) -> tuple[GainMatrix, tuple, tuple]:
    """Load a measured gain matrix with its intensity sets from JSON."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read gains file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"gains file {path} must hold a JSON object")
    if data.get("schema_version") != GAINS_SCHEMA_VERSION:
        raise ConfigError("gains file must declare schema_version 1")
    for key in ("mu", "nu", "Q"):
        if key not in data:
            raise ConfigError(f"gains file is missing '{key}'")
    omega = data.get("omega", "c")
    mu = tuple(float(v) for v in data["mu"])
    nu = tuple(float(v) for v in data["nu"])
    q = data["Q"]
    if len(q) != len(mu) or any(len(row) != len(nu) for row in q):
        raise ConfigError("gain matrix dimensions do not match intensity lists")
    try:
        gains = GainMatrix(q=tuple(tuple(float(v) for v in row) for row in q),
                           omega=omega, source="ingested")
        IntensitySettings(alpha_a=0.0, alpha_b=0.0, mu=mu, nu=nu)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return gains, mu, nu


def emit_gains(gains: GainMatrix, mu, nu, omega="c") -> dict:
    return {
        "schema_version": GAINS_SCHEMA_VERSION,
        "mu": list(mu),
        "nu": list(nu),
        "omega": omega,
        "Q": [list(row) for row in gains.q],
    }


def _scenario(args) -> dict:
    cfg = load_config(args.config) if args.config else {}
    out = {
        "loss_a_db": cfg.get("loss_a_db", 20.0),
        "loss_b_db": cfg.get("loss_b_db", 20.0),
        "p_d": cfg.get("p_d", 1e-7),
        "misalignment": cfg.get("misalignment", 0.02),
        "phase_mismatch": cfg.get("phase_mismatch", 0.02),
        "decoys": cfg.get("decoys", 4),
        "weak_decoys": cfg.get("weak_decoys"),
        "f": cfg.get("f", 1.0),
        "n_cut": cfg.get("n_cut", 40),
        "seed": cfg.get("seed", 0),
        "multistart": cfg.get("multistart", 16),
        "symmetric": cfg.get("symmetric_intensities", False),
        "alpha_box": cfg.get("alpha_box"),
        "strongest_box": cfg.get("strongest_box"),
        "gains": cfg.get("gains"),
        "fluctuation": cfg.get("fluctuation"),
    }
    for name, attr in (("loss_a_db", "loss_a_db"), ("loss_b_db", "loss_b_db"),
                       ("decoys", "decoys"), ("f", "f"), ("seed", "seed"),
                       ("gains", "gains"), ("fluctuation", "fluctuation")):
        value = getattr(args, attr, None)
        if value is not None:
            out[name] = value
    if getattr(args, "symmetric_intensities", False):
        out["symmetric"] = True
    if out["decoys"] not in (3, 4):
        raise ConfigError("decoys must be 3 or 4")
    if out["loss_a_db"] < 0 or out["loss_b_db"] < 0:
        raise ConfigError("losses must be >= 0 dB")
    return out


def _params(sc):
    return standard_noise(sc["loss_a_db"], sc["loss_b_db"], p_d=sc["p_d"],
                          misalignment=sc["misalignment"],
                          phase_mismatch=sc["phase_mismatch"])


def _opt_spec(sc) -> OptimizationSpec:
    kwargs = dict(decoys=sc["decoys"], multistart=sc["multistart"],
                  seed=sc["seed"], symmetric=sc["symmetric"])
    if sc.get("weak_decoys"):
        kwargs["weak_decoys"] = tuple(sc["weak_decoys"])
    if sc.get("alpha_box"):
        kwargs["alpha_box"] = tuple(sc["alpha_box"])
    if sc.get("strongest_box"):
        kwargs["strongest_box"] = tuple(sc["strongest_box"])
    return OptimizationSpec(**kwargs)


def _write_output(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def cmd_rate(args) -> int:
    sc = _scenario(args)
    params = _params(sc)
    if sc.get("gains"):
        gains, mu, nu = ingest_gains(sc["gains"])
        settings = IntensitySettings(alpha_a=args.alpha_a or 0.1,
                                     alpha_b=args.alpha_b or 0.1, mu=mu, nu=nu)
        result = key_rate(params, settings, sc["f"], sc["n_cut"], gains=gains)
    elif args.alpha_a is not None and args.strongest_mu is not None:
        spec = _opt_spec(sc)
        strong_nu = args.strongest_nu if args.strongest_nu is not None else args.strongest_mu
        vector = (args.alpha_a, args.alpha_b if args.alpha_b is not None else args.alpha_a,
                  args.strongest_mu, strong_nu)
        settings = spec.settings(vector[:2] if spec.symmetric else vector)
        result = key_rate(params, settings, sc["f"], sc["n_cut"])
    else:
        opt = optimize_rate(params, _opt_spec(sc), sc["f"], sc["n_cut"])
        result = key_rate(params, opt.settings, sc["f"], sc["n_cut"])
    rec = _result_record(sc, result, result.bounds if args.dump_bounds else None)
    _write_output(_json_dump(rec), args.out)
    return 0


def _sweep_point(job):
    sc, loss_a, loss_b = job
    sc = dict(sc)
    sc["loss_a_db"] = loss_a
    sc["loss_b_db"] = loss_b
    row = {"loss_a_db": loss_a, "loss_b_db": loss_b, "error": ""}
    try:
        # decorrelate the per-point searches while keeping them reproducible
        sc["seed"] = sc["seed"] * 1000003 + int(round(10 * (loss_a * 211 + loss_b)))
        params = _params(sc)
        opt = optimize_rate(params, _opt_spec(sc), sc["f"], sc["n_cut"])
        s = opt.settings
        strongest_mu = s.mu[0] if sc["decoys"] == 3 else s.mu[3]
        strongest_nu = s.nu[0] if sc["decoys"] == 3 else s.nu[3]
        try:
            plob = plob_bound(params.eta_a, params.eta_b)
        except ValueError:
            plob = math.inf
        row.update({
            "rate": opt.rate,
            "alpha_a": s.alpha_a,
            "alpha_b": s.alpha_b,
            "strongest_mu": strongest_mu,
            "strongest_nu": strongest_nu,
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


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    sc = _scenario(args)
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
        _write_output(_json_dump(rows), args.out)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row.get(col, "")) for col in SWEEP_COLUMNS])
    _write_output(buf.getvalue(), args.out)
    return 0


def cmd_optimize(args) -> int:
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
    _write_output(_json_dump(rec), args.out)
    return 0


def cmd_fluctuation(args) -> int:
    sc = _scenario(args)
    if sc.get("fluctuation") is None:
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
    _write_output(_json_dump(rec), args.out)
    return 0


def cmd_bounds(args) -> int:
    sc = _scenario(args)
    params = _params(sc)
    if sc.get("gains"):
        gains, mu, nu = ingest_gains(sc["gains"])
        settings = IntensitySettings(alpha_a=0.1, alpha_b=0.1, mu=mu, nu=nu)
    else:
        spec = _opt_spec(sc)
        strong = args.strongest_mu if args.strongest_mu is not None else spec.strongest_box[0]
        strong_nu = args.strongest_nu if args.strongest_nu is not None else strong
        vec = (0.1, strong) if spec.symmetric else (0.1, 0.1, strong, strong_nu)
        settings = spec.settings(vec)
        gains = simulate_gains(params, settings)
    yb = yield_bounds(gains, settings, exact=args.exact)
    rec = {
        "mu": list(settings.mu),
        "nu": list(settings.nu),
        "bounds": {f"{n},{m}": v for (n, m), v in sorted(yb.items())},
        "provenance": {f"{n},{m}": v for (n, m), v in sorted(yb.provenance.items())},
        "warnings": list(yb.warnings),
        "gains": emit_gains(gains, settings.mu, settings.nu),
    }
    _write_output(_json_dump(rec), args.out)
    return 0


def cmd_verify(args) -> int:
    """Oracle dominance suite: true yield <= LP <= analytical bounds."""
    if args.configs < 1:
        raise ConfigError(f"--configs must be >= 1, got {args.configs}")
    sc = _scenario(args)
    import numpy as np
    rng = np.random.default_rng(sc["seed"])
    failures = 0
    for i in range(args.configs):
        loss_a = float(rng.uniform(10, 45))
        loss_b = float(rng.uniform(10, 45))
        params = standard_noise(loss_a, loss_b, p_d=sc["p_d"])
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
            print(f"config {i} ({loss_a:.1f}/{loss_b:.1f} dB, {decoys} decoys) "
                  f"Y{target}: true {true:.3e} <= lp {lp:.3e} <= bound {analytic:.3e} "
                  f"{'PASS' if ok else 'FAIL'}")
            failures += not ok
    print(f"verify: {failures} failures")
    return 1 if failures else 0


def cmd_plob(args) -> int:
    sc = _scenario(args)
    eta_a = db_to_transmittance(sc["loss_a_db"])
    eta_b = db_to_transmittance(sc["loss_b_db"])
    try:
        value = plob_bound(eta_a, eta_b)
    except ValueError:
        value = math.inf
    _write_output(_json_dump({"loss_a_db": sc["loss_a_db"], "loss_b_db": sc["loss_b_db"],
                              "plob": value}), args.out)
    return 0


def _add_common(p):
    p.add_argument("--config", help="JSON scenario config")
    p.add_argument("--loss-a-db", dest="loss_a_db", type=float)
    p.add_argument("--loss-b-db", dest="loss_b_db", type=float)
    p.add_argument("--decoys", type=int, choices=(3, 4))
    p.add_argument("--f", type=float, help="reconciliation efficiency (default 1.0)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--symmetric-intensities", action="store_true",
                   help="force equal settings for the two parties")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfqkd",
        description="Key-rate bounds and optimization for twin-field QKD "
                    "with independent decoy intensities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="evaluate one parameter point")
    _add_common(p)
    p.add_argument("--gains", help="measured gains file (JSON)")
    p.add_argument("--alpha-a", dest="alpha_a", type=float)
    p.add_argument("--alpha-b", dest="alpha_b", type=float)
    p.add_argument("--strongest-mu", dest="strongest_mu", type=float)
    p.add_argument("--strongest-nu", dest="strongest_nu", type=float)
    p.add_argument("--dump-bounds", action="store_true")
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("sweep", help="optimized rate over a loss grid")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--grid-a", dest="grid_a", type=float, nargs="+")
    p.add_argument("--grid-b", dest="grid_b", type=float, nargs="+")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("optimize", help="optimize intensities at one point")
    _add_common(p)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("fluctuation", help="worst-case rate under fluctuations")
    _add_common(p)
    p.add_argument("--fluctuation", type=float, help="relative fluctuation magnitude")
    p.add_argument("--budget", type=int, default=64)
    p.set_defaults(fn=cmd_fluctuation)

    p = sub.add_parser("bounds", help="yield bounds from simulated or measured gains")
    _add_common(p)
    p.add_argument("--gains", help="measured gains file (JSON)")
    p.add_argument("--strongest-mu", dest="strongest_mu", type=float)
    p.add_argument("--strongest-nu", dest="strongest_nu", type=float)
    p.add_argument("--exact", action="store_true",
                   help="evaluate the bound formulas in exact rational arithmetic")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("verify", help="run the oracle dominance suite")
    _add_common(p)
    p.add_argument("--configs", type=int, default=5)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("plob", help="repeaterless benchmark for given losses")
    _add_common(p)
    p.set_defaults(fn=cmd_plob)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TfqkdError, ValueError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(_json_dump(record))
        return 2


if __name__ == "__main__":
    sys.exit(main())
