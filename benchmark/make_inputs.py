"""Remake the stored inputs of the benchmark, ``benchmark/inputs.json``.

    python3 benchmark/make_inputs.py            # remake both parts
    python3 benchmark/make_inputs.py nominal    # fluctuation nominal settings
    python3 benchmark/make_inputs.py witness    # witness of the optimizer miss

``nominal``: for each decoy count, ``optimize_rate`` at the loss pair in
``workloads.NOMINAL_LOSS`` with the optimize workload's spec (seed 0) and
budget.  The fluctuation workload searches around these settings.

``witness``: at the fixed losses ``workloads.FAULT_LOSS`` with 3 decoys,
the default ``optimize_rate`` returns rate 0.  This scan looks for a box
point with a positive rate there: a grid of Alice's arriving intensity and
of the ratio of Bob's to hers (the pocket sits where they differ
by about a factor 0.6), times a grid of strongest decoys, then a bounded
Nelder-Mead polish of the best cell.  The optimize workload's check on that
operation evaluates ``key_rate`` at the stored point afresh.
"""

import json
import math
import sys

from source import add_source_path

add_source_path()

import numpy as np  # noqa: E402
from scipy.optimize import Bounds, minimize  # noqa: E402

import workloads  # noqa: E402
from tfqkd import channel, optimize, rate  # noqa: E402


def nominal() -> dict:
    out = {}
    for d, loss in workloads.NOMINAL_LOSS.items():
        params = channel.standard_noise(*loss)
        spec = optimize.OptimizationSpec(decoys=d, multistart=workloads.MULTISTART[d], seed=0)
        res = optimize.optimize_rate(params, spec, maxiter=workloads.MAXITER)
        s = res.settings
        out[str(d)] = {"loss": list(loss), "alpha_a": s.alpha_a, "alpha_b": s.alpha_b,
                       "mu": list(s.mu), "nu": list(s.nu), "rate": res.rate}
    return out


def witness() -> dict:
    params = channel.standard_noise(*workloads.FAULT_LOSS)
    spec = optimize.OptimizationSpec(decoys=3)
    lo, hi = spec.box()

    def fun(p):
        return -rate.key_rate(params, spec.settings(np.clip(p, lo, hi))).rate

    cells = []
    for arrival in np.geomspace(3e-7, 3e-5, 21):
        for ratio in np.geomspace(0.3, 3.0, 11):
            alphas = [math.sqrt(arrival / params.eta_a), math.sqrt(arrival * ratio / params.eta_b)]
            for sa in np.geomspace(lo[2], hi[2], 7):
                for sb in np.geomspace(lo[3], hi[3], 7):
                    cells.append(np.clip(np.array(alphas + [sa, sb]), lo, hi))
    best = min(cells, key=lambda p: (fun(p), tuple(p)))
    res = minimize(fun, best, method="Nelder-Mead", bounds=Bounds(lo, hi),
                   options={"xatol": 1e-9, "fatol": 1e-18, "maxiter": 400})
    vec = np.clip(res.x, lo, hi) if res.fun < fun(best) else best
    value = -fun(vec)
    if not value > 0.0:
        raise SystemExit("witness scan found no positive rate")
    return {"loss": list(workloads.FAULT_LOSS), "vector": [float(v) for v in vec],
            "rate": value}


def main(argv) -> int:
    parts = argv or ["nominal", "witness"]
    stored = workloads.load_inputs() if workloads.INPUTS_FILE.exists() else {}
    for part in parts:
        if part not in ("nominal", "witness"):
            sys.stderr.write(f"unknown part {part!r}; choose nominal or witness\n")
            return 2
        stored[part] = {"nominal": nominal, "witness": witness}[part]()
    with open(workloads.INPUTS_FILE, "w") as fh:
        json.dump(stored, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
