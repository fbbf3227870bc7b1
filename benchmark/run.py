"""Run one workload of the tfqkd benchmark and print its metrics.

    python3 benchmark/run.py --workload optimize --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
The run sets up (imports, stored inputs, warm-up on inputs other than the
timed ones), then runs whole rounds of the workload's operations in this one
process until ``--seconds`` have passed, then checks every operation's
output.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones, together with the tracing overhead: the drop in operations per second
(at the reference speed) from the untraced to the traced rounds of the run.  The result
and, for a traced run, the spans are also written to ``benchmark/results/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from source import ROOT, SRC, add_source_path  # noqa: E402

RESULTS = Path(__file__).resolve().parent / "results"
SETUP_PROBES = 2
SETUP_SPEED_LOOPS = 8
ADJACENT_LOOPS = 4
DECOYS = (3, 4)

END_TO_END_UNITS = {
    "setup_s": "s",
    "d3.ops_per_s": "op/s",
    "d4.ops_per_s": "op/s",
    "peak_rss_mb": "MB",
    "d3.key_rate_gmean": "bit/pulse",
    "d4.key_rate_gmean": "bit/pulse",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("optimize", "fluctuation", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(workload: str):
    """Import the package, load the stored inputs and warm up; return the workload.

    Timed from the first line of this script.
    """
    add_source_path()
    import tfqkd
    if Path(tfqkd.__file__).resolve().parent != SRC / "tfqkd":
        raise SystemExit(f"benchmark: imported tfqkd from {tfqkd.__file__}, not {SRC}")
    import workloads
    wl = workloads.WORKLOADS[workload](workloads.load_inputs())
    wl.warm_up()
    return wl


def reference_set_up_seconds(seconds: float) -> float:
    """Set-up seconds scaled to the reference interpreter speed (speed.py).

    The speed is that of the reference loop run right after the set-up.
    """
    import speed
    sampler = speed.SpeedSampler()
    for _ in range(SETUP_SPEED_LOOPS):
        sampler.sample()
    return seconds / speed.slowdown(sampler.loop_seconds, sampler.loops)


def probe_set_up(args) -> float:
    """Set-up seconds of a fresh process doing the same set-up, scaled."""
    out = subprocess.run([sys.executable, __file__, "--setup-only", "--workload", args.workload,
                          "--seed", str(args.seed), "--seconds", str(args.seconds)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def run_op(wl, op, tracer, sampler, adjacent: bool) -> None:
    """Run one operation on empty caches, with the interpreter speed around it.

    Untraced runs sample the speed from a timer inside the operation and
    take those samples' time out of it; traced runs sample it right before
    and after the operation (``adjacent``), outside its spans.
    """
    import workloads
    workloads.clear_caches()
    loop_seconds, loops = sampler.mark()
    for _ in range(ADJACENT_LOOPS if adjacent else 0):
        sampler.sample()
    start = time.perf_counter()
    try:
        if tracer is None:
            op.output = wl.run(op)
        else:
            with tracer.operation(op.id):
                op.output = wl.run(op)
    except Exception as exc:  # an operation that raises counts as failed
        op.failure = f"raised {type(exc).__name__}: {exc}"
    op.seconds = time.perf_counter() - start
    if adjacent:
        for _ in range(ADJACENT_LOOPS):
            sampler.sample()
    op.loop_seconds = sampler.loop_seconds - loop_seconds
    op.loops = sampler.loops - loops
    if not adjacent:
        op.seconds -= op.loop_seconds


def timed_phase(wl, seed: int, seconds: float, tracer) -> list:
    """Whole rounds until ``seconds`` have passed; with a tracer, odd rounds traced."""
    import numpy as np
    import speed
    ops = []
    start = time.perf_counter()
    k = 0
    sampler = speed.SpeedSampler()
    with sampler if tracer is None else contextlib.nullcontext():
        while True:
            traced = tracer is not None and k % 2 == 1
            batch = wl.round_ops(np.random.default_rng([seed, k]))
            if traced:
                tracer.install()
            try:
                for op in batch:
                    op.id, op.traced = len(ops), traced
                    ops.append(op)
                    run_op(wl, op, tracer if traced else None, sampler, tracer is not None)
            finally:
                if traced:
                    tracer.uninstall()
            k += 1
            if time.perf_counter() - start >= seconds and (tracer is None or k % 2 == 0):
                return ops


def check_ops(wl, ops) -> None:
    for op in ops:
        if op.failure is not None:
            continue
        try:
            op.failure = wl.check(op)
        except Exception as exc:  # a check that cannot be made fails the operation
            op.failure = f"check raised {type(exc).__name__}: {exc}"


def counted(ops, decoys: int, traced=None) -> list:
    """Operations that enter the metrics: passed, not the kept fault."""
    return [op for op in ops if op.decoys == decoys and not op.known_fault
            and op.failure is None and (traced is None or op.traced == traced)]


def ops_per_s(ops) -> float:
    total = sum(op.seconds for op in ops)
    return len(ops) / total if total > 0 else 0.0


def ops_per_reference_s(ops) -> float:
    """Operations per second at the reference interpreter speed (speed.py).

    Each operation's seconds are scaled by the reference loop's duration at
    the reference speed over its mean duration during that operation (or
    during all of them, for an operation too short to be sampled).
    """
    import speed
    loops = sum(op.loops for op in ops)
    if not loops:
        return ops_per_s(ops)
    overall = speed.slowdown(sum(op.loop_seconds for op in ops), loops)
    total = sum(op.seconds / (speed.slowdown(op.loop_seconds, op.loops) if op.loops else overall)
                for op in ops)
    return len(ops) / total


def gmean(values) -> float:
    if not values or min(values) <= 0.0:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(ops, setup_seconds) -> dict:
    values = {"setup_s": statistics.median(setup_seconds),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for d in DECOYS:
        mine = counted(ops, d)
        values[f"d{d}.ops_per_s"] = ops_per_reference_s(mine)
        values[f"d{d}.key_rate_gmean"] = gmean([op.output.rate for op in mine])
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(tracer, ops) -> tuple[dict, float]:
    import spans
    metrics = {}
    worst_gap = 0.0
    for d in DECOYS:
        traced_ops = counted(ops, d, traced=True)
        values, gap = spans.analyse(tracer, [op.id for op in traced_ops], d)
        worst_gap = max(worst_gap, gap)
        plain = ops_per_reference_s(counted(ops, d, traced=False))
        with_spans = ops_per_reference_s(traced_ops)
        values["trace.overhead_pct"] = 100.0 * (plain - with_spans) / plain if plain else 0.0
        for name, unit in spans.layer_metric_units(f"d{d}", d).items():
            metrics[name] = {"value": values[name.split(".", 1)[1]], "unit": unit}
    return metrics, worst_gap


def main(argv) -> int:
    args = parse_args(argv)
    wl = set_up(args.workload)
    setup_seconds = [reference_set_up_seconds(time.perf_counter() - T0)]
    if args.setup_only:
        print(f"{setup_seconds[0]!r}")
        return 0
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    else:
        setup_seconds += [probe_set_up(args) for _ in range(SETUP_PROBES)]

    ops = timed_phase(wl, args.seed, args.seconds, tracer)
    check_ops(wl, ops)
    failed = [op for op in ops if op.failure is not None]
    unexpected = [op for op in failed if not op.known_fault]
    for op in failed:
        kind = "known fault" if op.known_fault else "FAILED"
        sys.stderr.write(f"{kind}: {args.workload} op {op.id} ({op.decoys} decoys, "
                         f"inputs {op.inputs}): {op.failure}\n")
    correct = not unexpected

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics = end_to_end(ops, setup_seconds)
    else:
        metrics, gap = per_layer(tracer, ops)
        tracer.save(RESULTS / f"{stem}-spans.npz")
        if gap > 1e-9:
            sys.stderr.write(f"span self times miss their operation's span by {gap:.3g}\n")
            correct = False
    result = {"correct": correct, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    timings = [{"decoys": op.decoys, "known_fault": op.known_fault, "traced": op.traced,
                "failed": op.failure is not None, "seconds": op.seconds,
                "loop_seconds": op.loop_seconds, "loops": op.loops} for op in ops]
    (RESULTS / f"{stem}.json").write_text(json.dumps({**result, "operations": timings},
                                                     indent=2) + "\n")
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations attempted, "
          f"{len(failed)} failed ({len(failed) - len(unexpected)} the kept known fault)")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
