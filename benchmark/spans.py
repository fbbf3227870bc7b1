"""Spans around the calls into each module of ``tfqkd``, and what they add up to.

The tracer replaces the public functions at the module boundaries (the
names a module looks up when it calls into the next one, e.g.
``tfqkd.optimize.key_rate`` or ``tfqkd.decoy3.exp_f_tail``) with wrappers
that record one span per call: its name, start, end, parent span and
operation id.  Spans are kept in flat arrays while the run lasts and are
written out when it ends.  The wrappers are installed only for the traced
rounds, so the untraced rounds of the same run execute the unmodified
program.

A span's self time is its duration minus the durations of its child spans;
since one thread makes every call, children never overlap, and the self
times of all spans of an operation add up to the operation's own span.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

from tfqkd import channel, decoy3, decoy4, optimize, rate
from tfqkd.oracles import fock, lp_bounds

OP_SPAN = "bench.op"

LAYERS = ("channel", "series", "decoy3", "decoy4", "rate", "optimize",
          "oracles.fock", "oracles.lp_bounds", "oracles.simplex")


def _yield_bounds_name(args, kwargs) -> str:
    settings = args[1] if len(args) > 1 else kwargs["settings"]
    exact = args[2] if len(args) > 2 else kwargs.get("exact", False)
    return f"decoy{settings.n_decoys}.yield_bounds" + ("_exact" if exact else "")


# (module, attribute looked up by the caller, span name or name function)
PATCHES = (
    (optimize, "optimize_rate", "optimize.optimize_rate"),
    (optimize, "worst_case_fluctuation", "optimize.worst_case_fluctuation"),
    (optimize, "key_rate", "rate.key_rate"),
    (rate, "key_rate", "rate.key_rate"),
    (rate, "phase_error_upper", "rate.phase_error_upper"),
    (rate, "simulate_gains", "channel.simulate_gains"),
    (rate, "x_basis_statistics", "channel.x_basis_statistics"),
    (rate, "yield_bounds", _yield_bounds_name),
    (channel, "simulate_gains", "channel.simulate_gains"),
    (decoy4, "yield_bounds", _yield_bounds_name),
    (decoy3, "exp_f_tail", "series.exp_f_tail"),
    (decoy3, "exp_h_tail", "series.exp_h_tail"),
    (decoy4, "exp_h_tail", "series.exp_h_tail"),
    (decoy3, "cancellation_coeffs", "decoy3.cancellation_coeffs"),
    (decoy4, "cancellation_coeffs", "decoy3.cancellation_coeffs"),
    (lp_bounds, "lp_yield_bound", "oracles.lp_bounds.lp_yield_bound"),
    (lp_bounds, "solve_bounded_lp", "oracles.simplex.solve_bounded_lp"),
    (fock, "dark_adjusted_yield", "oracles.fock.dark_adjusted_yield"),
)


class Tracer:
    """Span recorder for one process; install() before, uninstall() after."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op_id = -1
        self._originals = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCHES]
        self._wrappers = [self._wrap(original, label)
                          for (_, _, original), (_, _, label) in zip(self._originals, PATCHES)]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def install(self) -> None:
        for (module, attr, _), wrapper in zip(self._originals, self._wrappers):
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._originals:
            setattr(module, attr, original)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, label):
        fixed = self.name_id(label) if isinstance(label, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(fixed if fixed is not None
                             else self.name_id(label(args, kwargs)))
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.error[idx] = 1
                raise
            finally:
                self._close(idx)
        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one operation; every span opened inside carries its id."""
        self._op_id = op_id
        idx = self._open(self.name_id(OP_SPAN))
        try:
            yield
        except Exception:
            self.error[idx] = 1
            raise
        finally:
            self._close(idx)
            self._op_id = -1

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.uint16),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "error": np.frombuffer(self.error, dtype=np.int8).astype(bool),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_metric_units(prefix: str, decoys: int) -> dict:
    """Per-layer metric name -> unit, for the operations with ``decoys`` decoys."""
    units = {
        "optimize.key_rate_calls_per_op": "count",
        "optimize.self_s_per_op": "s",
        "rate.key_rate.us_per_call": "us",
        "rate.key_rate.self_us_per_call": "us",
        "rate.phase_error_upper.us_per_call": "us",
        "channel.simulate_gains.us_per_call": "us",
        "channel.x_basis_statistics.us_per_call": "us",
        f"decoy{decoys}.yield_bounds.us_per_call": "us",
        f"decoy{decoys}.yield_bounds_exact.ms_per_call": "ms",
        "decoy3.cancellation_coeffs.s_per_op": "s",
        "series.exp_f_tail.calls_per_op": "count",
        "series.exp_f_tail.s_per_op": "s",
        "series.exp_h_tail.calls_per_op": "count",
        "series.exp_h_tail.s_per_op": "s",
        "oracles.lp_bounds.self_ms_per_call": "ms",
        "oracles.simplex.solve_bounded_lp.ms_per_call": "ms",
        "oracles.fock.dark_adjusted_yield.us_per_call": "us",
        **{f"{layer}.errors": "count" for layer in LAYERS},
        "trace.spans_per_op": "count",
        "trace.overhead_pct": "%",
    }
    return {f"{prefix}.{name}": unit for name, unit in units.items()}


def analyse(tracer: Tracer, op_ids: list[int], decoys: int) -> tuple[dict, float]:
    """Per-layer values for the given operations, and the worst accounting gap.

    The gap is the largest difference, relative to the operation's span,
    between an operation's span and the sum of the self times of all spans
    recorded inside it; it is rounding-sized unless spans went missing.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_time = dur - child
    parent_name = np.where(has_parent, a["name"][np.where(has_parent, a["parent"], 0)], -1)
    in_ops = np.isin(a["op"], op_ids)
    n_ops = max(len(op_ids), 1)

    def ids(predicate):
        return [i for i, name in enumerate(tracer.names) if predicate(name)]

    def sel(name):
        return in_ops & np.isin(a["name"], ids(lambda n: n == name))

    def per_call(name, values, scale):
        mask = sel(name)
        return float(values[mask].sum() / mask.sum() * scale) if mask.any() else 0.0

    def per_op(mask, values=None):
        total = mask.sum() if values is None else values[mask].sum()
        return float(total / n_ops)

    optimize_ids = ids(lambda n: n.startswith("optimize."))
    values = {
        "optimize.key_rate_calls_per_op": per_op(
            sel("rate.key_rate") & np.isin(parent_name, optimize_ids)),
        "optimize.self_s_per_op": per_op(in_ops & np.isin(a["name"], optimize_ids), self_time),
        "rate.key_rate.us_per_call": per_call("rate.key_rate", dur, 1e6),
        "rate.key_rate.self_us_per_call": per_call("rate.key_rate", self_time, 1e6),
        "rate.phase_error_upper.us_per_call": per_call("rate.phase_error_upper", dur, 1e6),
        "channel.simulate_gains.us_per_call": per_call("channel.simulate_gains", dur, 1e6),
        "channel.x_basis_statistics.us_per_call": per_call("channel.x_basis_statistics",
                                                           dur, 1e6),
        f"decoy{decoys}.yield_bounds.us_per_call": per_call(f"decoy{decoys}.yield_bounds",
                                                            self_time, 1e6),
        f"decoy{decoys}.yield_bounds_exact.ms_per_call": per_call(
            f"decoy{decoys}.yield_bounds_exact", dur, 1e3),
        "decoy3.cancellation_coeffs.s_per_op": per_op(sel("decoy3.cancellation_coeffs"), dur),
        "series.exp_f_tail.calls_per_op": per_op(sel("series.exp_f_tail")),
        "series.exp_f_tail.s_per_op": per_op(sel("series.exp_f_tail"), dur),
        "series.exp_h_tail.calls_per_op": per_op(sel("series.exp_h_tail")),
        "series.exp_h_tail.s_per_op": per_op(sel("series.exp_h_tail"), dur),
        "oracles.lp_bounds.self_ms_per_call": per_call("oracles.lp_bounds.lp_yield_bound",
                                                       self_time, 1e3),
        "oracles.simplex.solve_bounded_lp.ms_per_call": per_call(
            "oracles.simplex.solve_bounded_lp", dur, 1e3),
        "oracles.fock.dark_adjusted_yield.us_per_call": per_call(
            "oracles.fock.dark_adjusted_yield", dur, 1e6),
        "trace.spans_per_op": per_op(in_ops),
    }
    for layer in LAYERS:
        in_layer = np.isin(a["name"], ids(lambda n: n.rsplit(".", 1)[0] == layer))
        values[f"{layer}.errors"] = float((in_ops & a["error"] & in_layer).sum())

    roots = sel(OP_SPAN)
    gap = 0.0
    if roots.any():
        self_per_op = np.bincount(a["op"][in_ops], weights=self_time[in_ops],
                                  minlength=int(a["op"].max()) + 1)
        root_ops = a["op"][roots]
        gap = float(np.max(np.abs(self_per_op[root_ops] - dur[roots]) / dur[roots]))
    return values, gap
