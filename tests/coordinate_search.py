"""The greedy reference search of criterion 8, kept beside the tests.

``coordinate_descent`` is the one search that needs SciPy (its bounded
scalar minimizer), so it lives here rather than in the package, whose only
runtime dependency is numpy.
"""

from scipy.optimize import minimize_scalar

from tfqkd import optimize
from tfqkd.channel import ChannelParams
from tfqkd.optimize import OptimizationResult, OptimizationSpec, _objective


def coordinate_descent(params: ChannelParams, spec: OptimizationSpec) -> OptimizationResult:
    """Cyclic single-coordinate maximization from the lower corner of the box.

    Kept as a deliberately greedy reference method: on asymmetric channels
    it stalls far below the multistart optimum when started from a corner of
    the amplitude box, which is exactly the regression the tests pin down.
    Eight sweeps over the coordinates, starting with the second, at f = 1;
    each point is scored like ``optimize_rate``'s, through a ``_RateParts``
    (looked up on ``tfqkd.optimize`` at each call, so a test may swap it).
    """
    parts = optimize._RateParts(params, 1.0)
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
