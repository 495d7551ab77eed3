"""Outside-in spans around the public functions of each tvbayes module.

Nothing under ``src/`` knows about tracing. :func:`instrument` swaps the
public functions and methods the estimators call for timed wrappers and
restores them on exit. ``tvbayes.estimators`` binds ``pcg_solve``,
``weighted_gram_matvec``, ``log_posterior``, ``r_conditional_b``,
``circulant_gram_precond`` and the GIG batch functions at import time, so
those names are patched in that module's namespace; methods are patched on
their classes; the FFT is patched on ``numpy.fft``, which the operators look
up at call time.

Spans stay in memory: name, start, end and the index of the span that was
open when this one started (its parent). Aggregates are computed after the
solve.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

import numpy as np

import tvbayes.estimators as est
import tvbayes.model as model_mod
import tvbayes.operators as ops
import tvbayes.solvers as solvers
from tvbayes.errors import PcgError

# Span names whose layer is operators or solvers: the matrix-free and dense
# kernels that the solve time should be spent in.
KERNEL_LAYERS = ("operators.", "solvers.")


class Tracer:
    """In-memory span recorder plus the PCG counts taken at its boundary."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open: list[int] = []
        self.pcg_iterations: list[int] = []
        self.pcg_residuals: list[float] = []
        self.pcg_errors = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._open.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self.starts[idx] = t0
                self._open.pop()
        return traced

    def wrap_pcg(self, fn):
        traced = self.wrap("solvers.pcg_solve", fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                res = traced(*args, **kwargs)
            except PcgError as exc:
                self.pcg_errors += 1
                self.pcg_iterations.append(exc.iterations)
                self.pcg_residuals.append(exc.residual)
                raise
            self.pcg_iterations.append(res.iterations)
            self.pcg_residuals.append(res.residual)
            return res
        return counted

    def wrap_precond_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap("operators.precond_apply", factory(*args, **kwargs))
        return make


def _noop():
    pass


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op minus a bare one,
    per call, median over ``repeats`` timings. Times the span count, this is
    the tracing overhead of a solve, without a second, untraced solve whose
    own run-to-run noise would swamp it."""
    wrapped = Tracer().wrap("calibration", _noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            _noop()
        t2 = time.perf_counter()
        costs.append((t1 - t0 - (t2 - t1)) / calls)
    return statistics.median(costs)


def _patches(tracer: Tracer):
    """(owner, attribute, replacement) for every hooked public name."""
    w = tracer.wrap
    gram = w("operators.weighted_gram_matvec", ops.weighted_gram_matvec)
    fft = (np.fft, "rfft2", np.fft.rfft2), (np.fft, "irfft2", np.fft.irfft2)
    return [
        (ops.BlurOperator, "matvec", w("operators.blur_matvec",
                                       ops.BlurOperator.matvec)),
        (ops.BlurOperator, "rmatvec", w("operators.blur_rmatvec",
                                        ops.BlurOperator.rmatvec)),
        (ops.DiffOperator, "matvec", w("operators.diff_matvec",
                                       ops.DiffOperator.matvec)),
        (ops.DiffOperator, "rmatvec", w("operators.diff_rmatvec",
                                        ops.DiffOperator.rmatvec)),
        (ops.DiffOperator, "weighted_gram_dense",
         w("operators.weighted_gram_dense",
           ops.DiffOperator.weighted_gram_dense)),
        *[(owner, attr, w("operators.fft2", fn)) for owner, attr, fn in fft],
        (ops, "weighted_gram_matvec", gram),
        (est, "weighted_gram_matvec", gram),
        (est, "circulant_gram_precond",
         tracer.wrap_precond_factory(ops.circulant_gram_precond)),
        (est, "pcg_solve", tracer.wrap_pcg(solvers.pcg_solve)),
        (solvers.SpdFactor, "__init__", w("solvers.spd_factor",
                                          solvers.SpdFactor.__init__)),
        (solvers.SpdFactor, "inverse", w("solvers.spd_inverse",
                                         solvers.SpdFactor.inverse)),
        (solvers.SpdFactor, "solve", w("solvers.spd_solve",
                                       solvers.SpdFactor.solve)),
        (solvers.SpdFactor, "sample_precision",
         w("solvers.spd_sample", solvers.SpdFactor.sample_precision)),
        (est, "gig_sample_batch", w("distributions.gig_sample_batch",
                                    est.gig_sample_batch)),
        (est, "gig_inv_moment_batch", w("distributions.gig_inv_moment_batch",
                                        est.gig_inv_moment_batch)),
        (est, "log_posterior", w("model.log_posterior",
                                 model_mod.log_posterior)),
        (est, "r_conditional_b", w("model.r_conditional_b",
                                   model_mod.r_conditional_b)),
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Route the hooked names through ``tracer`` for the ``with`` body."""
    patches = _patches(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def summarize(tracer: Tracer, solve_start: float, solve_end: float,
              sweep_marker: str) -> dict:
    """Per-span-name calls, busy and self seconds, plus solve-level shares.

    ``sweep_marker`` names the span an estimator opens exactly once per
    sweep; sweep durations run from one marker start to the next (the last
    to the end of the solve).
    """
    n = len(tracer.names)
    names = np.array(tracer.names, dtype=object)
    parents = np.array(tracer.parents, dtype=np.int64)
    dur = np.array(tracer.ends) - np.array(tracer.starts)
    child = np.zeros(n)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_s = dur - child

    # a kernel span counts towards coverage unless a kernel span encloses it
    is_kernel = np.array([nm.startswith(KERNEL_LAYERS) for nm in tracer.names],
                         dtype=bool)
    enclosed = np.zeros(n, dtype=bool)
    for i in range(n):  # parents always precede children
        p = parents[i]
        if p >= 0:
            enclosed[i] = enclosed[p] or is_kernel[p]

    per_name = {}
    for nm in sorted(set(tracer.names)):
        sel = names == nm
        per_name[nm] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                        "self_s": float(self_s[sel].sum())}

    solve_s = solve_end - solve_start
    marks = np.array(tracer.starts)[names == sweep_marker]
    sweeps = np.diff(np.append(marks, solve_end)) if marks.size else np.zeros(0)
    return {
        "per_name": per_name,
        "solve_s": solve_s,
        "estimator_self_s": solve_s - float(dur[~has_parent].sum()),
        "min_self_s": float(self_s.min()) if n else 0.0,
        "kernel_share": float(dur[is_kernel & ~enclosed].sum()) / solve_s,
        "sweep_s": sweeps,
    }
