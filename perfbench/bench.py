"""Three closed-loop tvbayes workloads, their output checks and metrics.

A run sets up one problem from the seed, then solves it again and again,
one solve at a time, until the time budget is spent (at least once). Every
solve's output is checked; a typed ``tvbayes`` error or a failed check
counts as a failed solve and the loop goes on. End-to-end metrics come from
untraced solves. With tracing on, every public kernel is wrapped (see
``spans.py``) and the run reports the per-layer split of the median traced
solve.

Only the public API is used: ``harness`` makes the problem,
``ModelSpec.build`` the model, and ``ias_run``/``vb_run``/``gibbs_run``
solve it from the generated data alone.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import spans
from tvbayes import (
    GibbsOptions,
    IasOptions,
    LaplaceTV,
    LatentState,
    LatticeSpec,
    ModelSpec,
    RunReport,
    add_noise_bsnr,
    conditional_params,
    gaussian_kernel,
    gibbs_run,
    ias_run,
    log_posterior,
    make_image_2d,
    make_signal_1d,
    metrics,
    vb_run,
    weighted_gram_matvec,
    write_pgm,
    write_signal_csv,
)
from tvbayes.errors import TvBayesError
from tvbayes.harness import write_table_csv
from tvbayes.model import row_weights_from_r

# IAS stops on the relative x change, not on the mode gap. Acceptance
# criterion 6 bounds each run's gap by 100 times the stopping tolerance;
# at the default 1e-6 the gap exceeds 1e-6 on some noise seeds (seed 1:
# 1.9e-6), so the tighter 1e-6 would flag runs IAS never promised.
MODE_GAP_LIMIT = 100 * IasOptions().tol
# Setting up takes milliseconds, and the box's speed drifts in spells of
# seconds, so a run times set-ups in bursts of this many seconds spread over
# the run: one before the first solve and one after each solve.
SETUP_BURST_S = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str          # "ias", "vb" or "gibbs"
    image: str           # harness pattern name
    size: int            # side (2-D) or points (1-D)
    two_d: bool
    kernel_size: int
    kernel_sigma: float
    bsnr_db: float
    default_seed: int    # the acceptance-suite noise seed
    # span opened exactly once per sweep by this engine
    sweep_marker: str
    # least share of the traced solve the operators/solvers spans must cover
    min_kernel_share: float = 0.0


WORKLOADS = {w.name: w for w in (
    Workload("ias_shepp200", "ias", "shepp_logan", 200, True, 7, 1.0, 40.0,
             10, "solvers.pcg_solve", min_kernel_share=0.9),
    Workload("vb_blocks32", "vb", "blocks42", 32, True, 5, 1.25, 40.0, 10,
             "operators.weighted_gram_dense"),
    Workload("gibbs_blocky32", "gibbs", "blocky", 32, False, 5, 1.25, 30.0, 8,
             "operators.weighted_gram_dense"),
)}

# Criterion 8's chain: 10,000 kept draws after 2,000 burn-in sweeps.
GIBBS_SAMPLES = 10_000
GIBBS_BURN_IN = 2_000


def gibbs_chain_seed(seed: int) -> int:
    """Chain seed tied to the noise seed; 8 gives criterion 8's 88."""
    return 11 * seed


@dataclass
class Problem:
    truth: np.ndarray
    y: np.ndarray
    model: ModelSpec
    build_s: float
    problem_s: float


@dataclass
class Estimate:
    x: np.ndarray
    nu: float
    lam: float
    sweeps: int
    converged: bool | None  # None: the engine has no convergence test
    raw: object


def set_up(w: Workload, seed: int) -> Problem:
    """Model first, then the blurred noisy data, as the acceptance suite."""
    t0 = time.perf_counter()
    if w.two_d:
        lattice = LatticeSpec(w.size, w.size)
    else:
        lattice = LatticeSpec(1, w.size)
    model = ModelSpec.build(lattice, gaussian_kernel(w.kernel_size,
                                                     w.kernel_sigma),
                            prior=LaplaceTV())
    t1 = time.perf_counter()
    if w.two_d:
        truth = lattice.to_stacked(make_image_2d(w.image, w.size))
    else:
        truth = make_signal_1d(w.image, w.size)
    y, _ = add_noise_bsnr(model.blur.matvec(truth), w.bsnr_db,
                          np.random.default_rng(seed))
    t2 = time.perf_counter()
    return Problem(truth, y, model, t1 - t0, t2 - t1)


def solve(w: Workload, p: Problem, seed: int) -> Estimate:
    if w.engine == "ias":
        res = ias_run(p.y, p.model)
        return Estimate(res.x, res.nu, res.lam, res.iterations,
                        res.converged, res)
    if w.engine == "vb":
        res = vb_run(p.y, p.model)
        return Estimate(res.x_mean, res.nu_mean, res.lam_mean, res.iterations,
                        res.converged, res)
    res = gibbs_run(p.y, p.model, GibbsOptions(
        seed=gibbs_chain_seed(seed), samples=GIBBS_SAMPLES,
        burn_in=GIBBS_BURN_IN))
    kept = slice(res.burn_in, None)
    return Estimate(res.x_mean, float(np.mean(res.nu_trace[kept])),
                    float(np.mean(res.lam_trace[kept])), res.n_sweeps, None,
                    res)


def final_log_posterior(w: Workload, est: Estimate, p: Problem):
    """IAS: the log-posterior of its own last state, from its trace. VB: at
    the posterior means, each latent scale at 1/E(1/r), the value its
    x-update weights with. Gibbs: None (no single state to score)."""
    if w.engine == "ias":
        return float(est.raw.trace[-1][0])
    if w.engine == "vb":
        state = LatentState(est.x, est.nu, est.lam, 1.0 / est.raw.e_inv_r)
        return log_posterior(state, p.y, p.model)
    return None


def mode_gap(state: LatentState, p: Problem) -> float:
    """Worst relative fixed-point residual over nu, lambda and the normal
    equations, as in acceptance criterion 6."""
    gap_nu = abs(state.nu - conditional_params(state, p.y, p.model, "nu").mode)
    gap_lam = abs(state.lam
                  - conditional_params(state, p.y, p.model, "lambda").mode)
    hty = p.model.blur.rmatvec(p.y)
    weights = row_weights_from_r(state.r, p.model)
    resid = weighted_gram_matvec(p.model.blur, p.model.diff,
                                 state.lam / state.nu, weights, state.x) - hty
    return max(gap_nu / state.nu, gap_lam / state.lam,
               float(np.linalg.norm(resid)) / float(np.linalg.norm(hty)))


def quality(w: Workload, est: Estimate, p: Problem) -> dict:
    """Quality numbers of one solve and the names of the checks it fails."""
    out = {
        "psnr_db": metrics(est.x, p.truth)["psnr"],
        "noisy_psnr_db": metrics(p.y, p.truth)["psnr"],
        "log_posterior": final_log_posterior(w, est, p),
        "mode_gap": None,
        "sweeps": est.sweeps,
    }
    failed = []
    if est.converged is False:
        failed.append("not converged")
    if w.engine == "ias":
        out["mode_gap"] = mode_gap(est.raw.latent_state(), p)
        if out["mode_gap"] > MODE_GAP_LIMIT:
            failed.append(f"mode gap {out['mode_gap']:.3e} > {MODE_GAP_LIMIT}")
    if not out["psnr_db"] > out["noisy_psnr_db"]:
        failed.append(f"PSNR {out['psnr_db']:.2f} dB does not beat the noisy "
                      f"input's {out['noisy_psnr_db']:.2f} dB")
    out["failed_checks"] = failed
    return out


def write_outputs(w: Workload, est: Estimate, p: Problem, directory: str,
                  solve_s: float):
    """Estimate, trace CSV and RunReport, written as the CLI writes them."""
    prefix = os.path.join(directory, w.name)
    if w.two_d:
        write_pgm(prefix + "_estimate.pgm", p.model.lattice.to_grid(est.x))
    else:
        write_signal_csv(prefix + "_estimate.csv", est.x)
    res = est.raw
    if w.engine == "ias":
        write_table_csv(prefix + "_trace.csv",
                        ["iteration", "log_posterior", "rel_x_change", "nu",
                         "lambda"],
                        [(i + 1, *row) for i, row in enumerate(res.trace)])
    elif w.engine == "vb":
        write_table_csv(prefix + "_trace.csv",
                        ["iteration", "rel_x_change", "nu_mean", "lambda_mean"],
                        [(i + 1, *row) for i, row in enumerate(res.trace)])
        write_signal_csv(prefix + "_std.csv", res.x_std, header="posterior_std")
    else:
        write_signal_csv(prefix + "_nu_trace.csv", res.nu_trace,
                         header="nu_trace")
        write_signal_csv(prefix + "_lambda_trace.csv", res.lam_trace,
                         header="lambda_trace")
    RunReport(estimator=w.engine, config={"workload": w.name},
              iterations=est.sweeps, converged=bool(est.converged is not False),
              nu=est.nu, lam=est.lam, metrics=metrics(est.x, p.truth),
              wall_time_s=solve_s).to_json(prefix + "_report.json")


@dataclass
class Attempt:
    start: float
    stop: float
    quality: dict | None   # None when the solve raised
    error: str | None

    @property
    def solve_s(self) -> float:
        return self.stop - self.start


def attempt(w: Workload, p: Problem, seed: int,
            tracer: spans.Tracer | None = None):
    """One timed solve and its output checks: (attempt, estimate or None).
    With a tracer, every hook is on during the solve."""
    hooks = (contextlib.nullcontext() if tracer is None
             else spans.instrument(tracer))
    with hooks:
        start = time.perf_counter()
        try:
            est, error = solve(w, p, seed), None
        except TvBayesError as exc:
            est, error = None, f"{type(exc).__name__}: {exc}"
        stop = time.perf_counter()
    if est is not None and not np.all(np.isfinite(est.x)):
        est, error = None, "estimate not finite"
    q = None if est is None else quality(w, est, p)
    return Attempt(start, stop, q, error), est


def failed(a: Attempt) -> bool:
    return a.error is not None or bool(a.quality["failed_checks"])


def closed_loop(w: Workload, p: Problem, seed: int, seconds: float,
                new_tracer=lambda: None, after_each=lambda: None) -> list:
    """Solves back to back until ``seconds`` have passed (at least one):
    (attempt, estimate or None, tracer) per solve. ``new_tracer`` gives
    each solve its tracer; by default the solves are untraced, and their
    estimates are dropped at once so that they do not add to the peak
    memory of the solves after them. ``after_each`` runs after each solve."""
    runs = []
    t_end = time.perf_counter() + seconds
    while not runs or time.perf_counter() < t_end:
        tracer = new_tracer()
        a, est = attempt(w, p, seed, tracer)
        runs.append((a, None if tracer is None else est, tracer))
        after_each()
    return runs


def time_set_ups(w: Workload, seed: int, seconds: float) -> list:
    """Times of back-to-back set-ups for ``seconds`` (at least one)."""
    times = []
    t_end = time.perf_counter() + seconds
    while not times or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        set_up(w, seed)
        times.append(time.perf_counter() - t0)
    return times


def max_rss_mb() -> float:
    """Peak resident set of this process so far, in units of 2^20 bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_problems(attempts: list) -> list:
    """Solves of one input must agree exactly; return the mismatches."""
    done = [a.quality for a in attempts if a.quality is not None]
    keys = ("psnr_db", "log_posterior", "mode_gap", "sweeps")
    return [f"solve {i} differs from solve 0 in {k}"
            for i, q in enumerate(done[1:], 1) for k in keys
            if q[k] != done[0][k]]


def end_to_end(w: Workload, seed: int, seconds: float) -> dict:
    """Untraced solves, with a burst of timed set-ups before the first and
    after each. The solves' peak memory is how far they raise the process's
    peak resident set above where the first set-up left it; a set-up
    allocates far less than a solve, so the bursts do not add to it."""
    problem = set_up(w, seed)
    rss_before = max_rss_mb()
    setup_times = time_set_ups(w, seed, SETUP_BURST_S)
    runs = closed_loop(w, problem, seed, seconds, after_each=lambda: (
        setup_times.extend(time_set_ups(w, seed, SETUP_BURST_S))))
    peak_mb = max_rss_mb() - rss_before
    attempts = [r[0] for r in runs]
    out = {"attempts": attempts, "problems": repeat_problems(attempts),
           "metrics": {"setup_s": (statistics.median(setup_times), "s")}}
    ok = [a for a in attempts if a.quality is not None]
    if ok:
        q = ok[0].quality
        out["metrics"].update({
            "solve_s": (statistics.median(a.solve_s for a in ok), "s"),
            "psnr_db": (q["psnr_db"], "dB"),
            "peak_mem_mb": (peak_mb, "MB"),
        })
        if q["log_posterior"] is not None:
            out["metrics"]["log_posterior"] = (q["log_posterior"], "nat")
        out["quality"] = q
    return out


def traced(w: Workload, seed: int, seconds: float, out_root: str) -> dict:
    """Traced solves of one problem until ``seconds`` have passed (at least
    one); the per-layer split is that of the median one."""
    problem = set_up(w, seed)
    runs = closed_loop(w, problem, seed, seconds, spans.Tracer)
    attempts = [r[0] for r in runs]
    problems = repeat_problems(attempts)
    runs.sort(key=lambda r: r[0].solve_s)
    median_run, est, tracer = runs[len(runs) // 2]
    summary = spans.summarize(tracer, median_run.start, median_run.stop,
                              w.sweep_marker)
    metrics_s = write_s = 0.0
    if est is not None:
        problems += cross_checks(w, est, summary, tracer)
        t0 = time.perf_counter()
        metrics(est.x, problem.truth)
        metrics(problem.y, problem.truth)
        metrics_s = time.perf_counter() - t0
        with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                         dir=out_root) as tmp:
            t0 = time.perf_counter()
            write_outputs(w, est, problem, tmp, summary["solve_s"])
            write_s = time.perf_counter() - t0
    overhead_s = len(tracer.names) * spans.span_cost()
    return {"attempts": attempts, "problems": problems,
            "spans": summary["per_name"],
            "metrics": layer_metrics(summary, tracer, problem, metrics_s,
                                     write_s, overhead_s)}


def cross_checks(w: Workload, est: Estimate, summary: dict,
                 tracer: spans.Tracer) -> list:
    """The hooks must sit on the names the estimators really call."""
    calls = {nm: v["calls"] for nm, v in summary["per_name"].items()}
    cg = sum(tracer.pcg_iterations)
    out = []
    if calls.get("operators.precond_apply", 0) != cg:
        out.append("precond_apply calls != CG iterations")
    if calls.get("operators.weighted_gram_matvec", 0) != \
            cg + calls.get("solvers.pcg_solve", 0):
        out.append("weighted_gram_matvec calls != CG iterations + pcg calls")
    if calls.get(w.sweep_marker, 0) != est.sweeps:
        out.append(f"{w.sweep_marker} calls != {est.sweeps} sweeps")
    if summary["min_self_s"] < 0 or summary["estimator_self_s"] < 0:
        out.append("negative self time")
    if summary["kernel_share"] < w.min_kernel_share:
        out.append(f"operators+solvers spans cover "
                   f"{summary['kernel_share']:.3f} of the solve, "
                   f"< {w.min_kernel_share}")
    return out


# Spans reported as .calls and .s. gig_sample_batch and spd_sample run
# only in the Gibbs chain, which is not a gated workload; they appear in the
# printed span table instead.
SPAN_METRICS = (
    "operators.weighted_gram_matvec",
    "operators.blur_matvec",
    "operators.blur_rmatvec",
    "operators.diff_matvec",
    "operators.diff_rmatvec",
    "operators.precond_apply",
    "operators.weighted_gram_dense",
    "operators.fft2",
    "solvers.pcg_solve",
    "solvers.spd_factor",
    "distributions.gig_inv_moment_batch",
    "model.log_posterior",
    "model.r_conditional_b",
)


def layer_metrics(summary: dict, tracer: spans.Tracer, problem: Problem,
                  metrics_s: float, write_s: float, overhead_s: float) -> dict:
    per = summary["per_name"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for span in SPAN_METRICS:
        v = per.get(span, empty)
        out[span + ".calls"] = (v["calls"], "count")
        out[span + ".s"] = (v["s"], "s")
    out["solvers.pcg_solve.self_s"] = (
        per.get("solvers.pcg_solve", empty)["self_s"], "s")
    for nm in ("inverse", "solve"):
        out[f"solvers.spd_{nm}.s"] = (per.get(f"solvers.spd_{nm}", empty)["s"],
                                      "s")
    its = tracer.pcg_iterations
    out["solvers.cg_iterations"] = (sum(its), "count")
    out["solvers.cg_iterations.max"] = (max(its, default=0), "count")
    out["solvers.pcg_residual.max"] = (max(tracer.pcg_residuals, default=0.0),
                                       "ratio")
    out["solvers.pcg_error.count"] = (tracer.pcg_errors, "count")
    out["model.build_s"] = (problem.build_s, "s")
    sweeps = summary["sweep_s"]
    out["estimators.sweeps"] = (int(sweeps.size), "count")
    out["estimators.self_s"] = (summary["estimator_self_s"], "s")
    out["estimators.sweep_s.p50"] = (
        float(np.median(sweeps)) if sweeps.size else 0.0, "s")
    out["estimators.sweep_s.max"] = (
        float(sweeps.max()) if sweeps.size else 0.0, "s")
    out["harness.problem_s"] = (problem.problem_s, "s")
    out["harness.metrics_s"] = (metrics_s, "s")
    out["harness.write_s"] = (write_s, "s")
    out["trace.solve_s"] = (summary["solve_s"], "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.kernel_share"] = (summary["kernel_share"], "ratio")
    return out
