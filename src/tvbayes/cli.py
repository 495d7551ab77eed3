"""Batch command-line front end.

Three subcommands: ``simulate`` writes a blurred/noisy test problem,
``deblur`` runs one estimator on an input file, ``dist`` exposes the GIG
utilities for scripting. One process = one run; sweeps are shell loops.

Every command is deterministic given its full flag set (noise and samplers
take explicit seeds). Exit codes: 0 success, 2 usage/file errors, 3 rank
condition, 4 capacity, 5 divergence guard, 6 linear-algebra failure,
7 degenerate conditional.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .distributions import (
    GigParams,
    gig_log_pdf,
    gig_mode,
    gig_moment,
    gig_sample,
    gig_variance,
)
from .errors import (
    CapacityError,
    DegenerateConditionalError,
    DivergenceError,
    FileFormatError,
    GigParameterError,
    MomentDivergesError,
    NonFiniteError,
    NotSpdError,
    PcgError,
    RankConditionError,
)
from .estimators import (
    GibbsOptions,
    IasOptions,
    VbOptions,
    gibbs_run,
    ias_run,
    tikhonov_baseline,
    vb_run,
)
from .harness import (
    RunReport,
    add_noise_bsnr,
    make_image_2d,
    make_signal_1d,
    metrics,
    read_pgm,
    read_signal_csv,
    write_pgm,
    write_signal_csv,
    write_table_csv,
)
from .model import (
    CustomGig,
    HyperParams,
    Laplace2D,
    LaplaceTV,
    ModelSpec,
    StudentTV,
)
from .operators import BlurOperator, LatticeSpec, gaussian_kernel

SIDECAR_SCHEMA_VERSION = 1

KINDS_1D = ("blocky", "blocky_smooth")
KINDS_2D = ("blocks42", "shepp_logan")


def _out_path(prefix: str, suffix: str) -> str:
    """Resolve an output path; relative prefixes land in $TVBAYES_OUT_DIR."""
    base = os.environ.get("TVBAYES_OUT_DIR", "")
    if base and not os.path.isabs(prefix):
        prefix = os.path.join(base, prefix)
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return prefix + suffix


def _default_sigma(kernel_size: int, sigma: float | None) -> float:
    # unspecified mask width: quarter of the kernel size keeps the mass inside
    return kernel_size / 4.0 if sigma is None else sigma


def _add_kernel_flags(sub):
    sub.add_argument("--kernel-size", type=int, default=7,
                     help="odd Gaussian mask size (default 7)")
    sub.add_argument("--sigma", type=float, default=None,
                     help="mask standard deviation (default kernel-size/4)")


def _add_hyper_flags(sub):
    sub.add_argument("--alpha-lambda", type=float, default=0.0)
    sub.add_argument("--beta-lambda", type=float, default=0.0)
    sub.add_argument("--alpha-nu", type=float, default=0.0)
    sub.add_argument("--beta-nu", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvbayes",
        description="Edge-preserving deblurring with a hierarchical "
                    "total-variation model")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="generate a test problem")
    sim.add_argument("--kind", required=True, choices=KINDS_1D + KINDS_2D)
    sim.add_argument("--size", type=int, default=None,
                     help="points (1-D) or side length (2-D); kind default")
    _add_kernel_flags(sim)
    sim.add_argument("--bsnr", type=float, default=40.0,
                     help="blurred signal-to-noise ratio in dB (default 40)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out-prefix", required=True)

    deb = subs.add_parser("deblur", help="run an estimator on an input file")
    deb.add_argument("--input", required=True,
                     help="noisy input (.csv signal or .pgm image)")
    deb.add_argument("--method", required=True,
                     choices=("ias", "vb", "gibbs", "tikhonov"))
    deb.add_argument("--prior", default="laplace",
                     choices=("laplace", "student", "laplace2d", "gig"))
    deb.add_argument("--safeguard-b", type=float, default=0.001,
                     help="laplace prior: mixing b (0 = exact Laplace)")
    deb.add_argument("--dof", type=float, default=2.0,
                     help="student prior: degrees of freedom")
    deb.add_argument("--gig-a", type=float, default=2.0)
    deb.add_argument("--gig-b", type=float, default=0.001)
    deb.add_argument("--gig-p", type=float, default=1.0)
    _add_hyper_flags(deb)
    _add_kernel_flags(deb)
    deb.add_argument("--sidecar", default=None,
                     help="simulate sidecar JSON; overrides kernel flags")
    deb.add_argument("--tol", type=float, default=1e-6)
    deb.add_argument("--maxit", type=int, default=200)
    deb.add_argument("--samples", type=int, default=10000,
                     help="gibbs: post-burn-in sweeps, every draw kept")
    deb.add_argument("--burn-in", type=int, default=None,
                     help="gibbs: burn-in sweeps (default 20%% of samples)")
    deb.add_argument("--seed", type=int, default=0)
    deb.add_argument("--delta", type=float, default=0.01,
                     help="tikhonov: penalty weight")
    deb.add_argument("--truth", default=None,
                     help="ground-truth file for metrics")
    deb.add_argument("--out-prefix", required=True)

    dist = subs.add_parser("dist", help="GIG distribution utilities")
    dist.add_argument("--op", required=True,
                      choices=("pdf", "moment", "mode", "var", "sample"))
    dist.add_argument("--a", type=float, required=True)
    dist.add_argument("--b", type=float, required=True)
    dist.add_argument("--p", type=float, required=True)
    dist.add_argument("--q", type=float, default=1.0, help="moment order")
    dist.add_argument("--x", type=float, default=None, help="pdf evaluation point")
    dist.add_argument("--n", type=int, default=1, help="sample count")
    dist.add_argument("--seed", type=int, default=0)
    dist.add_argument("--out", default=None, help="sample output CSV")
    return parser


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    sigma = _default_sigma(args.kernel_size, args.sigma)
    kernel = gaussian_kernel(args.kernel_size, sigma)
    rng = np.random.default_rng(args.seed)

    if args.kind in KINDS_2D:
        img = make_image_2d(args.kind, args.size)
        k = img.shape[0]
        lattice = LatticeSpec(k, k)
        truth = lattice.to_stacked(img)
    else:
        size = 100 if args.size is None else args.size
        truth = make_signal_1d(args.kind, size)
        lattice = LatticeSpec(1, size)

    blurred = BlurOperator(kernel, lattice).matvec(truth)
    noisy, noise_sigma = add_noise_bsnr(blurred, args.bsnr, rng)

    ext = ".pgm" if lattice.k > 1 else ".csv"
    outputs = {name: _write_field(args.out_prefix, name, lattice, vec, ext)
               for name, vec in (("truth", truth), ("blurred", blurred),
                                 ("noisy", noisy))}

    sidecar = {
        "schema_version": SIDECAR_SCHEMA_VERSION,
        "kind": args.kind,
        "rows": lattice.k,
        "cols": lattice.n,
        "kernel_size": args.kernel_size,
        "kernel_sigma": sigma,
        # noise-free data (+inf) is null: JSON has no infinity
        "bsnr_db": args.bsnr if math.isfinite(args.bsnr) else None,
        "noise_sigma": noise_sigma,
        "seed": args.seed,
        "outputs": outputs,
    }
    sidecar_path = _out_path(args.out_prefix, "_sim.json")
    with open(sidecar_path, "w", encoding="ascii") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {', '.join(outputs.values())} and {sidecar_path}")
    return 0


# ---------------------------------------------------------------------------
# deblur
# ---------------------------------------------------------------------------

def _load_field(path: str):
    """Read a .csv signal or .pgm image; returns (lattice, stacked vector)."""
    if not os.path.exists(path):
        raise FileFormatError(f"input file {path!r} does not exist")
    if path.endswith(".pgm"):
        img = read_pgm(path)
        lattice = LatticeSpec(*img.shape)
        return lattice, lattice.to_stacked(img)
    if path.endswith(".csv"):
        sig = read_signal_csv(path)
        lattice = LatticeSpec(1, sig.shape[0])
        return lattice, sig
    raise FileFormatError(f"unsupported input extension on {path!r} "
                          "(expected .csv or .pgm)")


def _write_field(prefix: str, tag: str, lattice: LatticeSpec,
                 vec: np.ndarray, ext: str) -> str:
    """Write ``<prefix>_<tag><ext>``, a .pgm image when ``ext`` is ".pgm"
    and a .csv signal otherwise; returns the path."""
    path = _out_path(prefix, f"_{tag}{ext}")
    if ext == ".pgm":
        write_pgm(path, lattice.to_grid(vec))
    else:
        write_signal_csv(path, vec)
    return path


def _read_sidecar(path: str) -> tuple[int, float]:
    """Kernel size and sigma from a simulate sidecar."""
    with open(path, encoding="ascii") as fh:
        side = json.load(fh)
    if not isinstance(side, dict):
        raise FileFormatError(f"sidecar {path!r} is not a JSON object")
    size, sigma = side.get("kernel_size"), side.get("kernel_sigma")
    # JSON true and false load as bools, which are ints to isinstance
    if isinstance(size, bool) or not isinstance(size, int):
        raise FileFormatError(f"sidecar kernel_size must be a JSON integer, "
                              f"got {size!r}")
    if (isinstance(sigma, bool) or not isinstance(sigma, (int, float))
            or not math.isfinite(sigma)):
        raise FileFormatError(f"sidecar kernel_sigma must be a JSON number, "
                              f"got {sigma!r}")
    return size, float(sigma)


def _build_prior(args):
    if args.prior == "laplace":
        return LaplaceTV(safeguard_b=args.safeguard_b)
    if args.prior == "student":
        return StudentTV(w=args.dof)
    if args.prior == "laplace2d":
        return Laplace2D(GigParams(args.gig_a, args.gig_b, args.gig_p))
    return CustomGig(GigParams(args.gig_a, args.gig_b, args.gig_p))


def _cmd_deblur(args) -> int:
    lattice, y = _load_field(args.input)
    truth = None
    if args.truth is not None:
        truth_lattice, truth = _load_field(args.truth)
        if truth_lattice != lattice:
            raise FileFormatError(f"truth {args.truth!r} and the input "
                                  "are not on the same pixel lattice")
        metrics(y, truth)  # a truth that cannot be scored fails here
    kernel_size, sigma = args.kernel_size, args.sigma
    if args.sidecar is not None:
        kernel_size, sigma = _read_sidecar(args.sidecar)
    sigma = _default_sigma(kernel_size, sigma)
    kernel = gaussian_kernel(kernel_size, sigma)
    hyper = HyperParams(args.alpha_lambda, args.beta_lambda,
                        args.alpha_nu, args.beta_nu)
    model = ModelSpec.build(lattice, kernel, hyper=hyper,
                            prior=_build_prior(args))

    # every deblur flag but the file paths, with the kernel as resolved
    dropped = ("command", "sidecar", "truth", "out_prefix", "sigma")
    config = {k: v for k, v in vars(args).items() if k not in dropped}
    config.update(kernel_size=kernel_size, kernel_sigma=sigma)
    # each branch runs its engine and lists its CSV tables as (outputs key,
    # file tag, header, rows); every file is written after the clock stops
    tables, extra = [], {}
    t0 = time.perf_counter()
    if args.method == "ias":
        res = ias_run(y, model, IasOptions(tol=args.tol, maxit=args.maxit))
        estimate, nu, lam = res.x, res.nu, res.lam
        iterations, converged = res.iterations, res.converged
        tables = [("trace", "trace", ["iteration", "log_posterior",
                                      "rel_x_change", "nu", "lambda"],
                   [(i + 1, *row) for i, row in enumerate(res.trace)])]
    elif args.method == "vb":
        res = vb_run(y, model, VbOptions(tol=args.tol, maxit=args.maxit))
        estimate, nu, lam = res.x_mean, res.nu_mean, res.lam_mean
        iterations, converged = res.iterations, res.converged
        tables = [("trace", "trace", ["iteration", "rel_x_change", "nu_mean",
                                      "lambda_mean"],
                   [(i + 1, *row) for i, row in enumerate(res.trace)]),
                  ("posterior_std", "std", ["posterior_std"], zip(res.x_std))]
        extra = {"nu_shape": res.nu_shape, "nu_rate": res.nu_rate,
                 "lambda_shape": res.lam_shape, "lambda_rate": res.lam_rate,
                 "warm_sweeps": res.warm_sweeps,
                 "discarded_sweeps": res.discarded_sweeps,
                 "discarded_error": res.discarded_error,
                 "discarded_mode": res.discarded_mode}
    elif args.method == "gibbs":
        res = gibbs_run(y, model, GibbsOptions(
            seed=args.seed, samples=args.samples, burn_in=args.burn_in))
        estimate = res.x_mean
        nu = float(np.mean(res.nu_trace[res.burn_in:]))
        lam = float(np.mean(res.lam_trace[res.burn_in:]))
        # the chain runs no convergence test, so none is reported
        iterations, converged = res.n_sweeps, None
        tables = [(tag, tag, [tag], zip(tr)) for tag, tr in (
            ("nu_trace", res.nu_trace), ("lambda_trace", res.lam_trace))]
        extra = {"burn_in": res.burn_in, "kept_samples": res.samples}
    else:  # tikhonov
        estimate = tikhonov_baseline(y, model.blur, model.diff, args.delta)
        nu = lam = None
        iterations, converged = 0, True
    wall_time_s = time.perf_counter() - t0

    outputs = {}
    for key, tag, header, rows in tables:
        outputs[key] = _out_path(args.out_prefix, f"_{tag}.csv")
        write_table_csv(outputs[key], header, rows)
    # in the input's format: a 1-row PGM gives a PGM
    outputs["estimate"] = _write_field(args.out_prefix, "estimate", lattice,
                                       estimate,
                                       os.path.splitext(args.input)[1])

    run_metrics = None
    if truth is not None:
        run_metrics = metrics(estimate, truth)
        if math.isinf(run_metrics["psnr"]):
            run_metrics["psnr"] = None  # JSON has no inf

    report = RunReport(
        estimator=args.method, config=config, iterations=iterations,
        converged=converged, nu=nu, lam=lam, seed=args.seed,
        metrics=run_metrics, wall_time_s=wall_time_s,
        outputs={**outputs, **{f"param_{k}": v for k, v in extra.items()}})
    report_path = _out_path(args.out_prefix, "_report.json")
    report.to_json(report_path)
    print(f"wrote {outputs['estimate']} and {report_path}")
    if run_metrics is not None:
        psnr = run_metrics["psnr"]
        print(f"rel_l2 {run_metrics['rel_l2']:.6g}"
              + (f"  psnr {psnr:.3f} dB" if psnr is not None else ""))
    return 0


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------

def _cmd_dist(args) -> int:
    params = GigParams(args.a, args.b, args.p)
    if args.op == "pdf":
        if args.x is None:
            raise GigParameterError("--op pdf requires --x")
        print(format(math.exp(gig_log_pdf(params, args.x)), ".17g"))
    elif args.op == "moment":
        print(format(gig_moment(params, args.q), ".17g"))
    elif args.op == "mode":
        print(format(gig_mode(params), ".17g"))
    elif args.op == "var":
        print(format(gig_variance(params), ".17g"))
    else:  # sample
        rng = np.random.default_rng(args.seed)
        draws = np.atleast_1d(gig_sample(params, rng, size=args.n))
        if args.out is not None:
            write_signal_csv(_out_path(args.out, ""), draws, header="sample")
            print(f"wrote {args.out}")
        else:
            for v in draws:
                print(format(v, ".17g"))
    return 0


_HANDLERS = {"simulate": _cmd_simulate, "deblur": _cmd_deblur,
             "dist": _cmd_dist}

# First match wins: RankConditionError, NotSpdError and FileFormatError are
# ValueErrors, so the usage row, which catches ValueError, comes last
_EXIT_CODES = (
    ((RankConditionError,), 3),
    ((CapacityError,), 4),
    ((DivergenceError,), 5),
    ((PcgError, NotSpdError, NonFiniteError), 6),
    ((DegenerateConditionalError,), 7),
    ((FileFormatError, GigParameterError, MomentDivergesError, ValueError,
      OSError, json.JSONDecodeError, KeyError), 2),
)
_HANDLED = tuple(cls for classes, _ in _EXIT_CODES for cls in classes)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except _HANDLED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES
                    if isinstance(exc, classes))


if __name__ == "__main__":
    sys.exit(main())
