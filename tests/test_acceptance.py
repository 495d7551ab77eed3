"""Acceptance suite: twelve numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
tolerance is fixed here; nothing is calibrated at run time.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from tvbayes.distributions import (
    GigParams,
    gig_log_pdf,
    gig_mode,
    gig_moment,
    gig_sample,
    gig_variance,
    gsm_sample,
)
from tvbayes.errors import MomentDivergesError
from tvbayes.estimators import (
    GibbsOptions,
    IasOptions,
    gibbs_run,
    ias_run,
    initial_state,
    tikhonov_baseline,
    vb_run,
)
from tvbayes.harness import add_noise_bsnr, make_image_2d, make_signal_1d, metrics
from tvbayes.model import (
    CustomGig,
    HyperParams,
    Laplace2D,
    LaplaceTV,
    LatentState,
    ModelSpec,
    StudentTV,
    conditional_params,
    log_posterior,
    row_weights_from_r,
)
from tvbayes.operators import LatticeSpec, dense_gram, gaussian_kernel
from tvbayes.solvers import SpdFactor, pcg_solve


def report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


TRIPLES = [
    # a > 0, b >= 0, p > 0
    (2.0, 0.0, 1.0), (2.0, 0.0, 0.5), (4.0, 0.0, 3.0), (2.0, 3.0, 0.5),
    (1.0, 1.0, 1.0), (2.0, 0.001, 1.0), (3.0, 2.0, 2.5), (0.5, 4.0, 0.2),
    (10.0, 0.1, 5.0), (1.0, 1.0, 0.5),
    # a > 0, b > 0, p = 0
    (1.0, 1.0, 0.0), (2.0, 0.5, 0.0), (0.3, 3.0, 0.0),
    # a >= 0, b > 0, p < 0
    (0.0, 2.0, -1.0), (0.0, 4.0, -2.5), (0.0, 1.0, -0.7), (1.0, 2.0, -1.0),
    (0.5, 0.5, -2.0), (0.0, 6.0, -3.0), (2.0, 2.0, -0.25), (0.0, 0.001, -0.5),
]


def quad_gig(params, q=0.0):
    def integrand(t):
        x = math.exp(t)
        return math.exp(gig_log_pdf(params, x) + (q + 1.0) * t)

    mode = gig_mode(params)
    split = math.log(mode) if mode > 0 else 0.0
    lo, _ = integrate.quad(integrand, -60, split, epsabs=1e-13, epsrel=1e-13,
                           limit=400)
    hi, _ = integrate.quad(integrand, split, 60, epsabs=1e-13, epsrel=1e-13,
                           limit=400)
    return lo + hi


def random_blocks(k, rng):
    img = np.full((k, k), 0.1)
    for _ in range(3):
        r0, c0 = rng.integers(0, k - 2, size=2)
        r1 = rng.integers(r0 + 2, k + 1)
        c1 = rng.integers(c0 + 2, k + 1)
        img[r0:r1, c0:c1] = rng.uniform(0.3, 1.0)
    return img


def test_criterion_01_gig_calculus():
    t0 = time.perf_counter()
    assert len(TRIPLES) >= 20
    worst = 0.0
    for a, b, p in TRIPLES:
        params = GigParams(a, b, p)
        # density normalises
        norm = quad_gig(params)
        assert abs(norm - 1.0) <= 1e-8, (a, b, p, norm)
        # moments match quadrature where they exist
        for q in (-2.0, -1.0, 1.0, 2.0, 3.0):
            try:
                got = gig_moment(params, q)
            except MomentDivergesError:
                continue
            want = quad_gig(params, q)
            err = abs(got - want) / abs(want)
            worst = max(worst, err)
            assert err <= 1e-8, (a, b, p, q, err)
        # mode maximises the density
        mode = gig_mode(params)
        if mode > 0:
            at = gig_log_pdf(params, mode)
            assert at >= gig_log_pdf(params, mode * (1 + 1e-4))
            assert at >= gig_log_pdf(params, mode * (1 - 1e-4))
        else:
            assert gig_log_pdf(params, 1e-8) > gig_log_pdf(params, 2e-8)
    # Table-1 special cases match the closed-form log densities to 1e-12
    for x in (0.07, 0.4, 1.1, 3.0):
        alpha, beta = 2.4, 1.6
        assert abs(gig_log_pdf(GigParams(2 * beta, 0, alpha), x)
                   - stats.gamma.logpdf(x, alpha, scale=1 / beta)) <= 1e-12
        assert abs(gig_log_pdf(GigParams(0, 2 * beta, -alpha), x)
                   - stats.invgamma.logpdf(x, alpha, scale=beta)) <= 1e-12
        theta = 1.0
        assert abs(gig_log_pdf(GigParams(2 * theta, 0, 1.0), x)
                   - stats.expon.logpdf(x, scale=1 / theta)) <= 1e-12
        ra, rb = 1.3, 0.8
        rig_log = (math.log(ra / math.sqrt(2 * math.pi * rb)) + 2 * ra
                   - 0.5 * math.log(x) - (ra * x + rb) ** 2 / (2 * rb * x))
        assert abs(gig_log_pdf(GigParams(ra ** 2 / rb, rb, 0.5), x)
                   - rig_log) <= 1e-12
    elapsed = time.perf_counter() - t0
    report(1, "GIG calculus vs quadrature", elapsed < 10.0,
           f"worst moment rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_laplace_scale_mixture():
    t0 = time.perf_counter()
    pvals = []
    for i, lam in enumerate((0.5, 1.0, 4.0)):
        rng = np.random.default_rng(100 + i)
        draws = gsm_sample(np.zeros(1), np.array([[2.0 / lam]]),
                           GigParams(2, 0, 1), rng, size=100_000)[:, 0]
        res = stats.kstest(draws, lambda t: stats.laplace.cdf(
            t, scale=1.0 / math.sqrt(lam)))
        pvals.append(res.pvalue)
        assert res.pvalue > 0.01, (lam, res.pvalue)
    elapsed = time.perf_counter() - t0
    report(2, "Laplace scale-mixture law (KS at alpha=0.01)", elapsed < 5.0,
           f"p-values {['%.3f' % p for p in pvals]}, {elapsed:.1f}s")


def test_criterion_03_rig_inverse_moment():
    worst = 0.0
    for lam_e in np.geomspace(1e-6, 1e6, 49):
        got = gig_moment(GigParams(2.0, lam_e / 2.0, 0.5), -1)
        want = 2.0 / math.sqrt(lam_e)
        worst = max(worst, abs(got - want) / want)
    report(3, "RIG inverse-moment closed form", worst <= 1e-10,
           f"worst rel err {worst:.2e}")


def test_criterion_04_completing_the_square():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        lattice = LatticeSpec(k, n)
        model = ModelSpec.build(lattice, gaussian_kernel(3, 0.75))
        x = rng.normal(size=lattice.size)
        y = rng.normal(size=lattice.size)
        lam, nu = rng.uniform(0.5, 5.0, size=2)
        r = rng.uniform(0.2, 3.0, size=model.n_latents)
        weights = row_weights_from_r(r, model)
        dx = model.diff.matvec(x)
        resid = y - model.blur.matvec(x)
        lhs = float(resid @ resid) + (lam / nu) * float(np.sum(dx * dx * weights))
        q = dense_gram(model.blur, model.diff)(lam / nu, weights)
        xhat = np.linalg.solve(q, model.blur.rmatvec(y))
        z = x - xhat
        rhs = float(z @ (q @ z)) + float(y @ y) - float(xhat @ (q @ xhat))
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    report(4, "completing-the-square identity", worst <= 1e-9,
           f"worst rel err {worst:.2e}")


def test_criterion_05_conditional_coherence():
    rng = np.random.default_rng(5)
    variants = [LaplaceTV(), StudentTV(2.0), Laplace2D(),
                CustomGig(GigParams(1.5, 0.4, -0.3))]
    worst = 0.0
    for prior in variants:
        lattice = LatticeSpec(3, 3)
        model = ModelSpec.build(lattice, gaussian_kernel(3, 0.75), prior=prior,
                                hyper=HyperParams(0.4, 0.2, 0.3, 0.6))
        y = rng.normal(size=9)
        base = LatentState(rng.normal(size=9), 1.7, 2.3,
                           rng.uniform(0.2, 3.0, size=model.n_latents))

        def gap_spread(cond_logpdf, probes, update):
            state = LatentState(base.x.copy(), base.nu, base.lam,
                                base.r.copy())
            cond = conditional_params(state, y, model, update["which"])
            gaps = []
            for probe in probes:
                update["set"](state, probe)
                gaps.append(log_posterior(state, y, model)
                            - cond_logpdf(cond, probe))
            gaps = np.asarray(gaps)
            return float(np.ptp(gaps) / max(1.0, np.abs(gaps).max()))

        worst = max(worst, gap_spread(
            lambda c, v: c.log_pdf(v),
            [rng.normal(size=9) for _ in range(5)],
            {"which": "x", "set": lambda s, v: setattr(s, "x", v)}))
        worst = max(worst, gap_spread(
            lambda c, v: c.log_pdf(v), rng.uniform(0.2, 8.0, size=5),
            {"which": "nu", "set": lambda s, v: setattr(s, "nu", v)}))
        worst = max(worst, gap_spread(
            lambda c, v: c.log_pdf(v), rng.uniform(0.2, 8.0, size=5),
            {"which": "lambda", "set": lambda s, v: setattr(s, "lam", v)}))
        idx = int(rng.integers(model.n_latents))

        def set_r(s, v, idx=idx):
            s.r[idx] = v

        worst = max(worst, gap_spread(
            lambda c, v: gig_log_pdf(c, v), rng.uniform(0.2, 8.0, size=5),
            {"which": ("r", idx), "set": set_r}))
    report(5, "conditionals cohere with the joint (4 variants)",
           worst <= 1e-9, f"worst gap spread {worst:.2e}")


def test_criterion_06_ias_ascent():
    hyper = HyperParams(alpha_lambda=2.0, beta_lambda=0.01,
                        alpha_nu=2.0, beta_nu=1e-4)
    variants = [LaplaceTV(), StudentTV(2.0), Laplace2D()]
    worst_dip = 0.0
    worst_fix = 0.0
    runs = 0
    for vi, prior in enumerate(variants):
        for seed in range(20):
            lattice = LatticeSpec(8, 8)
            model = ModelSpec.build(lattice, gaussian_kernel(3, 0.75),
                                    prior=prior, hyper=hyper)
            rng = np.random.default_rng(1000 * vi + seed)
            truth = lattice.to_stacked(random_blocks(8, rng))
            y, _ = add_noise_bsnr(model.blur.matvec(truth), 40.0, rng)
            opts = IasOptions(tol=1e-8, maxit=500, pcg_tol=1e-12)
            res = ias_run(y, model, opts)
            assert res.converged
            runs += 1
            logs = res.substep_logposts.ravel()
            dips = -np.diff(logs) / np.maximum(1.0, np.abs(logs[:-1]))
            worst_dip = max(worst_dip, float(dips.max()))
            assert np.all(dips <= 1e-8), (prior, seed)
            # fixed point: every variable equals its conditional mode
            final = res.latent_state()
            cond_nu = conditional_params(final, y, model, "nu")
            worst_fix = max(worst_fix, abs(res.nu - cond_nu.mode) / res.nu)
            cond_lam = conditional_params(final, y, model, "lambda")
            worst_fix = max(worst_fix,
                            abs(res.lam - cond_lam.mode) / res.lam)
            weights = row_weights_from_r(res.r, model)
            from tvbayes.operators import weighted_gram_matvec
            qres = weighted_gram_matvec(model.blur, model.diff,
                                        res.lam / res.nu, weights, res.x) \
                - model.blur.rmatvec(y)
            worst_fix = max(worst_fix, float(np.linalg.norm(qres))
                            / float(np.linalg.norm(model.blur.rmatvec(y))))
            assert worst_fix <= opts.tol * 100
    report(6, f"IAS ascent + fixed point on {runs} random 8x8 problems",
           worst_dip <= 1e-8 and worst_fix <= 1e-6,
           f"worst dip {worst_dip:.2e}, worst mode gap {worst_fix:.2e}")


def test_criterion_07_desk_scale_1d():
    t0 = time.perf_counter()
    lattice = LatticeSpec(1, 100)
    model = ModelSpec.build(lattice, gaussian_kernel(7, 1.75),
                            prior=LaplaceTV())
    truth = make_signal_1d("blocky", 100)
    rng = np.random.default_rng(7)
    y, _ = add_noise_bsnr(model.blur.matvec(truth), 30.0, rng)
    res = ias_run(y, model)
    rel_noisy = metrics(y, truth)["rel_l2"]
    rel_map = metrics(res.x, truth)["rel_l2"]
    elapsed = time.perf_counter() - t0
    ok = (res.iterations <= 200 and rel_map <= 0.5 * rel_noisy
          and elapsed < 5.0)
    report(7, "1-D blocky deblurring at 30 dB", ok,
           f"{res.iterations} iters, rel {rel_noisy:.3f} -> {rel_map:.3f}, "
           f"{elapsed:.1f}s")


def test_criterion_08_vb_gibbs_agreement():
    t0 = time.perf_counter()
    lattice = LatticeSpec(1, 32)
    model = ModelSpec.build(lattice, gaussian_kernel(5, 1.25),
                            prior=LaplaceTV())
    truth = make_signal_1d("blocky", 32)
    rng = np.random.default_rng(8)
    y, _ = add_noise_bsnr(model.blur.matvec(truth), 30.0, rng)
    vb = vb_run(y, model)
    chain = gibbs_run(y, model, GibbsOptions(seed=88, samples=10_000))
    rel = float(np.linalg.norm(vb.x_mean - chain.x_mean)
                / np.linalg.norm(chain.x_mean))
    elapsed = time.perf_counter() - t0
    report(8, "VB matches the Gibbs posterior mean (N=32, 10^4 kept)",
           rel <= 0.05 and elapsed < 60.0, f"rel {rel:.4f}, {elapsed:.1f}s")


def test_criterion_09_gibbs_conditional_correctness():
    lattice = LatticeSpec(1, 32)
    model = ModelSpec.build(lattice, gaussian_kernel(5, 1.25),
                            prior=LaplaceTV())
    truth = make_signal_1d("blocky", 32)
    rng = np.random.default_rng(9)
    y, _ = add_noise_bsnr(model.blur.matvec(truth), 30.0, rng)
    state = initial_state(y, model)
    state.lam, state.nu = 50.0, 200.0
    errs = []
    # latent-scale conditional
    cond_r = conditional_params(state, y, model, ("r", 5))
    draws = gig_sample(cond_r, np.random.default_rng(90), size=100_000)
    errs.append(abs(draws.mean() - gig_moment(cond_r, 1))
                / gig_moment(cond_r, 1))
    errs.append(abs(draws.var(ddof=1) - gig_variance(cond_r))
                / gig_variance(cond_r))
    # gamma conditionals
    sampler = np.random.default_rng(91)
    for which in ("nu", "lambda"):
        cond = conditional_params(state, y, model, which)
        g = sampler.gamma(cond.shape, 1.0 / cond.rate, size=100_000)
        errs.append(abs(g.mean() - cond.mean) / cond.mean)
        errs.append(abs(g.var(ddof=1) - cond.variance) / cond.variance)
    worst = max(errs)
    report(9, "single-site conditional draws match closed-form moments",
           worst <= 0.01, f"worst rel err {worst:.4f}")


def test_criterion_10_2d_runs():
    # 42x42 committed pattern
    t0 = time.perf_counter()
    lattice = LatticeSpec(42, 42)
    model = ModelSpec.build(lattice, gaussian_kernel(7, 1.75),
                            prior=LaplaceTV())
    truth = lattice.to_stacked(make_image_2d("blocks42"))
    rng = np.random.default_rng(10)
    y, _ = add_noise_bsnr(model.blur.matvec(truth), 40.0, rng)
    res = ias_run(y, model)
    gain = metrics(res.x, truth)["psnr"] - metrics(y, truth)["psnr"]
    t_small = time.perf_counter() - t0
    assert gain >= 2.0 and t_small < 60.0, (gain, t_small)

    # 200x200 phantom completes through the iterative solver. Mask width
    # 1.0: wider masks push this mostly-flat image into the documented
    # blank-image divergence mode of the improper-prior posterior.
    t0 = time.perf_counter()
    lattice = LatticeSpec(200, 200)
    model = ModelSpec.build(lattice, gaussian_kernel(7, 1.0),
                            prior=LaplaceTV())
    truth = lattice.to_stacked(make_image_2d("shepp_logan"))
    rng = np.random.default_rng(10)
    y, _ = add_noise_bsnr(model.blur.matvec(truth), 40.0, rng)
    res_big = ias_run(y, model)
    t_big = time.perf_counter() - t0
    assert np.all(np.isfinite(res_big.x))
    report(10, "2-D runs: 42x42 gain and 200x200 completion",
           gain >= 2.0 and t_small < 60.0 and t_big < 600.0,
           f"gain {gain:.1f} dB in {t_small:.1f}s; "
           f"200x200 {res_big.iterations} iters in {t_big:.0f}s")


def test_criterion_11_student_gaussian_limit():
    lattice = LatticeSpec(1, 100)
    model = ModelSpec.build(lattice, gaussian_kernel(7, 1.75),
                            prior=StudentTV(1e6))
    truth = make_signal_1d("blocky_smooth", 100)
    rng = np.random.default_rng(11)
    y, _ = add_noise_bsnr(model.blur.matvec(truth), 40.0, rng)
    res = ias_run(y, model)
    best = math.inf
    for delta in np.geomspace(1e-8, 1e2, 81):
        xt = tikhonov_baseline(y, model.blur, model.diff, delta)
        best = min(best, float(np.linalg.norm(res.x - xt)
                               / np.linalg.norm(xt)))
    report(11, "Student-t prior at w=1e6 lands on the Tikhonov family",
           best <= 0.05, f"best rel distance {best:.4f}")


def test_criterion_12_solver_correctness():
    rng = np.random.default_rng(12)
    worst = 0.0
    for n in (10, 50, 120, 200):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = (q * np.geomspace(1.0, 1e4, n)) @ q.T
        rhs = rng.normal(size=n)
        sol = pcg_solve(lambda v, mv: a @ v, rhs, tol=1e-12, maxit=20 * n)
        want = np.linalg.solve(a, rhs)
        worst = max(worst, float(np.linalg.norm(sol.x - want)
                                 / np.linalg.norm(want)))
    assert worst <= 1e-8
    # precision-factor draws reproduce the target covariance
    a = np.array([[3.0, 0.8, 0.2], [0.8, 2.0, -0.4], [0.2, -0.4, 1.5]])
    f = SpdFactor(a)
    ndraw = 100_000
    draws = f.sample_precision(np.zeros(3), np.random.default_rng(120),
                               size=ndraw)
    cov = np.linalg.inv(a)
    cov_hat = np.cov(draws)
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / ndraw)
    cov_ok = bool(np.all(np.abs(cov_hat - cov) <= 3.0 * se))
    report(12, "PCG vs dense solves; factor-draw covariance", cov_ok,
           f"worst solve rel err {worst:.2e}")
