"""Estimator tests: ascent/fixed-point behaviour of the MAP iteration,
mean-field consistency, sampler correctness, and the quadratic baseline."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import tvbayes.estimators as est
from tvbayes.distributions import (
    GigParams,
    gig_log_pdf,
    gig_mode_batch,
    gig_moment,
    gig_variance,
)
from tvbayes.errors import (
    CapacityError,
    DivergenceError,
    NonFiniteError,
    NotSpdError,
    PcgError,
)
from tvbayes.estimators import (
    GibbsOptions,
    IasOptions,
    VbOptions,
    gibbs_run,
    ias_run,
    initial_state,
    tikhonov_baseline,
    vb_run,
)
from tvbayes.harness import (
    add_noise_bsnr,
    make_image_2d,
    make_signal_1d,
    metrics,
)
from tvbayes.model import (
    GammaParams,
    HyperParams,
    Laplace2D,
    LaplaceTV,
    LatentState,
    ModelSpec,
    StudentTV,
    conditional_params,
    lambda_conditional,
    row_weights_from_r,
    x_statistics,
)
from tvbayes.operators import (
    GCV_DELTAS,
    BlurOperator,
    DiffOperator,
    LatticeSpec,
    check_positive,
    circulant_gram_precond,
    dense_gram,
    gaussian_kernel,
    gcv_delta,
    gcv_scores,
    weighted_gram_matvec,
)
from tvbayes.solvers import SpdFactor, pcg_solve


def signal_problem(n=48, bsnr=30.0, seed=0, prior=None, kernel=(7, 1.75)):
    lattice = LatticeSpec(1, n)
    model = ModelSpec.build(lattice, gaussian_kernel(*kernel),
                            prior=prior if prior is not None else LaplaceTV())
    truth = make_signal_1d("blocky", n)
    rng = np.random.default_rng(seed)
    y, sigma = add_noise_bsnr(model.blur.matvec(truth), bsnr, rng)
    return model, truth, y


def r_mode(a, bprime, p_cond):
    """IAS's latent-scale step: the GIG mode per latent, checked positive
    finite."""
    return check_positive(gig_mode_batch(a, bprime, p_cond), "r")


def hty_start(y, model):
    """The H'y start that ``initial_state`` builds when these tests were
    written: x0 = H'y, r0 the mixing mean, nu0 = N / ||y - H x0||^2 and
    lambda0 the mode of its conditional. Tests of the H'y collapse pass it
    as ``init``, so they keep that collapse whatever the default start
    becomes."""
    x0 = model.blur.rmatvec(y)
    r0 = np.full(model.n_latents, gig_moment(model.prior.mixing, 1))
    sq_resid, dx2 = x_statistics(x0, y, model)
    lam0 = lambda_conditional(
        float(np.sum(dx2 * row_weights_from_r(r0, model))), model).mode
    return LatentState(x0, model.n_pixels / sq_resid, lam0, r0)


def update_spy(monkeypatch):
    """Records every VB sweep that returns, in order, as ((nu, lambda,
    E(1/r), x, iteration) at its input, its output); a warm sweep's output
    has no ``x_var``."""
    calls = []

    def update(x_factor, y, model, *point, _fn=est._vb_update):
        out = _fn(x_factor, y, model, *point)
        calls.append((point, out))
        return out

    monkeypatch.setattr(est, "_vb_update", update)
    return calls


def random_blocks(k, rng):
    """Random piecewise-constant image: a few rectangles on a background."""
    img = np.full((k, k), 0.1)
    for _ in range(3):
        r0, c0 = rng.integers(0, k - 2, size=2)
        r1 = rng.integers(r0 + 2, k + 1)
        c1 = rng.integers(c0 + 2, k + 1)
        img[r0:r1, c0:c1] = rng.uniform(0.3, 1.0)
    return img


# Mildly informative hyperpriors for small-lattice runs: the improper
# default makes the 8x8 joint posterior unbounded along lambda -> inf (the
# divergence mode the guard exists for), so fixed points need proper tails.
STABLE_HYPER = HyperParams(alpha_lambda=2.0, beta_lambda=0.01,
                           alpha_nu=2.0, beta_nu=1e-4)


def image_problem(k=8, seed=0, prior=None, bsnr=40.0, hyper=None):
    lattice = LatticeSpec(k, k)
    model = ModelSpec.build(lattice, gaussian_kernel(3, 0.75),
                            prior=prior if prior is not None else LaplaceTV(),
                            hyper=hyper)
    rng = np.random.default_rng(seed)
    truth = lattice.to_stacked(random_blocks(k, rng))
    y, _ = add_noise_bsnr(model.blur.matvec(truth), bsnr, rng)
    return model, truth, y


class TestInitialState:
    def test_laplace_prior_mean(self):
        model, _, y = signal_problem()
        state = initial_state(y, model)
        state.validate(model)
        # GIG(2, 0.001, 1) mean is within a hair of the Exp(1) mean
        assert state.r[0] == pytest.approx(1.0, rel=5e-3)

    def test_student_w2_mode_fallback(self):
        # InvGamma(1, 1) mixing has no mean; init falls back to the mode 1/2
        model, _, y = signal_problem(prior=StudentTV(2.0))
        state = initial_state(y, model)
        assert state.r[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("run", [
        lambda y, model: ias_run(y, model),
        lambda y, model: vb_run(y, model),
        lambda y, model: gibbs_run(y, model, GibbsOptions(seed=1, samples=5)),
    ], ids=["ias", "vb", "gibbs"])
    def test_one_adjoint_per_default_start_run(self, run, monkeypatch):
        # H'y is formed once: the right-hand side of the x-systems, and of
        # the start's Tikhonov solve (IAS: the start x0 itself)
        from tvbayes.operators import BlurOperator
        calls = []
        rmatvec = BlurOperator.rmatvec

        def counted(self, x):
            calls.append(1)
            return rmatvec(self, x)

        monkeypatch.setattr(BlurOperator, "rmatvec", counted)
        model, _, y = signal_problem()
        run(y, model)
        assert len(calls) == 1

    def test_ias_keeps_the_hty_start(self):
        # only IAS starts from x0 = H'y; everything it returns is as from
        # that start passed explicitly
        for model, _, y in (signal_problem(),
                            image_problem(hyper=STABLE_HYPER)):
            res = ias_run(y, model)
            want = ias_run(y, model, IasOptions(init=hty_start(y, model)))
            for name in ("x", "trace", "substep_logposts"):
                np.testing.assert_array_equal(getattr(res, name),
                                              getattr(want, name))

    def test_vb_and_gibbs_start_from_initial_state(self, monkeypatch):
        model, _, y = signal_problem()
        calls = update_spy(monkeypatch)
        res = vb_run(y, model)
        assert res.warm_sweeps >= 1 and res.discarded_sweeps == 0
        assert len(calls) == res.warm_sweeps + res.iterations
        # the warm stage starts from the GCV start
        start = initial_state(y, model)
        nu, lam, e_inv_r, x, it = calls[0][0]
        assert (nu, lam, it) == (start.nu, start.lam, 1)
        np.testing.assert_array_equal(e_inv_r, 1.0 / start.r)
        np.testing.assert_array_equal(x, start.x)
        # and the dense sweeps start where it ends, bit for bit
        warm = calls[res.warm_sweeps - 1][1]
        nu, lam, e_inv_r, x, it = calls[res.warm_sweeps][0]
        assert warm.x_var is None
        assert calls[res.warm_sweeps][1].x_var is not None
        assert (nu, lam, it) == (warm.nu_mean, warm.lam_mean, 1)
        np.testing.assert_array_equal(e_inv_r, warm.e_inv_r)
        np.testing.assert_array_equal(x, warm.x_mean)
        opts = GibbsOptions(seed=3, samples=20, burn_in=5)
        chain = gibbs_run(y, model, opts)
        want = gibbs_run(y, model, replace(opts, init=initial_state(y, model)))
        for name in ("x_mean", "nu_trace", "lam_trace"):
            np.testing.assert_array_equal(getattr(chain, name),
                                          getattr(want, name))

    def test_ias_result_starts_any_engine(self):
        # the IAS result is its last sweep's LatentState: as an init it
        # starts VB and Gibbs as its latent_state() copy does, bit for bit,
        # and neither engine writes to it
        model, _, y = signal_problem()
        res = ias_run(y, model)
        assert isinstance(res, LatentState)
        x, r = res.x.copy(), res.r.copy()
        for run, names in (
                (lambda init: vb_run(y, model, VbOptions(init=init)),
                 ("x_mean", "x_var", "trace")),
                (lambda init: gibbs_run(y, model, GibbsOptions(
                    seed=3, samples=20, burn_in=5, init=init)),
                 ("x_mean", "nu_trace", "lam_trace"))):
            got, want = run(res), run(res.latent_state())
            for name in names:
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name))
        np.testing.assert_array_equal(res.x, x)
        np.testing.assert_array_equal(res.r, r)

    def test_default_vb_run_solves_by_cg_in_warm_sweeps_only(self,
                                                            monkeypatch):
        # one CG solve per warm sweep, none in the dense sweeps, and one
        # preconditioner apply per CG iteration: the counts the benchmark's
        # span cross-checks read
        counts = {"solves": 0, "cg_iterations": 0, "applies": 0}

        def solve(*args, _fn=est.pcg_solve, **kwargs):
            sol = _fn(*args, **kwargs)
            counts["solves"] += 1
            counts["cg_iterations"] += sol.iterations
            return sol

        def precond(*args, _fn=est.circulant_gram_precond, **kwargs):
            apply = _fn(*args, **kwargs)

            def counted(v):
                counts["applies"] += 1
                return apply(v)
            return counted

        monkeypatch.setattr(est, "pcg_solve", solve)
        monkeypatch.setattr(est, "circulant_gram_precond", precond)
        model, _, y = image_problem()
        res = vb_run(y, model)
        assert res.converged and res.warm_sweeps >= 1
        assert counts["solves"] == res.warm_sweeps
        assert counts["applies"] == counts["cg_iterations"] > 0
        # an explicit start skips the warm stage
        counts["solves"] = 0
        vb_run(y, model, VbOptions(init=initial_state(y, model)))
        assert counts["solves"] == 0


class TestGcvStart:
    """The GCV score on the Fourier grid against a dense oracle, and the
    start's x0 at the chosen weight."""

    ASYMMETRIC = np.array([[0.0, 0.1, 0.0],
                           [0.05, 0.6, 0.2],
                           [0.0, 0.05, 0.0]])

    # odd n, even n, and a 1-D lattice: only the first rfft column and, for
    # even n, the last count once
    @pytest.fixture(params=[(5, 7), (4, 6), (1, 16)],
                    ids=["odd_n", "even_n", "1d"])
    def lattice(self, request):
        return LatticeSpec(*request.param)

    @pytest.fixture(params=["gaussian", "asymmetric"])
    def model(self, request, lattice):
        kernel = (gaussian_kernel(3, 0.8) if request.param == "gaussian"
                  else self.ASYMMETRIC)
        return ModelSpec.build(lattice, kernel)

    @staticmethod
    def dense_scores(model, y):
        """N ||(I - A) y||^2 / tr(I - A)^2 from the dense H and D.

        A = H (H'H + delta D'D)^{-1} H' is the data block of the projection
        onto the columns of K = [H; sqrt(delta) D], so I - A is that block
        of the projection onto their orthogonal complement, U U' for the
        data rows U of the complement's columns in K's complete QR. Formed
        so, I - A keeps its digits where A is near I; I - A itself loses
        them at the smallest weights."""
        hd, dd = model.blur.to_dense(), model.diff.to_dense()
        n = model.n_pixels
        scores = []
        for delta in GCV_DELTAS:
            k = np.vstack((hd, np.sqrt(delta) * dd))
            u = np.linalg.qr(k, mode="complete")[0][:n, n:]
            resid = u @ (u.T @ y)
            scores.append(n * (resid @ resid) / np.sum(u * u) ** 2)
        return np.array(scores)

    def test_scores_match_the_dense_oracle(self, model):
        y = np.random.default_rng(30).uniform(size=model.n_pixels)
        np.testing.assert_allclose(gcv_scores(model.blur, model.diff, y),
                                   self.dense_scores(model, y),
                                   rtol=1e-10, atol=0)

    def test_start_is_tikhonov_at_the_argmin(self, model):
        # a blurred smooth image at 10 dB, whose argmin is inside the grid
        lattice = model.lattice
        i, j = np.indices((lattice.k, lattice.n))
        truth = lattice.to_stacked(np.cos(2 * np.pi * i / lattice.k)
                                   + np.cos(2 * np.pi * j / lattice.n))
        y, _ = add_noise_bsnr(model.blur.matvec(truth), 10.0,
                              np.random.default_rng(31))
        scores = self.dense_scores(model, y)
        assert 0 < np.argmin(scores) < len(GCV_DELTAS) - 1
        delta = gcv_delta(model.blur, model.diff, y)
        assert delta == GCV_DELTAS[np.argmin(scores)]
        np.testing.assert_array_equal(
            initial_state(y, model).x,
            tikhonov_baseline(y, model.blur, model.diff, delta))

    @pytest.mark.parametrize("n, seed, log_delta", [(64, 5, -3.5),
                                                     (32, 22, -8.0)])
    def test_least_interior_minimum_before_the_edge(self, n, seed,
                                                    log_delta):
        # 1-D blocky at 30 dB: at N=64, seed 5 the score is least at the
        # lower edge, 1e-8, but has an interior local minimum, which is
        # taken; at N=32, seed 22 it has none, and the edge is taken
        model, _, y = signal_problem(n=n, bsnr=30.0, seed=seed)
        assert np.argmin(gcv_scores(model.blur, model.diff, y)) == 0
        assert gcv_delta(model.blur, model.diff, y) == pytest.approx(
            10.0 ** log_delta, rel=1e-12)

    def test_grid_is_quarter_decades(self):
        np.testing.assert_allclose(np.log10(GCV_DELTAS),
                                   np.arange(-8, 0.25, 0.25), atol=1e-12)


ENGINES = {
    "ias": lambda y, model, init: ias_run(y, model, IasOptions(init=init)),
    "vb": lambda y, model, init: vb_run(y, model, VbOptions(init=init)),
    "gibbs": lambda y, model, init: gibbs_run(
        y, model, GibbsOptions(seed=1, samples=5, init=init)),
}


class TestDataChecks:
    """Data y is checked on the lattice before any use: a NaN or infinite
    entry raises NonFiniteError naming y, a wrong length ValueError."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("with_init", [False, True],
                             ids=["default_start", "init"])
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_engines(self, engine, with_init, bad):
        model, _, y = signal_problem(n=16)
        init = initial_state(y, model) if with_init else None
        y[3] = bad
        with pytest.raises(NonFiniteError) as exc:
            ENGINES[engine](y, model, init)
        assert exc.value.where == "y"
        with pytest.raises(ValueError, match="y must have length 16"):
            ENGINES[engine](y[:-1], model, init)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [
        lambda y, model: tikhonov_baseline(y, model.blur, model.diff, 0.1),
        lambda y, model: initial_state(y, model),
    ], ids=["tikhonov", "initial_state"])
    def test_baseline_and_start(self, call, bad):
        model, _, y = signal_problem(n=16)
        y[3] = bad
        with pytest.raises(NonFiniteError) as exc:
            call(y, model)
        assert exc.value.where == "y"
        with pytest.raises(ValueError, match="y must have length 16"):
            call(y[:-1], model)


    @pytest.mark.parametrize("engine", [*sorted(ENGINES), "initial_state"])
    def test_all_zero_data_raise_at_the_start(self, engine):
        # y'y = 0 leaves no data-driven start: nu0's residual floor is 0
        model, _, y = signal_problem(n=16)
        call = ENGINES.get(engine,
                           lambda y, model, init: initial_state(y, model))
        with pytest.raises(NonFiniteError) as exc:
            call(np.zeros_like(y), model, None)
        assert exc.value.where == "y'y" and exc.value.iteration is None


def blocks16_problem():
    """16 x 16 blocks42 under a 5 x 5 mask (sigma 1.25) at 40 dB, noise
    seed 10: y'y = 33.9."""
    lattice = LatticeSpec(16, 16)
    model = ModelSpec.build(lattice, gaussian_kernel(5, 1.25),
                            prior=LaplaceTV())
    truth = lattice.to_stacked(make_image_2d("blocks42", 16))
    y, _ = add_noise_bsnr(model.blur.matvec(truth), 40.0,
                          np.random.default_rng(10))
    return model, truth, y


class TestScaleEquivariance:
    """y -> c y scales x by c and nu and lambda by 1/c^2, with the same
    sweep counts, at scales where the lambda guard does not act: neither
    the start nor an engine has a unit of its own."""

    # each engine's run, and its result as (x, nu, lambda, sweep counts)
    RUNS = {
        "ias": (lambda y, model: ias_run(y, model),
                lambda res: (res.x, res.nu, res.lam, res.iterations)),
        "vb": (lambda y, model: vb_run(y, model),
               lambda res: (res.x_mean, res.nu_mean, res.lam_mean,
                            (res.warm_sweeps, res.iterations))),
        "gibbs": (lambda y, model: gibbs_run(y, model, GibbsOptions(
                      seed=2, samples=40)),
                  lambda res: (res.x_mean, res.nu_trace, res.lam_trace,
                               res.n_sweeps)),
    }

    @pytest.mark.parametrize("engine, problem, c", [
        *[(engine, "signal", c) for engine in ("ias", "vb", "gibbs")
          for c in (1e-3, 1e3)],
        # at c = 3e-5, y'y = 3.1e-8: a floor on nu0's residual that is not
        # relative to y'y sets nu0 here
        *[("vb", "blocks16", c) for c in (1e-3, 1e3, 3e-5)]])
    def test_scaled_data_scale_the_result(self, engine, problem, c):
        model, _, y = (signal_problem(n=64, seed=4) if problem == "signal"
                       else blocks16_problem())
        run, read = self.RUNS[engine]
        x, nu, lam, counts = read(run(y, model))
        x_c, nu_c, lam_c, counts_c = read(run(c * y, model))
        assert counts_c == counts
        assert np.linalg.norm(x_c / c - x) <= 1e-9 * np.linalg.norm(x)
        np.testing.assert_allclose(np.multiply(nu_c, c * c), nu, rtol=1e-9)
        np.testing.assert_allclose(np.multiply(lam_c, c * c), lam, rtol=1e-9)


class TestIasUpdates:
    def test_laplace_r_formula(self):
        # exact Laplace, lambda * diff^2 = 2: mode -1/4 + 1/4 sqrt(1+8) = 1/2
        model, _, _ = signal_problem(n=16, prior=LaplaceTV(safeguard_b=0.0))
        x = np.zeros(16)
        x[0] = 1.0  # two unit differences under periodic wrap
        state = LatentState(x, 1.0, 2.0, np.ones(16))
        cond = conditional_params(state, np.zeros(16), model, ("r", 0))
        grid = np.linspace(1e-3, 3.0, 20001)
        dens = [gig_log_pdf(cond, g) for g in grid]
        assert grid[int(np.argmax(dens))] == pytest.approx(0.5, abs=2e-4)
        got = r_mode(cond.a, np.array([cond.b]), cond.p)[0]
        assert got == pytest.approx(0.5, rel=1e-12)

    def test_safeguard_keeps_r_positive(self):
        # zero difference with the safeguarded mixing: strictly positive mode
        bprime = np.array([0.001])  # lambda * 0 / 2 + b
        got = r_mode(2.0, bprime, 0.5)[0]
        want = (-0.5 + np.sqrt(0.25 + 2.0 * 0.001)) / 2.0
        assert got == pytest.approx(want, rel=1e-12)
        assert got > 0
        # cross-check by maximising the conditional density
        cond = GigParams(2.0, 0.001, 0.5)
        grid = np.geomspace(1e-6, 1.0, 200001)
        dens =  0.0 * grid
        dens = np.array([gig_log_pdf(cond, g) for g in grid])
        assert grid[int(np.argmax(dens))] == pytest.approx(got, rel=1e-2)

    def test_student_a0_mode_branch(self):
        # InvGamma branch: b'/(2 (1 - p'))
        bprime = np.array([3.0])
        p_cond = -1.5 - 0.5  # w = 3 per-edge conditional index
        got = r_mode(0.0, bprime, p_cond)[0]
        assert got == pytest.approx(3.0 / (2.0 * 3.0), rel=1e-14)

    def test_identity_blur_small_penalty_fixed_point(self):
        # H = I, penalty weight pushed to ~0: the x update returns y
        lattice = LatticeSpec(1, 32)
        model = ModelSpec.build(lattice, np.ones((1, 1)))
        rng = np.random.default_rng(1)
        y = rng.uniform(size=32)
        init = LatentState(y.copy(), 1.0, 1e-10, np.ones(32))
        res = ias_run(y, model, IasOptions(maxit=1, init=init))
        np.testing.assert_allclose(res.x, y, atol=1e-8)


class TestIasRuns:
    @pytest.mark.parametrize("prior", [LaplaceTV(), StudentTV(2.0), Laplace2D()])
    def test_ascent_8x8(self, prior):
        model, truth, y = image_problem(prior=prior, hyper=STABLE_HYPER)
        res = ias_run(y, model, IasOptions(pcg_tol=1e-12))
        assert res.converged
        logs = res.substep_logposts.ravel()
        dips = np.diff(logs)
        slack = 1e-8 * np.maximum(1.0, np.abs(logs[:-1]))
        assert np.all(dips >= -slack)

    def test_ascent_holds_while_diverging(self):
        # improper hyperpriors at this size walk into the unbounded lambda
        # direction from the H'y start, passed explicitly so the collapse
        # does not rest on the default start; the trace must still be
        # monotone up to the guard
        model, truth, y = image_problem(prior=LaplaceTV())
        init = hty_start(y, model)
        res = ias_run(y, model, IasOptions(pcg_tol=1e-12, maxit=3, init=init))
        logs = res.substep_logposts.ravel()
        assert np.all(np.diff(logs) >= -1e-8 * np.maximum(1.0,
                                                          np.abs(logs[:-1])))
        with pytest.raises(DivergenceError):
            ias_run(y, model, IasOptions(init=init))

    def test_fixed_point_consistency(self):
        model, truth, y = signal_problem()
        opts = IasOptions(tol=1e-10, pcg_tol=1e-12, maxit=500)
        res = ias_run(y, model, opts)
        assert res.converged
        # nu, lambda, r match their conditional-mode formulas at termination
        cond_nu = conditional_params(res.latent_state(), y, model, "nu")
        assert res.nu == pytest.approx(cond_nu.mode, rel=1e-10)
        cond0 = conditional_params(res.latent_state(), y, model, ("r", 3))
        want = r_mode(cond0.a, np.array([cond0.b]), cond0.p)[0]
        assert res.r[3] == pytest.approx(want, rel=1e-10)

    def test_deblurring_beats_noisy_input(self):
        model, truth, y = signal_problem(n=100, bsnr=30.0, seed=3)
        res = ias_run(y, model)
        rel = lambda a: np.linalg.norm(a - truth) / np.linalg.norm(truth)
        assert res.iterations <= 200
        assert rel(res.x) <= 0.5 * rel(y)

    def test_first_sweep_never_converges(self):
        # criterion 8's problem from a start whose x already solves the
        # first x-system: CG takes no step and that sweep's x change is 0,
        # but it is measured from the start, not from a sweep's output, so
        # the run goes on to the default run's fixed point
        model, _, y = signal_problem(n=32, bsnr=30.0, seed=8,
                                     kernel=(5, 1.25))
        init = initial_state(y, model)
        init.x = conditional_params(init, y, model, "x").mean
        res = ias_run(y, model, IasOptions(init=init))
        assert res.trace[0, 1] == 0.0
        assert res.converged and res.iterations > 1
        assert res.lam == pytest.approx(ias_run(y, model).lam, rel=1e-3)

    def test_trace_length_matches_iterations(self):
        model, _, y = signal_problem()
        res = ias_run(y, model)
        assert res.trace.shape == (res.iterations, 4)

    def test_default_run_scores_every_substep(self):
        # criterion 7's problem with default options: the sub-step record
        # is always kept, ends each row at the trace's log-posterior and
        # never dips by more than criterion 6's slack
        model, _, y = signal_problem(n=100, bsnr=30.0, seed=7)
        res = ias_run(y, model)
        logs = res.substep_logposts
        assert logs.shape == (res.iterations, 4)
        np.testing.assert_array_equal(logs[:, -1], res.trace[:, 0])
        flat = logs.ravel()
        dips = -np.diff(flat) / np.maximum(1.0, np.abs(flat[:-1]))
        assert np.all(dips <= 1e-8)

    def test_divergence_guard(self):
        # near-constant data starves the penalty denominator: lambda blows up
        lattice = LatticeSpec(1, 64)
        model = ModelSpec.build(lattice, gaussian_kernel(7, 1.75))
        rng = np.random.default_rng(4)
        y = 1.0 + 1e-9 * rng.standard_normal(64)
        with pytest.raises(DivergenceError) as exc:
            ias_run(y, model)
        assert exc.value.mode == "blank_image"


class TestForcingTerm:
    """Each IAS x-step is solved to ``pcg_tol`` until the x change drops
    below the gate, then to 0.1 x the last change; a converged run ends on
    a tight sweep."""

    @pytest.fixture
    def tolerances(self, monkeypatch):
        tols = []

        def recorded(*args, **kwargs):
            tols.append(kwargs["tol"])
            return pcg_solve(*args, **kwargs)

        monkeypatch.setattr(est, "pcg_solve", recorded)
        return tols

    @pytest.mark.parametrize("problem", [
        lambda: signal_problem(n=100, bsnr=30.0, seed=7),  # criterion 7
        lambda: image_problem(hyper=STABLE_HYPER),
    ], ids=["blocky", "8x8"])
    def test_loose_only_after_a_small_change(self, problem, tolerances):
        model, _, y = problem()
        opts = IasOptions()
        res = ias_run(y, model, opts)
        assert res.converged
        tols = np.array(tolerances)
        assert len(tols) == res.iterations
        assert np.all((tols >= opts.pcg_tol) & (tols <= 1e-4))
        loose = tols > opts.pcg_tol
        # the gate opens on both problems
        assert loose.any() and not loose[0]
        # sweep i's tolerance follows sweep i - 1's change
        prev_rel = res.trace[:-1, 1]
        assert np.all(prev_rel[loose[1:]] < 1e-3)
        np.testing.assert_array_equal(tols[1:][loose[1:]],
                                      0.1 * prev_rel[loose[1:]])
        assert tols[-1] == opts.pcg_tol

    def test_collapse_never_opens_the_gate(self, tolerances, monkeypatch):
        # test_ascent_holds_while_diverging's problem and H'y start: its x
        # change stays above the gate up to the divergence
        model, _, y = image_problem(prior=LaplaceTV())
        init = hty_start(y, model)
        opts = IasOptions(pcg_tol=1e-12, maxit=3, init=init)
        res = ias_run(y, model, opts)
        with pytest.raises(DivergenceError):
            ias_run(y, model, IasOptions(init=init))
        assert tolerances[:3] == [1e-12] * 3
        assert set(tolerances[3:]) == {IasOptions().pcg_tol}
        monkeypatch.setattr(est, "_FORCING_GATE", 0.0)
        closed = ias_run(y, model, opts)
        for name in ("x", "trace", "substep_logposts"):
            assert np.array_equal(getattr(res, name), getattr(closed, name))

    def test_loose_sweep_below_tol_runs_on_tight(self, tolerances):
        # criterion 7's problem: a loose solve that its start x already meets
        # leaves x unchanged (change 0 < tol), and the run goes on tight
        model, _, y = signal_problem(n=100, bsnr=30.0, seed=7)
        opts = IasOptions()
        res = ias_run(y, model, opts)
        stalled = np.flatnonzero(res.trace[:, 1] < opts.tol)
        assert stalled[0] < res.iterations - 1
        assert tolerances[stalled[0]] > opts.pcg_tol
        assert set(tolerances[stalled[0] + 1:]) == {opts.pcg_tol}


@pytest.mark.parametrize("lam, mode", [(1e13, "blank_image"),
                                       (1e-13, "no_op")],
                         ids=["lam_1e13", "lam_1e-13"])
@pytest.mark.parametrize("engine", [
    lambda y, model, init: ias_run(y, model, IasOptions(init=init)),
    lambda y, model, init: vb_run(y, model, VbOptions(init=init)),
    lambda y, model, init: gibbs_run(y, model, GibbsOptions(samples=5,
                                                            init=init)),
], ids=["ias", "vb", "gibbs"])
def test_start_lambda_outside_the_guard(engine, lam, mode):
    model, _, y = signal_problem(n=16)
    init = initial_state(y, model)
    init.lam = lam
    with pytest.raises(DivergenceError) as exc:
        engine(y, model, init)
    assert (exc.value.mode, exc.value.iteration) == (mode, 0)


class TestSharedConditionals:
    """Every engine takes nu, lambda and b' from the model's builders."""

    BUILDERS = ("nu_conditional", "lambda_conditional", "r_conditional_b")

    @pytest.fixture
    def problem(self, monkeypatch):
        import tvbayes.estimators as est
        model, _, y = signal_problem()
        init = initial_state(y, model)
        calls = {name: [] for name in self.BUILDERS}
        for name, out in calls.items():
            def record(*args, _fn=getattr(est, name), _out=out, **kwargs):
                _out.append(_fn(*args, **kwargs))
                return _out[-1]
            monkeypatch.setattr(est, name, record)
        return model, y, init, calls

    def counts(self, calls):
        return [len(calls[name]) for name in self.BUILDERS]

    def test_ias_takes_the_modes(self, problem):
        model, y, init, calls = problem
        res = ias_run(y, model, IasOptions(init=init))
        assert self.counts(calls) == [res.iterations] * 3
        assert res.nu == calls["nu_conditional"][-1].mode
        assert res.lam == calls["lambda_conditional"][-1].mode

    def test_vb_takes_the_rates(self, problem):
        model, y, init, calls = problem
        res = vb_run(y, model, VbOptions(init=init))
        assert self.counts(calls) == [res.iterations] * 3
        assert res.nu_rate == calls["nu_conditional"][-1].rate
        assert res.lam_rate == calls["lambda_conditional"][-1].rate
        np.testing.assert_array_equal(res.r_b, calls["r_conditional_b"][-1])

    def test_gibbs_draws_from_them(self, problem):
        model, y, init, calls = problem
        chain = gibbs_run(y, model, GibbsOptions(seed=2, samples=20,
                                                 burn_in=5, init=init))
        assert self.counts(calls) == [chain.n_sweeps] * 3


class TestSweepOptions:
    def test_rejects_bad_tol_and_maxit(self):
        model, _, y = signal_problem(n=16)
        for run, options in ((ias_run, IasOptions), (vb_run, VbOptions)):
            for bad in ({"tol": 0.0}, {"tol": np.inf}, {"tol": np.nan},
                        {"maxit": 0}):
                with pytest.raises(ValueError, match="tol"):
                    run(y, model, options(**bad))

    @pytest.mark.parametrize("bad", [np.inf, 5.0, 1.0, 0.0, -1.0, np.nan])
    def test_ias_rejects_pcg_tol_outside_unit_interval(self, bad):
        # a CG tolerance of 1 or more returns the start iterate untouched,
        # and one of 0 or less can never be met
        model, _, y = signal_problem(n=16)
        with pytest.raises(ValueError, match="pcg_tol"):
            ias_run(y, model, IasOptions(pcg_tol=bad))


class TestOneXPass:
    """Every engine reads ||y - Hx||^2 and (Dx)^2 from x_statistics, once
    per sweep, and applies the blur outside it nowhere."""

    @pytest.mark.parametrize("engine", ["ias", "vb", "gibbs"])
    def test_once_per_sweep(self, monkeypatch, engine):
        import tvbayes.estimators as est
        import tvbayes.model as model_mod
        from tvbayes.operators import BlurOperator
        model, _, y = signal_problem()
        init = initial_state(y, model)
        seen, blurs = [], []

        def record(x, *args, _fn=est.x_statistics):
            seen.append(x)
            return _fn(x, *args)

        def blur(self, *args, _fn=BlurOperator.matvec, **kwargs):
            blurs.append(self)
            return _fn(self, *args, **kwargs)
        # the engines' own binding and the one log_posterior reaches
        monkeypatch.setattr(est, "x_statistics", record)
        monkeypatch.setattr(model_mod, "x_statistics", record)
        monkeypatch.setattr(BlurOperator, "matvec", blur)
        if engine == "ias":
            res = ias_run(y, model, IasOptions(init=init))
            sweeps, x = res.iterations, res.x
        elif engine == "vb":
            res = vb_run(y, model, VbOptions(init=init))
            sweeps, x = res.iterations, res.x_mean
        else:
            res = gibbs_run(y, model, GibbsOptions(seed=2, samples=20,
                                                   burn_in=5, init=init))
            sweeps, x = res.n_sweeps, res.last_state.x
        assert len(seen) == len(blurs) == sweeps
        assert seen[-1] is x


class TestDenseGram:
    """VB, Gibbs and conditional_params take the x-system from one builder."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        import tvbayes.estimators as est
        from tvbayes.operators import DiffOperator
        calls = {"builds": 0, "matrices": 0, "dense_grams": 0}

        def record(*args, _fn=est.dense_gram):
            calls["builds"] += 1
            build = _fn(*args)

            def counted(*b_args):
                calls["matrices"] += 1
                return build(*b_args)
            return counted

        def dense_grams(self, *args, _fn=DiffOperator.weighted_gram_dense):
            calls["dense_grams"] += 1
            return _fn(self, *args)

        monkeypatch.setattr(est, "dense_gram", record)
        monkeypatch.setattr(DiffOperator, "weighted_gram_dense", dense_grams)
        return calls

    def test_vb_builds_once_and_factors_per_sweep(self, recorded):
        model, _, y = signal_problem()
        res = vb_run(y, model)
        assert recorded == {"builds": 1, "matrices": res.iterations,
                            "dense_grams": res.iterations}

    def test_gibbs_builds_once_and_factors_per_sweep(self, recorded):
        model, _, y = signal_problem()
        chain = gibbs_run(y, model, GibbsOptions(seed=2, samples=20,
                                                 burn_in=5))
        assert recorded == {"builds": 1, "matrices": chain.n_sweeps,
                            "dense_grams": chain.n_sweeps}

    def test_conditional_params_scales_the_builder(self):
        from tvbayes.model import row_weights_from_r
        from tvbayes.operators import dense_gram
        model, _, y = image_problem(k=6, prior=Laplace2D())
        state = initial_state(y, model)
        cond = conditional_params(state, y, model, "x")
        q = dense_gram(model.blur, model.diff)(
            state.lam / state.nu, row_weights_from_r(state.r, model))
        assert np.array_equal(cond.precision, state.nu * q)

    def test_nu_rate_trace_identity(self):
        # VB's nu rate takes tr(H'H Cov(x)) from the x-system identity; the
        # direct N x N trace is the oracle, over one sweep from VB's own
        # fixed point. The dominated case fixes nu at the H'y start's nu0
        # for its problem, so lambda0 does not follow the default start
        dominated = image_problem(k=8)
        init = initial_state(dominated[2], dominated[0])
        init.nu = 129.60533171527604
        init.lam = 1e4 * init.nu
        cases = [
            (signal_problem(n=32), None),
            (image_problem(k=6, seed=21, prior=StudentTV(2.0),
                           hyper=STABLE_HYPER), None),  # a = 0
            (image_problem(k=6, seed=21, prior=Laplace2D(),
                           hyper=STABLE_HYPER), None),  # pooled rows
            (dominated, init),  # lambda/nu = 1e4
        ]
        worst = 0.0
        for (model, _, y), start in cases:
            if start is None:
                start = vb_next_start(vb_run(y, model))
            res, cov = vb_sweep_with_cov(y, model, start)
            hd = model.blur.to_dense()
            resid = y - hd @ res.x_mean
            direct = 0.5 * (float(resid @ resid)
                            + float(np.sum(cov * (hd.T @ hd)))) \
                + model.hyper.beta_nu
            worst = max(worst, abs(res.nu_rate - direct) / direct)
        print(f"worst relative nu-rate difference {worst:.2e}")
        assert worst <= 1e-10


class TestVbCovariance:
    """A VB sweep reads diag(D Cov(x) D') and diag Cov(x) from L^{-T}, and
    the result keeps diag Cov(x); the dense inverse of the sweep's
    precision is the oracle."""

    def test_inverse_factor_per_sweep_gram_once(self, monkeypatch):
        calls = {"inverse_factor": 0, "inverse": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        for name in ("inverse_factor", "inverse"):
            monkeypatch.setattr(SpdFactor, name,
                                counted(name, getattr(SpdFactor, name)))
        model, _, y = signal_problem()
        res = vb_run(y, model)
        assert res.iterations > 1
        assert calls == {"inverse_factor": res.iterations, "inverse": 0}

    # one sweep from VB's fixed point, or from the default start
    @pytest.mark.parametrize("problem, fixed_point", [
        (lambda: signal_problem(), True),
        (lambda: image_problem(k=8), True),
        (lambda: image_problem(k=6, seed=21, prior=Laplace2D(),
                               hyper=STABLE_HYPER), True),
        (lambda: image_problem(k=6, prior=LaplaceTV()), False),
        (lambda: image_problem(k=6, prior=Laplace2D()), False),
    ], ids=["signal", "image", "pooled", "start-laplace-tv",
            "start-laplace-2d"])
    def test_x_var_is_the_covariance_diagonal(self, problem, fixed_point):
        model, _, y = problem()
        start = (vb_next_start(vb_run(y, model)) if fixed_point
                 else initial_state(y, model))
        res, cov = vb_sweep_with_cov(y, model, start)
        np.testing.assert_allclose(res.x_var, np.diag(cov), rtol=1e-12)
        np.testing.assert_allclose(res.x_std, np.sqrt(np.diag(cov)),
                                   rtol=1e-12)


class TestDenseFootprint:
    """VB and Gibbs keep one N x N array live: the sweep's precision, which
    becomes its factor and, in VB, L^{-T}. H'H is read from its 4N-float
    lag table. A VB result holds no N x N array, and the x-conditional of
    ``conditional_params`` peaks at one."""

    RUNS = {"vb": lambda y, model: vb_run(y, model),
            "gibbs": lambda y, model: gibbs_run(
                y, model, GibbsOptions(seed=3, samples=4, burn_in=2))}

    def peak_over_dense(self, engine):
        """Peak traced memory of a 24 x 24 run above its start, in units
        of one N x N float64 array."""
        model, _, y = image_problem(k=24)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            res = self.RUNS[engine](y, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sweeps = res.iterations if engine == "vb" else res.n_sweeps
        assert sweeps > 1
        return (peak - start) / (8 * model.n_pixels ** 2)

    @pytest.mark.parametrize("engine", sorted(RUNS))
    def test_peak_two_dense_arrays(self, engine):
        assert self.peak_over_dense(engine) <= 2.25

    @pytest.mark.parametrize("engine", sorted(RUNS))
    def test_peak_one_dense_array(self, engine):
        assert self.peak_over_dense(engine) <= 1.25

    def test_vb_result_holds_no_dense_array(self):
        model, _, y = image_problem(k=24)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            res = vb_run(y, model)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert res.iterations > 1
        assert (live - start) / (8 * model.n_pixels ** 2) < 0.05

    def test_conditional_params_x_peak_one_dense_array(self):
        model, _, y = image_problem(k=24)
        state = initial_state(y, model)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            cond = conditional_params(state, y, model, "x")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cond.precision.shape == (model.n_pixels,) * 2
        assert (peak - start) / (8 * model.n_pixels ** 2) <= 1.25


class TestVb:
    def test_rig_inverse_moment_identity(self):
        # E(1/r) of GIG(2, lam*E/2, 1/2) equals 2/sqrt(lam*E)
        for lam_e in np.geomspace(1e-6, 1e6, 25):
            got = gig_moment(GigParams(2.0, lam_e / 2.0, 0.5), -1)
            assert got == pytest.approx(2.0 / np.sqrt(lam_e), rel=1e-10)

    def test_factor_shapes_are_constants(self):
        model, truth, y = signal_problem(n=32)
        res = vb_run(y, model)
        assert res.nu_shape == 16.0
        assert res.lam_shape == 16.0  # M/2 for the 1-D circulant D
        assert res.converged

    def test_gamma_mean_formula(self):
        model, truth, y = signal_problem(n=32)
        res = vb_run(y, model)
        assert res.nu_mean == pytest.approx(res.nu_shape / res.nu_rate)

    def test_idempotent_at_convergence(self):
        model, truth, y = signal_problem(n=32)
        opts = VbOptions(tol=1e-10, maxit=500)
        res = vb_run(y, model, opts)
        assert res.converged
        again = vb_run(y, model, VbOptions(maxit=1, init=LatentState(
            res.x_mean.copy(), res.nu_mean, res.lam_mean,
            1.0 / res.e_inv_r.copy())))
        assert np.linalg.norm(again.x_mean - res.x_mean) <= \
            10 * opts.tol * np.linalg.norm(res.x_mean)

    def test_beats_the_noisy_input_on_shepp_logan_48(self):
        # the README's 48 x 48 example: from the H'y start VB reported
        # converged at a blank 13.3 dB, below the noisy input's 17.2 dB
        lattice = LatticeSpec(48, 48)
        model = ModelSpec.build(lattice, gaussian_kernel(7, 1.0))
        truth = lattice.to_stacked(make_image_2d("shepp_logan", 48))
        y, _ = add_noise_bsnr(model.blur.matvec(truth), 40.0,
                              np.random.default_rng(10))
        res = vb_run(y, model)
        psnr = lambda x: metrics(x, truth)["psnr"]
        assert res.converged
        assert psnr(res.x_mean) > psnr(y) + 5.0

    @pytest.mark.parametrize("seed", [5, 14])
    def test_beats_the_noisy_input_where_gcv_falls_to_the_edge(self, seed):
        # 1-D blocky, N=64, 30 dB: the GCV score's least value is at the
        # grid's lower edge, whose start fits the noise; from there VB
        # reported converged at -0.65 dB (seed 5) and -3.56 dB (seed 14)
        model, truth, y = signal_problem(n=64, bsnr=30.0, seed=seed)
        res = vb_run(y, model)
        assert res.converged
        assert metrics(res.x_mean, truth)["psnr"] > metrics(y, truth)["psnr"]

    def test_capacity_gate(self):
        lattice = LatticeSpec(80, 80)
        model = ModelSpec.build(lattice, gaussian_kernel(3, 0.75))
        with pytest.raises(CapacityError):
            vb_run(np.zeros(6400), model)

    @pytest.mark.parametrize("prior", [Laplace2D(), StudentTV(2.0)])
    def test_agrees_with_gibbs_other_layouts(self, prior):
        # the pooled per-pixel layout and the a = 0 moment paths, end to end
        model, truth, y = image_problem(k=6, seed=21, prior=prior,
                                        hyper=STABLE_HYPER)
        vb = vb_run(y, model)
        chain = gibbs_run(y, model, GibbsOptions(seed=22, samples=3000))
        rel = np.linalg.norm(vb.x_mean - chain.x_mean) / \
            np.linalg.norm(chain.x_mean)
        assert rel <= 0.1

    def test_matches_gibbs_mean(self):
        model, truth, y = signal_problem(n=32, bsnr=30.0, seed=5,
                                         kernel=(5, 1.25))
        vb = vb_run(y, model)
        chain = gibbs_run(y, model, GibbsOptions(seed=11, samples=4000))
        rel = np.linalg.norm(vb.x_mean - chain.x_mean) / \
            np.linalg.norm(chain.x_mean)
        assert rel <= 0.05

    def test_factor_rates_match_monte_carlo_expectations(self):
        # the gamma-factor rates are expectations under the other factors;
        # recompute them at the fixed point by sampling x ~ q(x), r ~ q(r)
        model, truth, y = signal_problem(n=32, kernel=(5, 1.25))
        fixed = vb_run(y, model, VbOptions(tol=1e-9, maxit=1000))
        assert fixed.converged
        # the factors of one more sweep, whose Cov(x) the oracle gives
        res, cov = vb_sweep_with_cov(y, model, vb_next_start(fixed))
        rng = np.random.default_rng(41)
        n_mc = 200_000
        chol = np.linalg.cholesky(cov)
        xs = res.x_mean + rng.standard_normal((n_mc, 32)) @ chol.T
        # E ||y - Hx||^2 over q(x)
        hd = model.blur.to_dense()
        resid2 = np.sum((y[None, :] - xs @ hd.T) ** 2, axis=1)
        se = resid2.std(ddof=1) / np.sqrt(n_mc)
        assert abs(resid2.mean() - 2 * res.nu_rate) <= 4 * se
        # E ||R^{-1} D x||^2 over q(x) q(r)
        from tvbayes.distributions import gig_sample_batch
        dxs = xs @ model.diff.to_dense().T
        inv_r = 1.0 / np.stack([
            gig_sample_batch(res.r_a, res.r_b, res.r_p, rng)
            for _ in range(400)])
        rdx2 = (dxs ** 2).mean(axis=0) @ (0.5 * inv_r.mean(axis=0))
        mc_rate = 0.5 * rdx2
        # inverse-scale draws dominate the error budget here
        assert mc_rate == pytest.approx(res.lam_rate, rel=0.02)


def vb_next_start(res):
    """The start state of the VB map's next sweep after ``res``."""
    return LatentState(res.x_mean, res.nu_mean, res.lam_mean,
                       1.0 / res.e_inv_r)


def vb_sweep_with_cov(y, model, s):
    """One dense VB sweep from state ``s``, and its Cov(x) formed densely:
    the inverse of the precision nu Q that the sweep factored, Q = H'H +
    (lambda/nu) D'WD with W = E(R^{-2}) at ``s``."""
    res = vb_run(y, model, VbOptions(maxit=1, init=s))
    weights = 0.5 * model.latents_to_rows(1.0 / s.r)
    q = dense_gram(model.blur, model.diff)(s.lam / s.nu, weights)
    return res, SpdFactor(q).inverse() / s.nu


def vb_plain_map(y, model, tol, maxit=1000):
    """The VB map without acceleration, as one-sweep ``vb_run`` calls each
    started from the last one's factors, until the relative x change drops
    below ``tol``; returns the last result and the number of sweeps."""
    res = vb_run(y, model, VbOptions(maxit=1))
    for sweeps in range(1, maxit + 1):
        if res.trace[0, 0] < tol:
            return res, sweeps
        res = vb_run(y, model, VbOptions(maxit=1, init=vb_next_start(res)))
    raise AssertionError(f"the plain VB map did not reach {tol}")


def vb_gap(res, oracle):
    """Worst relative difference of x, nu and lambda means."""
    return max(np.linalg.norm(res.x_mean - oracle.x_mean)
               / np.linalg.norm(oracle.x_mean),
               abs(res.nu_mean / oracle.nu_mean - 1.0),
               abs(res.lam_mean / oracle.lam_mean - 1.0))


class TestVbAcceleration:
    """vb_run drives the VB map with SQUAREM-S3: the same fixed point as
    the plain map, in fewer sweeps, with every sweep counted and a failed
    extrapolation thrown away."""

    PROBLEMS = {
        # criterion 8's 1-D problem
        "laplace_blocky32": lambda: signal_problem(n=32, seed=8,
                                                   kernel=(5, 1.25)),
        "laplace2d_8x8": lambda: image_problem(k=8, prior=Laplace2D(),
                                               hyper=STABLE_HYPER),
    }
    TOL = 1e-10

    @pytest.fixture(params=sorted(PROBLEMS))
    def problem(self, request):
        model, _, y = self.PROBLEMS[request.param]()
        oracle, sweeps = vb_plain_map(y, model, self.TOL)
        return model, y, oracle, sweeps

    def run(self, problem):
        model, y, _, _ = problem
        return vb_run(y, model, VbOptions(tol=self.TOL, maxit=500))

    @pytest.fixture
    def factors(self, monkeypatch):
        """Counts the x-system factorisations; ``fail_at`` names the one
        that raises NotSpdError instead."""
        calls = {"count": 0, "fail_at": None}

        def factor(*args, _cls=est.SpdFactor, **kwargs):
            calls["count"] += 1
            if calls["count"] == calls["fail_at"]:
                raise NotSpdError("injected failure")
            return _cls(*args, **kwargs)

        monkeypatch.setattr(est, "SpdFactor", factor)
        return calls

    def test_fixed_point_of_the_plain_map(self, problem, factors):
        res = self.run(problem)
        assert res.converged
        assert res.iterations < problem[3]
        assert len(res.trace) == res.iterations == factors["count"]
        assert vb_gap(res, problem[2]) <= 1e-7

    def test_failed_extrapolated_sweep_is_thrown_away(self, problem,
                                                      factors):
        # sweep 3 is the first cycle's extrapolated sweep
        factors["fail_at"] = 3
        res = self.run(problem)
        assert res.converged
        assert vb_gap(res, problem[2]) <= 1e-7
        assert len(res.trace) == res.iterations == factors["count"]
        # its row keeps the second sweep's nu and lambda, and x unmoved
        np.testing.assert_array_equal(res.trace[2], [0.0, *res.trace[1, 1:]])

    def test_plain_sweep_error_propagates(self, factors):
        model, _, y = self.PROBLEMS["laplace_blocky32"]()
        factors["fail_at"] = 2
        with pytest.raises(NotSpdError):
            vb_run(y, model)

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.inf, np.nan])
    def test_nu_factor_must_be_positive_finite(self, monkeypatch, rate):
        # a sweep whose nu factor has no positive finite mean raises, and
        # from the first sweep, a plain one, the error propagates
        model, _, y = self.PROBLEMS["laplace_blocky32"]()

        def nu_factor(*args, _fn=est.nu_conditional):
            return GammaParams(_fn(*args).shape, rate)

        monkeypatch.setattr(est, "nu_conditional", nu_factor)
        with pytest.raises(NonFiniteError) as exc:
            vb_run(y, model)
        assert (exc.value.where, exc.value.iteration) == ("nu", 1)

    @pytest.mark.parametrize("extreme", ["overflow", "float_error"])
    def test_extreme_extrapolation(self, problem, factors, monkeypatch,
                                   extreme):
        # the second cycle's extrapolation (the first with step_max > 1)
        # either leaves the float range, log lambda' > 700, and its sweep
        # is not run, or lands at nu' = 1e-300, lambda' = 1e300, where the
        # sweep's lambda/nu overflows and is thrown away; neither may warn.
        # Only the dense stage's extrapolations count: the warm stage's
        # come before the first factorisation
        import warnings
        seen = []

        def extrapolate(cycle, step_max, kept, _fn=est._squarem_point):
            if factors["count"] == 0:
                return _fn(cycle, step_max, kept)
            seen.append(len(seen) + 1)
            if len(seen) != 2:
                return _fn(cycle, step_max, kept)
            if extreme == "float_error":
                _, step_max = _fn(cycle, step_max, kept)
                return (1e-300, 1e300, kept[2]), step_max
            t0, t1, t2 = (t.copy() for t in cycle)
            t1[1] += 400.0
            t2[1] += 800.0
            point, step_max = _fn([t0, t1, t2], step_max, kept)
            assert point is None
            return point, step_max

        monkeypatch.setattr(est, "_squarem_point", extrapolate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = self.run(problem)
        assert len(seen) >= 2
        assert res.converged
        assert vb_gap(res, problem[2]) <= 1e-7
        # sweeps 1-5 ran; the sixth row is a thrown-away sweep, stopped
        # before its factorisation, or, when no sweep was run, the next
        # plain one
        thrown = extreme == "float_error"
        assert len(res.trace) == res.iterations == factors["count"] + thrown
        assert (res.trace[5, 0] == 0.0) == thrown

    def test_student_lambda_drift_is_followed(self):
        # ROADMAP item 5's defect under VB: with the improper lambda prior,
        # StudentTV(2) on a piecewise-constant image multiplies lambda by
        # about 1.37 every plain sweep once x has settled; the plain map's
        # relative x change then falls below 1e-6 while lambda still grows
        # (the x-only stop rule of item 2). The accelerated run follows the
        # same drift further.
        lattice = LatticeSpec(32, 32)
        model = ModelSpec.build(lattice, gaussian_kernel(5, 1.25),
                                prior=StudentTV(2.0))
        truth = lattice.to_stacked(make_image_2d("blocks42", 32))
        y, _ = add_noise_bsnr(model.blur.matvec(truth), 40.0,
                              np.random.default_rng(3))
        res, settled = vb_run(y, model, VbOptions(maxit=1)), 0
        for sweeps in range(2, 41):
            nxt = vb_run(y, model, VbOptions(maxit=1,
                                             init=vb_next_start(res)))
            if nxt.trace[0, 0] < 1e-3:
                assert nxt.lam_mean >= 1.3 * res.lam_mean
                settled += 1
            res = nxt
            if settled == 8:
                break
        assert settled == 8
        fast = vb_run(y, model, VbOptions(maxit=sweeps))
        assert fast.lam_mean > 10 * res.lam_mean


class TestVbWarmStage:
    """Default VB first runs warm sweeps on the block-circulant covariance
    (Babacan, Molina & Katsaggelos 2008): x from CG, the row variances and
    tr(H'H S) as sums over the Fourier grid. With equal row weights the
    x-system is circulant, and both must equal the dense sweep's."""

    # odd n, even n, and a 1-D lattice: only the first rfft column and, for
    # even n, the last count once
    @pytest.fixture(params=[(5, 7), (4, 6), (1, 16)],
                    ids=["odd_n", "even_n", "1d"])
    def lattice(self, request):
        return LatticeSpec(*request.param)

    @pytest.fixture(params=[LaplaceTV(), Laplace2D()], ids=["edge", "pixel"])
    def model(self, request, lattice):
        return ModelSpec.build(lattice, gaussian_kernel(3, 0.8),
                               prior=request.param)

    def test_grid_sums_match_the_dense_covariance(self, model):
        from tvbayes.operators import circulant_covariance, dense_gram
        from tvbayes.solvers import SpdFactor
        nu, lam = 37.0, 2.5
        weights = 0.5 * model.latents_to_rows(np.full(model.n_latents, 0.8))
        q = dense_gram(model.blur, model.diff)(lam / nu, weights)
        row_var, _ = model.diff.factor_row_quadratic(
            SpdFactor(q).inverse_factor())
        row_var /= nu
        # the dense sweep's trace identity, and the trace itself
        identity = (model.n_pixels - lam * float(weights @ row_var)) / nu
        hd = model.blur.to_dense()
        direct = float(np.sum((hd.T @ hd) * np.linalg.inv(q))) / nu
        got_var, got_trace = circulant_covariance(model.blur, model.diff)(
            nu, lam * float(np.mean(weights)))
        np.testing.assert_allclose(got_var, row_var, rtol=1e-10)
        assert got_trace == pytest.approx(identity, rel=1e-10)
        assert got_trace == pytest.approx(direct, rel=1e-10)

    def test_first_warm_sweep_is_a_dense_sweep(self, model, monkeypatch):
        # from the GCV start every latent scale is r0, so W = w_mean I
        rng = np.random.default_rng(5)
        truth = (rng.uniform(size=model.n_pixels) > 0.5).astype(float)
        y, _ = add_noise_bsnr(model.blur.matvec(truth), 30.0, rng)
        init = initial_state(y, model)
        dense = vb_run(y, model, VbOptions(maxit=1, init=init))
        calls = update_spy(monkeypatch)
        vb_run(y, model, VbOptions(maxit=1))
        (*_, it), warm = calls[0]
        assert it == 1 and warm.x_var is None
        assert warm.nu_mean == pytest.approx(dense.nu_mean, rel=1e-10)
        assert warm.lam_mean == pytest.approx(dense.lam_mean, rel=1e-10)
        np.testing.assert_allclose(warm.e_inv_r, dense.e_inv_r, rtol=1e-10)

    def test_first_dense_sweep_never_converges(self):
        # a start whose x is the first dense sweep's own x mean: that
        # sweep's x change is 0, but it is measured from the start, not
        # from a dense sweep's output, so the run goes on to the fixed point
        model, _, y = signal_problem(n=32)
        init = initial_state(y, model)
        init.x = conditional_params(init, y, model, "x").mean
        res = vb_run(y, model, VbOptions(init=init))
        assert res.trace[0, 0] == 0.0
        assert res.converged and res.iterations > 1
        assert res.lam_mean == pytest.approx(vb_run(y, model).lam_mean,
                                             rel=1e-4)

    def test_thrown_away_sweep_keeps_its_error(self):
        # StudentTV(2) on the 32 x 32 blocks42 image, noise seed 26: one
        # extrapolated sweep takes lambda past the 1e12 guard; the run goes
        # on from the kept point and records the guard's diagnosis
        lattice = LatticeSpec(32, 32)
        model = ModelSpec.build(lattice, gaussian_kernel(5, 1.25),
                                prior=StudentTV(2.0))
        truth = lattice.to_stacked(make_image_2d("blocks42", 32))
        y, _ = add_noise_bsnr(model.blur.matvec(truth), 40.0,
                              np.random.default_rng(26))
        res = vb_run(y, model)
        assert res.converged
        assert (res.discarded_sweeps, res.discarded_error,
                res.discarded_mode) == (1, "DivergenceError", "blank_image")
        assert np.count_nonzero(res.trace[:, 0] == 0.0) == 1
        model, _, y = signal_problem(n=32)
        quiet = vb_run(y, model)
        assert (quiet.discarded_sweeps, quiet.discarded_error,
                quiet.discarded_mode) == (0, None, None)


class TestPositiveChecks:
    """The engines' positive-finite checks name the block and the sweep."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_ias_latent_scale_mode(self, monkeypatch, bad):
        model, _, y = signal_problem()
        sweeps = []

        def mode(*args, _fn=est.gig_mode_batch):
            r = _fn(*args)
            sweeps.append(len(sweeps) + 1)
            if len(sweeps) == 2:
                r[3] = bad
            return r

        monkeypatch.setattr(est, "gig_mode_batch", mode)
        with pytest.raises(NonFiniteError) as exc:
            ias_run(y, model)
        assert (exc.value.where, exc.value.iteration) == ("r", 2)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_vb_inverse_moments(self, monkeypatch, bad):
        model, _, y = signal_problem(n=32)

        def moments(*args, _fn=est.gig_inv_moment_batch):
            m = _fn(*args)
            m[3] = bad
            return m

        monkeypatch.setattr(est, "gig_inv_moment_batch", moments)
        with pytest.raises(NonFiniteError) as exc:
            vb_run(y, model)
        assert (exc.value.where, exc.value.iteration) == ("e_inv_r", 1)

    def test_ias_nu_mode_needs_shape_above_one(self):
        # two pixels: under the improper hyperprior nu's gamma conditional
        # has shape N/2 = 1, so it has no positive finite mode
        model = ModelSpec.build(LatticeSpec(1, 2), gaussian_kernel(1, 0.25))
        with pytest.raises(NonFiniteError, match="needs shape > 1") as exc:
            ias_run(np.array([0.2, 0.9]), model)
        assert (exc.value.where, exc.value.iteration) == ("nu", 1)


class TestGibbs:
    def test_seed_determinism(self):
        model, truth, y = signal_problem(n=24)
        a = gibbs_run(y, model, GibbsOptions(seed=3, samples=50))
        b = gibbs_run(y, model, GibbsOptions(seed=3, samples=50))
        np.testing.assert_array_equal(a.x_mean, b.x_mean)
        np.testing.assert_array_equal(a.lam_trace, b.lam_trace)

    def test_running_stats_match_two_pass(self):
        model, truth, y = signal_problem(n=16, kernel=(3, 0.75))
        opts = GibbsOptions(seed=7, samples=40, burn_in=5)
        chain = gibbs_run(y, model, opts)
        # replay the same chain, collecting raw draws
        rng = np.random.default_rng(7)
        from tvbayes.estimators import initial_state as init_fn
        from tvbayes.model import r_conditional_b, row_weights_from_r
        from tvbayes.solvers import SpdFactor
        from tvbayes.distributions import gig_sample_batch
        state = init_fn(y, model)
        x, nu, lam, r = state.x, state.nu, state.lam, state.r
        hd = model.blur.to_dense()
        hth = hd.T @ hd
        hty = model.blur.rmatvec(y)
        draws = []
        for sweep in range(5 + 40):
            w = row_weights_from_r(r, model)
            prec = nu * hth + lam * model.diff.weighted_gram_dense(w)
            f = SpdFactor(prec)
            x = f.sample_precision(f.solve(nu * hty), rng)
            resid = y - model.blur.matvec(x)
            nu = float(rng.gamma(model.nu_shape, 1.0 / (0.5 * resid @ resid)))
            dx = model.diff.matvec(x)
            lam = float(rng.gamma(model.lambda_shape,
                                  1.0 / (0.5 * np.sum(dx * dx * w))))
            r = gig_sample_batch(2.0, r_conditional_b(dx * dx, lam, model),
                                 0.5, rng)
            if sweep >= 5:
                draws.append(x)
        draws = np.asarray(draws)
        np.testing.assert_allclose(chain.x_mean, draws.mean(axis=0),
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(chain.x_var, draws.var(axis=0, ddof=1),
                                   rtol=1e-8, atol=1e-12)

    def test_frozen_state_x_draw_targets_conditional(self):
        # repeated x-draws at a frozen (nu, lambda, r) match the Gaussian
        # conditional mean and covariance
        model, truth, y = signal_problem(n=12, kernel=(3, 0.75))
        state = initial_state(y, model)
        cond = conditional_params(state, y, model, "x")
        from tvbayes.model import row_weights_from_r
        from tvbayes.solvers import SpdFactor
        w = row_weights_from_r(state.r, model)
        hd = model.blur.to_dense()
        prec = state.nu * (hd.T @ hd) \
            + state.lam * model.diff.weighted_gram_dense(w)
        np.testing.assert_allclose(prec, cond.precision, rtol=1e-10)
        rng = np.random.default_rng(37)
        factor = SpdFactor(prec)
        mean = factor.solve(state.nu * model.blur.rmatvec(y))
        np.testing.assert_allclose(mean, cond.mean, rtol=1e-9)
        n_mc = 50_000
        draws = factor.sample_precision(mean, rng, size=n_mc).T
        cov = np.linalg.inv(prec)
        np.testing.assert_allclose(draws.mean(axis=0), cond.mean,
                                   atol=5 * np.sqrt(cov.max() / n_mc))
        cov_hat = np.cov(draws.T)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n_mc)
        assert np.all(np.abs(cov_hat - cov) <= 4 * se + 1e-12)

    def test_single_site_conditional_moments(self):
        # frozen state: draws from one r-conditional match GIG moments
        model, truth, y = signal_problem(n=16)
        state = initial_state(y, model)
        cond = conditional_params(state, y, model, ("r", 2))
        rng = np.random.default_rng(13)
        from tvbayes.distributions import gig_sample
        draws = gig_sample(cond, rng, size=100_000)
        assert draws.mean() == pytest.approx(gig_moment(cond, 1), rel=0.01)
        assert draws.var() == pytest.approx(gig_variance(cond), rel=0.02)

    def test_near_degenerate_likelihood_limit(self):
        # H = I, huge fixed-ish nu via tight beta_nu prior, tiny penalty:
        # posterior mean of x stays at y within MC error
        lattice = LatticeSpec(1, 16)
        model = ModelSpec.build(
            lattice, np.ones((1, 1)),
            hyper=HyperParams(alpha_lambda=1.0, beta_lambda=1e8,
                              alpha_nu=1e8, beta_nu=1.0))
        rng = np.random.default_rng(15)
        y = rng.uniform(size=16)
        chain = gibbs_run(y, model, GibbsOptions(seed=17, samples=400))
        assert np.linalg.norm(chain.x_mean - y) / np.linalg.norm(y) < 0.01

    def test_split_half_stationarity(self):
        model, truth, y = signal_problem(n=32, kernel=(5, 1.25))
        chain = gibbs_run(y, model, GibbsOptions(seed=19, samples=4000))
        kept = chain.lam_trace[chain.burn_in:]
        a, b = kept[:2000], kept[2000:]
        se = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        assert abs(a.mean() - b.mean()) <= 3 * se * np.sqrt(
            1 + 10.0)  # inflate for autocorrelation

    def test_capacity_gate(self):
        lattice = LatticeSpec(80, 80)
        model = ModelSpec.build(lattice, gaussian_kernel(3, 0.75))
        with pytest.raises(CapacityError):
            gibbs_run(np.zeros(6400), model)

    def test_blank_image_collapse_is_a_divergence(self):
        # 16x16 blocks at 40 dB under the improper default hyperpriors: from
        # the H'y start, passed explicitly, the chain walks into the
        # blank-image mode and must stop at the lambda guard, before the
        # x-precision loses positive definiteness
        lattice = LatticeSpec(16, 16)
        model = ModelSpec.build(lattice, gaussian_kernel(5, 1.25))
        truth = lattice.to_stacked(make_image_2d("blocks42", 16))
        y, _ = add_noise_bsnr(model.blur.matvec(truth), 40.0,
                              np.random.default_rng(10))
        with pytest.raises(DivergenceError) as exc:
            gibbs_run(y, model, GibbsOptions(seed=5, samples=200,
                                             init=hty_start(y, model)))
        assert exc.value.mode == "blank_image"
        assert exc.value.iteration >= 1

    @pytest.mark.parametrize("opts", [
        GibbsOptions(samples=10, burn_in=-1),
        GibbsOptions(samples=0),
    ])
    def test_rejects_bad_chain_lengths(self, opts):
        model, truth, y = signal_problem(n=16)
        with pytest.raises(ValueError):
            gibbs_run(y, model, opts)


def box_system(k, n, seed=0):
    """A 3 x 3 box blur, whose spectrum has zeros on a side divisible by 3,
    with difference-row weights log-uniform over [1e-3, 1e3], and H'y."""
    lattice = LatticeSpec(k, n)
    blur = BlurOperator(np.full((3, 3), 1.0 / 9.0), lattice)
    diff = DiffOperator(lattice)
    rng = np.random.default_rng(seed)
    weights = 10.0 ** rng.uniform(-3.0, 3.0, size=diff.n_rows)
    return blur, diff, weights, blur.rmatvec(rng.normal(size=lattice.size))


BOX_LATTICES = [(24, 24), (12, 20), (1, 64)]


class TestGramSolve:
    """The IAS x-step reads H'H p from the M p that CG carries; these check
    it against the FFT apply of H'H."""

    @pytest.mark.parametrize("ratio", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("k,n", BOX_LATTICES)
    def test_every_carried_apply_matches_fft(self, k, n, ratio, monkeypatch):
        blur, diff, weights, hty = box_system(k, n)
        carried = []

        def checked(*args, mv=None, **kwargs):
            v = args[4]
            want = weighted_gram_matvec(*args[:5])
            if mv is not None:
                # the carried M p has not drifted from M p (about 1e-14 at
                # most over a thousand iterations)
                m_v = blur.gram_matvec(v) + (ratio * kwargs["mean_weight"]
                                             * diff.rmatvec(diff.matvec(v)))
                assert (np.linalg.norm(mv - m_v)
                        <= 1e-12 * np.linalg.norm(m_v))
            got = weighted_gram_matvec(*args, mv=mv, **kwargs)
            carried.append(mv is not None)
            if mv is not None:
                assert (np.linalg.norm(got - want)
                        <= 1e-10 * np.linalg.norm(want))
            return got

        monkeypatch.setattr(est, "weighted_gram_matvec", checked)
        # on 24 x 24 at ratio >= 1 CG stops at its iteration cap; every
        # apply up to it is still checked
        try:
            est._gram_solve(blur, diff, ratio, weights, hty, 1e-10, hty)
        except PcgError:
            pass
        assert carried[0] is False and all(carried[1:])
        assert len(carried) > 40

    @pytest.mark.parametrize("ratio", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("k,n", BOX_LATTICES)
    def test_solve_matches_fft_reference(self, k, n, ratio, monkeypatch):
        # both solves run to convergence: at ratio >= 1 these weights need
        # more CG iterations than unknowns, up to 1600
        blur, diff, weights, hty = box_system(k, n)
        tol, maxit = 1e-10, 5000
        ref = pcg_solve(
            lambda v, mv: weighted_gram_matvec(blur, diff, ratio, weights, v),
            hty, precond=circulant_gram_precond(blur, diff, ratio,
                                                float(np.mean(weights))),
            tol=tol, maxit=maxit, x0=hty)
        solves, rfft2, ffts = [], np.fft.rfft2, []

        def recorded(*args, **kwargs):
            solves.append(pcg_solve(*args, maxit=maxit, **kwargs))
            return solves[-1]

        def counted(*args, **kwargs):
            ffts.append(1)
            return rfft2(*args, **kwargs)

        monkeypatch.setattr(est, "pcg_solve", recorded)
        monkeypatch.setattr(np.fft, "rfft2", counted)
        x = est._gram_solve(blur, diff, ratio, weights, hty, tol, hty)
        (sol,) = solves
        assert np.linalg.norm(x - ref.x) <= 1e-9 * np.linalg.norm(ref.x)
        if ref.iterations < k * n:
            assert abs(sol.iterations - ref.iterations) <= 1
        else:
            # past N iterations the count follows round-off: the exact dense
            # Q v in place of the FFT apply takes 1 x 64 at ratio 1e3 from
            # 473 to 566 iterations; the carried apply takes it to 537
            assert sol.iterations <= 1.25 * ref.iterations
        # one transform per iteration, the preconditioner's, and one for
        # the start residual
        assert len(ffts) == sol.iterations + 1

    @pytest.mark.parametrize("bad", [np.nan, -1e-3, np.inf])
    def test_bad_weight_raises_before_any_iteration(self, bad, monkeypatch):
        # the carried applies skip the weight check: the start apply makes
        # it for the whole solve
        blur, diff, weights, hty = box_system(12, 20)
        weights[7] = bad
        applies = []
        make = est.circulant_gram_precond

        def counted(*args, **kwargs):
            apply = make(*args, **kwargs)
            return lambda v: applies.append(1) or apply(v)

        monkeypatch.setattr(est, "circulant_gram_precond", counted)
        with pytest.raises(NonFiniteError) as exc:
            est._gram_solve(blur, diff, 1.0, weights, hty, 1e-10, hty)
        assert exc.value.where == "row_weights"
        assert applies == []


class TestTikhonov:
    def test_identity_blur_small_delta(self):
        lattice = LatticeSpec(1, 32)
        model = ModelSpec.build(lattice, np.ones((1, 1)))
        rng = np.random.default_rng(20)
        y = rng.uniform(size=32)
        x = tikhonov_baseline(y, model.blur, model.diff, 1e-10)
        np.testing.assert_allclose(x, y, atol=1e-7)

    def test_large_delta_projects_to_constants(self):
        model, truth, y = signal_problem(n=32)
        x = tikhonov_baseline(y, model.blur, model.diff, 1e8)
        np.testing.assert_allclose(x, np.mean(y), atol=1e-6)

    def test_matches_dense_normal_equations(self):
        model, truth, y = signal_problem(n=24)
        # 2-D, non-square, and a 5x5 mask that wraps around the 3-row side
        model_2d = ModelSpec.build(LatticeSpec(3, 8), gaussian_kernel(5, 1.0))
        y_2d = np.random.default_rng(23).uniform(size=24)
        delta = 0.37
        for model, y in ((model, y), (model_2d, y_2d)):
            x = tikhonov_baseline(y, model.blur, model.diff, delta)
            hd = model.blur.to_dense()
            dd = model.diff.to_dense()
            want = np.linalg.solve(hd.T @ hd + delta * dd.T @ dd,
                                   model.blur.rmatvec(y))
            np.testing.assert_allclose(x, want, atol=1e-8)

    def test_rejects_nonpositive_delta(self):
        model, truth, y = signal_problem(n=16)
        for delta in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                tikhonov_baseline(y, model.blur, model.diff, delta)


class TestStudentLimit:
    def test_large_w_approaches_tikhonov(self):
        # w -> infinity: the latent scales pin to ~1 and the MAP solves a
        # quadratic problem; some delta on a log-grid reproduces it
        lattice = LatticeSpec(1, 100)
        model = ModelSpec.build(lattice, gaussian_kernel(7, 1.75),
                                prior=StudentTV(1e6))
        truth = make_signal_1d("blocky_smooth", 100)
        rng = np.random.default_rng(21)
        y, _ = add_noise_bsnr(model.blur.matvec(truth), 40.0, rng)
        res = ias_run(y, model)
        dists = []
        for delta in np.geomspace(1e-8, 1e2, 81):
            xt = tikhonov_baseline(y, model.blur, model.diff, delta)
            dists.append(np.linalg.norm(res.x - xt) / np.linalg.norm(xt))
        assert min(dists) <= 0.05
