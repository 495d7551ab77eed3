"""Posterior assembly tests: completing-the-square equivalence and the
coherence of every full conditional with the restricted joint density."""

import math

import numpy as np
import pytest

from tvbayes.distributions import GigParams, gig_log_pdf, gig_moment
from tvbayes.errors import (
    DegenerateConditionalError,
    NonFiniteError,
    RankConditionError,
)
from tvbayes.model import (
    CustomGig,
    GammaParams,
    HyperParams,
    Laplace2D,
    LaplaceTV,
    LatentState,
    ModelSpec,
    Prior,
    StudentTV,
    conditional_params,
    latent_sums,
    log_joint,
    log_posterior,
    r_conditional_b,
    row_weights_from_r,
)
from tvbayes.operators import (
    LatticeSpec,
    dense_gram,
    gaussian_kernel,
)

ALL_VARIANTS = [
    pytest.param(LaplaceTV(), id="LaplaceTV"),
    pytest.param(LaplaceTV(safeguard_b=0.0), id="LaplaceTV_exact"),
    pytest.param(StudentTV(w=2.0), id="StudentTV"),
    pytest.param(Laplace2D(), id="Laplace2D"),
    pytest.param(CustomGig(GigParams(1.5, 0.4, -0.3)), id="CustomGig"),
]


def make_model(k=3, n=3, prior=None, hyper=None, kernel_size=3):
    lattice = LatticeSpec(k, n)
    kernel = gaussian_kernel(kernel_size, kernel_size / 4.0)
    return ModelSpec.build(lattice, kernel, hyper=hyper,
                           prior=prior if prior is not None else LaplaceTV())


def random_state(model, rng):
    return LatentState(
        x=rng.normal(size=model.n_pixels),
        nu=float(rng.uniform(0.5, 5.0)),
        lam=float(rng.uniform(0.5, 5.0)),
        r=rng.uniform(0.2, 3.0, size=model.n_latents),
    )


class TestStateValidation:
    def test_rejects_nonpositive_scalars(self):
        model = make_model()
        state = random_state(model, np.random.default_rng(0))
        state.nu = -1.0
        with pytest.raises(NonFiniteError):
            state.validate(model)

    def test_rejects_zero_latents(self):
        model = make_model()
        state = random_state(model, np.random.default_rng(0))
        state.r[2] = 0.0
        with pytest.raises(NonFiniteError):
            state.validate(model)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    @pytest.mark.parametrize("field, where", [
        ("nu", "nu"), ("lam", "lambda"), ("r", "r")])
    def test_each_block_must_be_positive_finite(self, field, where, bad):
        model = make_model()
        state = random_state(model, np.random.default_rng(0))
        if field == "r":
            state.r[4] = bad
        else:
            setattr(state, field, bad)
        with pytest.raises(NonFiniteError) as exc:
            state.validate(model)
        assert (exc.value.where, exc.value.iteration) == (where, None)

    def test_latent_count_per_layout(self):
        assert make_model(prior=LaplaceTV()).n_latents == 18
        assert make_model(prior=Laplace2D()).n_latents == 9
        assert make_model(k=1, n=8, prior=LaplaceTV()).n_latents == 8

    def test_latent_formulas_per_layout(self):
        # L rows per latent: exponent p - L/2 - 1, conditional index p - L/2
        mix = GigParams(2.0, 0.001, 1.0)
        for prior, rows, index in ((CustomGig(mix), 1, 0.5),
                                   (Laplace2D(mix), 2, 0.0)):
            model = make_model(prior=prior)
            assert model.rows_per_latent == rows
            assert model.r_conditional_index == index
            assert model.r_exponent == index - 1.0
        pooled_1d = make_model(k=1, n=8, prior=Laplace2D(mix))
        assert pooled_1d.rows_per_latent == 1

    def test_constructors_name_one_prior_type(self):
        mix = GigParams(1.5, 0.4, -0.3)
        assert LaplaceTV(0.01) == Prior(GigParams(2.0, 0.01, 1.0), "edge")
        assert StudentTV(4.0) == Prior(GigParams(0.0, 4.0, -2.0), "edge")
        assert Laplace2D(mix) == Prior(mix, "pixel")
        assert CustomGig(mix) == Prior(mix, "edge")
        for w in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                StudentTV(w)
        with pytest.raises(ValueError, match="layout"):
            Prior(mix, "row")

    def test_latents_to_rows_per_layout(self):
        # a per-pixel latent covers its pixel's row in both difference
        # blocks; a per-edge latent is its own row
        pooled = make_model(prior=Laplace2D())
        r = np.arange(1.0, 10.0)
        assert np.array_equal(pooled.latents_to_rows(r), np.concatenate([r, r]))
        assert np.array_equal(row_weights_from_r(r, pooled),
                              1.0 / (2.0 * np.concatenate([r, r])))
        edged = make_model(prior=LaplaceTV())
        r = np.arange(1.0, 19.0)
        assert np.array_equal(edged.latents_to_rows(r), r)
        assert np.array_equal(row_weights_from_r(r, edged), 1.0 / (2.0 * r))


class TestRankCondition:
    def test_build_validates(self):
        make_model()  # passes
        with pytest.raises(RankConditionError):
            lattice = LatticeSpec(3, 3)
            from tvbayes.operators import BlurOperator, DiffOperator
            h = BlurOperator(gaussian_kernel(3, 1.0), lattice)
            lap = np.array([[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0],
                            [0.0, -1.0, 0.0]])
            pad = np.zeros((3, 3))
            for du in range(-1, 2):
                for dv in range(-1, 2):
                    pad[du % 3, dv % 3] += lap[du + 1, dv + 1]
            freq = np.fft.rfft2(pad)
            h._adj, h._fwd = freq, np.conj(freq)
            ModelSpec(lattice, h, DiffOperator(lattice), HyperParams(),
                      LaplaceTV())

    @pytest.mark.parametrize("blur_on, diff_on", [
        ((4, 9), (2, 18)), ((4, 9), (6, 6)), ((6, 6), (2, 18))])
    def test_rejects_operators_on_another_lattice(self, blur_on, diff_on):
        # all three lattices have 36 pixels, so nothing else would notice
        from tvbayes.operators import BlurOperator, DiffOperator
        with pytest.raises(ValueError, match="model's lattice"):
            ModelSpec(LatticeSpec(6, 6),
                      BlurOperator(gaussian_kernel(3, 0.75),
                                   LatticeSpec(*blur_on)),
                      DiffOperator(LatticeSpec(*diff_on)), HyperParams(),
                      LaplaceTV())


class TestLogPosterior:
    def test_completing_the_square(self):
        # both exponent forms of the posterior agree on random instances
        rng = np.random.default_rng(1)
        for trial in range(100):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            model = make_model(k=k, n=n)
            state = random_state(model, rng)
            y = rng.normal(size=model.n_pixels)
            weights = row_weights_from_r(state.r, model)
            dx = model.diff.matvec(state.x)
            resid = y - model.blur.matvec(state.x)
            lhs = float(resid @ resid) + (state.lam / state.nu) * float(
                np.sum(dx * dx * weights))
            q = dense_gram(model.blur, model.diff)(state.lam / state.nu,
                                                   weights)
            xhat = np.linalg.solve(q, model.blur.rmatvec(y))
            z = state.x - xhat
            rhs = float(z @ (q @ z)) + float(y @ y) - float(xhat @ (q @ xhat))
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_pure_likelihood_limit(self):
        # H = I (identity kernel), lambda-term weight killed by lam -> tiny:
        # only likelihood + hyperprior terms move with x
        model = make_model(kernel_size=1)
        rng = np.random.default_rng(2)
        state = random_state(model, rng)
        state.lam = 1e-300
        y = rng.normal(size=model.n_pixels)
        base = log_posterior(state, y, model)
        state2 = LatentState(y.copy(), state.nu, state.lam, state.r.copy())
        shifted = log_posterior(state2, y, model)
        r0 = y - model.blur.matvec(state.x)
        want = 0.5 * state.nu * float(r0 @ r0)
        assert shifted - base == pytest.approx(want, rel=1e-9)

    def test_monotone_in_residual(self):
        model = make_model()
        rng = np.random.default_rng(3)
        state = random_state(model, rng)
        y = model.blur.matvec(state.x)  # zero residual
        at_zero = log_posterior(state, y, model)
        worse = log_posterior(state, y + 0.5, model)
        assert worse < at_zero

    def test_nonfinite_block_is_named(self):
        model = make_model()
        state = random_state(model, np.random.default_rng(4))
        state.x[0] = 1e200  # blows up the likelihood block
        y = np.zeros(model.n_pixels)
        with pytest.raises(NonFiniteError) as exc:
            log_posterior(state, y, model)
        assert exc.value.where in ("likelihood", "tv penalty")

    @pytest.mark.parametrize("prior", [LaplaceTV(), StudentTV(w=2.0),
                                       Laplace2D(),
                                       CustomGig(GigParams(2.0, 0.01, 0.3))])
    def test_log_joint_of_the_statistics(self, prior):
        # log_posterior is log_joint of the state's two statistics, bit for bit
        rng = np.random.default_rng(11)
        for trial in range(20):
            model = make_model(k=int(rng.integers(1, 5)),
                               n=int(rng.integers(2, 5)), prior=prior)
            state = random_state(model, rng)
            y = rng.normal(size=model.n_pixels)
            resid = y - model.blur.matvec(state.x)
            dx = model.diff.matvec(state.x)
            penalty = float(np.sum(dx * dx * row_weights_from_r(state.r,
                                                                 model)))
            got = log_joint(state.nu, state.lam, latent_sums(state.r),
                            float(resid @ resid), penalty, model)
            assert got == log_posterior(state, y, model)

    @pytest.mark.parametrize("prior", [LaplaceTV(), Laplace2D()])
    def test_log_joint_reads_r_through_its_sums(self, prior):
        # IAS keeps the three sums instead of r through its CG solve
        model = make_model(prior=prior)
        state = random_state(model, np.random.default_rng(16))
        r = state.r
        sums = latent_sums(r)
        assert sums == (float(np.sum(np.log(r))), float(np.sum(r)),
                        float(np.sum(1.0 / r)))
        for i, where in ((0, "latent exponent"), (2, "latent prior")):
            bad = list(sums)
            bad[i] = math.inf
            with pytest.raises(NonFiniteError) as exc:
                log_joint(state.nu, state.lam, tuple(bad), 2.0, 3.0, model)
            assert exc.value.where == where

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["log_posterior", "x", "nu", "lambda",
                                       ("r", 0)],
                             ids=["log_posterior", "x", "nu", "lambda", "r0"])
    def test_non_finite_data_is_named(self, which, bad):
        # data y is checked before any statistic is formed from it
        model = make_model()
        rng = np.random.default_rng(13)
        state = random_state(model, rng)
        y = rng.normal(size=model.n_pixels)

        def call(y):
            if which == "log_posterior":
                return log_posterior(state, y, model)
            return conditional_params(state, y, model, which)

        call(y)
        y[4] = bad
        with pytest.raises(NonFiniteError) as exc:
            call(y)
        assert exc.value.where == "y"
        with pytest.raises(ValueError, match="y must have length"):
            call(y[:-1])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("which, where", [(0, "likelihood"),
                                              (1, "tv penalty")])
    def test_log_joint_nonfinite_statistic_is_named(self, bad, which, where):
        model = make_model()
        state = random_state(model, np.random.default_rng(12))
        stats = [1.0, 1.0]
        stats[which] = bad
        with pytest.raises(NonFiniteError) as exc:
            log_joint(state.nu, state.lam, latent_sums(state.r), *stats,
                      model)
        assert exc.value.where == where


class TestConditionals:
    def test_nu_conditional_example(self):
        # N=4, improper hyperprior, residual norm^2 = 2 -> Gamma(2, 1)
        model = make_model(k=2, n=2, kernel_size=1)
        rng = np.random.default_rng(5)
        state = random_state(model, rng)
        y = model.blur.matvec(state.x).copy()
        y[0] += math.sqrt(2.0)  # ||y - Hx||^2 = 2 with H = I
        cond = conditional_params(state, y, model, "nu")
        assert cond.shape == pytest.approx(2.0)
        assert cond.rate == pytest.approx(1.0, rel=1e-12)

    def test_nu_conditional_mean_with_exact_x(self):
        # zero-covariance x factor, improper hyperprior: the mean precision
        # reduces to N / ||y - H x||^2
        model = make_model(k=2, n=2, kernel_size=1)
        rng = np.random.default_rng(12)
        state = random_state(model, rng)
        y = rng.normal(size=4)
        resid2 = float(np.sum((y - model.blur.matvec(state.x)) ** 2))
        cond = conditional_params(state, y, model, "nu")
        assert cond.mean == pytest.approx(4.0 / resid2, rel=1e-12)

    def test_lambda_shape_state_free(self):
        model = make_model()
        rng = np.random.default_rng(6)
        shapes = {conditional_params(random_state(model, rng),
                                     rng.normal(size=9), model, "lambda").shape
                  for _ in range(3)}
        assert shapes == {model.n_rows / 2.0 + 0.0}

    def test_r_conditional_rig_mean(self):
        # exact Laplace prior with lambda * diff^2 = 1: RIG(1, 1/2), mean 1
        model = make_model(prior=LaplaceTV(safeguard_b=0.0))
        rng = np.random.default_rng(7)
        state = random_state(model, rng)
        state.lam = 1.0
        dx = model.diff.matvec(state.x)
        state.x = state.x * (1.0 / abs(dx[0]))  # first difference -> 1
        cond = conditional_params(state, rng.normal(size=9), model, ("r", 0))
        assert cond.a == pytest.approx(2.0)
        assert cond.b == pytest.approx(0.5, rel=1e-12)
        assert cond.p == pytest.approx(0.5)
        assert gig_moment(cond, 1) == pytest.approx(1.0, rel=1e-10)

    def test_degenerate_r_conditional(self):
        model = make_model(prior=LaplaceTV(safeguard_b=0.0))
        rng = np.random.default_rng(8)
        state = random_state(model, rng)
        state.x = np.full(model.n_pixels, 0.3)  # all differences zero
        with pytest.raises(DegenerateConditionalError):
            conditional_params(state, rng.normal(size=9), model, ("r", 0))

    def test_safeguard_avoids_degeneracy(self):
        model = make_model(prior=LaplaceTV(safeguard_b=0.001))
        rng = np.random.default_rng(9)
        state = random_state(model, rng)
        state.x = np.full(model.n_pixels, 0.3)
        cond = conditional_params(state, rng.normal(size=9), model, ("r", 0))
        assert cond.b == pytest.approx(0.001)

    @pytest.mark.parametrize("prior", [LaplaceTV(), Laplace2D()],
                             ids=["edge", "pixel"])
    def test_r_selector_pools_its_latents_rows(self, prior):
        # conditional_params(("r", i)) reads latent i's L rows, and its b'
        # is entry i of the engines' all-rows b'
        model = make_model(k=3, n=4, prior=prior)
        rng = np.random.default_rng(16)
        state = random_state(model, rng)
        y = rng.normal(size=model.n_pixels)
        want = r_conditional_b(model.diff.matvec(state.x) ** 2, state.lam,
                               model)
        got = [conditional_params(state, y, model, ("r", i)).b
               for i in range(model.n_latents)]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("prior", [
        LaplaceTV(safeguard_b=0.0), Laplace2D(GigParams(2.0, 0.0, 1.0))],
        ids=["edge", "pixel"])
    def test_only_the_flat_latent_is_degenerate(self, prior):
        # exact (b = 0) mixing with latent 0's rows made flat, pixel 0's
        # +1 neighbours set to its value: latent 0's conditional and the
        # engines' all-rows b' raise, and the other latents' do not
        model = make_model(k=3, n=4, prior=prior)
        rng = np.random.default_rng(17)
        state = random_state(model, rng)
        rows0 = np.arange(model.rows_per_latent) * model.n_latents
        state.x[model.diff.pos_idx[rows0]] = state.x[0]
        dx2 = model.diff.matvec(state.x) ** 2
        flat = dx2.reshape(model.rows_per_latent, -1).sum(axis=0) == 0.0
        assert np.flatnonzero(flat).tolist() == [0]
        y = rng.normal(size=model.n_pixels)
        with pytest.raises(DegenerateConditionalError):
            conditional_params(state, y, model, ("r", 0))
        with pytest.raises(DegenerateConditionalError):
            r_conditional_b(dx2, state.lam, model)
        for i in range(1, model.n_latents):
            assert conditional_params(state, y, model, ("r", i)).b > 0

    @pytest.mark.parametrize("idx", [-1, 9, 1.0])
    def test_r_selector_outside_the_latents(self, idx):
        model = make_model(prior=Laplace2D())  # one latent per pixel: 9
        assert model.n_latents == 9
        rng = np.random.default_rng(14)
        state = random_state(model, rng)
        with pytest.raises(ValueError):
            conditional_params(state, rng.normal(size=9), model, ("r", idx))

    def test_r_selector_takes_numpy_ints(self):
        model = make_model(prior=Laplace2D())
        rng = np.random.default_rng(15)
        state = random_state(model, rng)
        y = rng.normal(size=9)
        last = model.n_latents - 1
        assert conditional_params(state, y, model, ("r", np.int64(last))) \
            == conditional_params(state, y, model, ("r", last))


class TestCoherence:
    """Restricted log-posterior minus conditional log-density is constant."""

    @pytest.mark.parametrize("prior", ALL_VARIANTS)
    def test_all_conditionals(self, prior):
        rng = np.random.default_rng(10)
        model = make_model(k=3, n=3, prior=prior,
                           hyper=HyperParams(0.4, 0.2, 0.3, 0.6))
        state = random_state(model, rng)
        y = rng.normal(size=model.n_pixels)

        def gaps(cond_logpdf, set_probe, probes):
            out = []
            for probe in probes:
                set_probe(probe)
                out.append(log_posterior(state, y, model) - cond_logpdf(probe))
            return np.asarray(out)

        base = random_state(model, rng)

        # x conditional
        state = LatentState(base.x.copy(), base.nu, base.lam, base.r.copy())
        cond = conditional_params(state, y, model, "x")
        probes = [rng.normal(size=model.n_pixels) for _ in range(5)]
        g = gaps(cond.log_pdf,
                 lambda v: setattr(state, "x", v), probes)
        assert np.ptp(g) <= 1e-9 * max(1.0, np.abs(g).max())

        # nu conditional
        state = LatentState(base.x.copy(), base.nu, base.lam, base.r.copy())
        cond = conditional_params(state, y, model, "nu")
        g = gaps(cond.log_pdf, lambda v: setattr(state, "nu", v),
                 rng.uniform(0.2, 8.0, size=5))
        assert np.ptp(g) <= 1e-9 * max(1.0, np.abs(g).max())

        # lambda conditional
        state = LatentState(base.x.copy(), base.nu, base.lam, base.r.copy())
        cond = conditional_params(state, y, model, "lambda")
        g = gaps(cond.log_pdf, lambda v: setattr(state, "lam", v),
                 rng.uniform(0.2, 8.0, size=5))
        assert np.ptp(g) <= 1e-9 * max(1.0, np.abs(g).max())

        # a latent-scale conditional
        state = LatentState(base.x.copy(), base.nu, base.lam, base.r.copy())
        idx = int(rng.integers(model.n_latents))
        cond = conditional_params(state, y, model, ("r", idx))

        def set_r(v):
            state.r[idx] = v

        g = gaps(lambda v: gig_log_pdf(cond, v), set_r,
                 rng.uniform(0.2, 8.0, size=5))
        assert np.ptp(g) <= 1e-9 * max(1.0, np.abs(g).max())


class TestLaplace2dOn1d:
    # a row signal keeps the horizontal block, a column signal the vertical
    @pytest.mark.parametrize("k,n", [(1, 12), (12, 1)])
    def test_reduces_to_per_edge(self, k, n):
        # with one difference block the per-pixel pooling is the per-edge
        # model with the same mixing: identical joint density up to a
        # constant and identical conditional index
        rng = np.random.default_rng(11)
        mix = GigParams(2.0, 0.001, 1.0)
        pooled = make_model(k=k, n=n, prior=Laplace2D(mix))
        edged = make_model(k=k, n=n, prior=CustomGig(mix))
        assert pooled.n_latents == edged.n_latents == 12
        assert pooled.r_conditional_index == edged.r_conditional_index
        assert pooled.r_exponent == edged.r_exponent
        y = rng.normal(size=12)
        gaps = []
        for _ in range(4):
            state = random_state(pooled, rng)
            gaps.append(log_posterior(state, y, pooled)
                        - log_posterior(state, y, edged))
        assert np.ptp(gaps) <= 1e-12


class TestGammaParams:
    def test_moments_and_logpdf(self):
        g = GammaParams(3.0, 2.0)
        assert g.mean == pytest.approx(1.5)
        assert g.mode == pytest.approx(1.0)
        assert g.variance == pytest.approx(0.75)
        from scipy import stats
        assert g.log_pdf(1.3) == pytest.approx(
            stats.gamma.logpdf(1.3, 3.0, scale=0.5), rel=1e-12)
