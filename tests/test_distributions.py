"""GIG calculus and scale-mixture tests.

Brute-force oracles: adaptive quadrature of the density (in log-substituted
coordinates so the infinite domain behaves), the Bessel integral
representation, and Monte-Carlo distribution tests for the samplers.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from tvbayes.distributions import (
    GigParams,
    MvLaplaceParams,
    gig_inv_moment_batch,
    gig_log_pdf,
    gig_mode,
    gig_moment,
    gig_sample,
    gig_sample_batch,
    gig_variance,
    gsm_sample,
    laplace1d_log_pdf,
    log_bessel_k,
    mvlaplace_log_pdf,
)
from tvbayes.errors import (
    GigParameterError,
    MomentDivergesError,
    NonFiniteError,
    NotSpdError,
)


# Parameter triples spanning all three admissibility branches.
BRANCH_A = [  # a > 0, b >= 0, p > 0
    (2.0, 0.0, 1.0),      # Exp(1)
    (2.0, 0.0, 0.5),
    (4.0, 0.0, 3.0),      # Gamma(3, 2)
    (2.0, 3.0, 0.5),      # RIG
    (1.0, 1.0, 1.0),
    (2.0, 0.001, 1.0),    # safeguarded Laplace mixing
    (3.0, 2.0, 2.5),
    (0.5, 4.0, 0.2),
    (10.0, 0.1, 5.0),
    (1.0, 1.0, 0.5),
]
BRANCH_B = [  # a > 0, b > 0, p = 0
    (1.0, 1.0, 0.0),
    (2.0, 0.5, 0.0),
    (0.3, 3.0, 0.0),
]
BRANCH_C = [  # a >= 0, b > 0, p < 0
    (0.0, 2.0, -1.0),     # InvGamma(1, 1)
    (0.0, 4.0, -2.5),
    (0.0, 1.0, -0.7),
    (1.0, 2.0, -1.0),
    (0.5, 0.5, -2.0),
    (0.0, 6.0, -3.0),     # Student-t mixing, w = 6
    (2.0, 2.0, -0.25),
    (0.0, 0.001, -0.5),
]
ALL_TRIPLES = BRANCH_A + BRANCH_B + BRANCH_C


def quad_gig(params, q=0.0):
    """Oracle: integral of x^q * pdf over (0, inf), via x = exp(t).

    Split at the log-mode so the adaptive rule locks onto narrow bumps.
    """

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


def quad_bessel_k(p, x):
    """Oracle: K_p(x) = int_0^inf exp(-x cosh t) cosh(p t) dt."""

    def integrand(t):
        return math.exp(-x * math.cosh(t)) * math.cosh(p * t)

    val, err = integrate.quad(integrand, 0, 60, epsabs=1e-14, epsrel=1e-13,
                              limit=400)
    assert err < 1e-10 * max(1.0, abs(val))
    return val


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}; quadrature agrees at x = 1
        want = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        assert log_bessel_k(0.5, 1.0) == pytest.approx(math.log(want), abs=1e-12)
        assert quad_bessel_k(0.5, 1.0) == pytest.approx(want, rel=1e-10)

    def test_index_symmetry(self):
        for p, x in [(3.0, 2.5), (0.7, 0.3), (5.5, 10.0), (20.0, 1e-4)]:
            assert log_bessel_k(-p, x) == pytest.approx(log_bessel_k(p, x),
                                                         abs=1e-14)

    def test_monotone_decrease_in_x(self):
        assert log_bessel_k(0.0, 0.1) > log_bessel_k(0.0, 0.2)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0, 3.5, 5.0])
    @pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 5.0, 20.0])
    def test_against_quadrature(self, p, x):
        # abs tolerance on log K bounds the relative error of K itself
        assert log_bessel_k(p, x) == pytest.approx(
            math.log(quad_bessel_k(p, x)), abs=1e-10)

    @pytest.mark.parametrize("x", [1e-6, 0.1, 1.0, 10.0, 100.0, 600.0])
    def test_high_order_recurrence(self, x):
        # upward recurrence K_{p+1} = K_{p-1} + (2p/x) K_p from the exact
        # half-order forms; stable for K, so an independent oracle up to
        # p = 20.5 in the log domain
        log_half = 0.5 * math.log(math.pi / (2 * x)) - x         # K_{1/2}
        log_three_half = log_half + math.log1p(1.0 / x)          # K_{3/2}
        prev, cur = log_half, log_three_half
        p = 1.5
        while p < 20.0:
            nxt = cur + math.log((2 * p / x) + math.exp(prev - cur))
            prev, cur, p = cur, nxt, p + 1.0
            # abs tolerance on log K bounds the relative error of K itself
            assert log_bessel_k(p, x) == pytest.approx(cur, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            log_bessel_k(1.0, -1.0)

    def test_log_domain_large_x(self):
        # K_p(800) underflows linearly; the log value stays finite and matches
        # the asymptotic K_p(x) ~ sqrt(pi/(2x)) e^{-x} to leading order
        lv = log_bessel_k(0.5, 800.0)
        want = 0.5 * math.log(math.pi / 1600.0) - 800.0
        assert lv == pytest.approx(want, rel=1e-12)

    def test_log_domain_matches_linear(self):
        for p, x in [(2.0, 0.5), (7.0, 3.0), (0.0, 1.0)]:
            assert log_bessel_k(p, x) == pytest.approx(
                math.log(special.kv(p, x)), rel=1e-12)

    def test_log_domain_tiny_x_overflow_fallback(self):
        # K_20(1e-20) overflows a float; the small-x series takes over
        val = log_bessel_k(20.0, 1e-20)
        want = (math.log(0.5) + math.lgamma(20.0)
                + 20.0 * (math.log(2.0) - math.log(1e-20)))
        assert val == pytest.approx(want, rel=1e-10)


class TestAdmissibility:
    def test_accepts_all_branches(self):
        for a, b, p in ALL_TRIPLES:
            GigParams(a, b, p)

    @pytest.mark.parametrize("triple", [
        (0.0, 0.0, 1.0),    # both boundary
        (2.0, 0.0, 0.0),    # p = 0 needs b > 0
        (0.0, 2.0, 0.0),    # p = 0 needs a > 0
        (2.0, 0.0, -1.0),   # p < 0 needs b > 0
        (0.0, 2.0, 1.0),    # p > 0 needs a > 0
        (-1.0, 1.0, 1.0),
        (1.0, -1.0, 1.0),
        (math.nan, 1.0, 1.0),
    ])
    def test_rejects_inadmissible(self, triple):
        with pytest.raises(GigParameterError):
            GigParams(*triple)


class TestGigLogPdf:
    def test_exp1_value(self):
        # GIG(2, 0, 1) = Exp(1): log pdf at 0.7 is -0.7
        assert gig_log_pdf(GigParams(2, 0, 1), 0.7) == pytest.approx(-0.7, abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gig_log_pdf(GigParams(2, 0, 1), 0.0)

    @pytest.mark.parametrize("a,b,p", ALL_TRIPLES)
    def test_normalisation(self, a, b, p):
        assert quad_gig(GigParams(a, b, p)) == pytest.approx(1.0, abs=1e-8)

    def test_invgamma_pointwise(self):
        # (0, 2*beta, -alpha) must equal InvGamma(alpha, beta) pointwise
        alpha, beta = 1.7, 0.9
        params = GigParams(0.0, 2.0 * beta, -alpha)
        for x in [0.05, 0.3, 1.0, 4.2]:
            want = stats.invgamma.logpdf(x, alpha, scale=beta)
            assert gig_log_pdf(params, x) == pytest.approx(want, abs=1e-12)

    def test_gamma_pointwise(self):
        alpha, beta = 2.4, 1.6
        params = GigParams(2.0 * beta, 0.0, alpha)
        for x in [0.05, 0.3, 1.0, 4.2]:
            want = stats.gamma.logpdf(x, alpha, scale=1.0 / beta)
            assert gig_log_pdf(params, x) == pytest.approx(want, abs=1e-12)

    def test_rig_pointwise(self):
        # RIG(alpha, beta) density from the special-case table
        alpha, beta = 1.3, 0.8
        params = GigParams(alpha ** 2 / beta, beta, 0.5)
        for x in [0.1, 0.5, 1.0, 3.0]:
            want = math.log(alpha / math.sqrt(2 * math.pi * beta)) + 2 * alpha \
                - 0.5 * math.log(x) - (alpha * x + beta) ** 2 / (2 * beta * x)
            assert gig_log_pdf(params, x) == pytest.approx(want, abs=1e-12)

    def test_mode_is_grid_max(self):
        params = GigParams(3.0, 2.0, 2.5)
        mode = gig_mode(params)
        grid = np.linspace(0.2 * mode, 5.0 * mode, 4001)
        vals = [gig_log_pdf(params, g) for g in grid]
        assert abs(grid[int(np.argmax(vals))] - mode) < 2 * (grid[1] - grid[0])


class TestGigMoments:
    def test_exp_mean(self):
        assert gig_moment(GigParams(2, 0, 1), 1) == pytest.approx(1.0, rel=1e-14)

    def test_zeroth_moment(self):
        for a, b, p in ALL_TRIPLES:
            assert gig_moment(GigParams(a, b, p), 0) == 1.0

    def test_half_order_inverse_moment(self):
        # (2, 3, 1/2), q = -1: sqrt(a/b) since K_{-1/2} = K_{1/2}
        want = math.sqrt(2.0 / 3.0)
        got = gig_moment(GigParams(2, 3, 0.5), -1)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(quad_gig(GigParams(2, 3, 0.5), -1), rel=1e-8)

    @pytest.mark.parametrize("a,b,p", ALL_TRIPLES)
    @pytest.mark.parametrize("q", [-2.0, -1.0, 1.0, 2.0, 3.0])
    def test_against_quadrature(self, a, b, p, q):
        params = GigParams(a, b, p)
        try:
            got = gig_moment(params, q)
        except MomentDivergesError:
            # only the boundary families can lose moments
            assert (b == 0.0 and p + q <= 0) or (a == 0.0 and -p - q <= 0)
            return
        assert got == pytest.approx(quad_gig(params, q), rel=1e-8)

    def test_divergent_moment_raises(self):
        with pytest.raises(MomentDivergesError):
            gig_moment(GigParams(2, 0, 1), -1)  # E(1/Exp) diverges
        with pytest.raises(MomentDivergesError):
            gig_moment(GigParams(0, 2, -1), 1)  # InvGamma(1,1) mean diverges

    @pytest.mark.parametrize("a,b,p", ALL_TRIPLES)
    def test_exists_iff_shifted_triple_admissible(self, a, b, p):
        # E(X^q) = Z(a, b, p+q) / Z(a, b, p) exists exactly when
        # (a, b, p+q) is itself an admissible GIG triple
        params = GigParams(a, b, p)
        for q in (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
            try:
                GigParams(a, b, p + q)
            except GigParameterError:
                with pytest.raises(MomentDivergesError):
                    gig_moment(params, q)
            else:
                assert math.isfinite(gig_moment(params, q)), q

    def test_inv_moment_batch_matches_scalar(self):
        b = np.array([0.3, 1.0, 7.5])
        got = gig_inv_moment_batch(2.0, b, 0.5)
        want = [gig_moment(GigParams(2.0, bi, 0.5), -1) for bi in b]
        np.testing.assert_array_equal(got, want)
        got0 = gig_inv_moment_batch(0.0, b, -2.0)
        want0 = [gig_moment(GigParams(0.0, bi, -2.0), -1) for bi in b]
        np.testing.assert_array_equal(got0, want0)

    def test_inv_moment_batch_gamma_form(self):
        # all-zero b: Gamma(p, a/2), whose E(1/X) = (a/2)/(p-1) needs p > 1
        b = np.zeros(4)
        for a, p in [(4.0, 3.0), (3.0, 2.5), (2.0, 1.5)]:
            got = gig_inv_moment_batch(a, b, p)
            assert got == pytest.approx(np.full(4, a / 2.0 / (p - 1.0)),
                                        rel=1e-14)
            np.testing.assert_array_equal(
                got, gig_moment(GigParams(a, 0.0, p), -1))
        for p in (1.0, 0.5):
            with pytest.raises(MomentDivergesError):
                gig_inv_moment_batch(2.0, b, p)

    @pytest.mark.parametrize("a,b", [
        (2.0, [0.0, 1.0, 2.0]),   # mixed zero and positive b
        (0.0, [0.0, 1.0, 2.0]),   # a = 0 needs b > 0 everywhere
        (2.0, [1.0, -1.0, 2.0]),
    ])
    def test_batch_rejects_inadmissible_b(self, a, b):
        with pytest.raises(GigParameterError):
            gig_inv_moment_batch(a, np.array(b), -0.5)
        with pytest.raises(GigParameterError):
            gig_sample_batch(a, np.array(b), -0.5, np.random.default_rng(0))


class TestGigMode:
    def test_rig_unit(self):
        # RIG(1, 1) = GIG(1, 1, 1/2): numeric maximum is (sqrt(5)-1)/2
        params = GigParams(1, 1, 0.5)
        want = (math.sqrt(5.0) - 1.0) / 2.0
        assert gig_mode(params) == pytest.approx(want, rel=1e-14)
        # cross-check against the special-case mode (-beta+beta sqrt(1+4 a^2))/(2 a^2)
        assert gig_mode(params) == pytest.approx(
            (-1.0 + math.sqrt(5.0)) / 2.0, rel=1e-14)

    def test_exp_mode_zero(self):
        assert gig_mode(GigParams(2, 0, 1)) == 0.0

    def test_invgamma_mode(self):
        alpha, beta = 2.2, 1.4
        assert gig_mode(GigParams(0, 2 * beta, -alpha)) == pytest.approx(
            beta / (alpha + 1.0), rel=1e-14)

    @pytest.mark.parametrize("a,b,p", [t for t in ALL_TRIPLES if t[1] > 0])
    def test_mode_maximises_pdf(self, a, b, p):
        params = GigParams(a, b, p)
        mode = gig_mode(params)
        at = gig_log_pdf(params, mode)
        assert at >= gig_log_pdf(params, mode * (1 + 1e-4))
        assert at >= gig_log_pdf(params, mode * (1 - 1e-4))


class TestGigVariance:
    def test_exp_variance(self):
        assert gig_variance(GigParams(4, 0, 1)) == pytest.approx(0.25, rel=1e-14)

    def test_gamma_variance(self):
        # Gamma(3, 2): variance 3/4
        assert gig_variance(GigParams(4, 0, 3)) == pytest.approx(0.75, rel=1e-14)

    def test_matches_moments(self):
        for a, b, p in ALL_TRIPLES:
            params = GigParams(a, b, p)
            try:
                var = gig_variance(params)
                m1 = gig_moment(params, 1)
                m2 = gig_moment(params, 2)
            except MomentDivergesError:
                continue
            assert var == pytest.approx(m2 - m1 * m1, rel=1e-10)

    def test_against_quadrature(self):
        params = GigParams(1, 1, 0)
        mean = quad_gig(params, 1)

        def integrand(t):
            x = math.exp(t)
            return (x - mean) ** 2 * math.exp(gig_log_pdf(params, x) + t)

        want, _ = integrate.quad(integrand, -40, 40, epsabs=1e-13, epsrel=1e-13,
                                 limit=400)
        assert gig_variance(params) == pytest.approx(want, rel=1e-8)

    def test_divergent_variance_raises(self):
        with pytest.raises(MomentDivergesError):
            gig_variance(GigParams(0, 2, -1.5))  # InvGamma(1.5, 1)


class TestGigSample:
    def test_exp_mean(self):
        rng = np.random.default_rng(7)
        draws = gig_sample(GigParams(2, 0, 1), rng, size=100_000)
        # Exp(1): mean 1, sd 1
        assert abs(draws.mean() - 1.0) < 3.0 / math.sqrt(draws.size)

    def test_seed_determinism(self):
        a = gig_sample(GigParams(1, 1, 0.5), np.random.default_rng(123))
        b = gig_sample(GigParams(1, 1, 0.5), np.random.default_rng(123))
        assert a == b

    def test_rig_mean_within_one_percent(self):
        params = GigParams(1, 1, 0.5)
        rng = np.random.default_rng(11)
        draws = gig_sample(params, rng, size=100_000)
        assert draws.mean() == pytest.approx(gig_moment(params, 1), rel=0.01)

    def test_invgamma_dispatch(self):
        params = GigParams(0, 4, -3)  # InvGamma(3, 2): mean 1, finite var
        rng = np.random.default_rng(5)
        draws = gig_sample(params, rng, size=200_000)
        assert draws.mean() == pytest.approx(gig_moment(params, 1), rel=0.02)

    def test_batch_matches_moments(self):
        b = np.full(100_000, 2.5)
        # the reciprocal (p = 1/2) and the direct (p = -1/2) inverse
        # Gaussian paths
        for p in (0.5, -0.5):
            draws = gig_sample_batch(3.0, b, p, np.random.default_rng(31))
            params = GigParams(3.0, 2.5, p)
            assert draws.mean() == pytest.approx(gig_moment(params, 1),
                                                 rel=0.01), p
            assert draws.var() == pytest.approx(gig_variance(params),
                                                rel=0.05), p

    @pytest.mark.parametrize("params", [
        # InvGamma(0.001, 1/2): a gamma denominator underflows to 0, so
        # three of these six draws would be inf
        GigParams(0.0, 1.0, -0.001),
        # Gamma(0.001, 1): three of the six draws underflow to 0
        GigParams(2.0, 0.0, 0.001),
    ], ids=["inv_gamma", "gamma"])
    def test_draws_outside_the_positive_floats_raise(self, params):
        # with no numpy warning on the way, which pytest makes an error
        a, b, p = params.a, params.b, params.p
        for draw in (lambda rng: gig_sample(params, rng, size=6),
                     lambda rng: gig_sample_batch(a, np.full(6, b), p, rng)):
            with pytest.raises(NonFiniteError) as exc:
                draw(np.random.default_rng(1))
            assert (exc.value.where, exc.value.iteration) == ("sample", None)


class TestLaplace1d:
    def test_peak(self):
        assert laplace1d_log_pdf(0, 1, 0) == pytest.approx(math.log(0.5))

    def test_symmetry(self):
        for x in [0.1, 1.7, 5.0]:
            assert laplace1d_log_pdf(0, 2, x) == laplace1d_log_pdf(0, 2, -x)

    def test_direct_value(self):
        # (mu=0, b=2, x=1): log(2/2) - 2 = -2; ML reduction with Sigma = 2/b^2
        assert laplace1d_log_pdf(0, 2, 1) == pytest.approx(-2.0, abs=1e-14)
        ml = MvLaplaceParams(np.zeros(1), np.array([[2.0 / 4.0]]))
        assert mvlaplace_log_pdf(ml, np.array([1.0])) == pytest.approx(-2.0,
                                                                       abs=1e-12)


class TestMvLaplace:
    def test_1d_agrees_with_scalar(self):
        b = 1.3
        ml = MvLaplaceParams(np.array([0.4]), np.array([[2.0 / b ** 2]]))
        for x in [-1.0, 0.0, 0.4, 2.2]:
            assert mvlaplace_log_pdf(ml, np.array([x])) == pytest.approx(
                laplace1d_log_pdf(0.4, b, x), abs=1e-12)

    def test_singular_at_origin(self):
        ml = MvLaplaceParams(np.zeros(2), np.eye(2))
        assert mvlaplace_log_pdf(ml, np.zeros(2)) == math.inf

    def test_bivariate_k0_form(self):
        # Sigma = (2/lam) I: pdf = (lam / 2 pi) K_0(sqrt(lam) ||z||)
        lam = 2.7
        ml = MvLaplaceParams(np.zeros(2), (2.0 / lam) * np.eye(2))
        rng = np.random.default_rng(2)
        for _ in range(5):
            z = rng.normal(size=2)
            want = math.log(lam / (2 * math.pi)) + math.log(
                special.kv(0.0, math.sqrt(lam) * float(np.linalg.norm(z))))
            assert mvlaplace_log_pdf(ml, z) == pytest.approx(want, rel=1e-12)

    def test_rejects_non_spd(self):
        with pytest.raises(NotSpdError):
            MvLaplaceParams(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_normalises_2d(self):
        # polar-coordinate quadrature of the bivariate density
        ml = MvLaplaceParams(np.zeros(2), np.eye(2) * 0.8)

        def radial(r):
            return 2 * math.pi * r * math.exp(
                mvlaplace_log_pdf(ml, np.array([r, 0.0])))

        val, _ = integrate.quad(radial, 0, 60, epsabs=1e-12, limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)


class TestScaleMixtureIntegralIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("c", [0.3, 1.0, 4.5])
    def test_integral_identity(self, n, c):
        # int_0^inf r^(-n/2) exp(-(2r + c/r)/2) dr
        #   = 2 K_{1-n/2}(sqrt(2c)) (c/2)^((1-n/2)/2)

        def integrand(t):
            r = math.exp(t)
            return r ** (-0.5 * n) * math.exp(-0.5 * (2 * r + c / r)) * r

        lhs, _ = integrate.quad(integrand, -40, 40, epsabs=1e-13, epsrel=1e-13,
                                limit=400)
        order = 1.0 - 0.5 * n
        rhs = 2.0 * special.kv(order, math.sqrt(2 * c)) * (c / 2.0) ** (0.5 * order)
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestGsmSample:
    def test_laplace_ks_1d(self):
        # Exp(1) mixing with Sigma = 2/lam gives Laplace(0, sqrt(lam))
        lam = 1.0
        rng = np.random.default_rng(404)
        draws = gsm_sample(np.zeros(1), np.array([[2.0 / lam]]),
                           GigParams(2, 0, 1), rng, size=100_000)[:, 0]
        res = stats.kstest(draws, lambda t: stats.laplace.cdf(
            t, scale=1.0 / math.sqrt(lam)))
        assert res.pvalue > 0.01

    def test_mean_is_location(self):
        rng = np.random.default_rng(17)
        mu = np.array([3.0, -1.0])
        draws = gsm_sample(mu, np.eye(2), GigParams(2, 0, 1), rng, size=50_000)
        np.testing.assert_allclose(draws.mean(axis=0), mu, atol=0.05)

    def test_student_t_heavy_tails(self):
        # InvGamma(1, 1) mixing = t with 2 dof: kurtosis far beyond Gaussian
        rng = np.random.default_rng(23)
        draws = gsm_sample(np.zeros(1), np.eye(1), GigParams(0, 2, -1), rng,
                           size=100_000)[:, 0]
        assert stats.kurtosis(draws) > 3.0
        # matches the scipy t(2) distribution
        res = stats.kstest(draws, lambda t: stats.t.cdf(t, df=2))
        assert res.pvalue > 0.01

    @pytest.mark.parametrize("sigma", [
        [[1.0, 0.5], [0.0, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, 2.0], [2.0, 1.0]],
    ], ids=["asymmetric", "nan", "inf", "indefinite"])
    def test_rejects_sigma_that_is_not_spd(self, sigma):
        # the draws would read only the lower triangle, or come out NaN
        for size in (None, 3):
            with pytest.raises(NotSpdError):
                gsm_sample(np.zeros(2), np.array(sigma), GigParams(2, 0, 1),
                           np.random.default_rng(0), size=size)

    def test_draws_use_the_params_factor(self):
        # one r, then z, per draw: mu + sqrt(r) L z with MvLaplaceParams' L
        mu, sigma = np.array([1.0, -2.0]), np.array([[2.0, 0.3], [0.3, 1.0]])
        chol = MvLaplaceParams(mu, sigma)._chol
        mixing = GigParams(2, 0, 1)
        got = gsm_sample(mu, sigma, mixing, np.random.default_rng(4), size=5)
        rng = np.random.default_rng(4)
        r = gig_sample(mixing, rng, size=5)
        want = mu + np.sqrt(r)[:, None] * (rng.standard_normal((5, 2)) @ chol.T)
        np.testing.assert_array_equal(got, want)

    def test_2d_laplace_per_coordinate(self):
        rng = np.random.default_rng(29)
        draws = gsm_sample(np.zeros(2), np.eye(2), GigParams(2, 0, 1), rng,
                           size=100_000)
        # each margin of ML(0, I) is Laplace(0, sqrt(2)) by the 1-D reduction
        for j in range(2):
            res = stats.kstest(draws[:, j], lambda t: stats.laplace.cdf(
                t, scale=1.0 / math.sqrt(2.0)))
            assert res.pvalue > 0.01
