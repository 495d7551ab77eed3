"""PCG and dense SPD factorisation tests against direct-solve oracles."""

import numpy as np
import pytest
from scipy.linalg import lapack, solve_triangular

from tvbayes.errors import NotSpdError, PcgError, SpentFactorError
from tvbayes.solvers import SpdFactor, pcg_solve


def random_spd(n, rng, cond=10.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eig = np.geomspace(1.0, cond, n)
    return (q * eig) @ q.T


def symmetric_spd(n, rng):
    """random_spd made exactly symmetric: a_ij + a_ji rounds as a_ji + a_ij."""
    a = random_spd(n, rng)
    return (a + a.T) / 2.0


def layouts(a):
    """The same matrix C-ordered, Fortran-ordered and as a strided slice."""
    n = a.shape[0]
    big = np.full((2 * n + 1, 3 * n), np.nan)
    big[1::2, ::3] = a
    return {"c": np.ascontiguousarray(a), "f": np.asfortranarray(a),
            "strided": big[1::2, ::3]}


class TrilFactor:
    """Reference form: the np.tril factor in C order, the triangle masks of
    the inverse, and LAPACK fed through f2py's transposing copies."""

    def __init__(self, a):
        c, info = lapack.dpotrf(a, lower=1, overwrite_a=0)
        self.info = info
        self.lower = np.tril(c)

    def solve(self, rhs):
        return lapack.dpotrs(self.lower, rhs, lower=1)[0]

    def inverse(self):
        inv = lapack.dpotri(self.lower, lower=1)[0]
        return np.tril(inv) + np.tril(inv, -1).T

    def logdet(self):
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))

    def sample_precision(self, mean, rng, size=None):
        n = self.lower.shape[0]
        z = rng.standard_normal(n if size is None else (n, size))
        draws = solve_triangular(self.lower, z, lower=True, trans="T")
        return mean + draws if size is None else mean[:, None] + draws


class TestPcg:
    def test_identity_one_iteration(self):
        rhs = np.array([1.0, -2.0, 3.0])
        res = pcg_solve(lambda v, mv: v, rhs)
        assert res.iterations <= 1
        np.testing.assert_allclose(res.x, rhs, atol=1e-14)

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(0)
        a = random_spd(50, rng, cond=100.0)
        rhs = rng.normal(size=50)
        res = pcg_solve(lambda v, mv: a @ v, rhs, tol=1e-10, maxit=500)
        np.testing.assert_allclose(res.x, np.linalg.solve(a, rhs), atol=1e-8)

    def test_residual_contract(self):
        rng = np.random.default_rng(1)
        a = random_spd(30, rng)
        rhs = rng.normal(size=30)
        tol = 1e-6
        res = pcg_solve(lambda v, mv: a @ v, rhs, tol=tol)
        assert np.linalg.norm(a @ res.x - rhs) <= tol * np.linalg.norm(rhs)
        assert res.residual <= tol

    def test_jacobi_preconditioned_diagonal(self):
        d = np.array([1.0, 10.0, 100.0, 1e4])
        rhs = np.array([1.0, 2.0, 3.0, 4.0])
        res = pcg_solve(lambda v, mv: d * v, rhs, precond=lambda r: r / d)
        assert res.iterations <= 2
        np.testing.assert_allclose(res.x, rhs / d, rtol=1e-10)

    def test_zero_rhs(self):
        res = pcg_solve(lambda v, mv: 2 * v, np.zeros(4))
        assert res.iterations == 0
        np.testing.assert_array_equal(res.x, 0.0)

    def test_nonconvergence_carries_best(self):
        rng = np.random.default_rng(2)
        a = random_spd(40, rng, cond=1e8)
        rhs = rng.normal(size=40)
        with pytest.raises(PcgError) as exc:
            pcg_solve(lambda v, mv: a @ v, rhs, tol=1e-14, maxit=3)
        assert exc.value.best is not None
        assert exc.value.best.shape == (40,)
        assert np.isfinite(exc.value.residual)

    def test_warm_start(self):
        rng = np.random.default_rng(3)
        a = random_spd(20, rng)
        rhs = rng.normal(size=20)
        xstar = np.linalg.solve(a, rhs)
        res = pcg_solve(lambda v, mv: a @ v, rhs, tol=1e-10, x0=xstar)
        assert res.iterations <= 1

    def test_exact_start_returns_without_iterating(self):
        # the start's residual is exactly 0, so the first search direction
        # would be 0 and p'Qp = 0: the start is the answer, not a breakdown
        d = np.array([2.0, 4.0, 8.0])
        x0 = np.array([1.0, -0.5, 0.25])
        res = pcg_solve(lambda v, mv: d * v, d * x0, precond=lambda r: r / d,
                        x0=x0)
        assert res.iterations == 0 and res.residual == 0.0
        np.testing.assert_array_equal(res.x, x0)
        assert res.x is not x0

    def test_carried_product_is_m_times_direction(self):
        # with the Jacobi preconditioner M = diag(d), CG hands matvec
        # M v beside each search direction v, and None at the start
        rng = np.random.default_rng(6)
        a = random_spd(30, rng, cond=1e3)
        d = np.diag(a).copy()
        rhs, x0 = rng.normal(size=30), rng.normal(size=30)
        seen = []

        def matvec(v, mv):
            seen.append((v.copy(), None if mv is None else mv.copy()))
            return a @ v

        res = pcg_solve(matvec, rhs, precond=lambda r: r / d, tol=1e-10,
                        x0=x0)
        assert len(seen) == res.iterations + 1 > 10
        assert seen[0][1] is None
        for v, mv in seen[1:]:
            np.testing.assert_allclose(mv, d * v, rtol=1e-12, atol=0)

    def test_reused_result_buffers(self):
        # matvec and precond write into one shared buffer, as the IAS x-step
        # does; PCG must take the same steps as with fresh arrays
        rng = np.random.default_rng(5)
        a = random_spd(30, rng, cond=1e3)
        d = np.diag(a).copy()
        rhs, x0 = rng.normal(size=30), rng.normal(size=30)
        buf = np.empty(30)
        fresh = pcg_solve(lambda v, mv: a @ v, rhs, precond=lambda r: r / d,
                          tol=1e-10, x0=x0)
        shared = pcg_solve(lambda v, mv: np.matmul(a, v, out=buf), rhs,
                           precond=lambda r: np.divide(r, d, out=buf),
                           tol=1e-10, x0=x0)
        assert shared.x is not buf
        np.testing.assert_array_equal(shared.x, fresh.x)
        assert shared.iterations == fresh.iterations
        assert shared.residual == fresh.residual

    def test_best_iterate_kept_past_worse_iterations(self):
        # on this system iteration 9 has a larger residual than iteration 8,
        # so a 9-iteration run must report iteration 8's iterate as its best
        rng = np.random.default_rng(2)
        a = random_spd(40, rng, cond=100.0)
        rhs = rng.normal(size=40)
        buf = np.empty(40)
        best = {}
        for maxit in (8, 9):
            with pytest.raises(PcgError) as exc:
                pcg_solve(lambda v, mv: np.matmul(a, v, out=buf), rhs, tol=1e-14,
                          maxit=maxit)
            best[maxit] = exc.value
        np.testing.assert_array_equal(best[9].best, best[8].best)
        assert best[9].residual == best[8].residual
        assert best[9].best is not buf
        assert np.linalg.norm(a @ best[9].best - rhs) / np.linalg.norm(rhs) \
            == pytest.approx(best[9].residual, rel=1e-9)

    @pytest.mark.parametrize("precond", [None, "jacobi"])
    def test_inputs_untouched(self, precond):
        # with precond=None the preconditioned residual is the residual
        # itself, so the in-place updates must not reach the caller's arrays
        rng = np.random.default_rng(4)
        a = random_spd(12, rng)
        rhs, x0 = rng.normal(size=12), rng.normal(size=12)
        rhs_in, x0_in = rhs.copy(), x0.copy()
        pre = None if precond is None else (lambda r: r / np.diag(a))
        res = pcg_solve(lambda v, mv: a @ v, rhs, precond=pre, tol=1e-10, x0=x0)
        np.testing.assert_array_equal(rhs, rhs_in)
        np.testing.assert_array_equal(x0, x0_in)
        assert res.x is not x0
        np.testing.assert_allclose(res.x, np.linalg.solve(a, rhs), atol=1e-8)


class TestSpdFactor:
    def test_identity_inverse(self):
        f = SpdFactor(np.eye(3))
        np.testing.assert_allclose(f.inverse(), np.eye(3), atol=1e-14)

    def test_two_by_two_hand_inverse(self):
        f = SpdFactor(np.array([[2.0, 1.0], [1.0, 2.0]]))
        want = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        np.testing.assert_allclose(f.inverse(), want, atol=1e-14)

    def test_solve(self):
        rng = np.random.default_rng(4)
        a = random_spd(12, rng)
        f = SpdFactor(a)
        rhs = rng.normal(size=12)
        np.testing.assert_allclose(f.solve(rhs), np.linalg.solve(a, rhs),
                                   atol=1e-10)

    def test_logdet_matches_eigenvalues(self):
        rng = np.random.default_rng(5)
        a = random_spd(16, rng, cond=50.0)
        f = SpdFactor(a)
        want = float(np.sum(np.log(np.linalg.eigvalsh(a))))
        assert f.logdet() == pytest.approx(want, abs=1e-9)

    def test_not_spd_reports_pivot(self):
        bad = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotSpdError) as exc:
            SpdFactor(bad)
        assert exc.value.pivot == 2

    def test_precision_sampling_covariance(self):
        # draws from N(0, A^{-1}): sample covariance within 3 MC standard
        # errors of A^{-1} entrywise
        rng = np.random.default_rng(6)
        a = random_spd(4, rng, cond=5.0)
        f = SpdFactor(a)
        n = 100_000
        draws = f.sample_precision(np.zeros(4), rng, size=n)
        cov_hat = np.cov(draws)
        cov = np.linalg.inv(a)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n)
        assert np.all(np.abs(cov_hat - cov) <= 3.0 * se + 1e-12)

    def test_sampling_deterministic(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        one = SpdFactor(a).sample_precision(np.zeros(2),
                                            np.random.default_rng(9))
        two = SpdFactor(a).sample_precision(np.zeros(2),
                                            np.random.default_rng(9))
        np.testing.assert_array_equal(one, two)


SIZES = [1, 2, 33, 130]


class TestSpdFactorLayout:
    """The kept Fortran-order factor against the np.tril reference form."""

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("layout", ["c", "f", "strided"])
    def test_equals_tril_form(self, n, layout):
        rng = np.random.default_rng(100 + n)
        a = layouts(symmetric_spd(n, rng))[layout]
        a_in = a.copy()
        ref = TrilFactor(a)
        f = SpdFactor(a)
        rhs = rng.normal(size=n)
        rhs_many = rng.normal(size=(n, 3))
        np.testing.assert_array_equal(f.solve(rhs), ref.solve(rhs))
        np.testing.assert_array_equal(f.solve(rhs_many), ref.solve(rhs_many))
        assert f.logdet() == ref.logdet()
        inv = f.inverse()
        np.testing.assert_array_equal(inv, ref.inverse())
        assert inv.flags.c_contiguous
        assert np.array_equal(inv, inv.T)
        np.testing.assert_array_equal(f.inverse(), inv)
        np.testing.assert_array_equal(f.solve(rhs), ref.solve(rhs))
        np.testing.assert_array_equal(a, a_in)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("layout", ["c", "f", "strided"])
    def test_inverse_factor(self, n, layout):
        rng = np.random.default_rng(400 + n)
        f = SpdFactor(layouts(symmetric_spd(n, rng))[layout])
        rhs = rng.normal(size=n)
        x, logdet = f.solve(rhs), f.logdet()
        g = f.inverse_factor()
        assert g.flags.c_contiguous
        assert np.all(g[np.tril_indices(n, -1)] == 0.0)
        inv = f.inverse()
        assert np.linalg.norm(g @ g.T - inv) <= 1e-12 * np.linalg.norm(inv)
        np.testing.assert_array_equal(f.solve(rhs), x)
        assert f.logdet() == logdet

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("layout", ["c", "f", "strided"])
    def test_overwrite_equals_copy(self, n, layout):
        rng = np.random.default_rng(500 + n)
        a = layouts(symmetric_spd(n, rng))[layout]
        a_in = a.copy()
        ref = SpdFactor(a)
        f = SpdFactor(a, overwrite=True)
        rhs = rng.normal(size=n)
        np.testing.assert_array_equal(f.solve(rhs), ref.solve(rhs))
        assert f.logdet() == ref.logdet()
        np.testing.assert_array_equal(
            f.sample_precision(rhs, np.random.default_rng(7), size=2),
            ref.sample_precision(rhs, np.random.default_rng(7), size=2))
        g = f.inverse_factor()
        np.testing.assert_array_equal(g, ref.inverse_factor())
        assert g.flags.c_contiguous
        # a C-ordered input holds the factor and then G; any other layout
        # is factored in a copy and left as it was
        in_place = a.flags.c_contiguous
        assert np.shares_memory(g, a) == in_place
        if not in_place:
            np.testing.assert_array_equal(a, a_in)
        # G spent f: the owned inverse comes from a second owned factor
        a2 = layouts(a_in.copy())[layout]
        inv = SpdFactor(a2, overwrite=True).inverse()
        np.testing.assert_array_equal(inv, ref.inverse())
        assert inv.flags.c_contiguous
        assert np.shares_memory(inv, a2) == in_place

    def test_overwrite_not_spd_pivot(self):
        with pytest.raises(NotSpdError) as exc:
            SpdFactor(np.diag([1.0, -1.0, 2.0]), overwrite=True)
        assert exc.value.pivot == 2

    def test_spent_factor_raises(self):
        rng = np.random.default_rng(8)
        mean = np.zeros(5)
        # the first inverse of either kind spends an owned factor
        for spend in ("inverse", "inverse_factor"):
            f = SpdFactor(symmetric_spd(5, rng), overwrite=True)
            getattr(f, spend)()
            for use in (lambda: f.solve(mean), f.inverse, f.inverse_factor,
                        f.logdet, lambda: f.sample_precision(mean, rng),
                        lambda: f.sample_precision(mean, rng, size=3)):
                with pytest.raises(SpentFactorError):
                    use()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("layout", ["c", "f", "strided"])
    def test_draws_equal_tril_form(self, n, layout):
        rng = np.random.default_rng(200 + n)
        a = layouts(symmetric_spd(n, rng))[layout]
        mean = rng.normal(size=n)
        f, ref = SpdFactor(a), TrilFactor(a)
        for k in (2, 5):
            np.testing.assert_array_equal(
                f.sample_precision(mean, np.random.default_rng(k), size=k),
                ref.sample_precision(mean, np.random.default_rng(k), size=k))
        # one right-hand side takes a different triangular-solve path
        np.testing.assert_allclose(
            f.sample_precision(mean, np.random.default_rng(1)),
            ref.sample_precision(mean, np.random.default_rng(1)),
            rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", SIZES)
    def test_draws_equal_checked_solve(self, n):
        # the draws skip solve_triangular's finiteness scan of the factor
        rng = np.random.default_rng(600 + n)
        f = SpdFactor(symmetric_spd(n, rng))
        mean = rng.normal(size=n)
        for size in (None, 3):
            z = np.random.default_rng(9).standard_normal(
                n if size is None else (n, size))
            want = solve_triangular(f._factor, z, lower=True, trans="T",
                                    check_finite=True)
            want = mean + want if size is None else mean[:, None] + want
            np.testing.assert_array_equal(
                f.sample_precision(mean, np.random.default_rng(9), size=size),
                want)

    @pytest.mark.parametrize("n", SIZES[1:])
    @pytest.mark.parametrize("layout", ["c", "f", "strided"])
    def test_not_spd_pivot_equals_tril_form(self, n, layout):
        rng = np.random.default_rng(300 + n)
        a = symmetric_spd(n, rng)
        a[n // 2, n // 2] = -1.0
        a = layouts(a)[layout]
        a_in = a.copy()
        with pytest.raises(NotSpdError) as exc:
            SpdFactor(a)
        assert 0 < exc.value.pivot == TrilFactor(a).info
        np.testing.assert_array_equal(a, a_in)
