"""Lattice, difference-operator and blur-operator tests.

Dense oracles: apply each operator to all unit vectors on a small lattice
and compare against the matrix form / direct index-notation sums.
"""

import numpy as np
import pytest

from tvbayes.errors import CapacityError, NonFiniteError
from tvbayes.operators import (
    BlurOperator,
    DiffOperator,
    LatticeSpec,
    circulant_gram_precond,
    dense_gram,
    gaussian_kernel,
    validate_rank_condition,
    weighted_gram_matvec,
)
from tvbayes.estimators import tikhonov_baseline


# 1-D row and column signals, a non-square grid and a square one
LATTICES = [(1, 17), (5, 1), (3, 4), (6, 6)]
# lattices with a side of 2, on which a wrap row joins the same two pixels
# as an interior row
TWO_WIDE = [(2, 2), (2, 3), (3, 2)]
# the same lattices with a kernel size; (5, 1, 7) and (3, 4, 5) alias the
# kernel by periodic wrap
BLUR_CASES = [(1, 17, 5), (5, 1, 7), (3, 4, 5), (6, 6, 3)]


def nan_buffer(shape, dtype=float):
    """A buffer whose stale entries would show in any result they leak into."""
    return np.full(shape, np.nan, dtype=dtype)


def dense_from_matvec(op_matvec, n):
    """Oracle: assemble a dense matrix column by column."""
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(op_matvec(e))
    return np.stack(cols, axis=1)


class TestLattice:
    def test_stacking_bijection(self):
        lat = LatticeSpec(3, 4)
        rng = np.random.default_rng(0)
        img = rng.normal(size=(3, 4))
        vec = lat.to_stacked(img)
        assert vec.shape == (12,)
        np.testing.assert_array_equal(lat.to_grid(vec), img)
        # column-wise convention: pixel (i, j) at index j*k + i
        assert vec[lat.index(2, 1)] == img[2, 1]
        assert lat.index(0, 0) == 0
        assert lat.index(1, 0) == 1
        assert lat.index(0, 1) == 3

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            LatticeSpec(0, 4)
        with pytest.raises(ValueError):
            LatticeSpec(1, 1)


class TestDiffOperator:
    def test_constant_in_nullspace(self):
        d = DiffOperator(LatticeSpec(4, 5))
        np.testing.assert_allclose(d.matvec(np.full(20, 3.7)), 0.0, atol=1e-14)

    def test_two_by_two_hand_enumeration(self):
        # columns (0,0) and (1,1): horizontal diffs (+1,+1,-1,-1) by wrap,
        # vertical diffs all zero
        lat = LatticeSpec(2, 2)
        d = DiffOperator(lat)
        x = lat.to_stacked(np.array([[0.0, 1.0], [0.0, 1.0]]))
        out = d.matvec(x)
        np.testing.assert_array_equal(out[:4], [1.0, 1.0, -1.0, -1.0])
        np.testing.assert_array_equal(out[4:], [0.0, 0.0, 0.0, 0.0])

    def test_1d_is_circulant_first_difference(self):
        lat = LatticeSpec(1, 5)
        d = DiffOperator(lat)
        assert d.blocks == ("h",)
        dm = d.to_dense()
        assert dm.shape == (5, 5)
        want = np.roll(np.eye(5), 1, axis=1) - np.eye(5)
        np.testing.assert_array_equal(dm, want)

    def test_column_signal_uses_vertical_block(self):
        d = DiffOperator(LatticeSpec(5, 1))
        assert d.blocks == ("v",)
        assert d.n_rows == 5

    def test_row_structure(self):
        d = DiffOperator(LatticeSpec(3, 4))
        dm = d.to_dense()
        assert dm.shape == (24, 12)
        # every row: exactly one +1, one -1, zero sum
        assert np.all(np.sum(dm == 1.0, axis=1) == 1)
        assert np.all(np.sum(dm == -1.0, axis=1) == 1)
        np.testing.assert_array_equal(dm.sum(axis=1), 0.0)

    def test_rank_is_n_minus_one(self):
        d = DiffOperator(LatticeSpec(3, 4))
        assert np.linalg.matrix_rank(d.to_dense()) == 11
        # nullspace = constants only
        _, s, vt = np.linalg.svd(d.to_dense())
        null = vt[-1]
        assert np.ptp(null) < 1e-10

    def test_index_notation_sums(self):
        # || R^{-1} D x ||^2 equals the explicit double sum over pixels
        lat = LatticeSpec(3, 4)
        d = DiffOperator(lat)
        rng = np.random.default_rng(1)
        x = rng.normal(size=12)
        r = rng.uniform(0.5, 2.0, size=24)
        lhs = float(np.sum(d.matvec(x) ** 2 / (2 * r)))
        img = lat.to_grid(x)
        rh = lat.to_grid(r[:12])
        rv = lat.to_grid(r[12:])
        acc = 0.0
        for i in range(3):
            for j in range(4):
                dh = img[i, (j + 1) % 4] - img[i, j]
                dv = img[(i + 1) % 3, j] - img[i, j]
                acc += dh ** 2 / (2 * rh[i, j]) + dv ** 2 / (2 * rv[i, j])
        assert lhs == pytest.approx(acc, rel=1e-12)

    def test_adjoint_matches_dense(self):
        d = DiffOperator(LatticeSpec(3, 3))
        dm = d.to_dense()
        rng = np.random.default_rng(2)
        w = rng.normal(size=18)
        np.testing.assert_allclose(d.rmatvec(w), dm.T @ w, atol=1e-13)

    @pytest.mark.parametrize("k,n", LATTICES + TWO_WIDE)
    def test_stencils_match_dense(self, k, n):
        d = DiffOperator(LatticeSpec(k, n))
        dm = d.to_dense()
        rng = np.random.default_rng(13)
        x, w = rng.normal(size=d.lattice.size), rng.normal(size=d.n_rows)
        np.testing.assert_allclose(d.matvec(x), dm @ x, atol=1e-13)
        np.testing.assert_allclose(d.rmatvec(w), dm.T @ w, atol=1e-13)
        assert float(d.matvec(x) @ w) == pytest.approx(
            float(x @ d.rmatvec(w)), abs=1e-12)

    @pytest.mark.parametrize("k,n", LATTICES + TWO_WIDE)
    def test_stencils_equal_index_form(self, k, n):
        # the same arithmetic as gathering and scattering by the row indices
        d = DiffOperator(LatticeSpec(k, n))
        N = d.lattice.size
        rng = np.random.default_rng(14)
        for _ in range(2):
            x, w = rng.normal(size=N), rng.normal(size=d.n_rows)
            want_dx = x[d.pos_idx] - x[d.neg_idx]
            want_dtw = (np.bincount(d.pos_idx, weights=w, minlength=N)
                        - np.bincount(d.neg_idx, weights=w, minlength=N))
            np.testing.assert_array_equal(d.matvec(x), want_dx)
            np.testing.assert_array_equal(d.rmatvec(w), want_dtw)

    @pytest.mark.parametrize("k,n", LATTICES + TWO_WIDE + [(7, 5)])
    @pytest.mark.parametrize("offset", [0.0, 0.4])
    def test_gram_matvec_is_weighted_stencils(self, k, n, offset):
        # D'((W - offset) D v) by flat shifts, allocating and into buffers
        # passed in (twice, so the second call overwrites the first's)
        d = DiffOperator(LatticeSpec(k, n))
        N = d.lattice.size
        rows, out = nan_buffer(d.n_rows), nan_buffer(N)
        rng = np.random.default_rng(19)
        for _ in range(2):
            v, w = rng.normal(size=N), rng.uniform(0.0, 2.0, size=d.n_rows)
            want = d.rmatvec((w - offset) * d.matvec(v))
            got = d.gram_matvec(v, w, offset)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
            assert d.gram_matvec(v, w, offset, out=out, rows=rows) is out
            np.testing.assert_array_equal(out, got)
        with pytest.raises(ValueError, match=f"length {d.n_rows}"):
            d.gram_matvec(v, w, offset, rows=np.empty(N + 1))
        with pytest.raises(ValueError, match=f"length {N}"):
            d.gram_matvec(v[:-1], w, offset)

    def test_rejects_wrong_lengths(self):
        # a 9 x 4 lattice: N = 36 pixels, 72 difference rows
        d = DiffOperator(LatticeSpec(9, 4))
        with pytest.raises(ValueError, match="length 36"):
            d.matvec(np.ones(35))
        with pytest.raises(ValueError, match="length 72"):
            d.rmatvec(np.ones(71))
        with pytest.raises(ValueError, match="length 36"):
            d.matvec(np.ones((9, 4)))
        with pytest.raises(ValueError, match="length 72"):
            d.rmatvec(np.ones((2, 36)))

    @pytest.mark.parametrize("k,n", LATTICES + TWO_WIDE)
    def test_row_indices_equal_index_notation(self, k, n):
        # row s of a block joins pixel s (-1) to the pixel one step on (+1)
        lat = LatticeSpec(k, n)
        d = DiffOperator(lat)
        steps = [(0, 1)] * (n >= 2) + [(1, 0)] * (k >= 2)
        pos, neg = [], []
        for di, dj in steps:
            for j in range(n):
                for i in range(k):
                    pos.append(lat.index(i + di, j + dj))
                    neg.append(lat.index(i, j))
        np.testing.assert_array_equal(d.pos_idx, pos)
        np.testing.assert_array_equal(d.neg_idx, neg)

    @pytest.mark.parametrize("k,n", LATTICES + TWO_WIDE)
    def test_gram_eigenvalues_match_dense(self, k, n):
        # D'D is circulant, so its rfft2 multiplier applies it exactly
        lat = LatticeSpec(k, n)
        d = DiffOperator(lat)
        dm = d.to_dense()
        x = np.random.default_rng(15).normal(size=lat.size)
        spec = np.fft.rfft2(lat.to_grid(x)) * d.gram_eigenvalues()
        got = lat.to_stacked(np.fft.irfft2(spec, s=(k, n)))
        np.testing.assert_allclose(got, dm.T @ dm @ x, atol=1e-12)

    @pytest.mark.parametrize("k,n", [(1, 100), (1, 2), (5, 1), (2, 3),
                                     (3, 4), (42, 42), (200, 200)])
    def test_gram_eigenvalues_closed_form(self, k, n):
        # each kept block adds |1 - e^{2 pi i f}|^2 = 2 - 2 cos(2 pi f)
        # along the rfft2 axis it steps on, f = frequency / lattice side
        d = DiffOperator(LatticeSpec(k, n))
        fi = np.arange(k)[:, None] / k
        fj = np.arange(n // 2 + 1)[None, :] / n
        want = ((2.0 - 2.0 * np.cos(2.0 * np.pi * fi)) * (k >= 2)
                + (2.0 - 2.0 * np.cos(2.0 * np.pi * fj)) * (n >= 2))
        eig = d.gram_eigenvalues()
        assert eig.shape == (k, n // 2 + 1)
        np.testing.assert_allclose(eig, want, rtol=0, atol=1e-13)
        # formed once, at construction, and shared read-only
        assert eig is d.gram_eigenvalues()
        with pytest.raises(ValueError, match="read-only"):
            eig[0, 0] = 1.0

    def test_weighted_gram_dense(self):
        d = DiffOperator(LatticeSpec(3, 4))
        rng = np.random.default_rng(3)
        w = rng.uniform(0.1, 2.0, size=24)
        dm = d.to_dense()
        np.testing.assert_allclose(d.weighted_gram_dense(w),
                                   dm.T @ np.diag(w) @ dm, atol=1e-13)

    @pytest.mark.parametrize("k,n", LATTICES + TWO_WIDE)
    def test_weighted_gram_dense_one_scatter(self, k, n):
        # oracle: one scatter per kind of entry; weights over 16 decades
        # make every entry's sum depend on the order of its terms
        d = DiffOperator(LatticeSpec(k, n))
        w = 10.0 ** np.random.default_rng(5).uniform(-8, 8, size=d.n_rows)
        p, q = d.pos_idx, d.neg_idx
        want = np.zeros((k * n, k * n))
        np.add.at(want, (p, p), w)
        np.add.at(want, (q, q), w)
        np.add.at(want, (p, q), -w)
        np.add.at(want, (q, p), -w)
        np.testing.assert_array_equal(d.weighted_gram_dense(w), want)

    @pytest.mark.parametrize("k,n", LATTICES + TWO_WIDE)
    def test_factor_row_quadratic(self, k, n):
        d = DiffOperator(LatticeSpec(k, n))
        rng = np.random.default_rng(4)
        g = rng.normal(size=(k * n, k * n))
        dm = d.to_dense()
        ggt = g @ g.T
        want = np.einsum("ri,ij,rj->r", dm, ggt, dm)
        rows, sq = d.factor_row_quadratic(g)
        np.testing.assert_allclose(rows, want, rtol=1e-12)
        np.testing.assert_allclose(sq, np.diag(ggt), rtol=1e-12)


class TestGaussianKernel:
    def test_identity(self):
        np.testing.assert_array_equal(gaussian_kernel(1, 1.0), [[1.0]])

    def test_normalised_and_symmetric(self):
        w = gaussian_kernel(7, 1.75)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(w, w[::-1, :], atol=1e-15)
        np.testing.assert_allclose(w, w[:, ::-1], atol=1e-15)
        np.testing.assert_allclose(w, w.T, atol=1e-15)

    def test_sigma_to_zero_limit(self):
        w = gaussian_kernel(3, 1e-3)
        assert w[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_even_size(self):
        with pytest.raises(ValueError):
            gaussian_kernel(4, 1.0)
        for sigma in (0.0, np.inf, np.nan, 1e-200, 1e200):
            with pytest.raises(ValueError):
                gaussian_kernel(3, sigma)


class TestBlurOperator:
    def test_identity_kernel(self):
        lat = LatticeSpec(4, 4)
        h = BlurOperator(np.ones((1, 1)), lat)
        x = np.random.default_rng(5).normal(size=16)
        np.testing.assert_allclose(h.matvec(x), x, atol=1e-13)

    def test_constant_preserved(self):
        h = BlurOperator(gaussian_kernel(5, 1.0), LatticeSpec(6, 7))
        np.testing.assert_allclose(h.matvec(np.full(42, 2.5)), 2.5, atol=1e-12)

    def test_adjoint_identity(self):
        h = BlurOperator(gaussian_kernel(3, 0.8), LatticeSpec(4, 4))
        rng = np.random.default_rng(6)
        for _ in range(5):
            x, v = rng.normal(size=16), rng.normal(size=16)
            assert float(h.matvec(x) @ v) == pytest.approx(
                float(x @ h.rmatvec(v)), abs=1e-12)

    def test_symmetric_kernel_self_adjoint(self):
        # a symmetric mask makes the operator itself self-adjoint
        h = BlurOperator(gaussian_kernel(5, 1.2), LatticeSpec(5, 6))
        rng = np.random.default_rng(12)
        for _ in range(5):
            u, v = rng.normal(size=30), rng.normal(size=30)
            assert float(h.matvec(u) @ v) == pytest.approx(
                float(u @ h.matvec(v)), abs=1e-12)

    @pytest.mark.parametrize("k,n,size", [(4, 4, 3), (5, 5, 5), (3, 5, 3),
                                          (2, 3, 5)])
    def test_matches_dense_oracle(self, k, n, size):
        # includes kernels larger than the lattice (periodic aliasing)
        lat = LatticeSpec(k, n)
        h = BlurOperator(gaussian_kernel(size, size / 4.0), lat)
        oracle = dense_from_matvec(h.matvec, lat.size)
        np.testing.assert_allclose(h.to_dense(), oracle, atol=1e-12)
        rng = np.random.default_rng(7)
        x = rng.normal(size=lat.size)
        np.testing.assert_allclose(h.matvec(x), oracle @ x, atol=1e-12)
        np.testing.assert_allclose(h.rmatvec(x), oracle.T @ x, atol=1e-12)

    def test_asymmetric_kernel_adjoint_is_flip(self):
        lat = LatticeSpec(4, 5)
        w = np.array([[0.5, 0.2, 0.0], [0.1, 0.1, 0.0], [0.0, 0.1, 0.0]])
        h = BlurOperator(w, lat)
        dense = h.to_dense()
        rng = np.random.default_rng(8)
        v = rng.normal(size=20)
        np.testing.assert_allclose(h.rmatvec(v), dense.T @ v, atol=1e-12)

    @pytest.mark.parametrize("k,n,size", BLUR_CASES)
    def test_gram_matvec_is_two_passes(self, k, n, size):
        lat = LatticeSpec(k, n)
        h = BlurOperator(gaussian_kernel(size, size / 4.0), lat)
        rng = np.random.default_rng(15)
        for _ in range(3):
            v = rng.normal(size=lat.size)
            got = h.gram_matvec(v)
            np.testing.assert_allclose(got, h.rmatvec(h.matvec(v)), atol=1e-13)
            # irfft2's two passes, bit for bit
            want = np.fft.irfft2(np.fft.rfft2(lat.to_grid(v)) * h._gram,
                                 s=(k, n))
            np.testing.assert_array_equal(got, lat.to_stacked(want))

    def test_rejects_bad_kernels(self):
        lat = LatticeSpec(4, 4)
        with pytest.raises(ValueError):
            BlurOperator(np.ones((2, 2)) / 4.0, lat)
        with pytest.raises(ValueError):
            BlurOperator(np.full((3, 3), 0.2), lat)  # sums to 1.8
        bad = np.zeros((3, 3))
        bad[0, 0], bad[1, 1] = -0.5, 1.5
        with pytest.raises(ValueError):
            BlurOperator(bad, lat)

    def test_rejects_non_finite_mask(self):
        # a NaN passes the sign and sum checks, as every comparison with it
        # is False
        w = np.full((3, 3), 1.0 / 9.0)
        w[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            BlurOperator(w, LatticeSpec(4, 4))

    def test_capacity_gate(self):
        h = BlurOperator(np.ones((1, 1)), LatticeSpec(80, 80))
        with pytest.raises(CapacityError):
            h.to_dense()


class TestWeightedGram:
    def _ops(self):
        lat = LatticeSpec(4, 4)
        return (BlurOperator(gaussian_kernel(3, 0.75), lat),
                DiffOperator(lat), lat)

    def test_zero_ratio_gives_hth(self):
        h, d, lat = self._ops()
        rng = np.random.default_rng(9)
        v = rng.normal(size=16)
        want = h.rmatvec(h.matvec(v))
        got = weighted_gram_matvec(h, d, 0.0, np.ones(32), v)
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_constant_vector(self):
        h, d, lat = self._ops()
        v = np.full(16, 1.3)
        got = weighted_gram_matvec(h, d, 2.0, np.ones(32), v)
        np.testing.assert_allclose(got, v, atol=1e-12)

    def test_matches_dense(self):
        h, d, lat = self._ops()
        rng = np.random.default_rng(10)
        w = rng.uniform(0.1, 3.0, size=32)
        ratio = 0.37
        qd = dense_gram(h, d)(ratio, w)
        v = rng.normal(size=16)
        np.testing.assert_allclose(weighted_gram_matvec(h, d, ratio, w, v),
                                   qd @ v, atol=1e-12)

    @pytest.mark.parametrize("k,n,size", [(24, 24, 5), (1, 17, 5), (5, 1, 7),
                                          (3, 4, 5), (6, 6, 3), (2, 3, 5),
                                          (32, 32, 5), (1, 32, 5)])
    def test_dense_hth_matches_dense_blur(self, k, n, size):
        # H'H read from the lag table against the product of the dense
        # oracle, for a Gaussian and an asymmetric mask; (5, 1, 7),
        # (3, 4, 5) and (2, 3, 5) alias the mask by periodic wrap
        lat = LatticeSpec(k, n)
        d = DiffOperator(lat)
        rng = np.random.default_rng(19)
        w = rng.uniform(size=(size, size))
        for mask in (gaussian_kernel(size, size / 4.0), w / w.sum()):
            h = BlurOperator(mask, lat)
            hd = h.to_dense()
            hth = dense_gram(h, d)(0.0, rng.uniform(0.1, 3.0, size=d.n_rows))
            assert hth.flags.c_contiguous
            assert np.array_equal(hth, hth.T)
            # the same sums of products in another order; entries are <= 1
            np.testing.assert_allclose(hth, hd.T @ hd, rtol=0, atol=1e-15)
            # exact zeros where no two taps meet, as in the product
            np.testing.assert_array_equal(hth == 0.0, hd.T @ hd == 0.0)

    @pytest.mark.parametrize("k,n,size", BLUR_CASES + [(24, 24, 7)])
    def test_precond_equals_division(self, k, n, size):
        # the stored reciprocal spectrum against the division by the
        # spectrum it replaced, bit for bit, with lambda/nu over 16 decades
        lat = LatticeSpec(k, n)
        h = BlurOperator(gaussian_kernel(size, size / 4.0), lat)
        d = DiffOperator(lat)
        rng = np.random.default_rng(20)
        v = rng.normal(size=lat.size)
        grid = lat.to_grid(v)
        for ratio in np.geomspace(1e-8, 1e8, 9):
            eig = np.maximum(h._gram + ratio * 1.3 * d.gram_eigenvalues(),
                             1e-300)
            want = np.fft.irfft2(np.fft.rfft2(grid) / eig, s=grid.shape)
            got = circulant_gram_precond(h, d, ratio, 1.3)(v)
            np.testing.assert_array_equal(got, lat.to_stacked(want))

    def test_spd_on_random_instances(self):
        h, d, lat = self._ops()
        rng = np.random.default_rng(11)
        w = rng.uniform(0.05, 5.0, size=32)
        for _ in range(100):
            v = rng.normal(size=16)
            assert float(v @ weighted_gram_matvec(h, d, 1.4, w, v)) > 0.0

    @pytest.mark.parametrize("k,n,size", BLUR_CASES)
    def test_out_forms_equal_allocating_forms(self, k, n, size):
        # the buffers of one IAS solve: the gram apply and the preconditioner
        # share the result, and the gram apply has its difference rows
        lat = LatticeSpec(k, n)
        h = BlurOperator(gaussian_kernel(size, size / 4.0), lat)
        d = DiffOperator(lat)
        rows, out = nan_buffer(d.n_rows), nan_buffer(lat.size)
        precond = circulant_gram_precond(h, d, 0.37, 1.3, out=out)
        fresh_precond = circulant_gram_precond(h, d, 0.37, 1.3)
        rng = np.random.default_rng(18)
        w = rng.uniform(0.1, 3.0, size=d.n_rows)
        for _ in range(2):
            v = rng.normal(size=lat.size)
            got = weighted_gram_matvec(h, d, 0.37, w, v, out, rows=rows)
            assert got is out
            np.testing.assert_array_equal(got,
                                          weighted_gram_matvec(h, d, 0.37, w, v))
            assert precond(v) is out
            np.testing.assert_array_equal(out, fresh_precond(v))

    @pytest.mark.parametrize("apply", ["matvec", "rmatvec", "gram_matvec",
                                       "precond"])
    def test_fourier_applies_reject_wrong_length(self, apply):
        # the blur, its adjoint, H'H and the preconditioner share one check
        h, d, lat = self._ops()
        fn = (circulant_gram_precond(h, d, 0.37, 1.3) if apply == "precond"
              else getattr(h, apply))
        for bad in (np.ones(lat.size - 1), np.ones(lat.size + 1),
                    np.ones((lat.k, lat.n))):
            with pytest.raises(ValueError, match="stacked vector of length"):
                fn(bad)

    @pytest.mark.parametrize("fn", ["dense_gram", "weighted_gram_matvec",
                                    "circulant_gram_precond",
                                    "tikhonov_baseline"])
    def test_rejects_mismatched_lattices(self, fn):
        # equal N = 36, so nothing but the lattice check tells them apart
        h = BlurOperator(gaussian_kernel(3, 0.75), LatticeSpec(6, 6))
        d = DiffOperator(LatticeSpec(4, 9))
        calls = {
            "dense_gram": lambda: dense_gram(h, d),
            "weighted_gram_matvec":
                lambda: weighted_gram_matvec(h, d, 1.0, np.ones(72),
                                             np.ones(36)),
            "circulant_gram_precond":
                lambda: circulant_gram_precond(h, d, 1.0, 1.0),
            "tikhonov_baseline":
                lambda: tikhonov_baseline(np.ones(36), h, d, 0.1),
        }
        with pytest.raises(ValueError, match="6 x 6.*4 x 9"):
            calls[fn]()

    def test_carried_product_replaces_the_fft(self, monkeypatch):
        # given M v for the preconditioner's M = H'H + ratio w_mean D'D, the
        # apply adds ratio D'(W - w_mean) D v to it and transforms nothing
        h, d, lat = self._ops()
        rng = np.random.default_rng(21)
        w = rng.uniform(0.1, 3.0, size=32)
        v = rng.normal(size=16)
        mv = h.gram_matvec(v) + 0.37 * 1.3 * d.rmatvec(d.matvec(v))
        want = weighted_gram_matvec(h, d, 0.37, w, v)
        monkeypatch.setattr(np.fft, "rfft2", None)
        got = weighted_gram_matvec(h, d, 0.37, w, v, rows=nan_buffer(32),
                                   mv=mv, mean_weight=1.3)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        # a carried product is only meaningful with the preconditioner's w_mean
        with pytest.raises(ValueError, match="mean_weight"):
            weighted_gram_matvec(h, d, 0.37, w, v, mv=mv)

    @pytest.mark.parametrize("name", ["lam_over_nu", "mean_weight"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -5.0])
    def test_precond_rejects_bad_scalars(self, name, bad):
        h, d, lat = self._ops()
        args = {"lam_over_nu": 0.37, "mean_weight": 1.3, name: bad}
        with pytest.raises(NonFiniteError, match=name) as exc:
            circulant_gram_precond(h, d, **args)
        assert exc.value.where == name

    def test_rejects_bad_weights(self):
        h, d, lat = self._ops()
        with pytest.raises(NonFiniteError):
            weighted_gram_matvec(h, d, 1.0, np.full(32, np.nan), np.ones(16))
        for bad in (np.inf, -np.inf, -1e-3):
            w = np.ones(32)
            w[5] = bad
            with pytest.raises(NonFiniteError):
                weighted_gram_matvec(h, d, 1.0, w, np.ones(16))
        with pytest.raises(NonFiniteError):
            weighted_gram_matvec(h, d, np.inf, np.ones(32), np.ones(16))


def zero_sum_blur(lat):
    """A blur whose mask sums to 0, so it annihilates constants; it bypasses
    the sum-1 validation."""
    h = BlurOperator(gaussian_kernel(3, 1.0), lat)
    lap = np.array([[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 0.0]])
    h.kernel = lap
    pad = np.zeros((lat.k, lat.n))
    for du in range(-1, 2):
        for dv in range(-1, 2):
            pad[du % lat.k, dv % lat.n] += lap[du + 1, dv + 1]
    freq = np.fft.rfft2(pad)
    h._adj, h._fwd = freq, np.conj(freq)
    return h


class TestRankCondition:
    def test_gaussian_kernel_passes(self):
        lat = LatticeSpec(4, 4)
        h = BlurOperator(gaussian_kernel(3, 1.0), lat)
        assert validate_rank_condition(h, DiffOperator(lat))

    def test_zero_sum_kernel_fails(self):
        lat = LatticeSpec(4, 4)
        assert not validate_rank_condition(zero_sum_blur(lat),
                                           DiffOperator(lat))

    def test_reads_the_zero_frequency_multiplier(self, monkeypatch):
        # both verdicts with no transform and no blur apply
        lat = LatticeSpec(4, 4)
        good = BlurOperator(gaussian_kernel(3, 1.0), lat)
        bad, d = zero_sum_blur(lat), DiffOperator(lat)

        def forbidden(*args, **kwargs):
            raise AssertionError("the rank check applied an operator")

        monkeypatch.setattr(np.fft, "rfft2", forbidden)
        monkeypatch.setattr(np.fft, "irfft", forbidden)
        monkeypatch.setattr(BlurOperator, "matvec", forbidden)
        assert validate_rank_condition(good, d)
        assert not validate_rank_condition(bad, d)
