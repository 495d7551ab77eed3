"""Lattice geometry, periodic difference operators, and the blur forward model.

Images are k x n pixel grids handled as column-wise stacked vectors of
length N = k*n: pixel (i, j) (0-based row i, column j) lives at stacked
index j*k + i. All operators assume periodic boundary conditions in both
directions.

The difference operator D stacks a horizontal block (x[i, j+1] - x[i, j])
over a vertical block (x[i+1, j] - x[i, j]); a block along a lattice side
of 1 would be identically zero and is dropped, so a 1-D signal gets the
plain circulant first-difference matrix. D's geometry is one stencil table,
an entry (stride, wrapped rows, their +1 pixels) per kept block (see
``DiffOperator``), read through one row-forming helper and one scatter
helper by D, D', the CG apply D'(W - w_mean I) D, the row quadratic of VB
and the +1/-1 column indices of the dense paths.

H and D'D are circulant, so rfft2 diagonalises both, and each spectrum is
the rfft2 of its operator's first column, formed when the operator is built:
H's from the mask wrapped onto the lattice, D'D's from D'D e_0. H'H's
multiplier is the real |H^|^2, so H'H v costs one FFT round trip. H, H', H'H
and the preconditioner apply through ``_fourier_apply``; it and D, D' check
their vector lengths in ``_check_length``. Inside an IAS CG solve each
iteration makes one FFT round trip, the preconditioner's: its matrix M = H'H
+ (lambda/nu) w_mean D'D already holds H'H, so ``weighted_gram_matvec``
reads H'H v from the M v that CG carries (``solvers.pcg_solve``) and applies
only the stencils, D'((W - w_mean I) D v) in one pass over the blocks
(``DiffOperator.gram_matvec``), each a flat shift of the stacked vector.
Every function that takes a blur and a difference operator first checks
that they share a lattice (``_check_same_lattice``). H'H + delta D'D is
circulant too, so the Tikhonov solve (``tikhonov_solve``) is one division
on the Fourier grid, and the generalized cross-validation score of its
weight delta (``gcv_scores``) a sum over that grid; so are the difference-row
variances and tr(H'H S) of the covariance S = (nu H'H + lambda w_mean
D'D)^{-1} that VB's warm sweeps use (``circulant_covariance``).

The dense x-system H'H + (lambda/nu) D' W D of VB, Gibbs and
``model.conditional_params`` is formed only in ``dense_gram``. It reads H'H
from its lag table (the mask's autocorrelation wrapped onto the lattice,
4N floats once tiled) and never forms H'H as an N x N matrix of its own.
``BlurOperator.to_dense`` and ``DiffOperator.to_dense`` are test oracles
only.

Buffers: only the arrays an IAS CG solve reuses come from the caller, numpy
style, and are allocated when not given: the result ``out`` of
``weighted_gram_matvec`` (and of ``DiffOperator.gram_matvec``), which the
``circulant_gram_precond`` apply shares, and the difference rows ``rows``.
The preconditioner makes its one spectrum array when it is built. The
operators keep none: a CG solve owns its set for its whole run
(``estimators._gram_solve``), so the arrays are freed when the solve ends
rather than held while the caller goes on. Each such call overwrites its
buffers, so a result written into one is valid until the next call that is
given it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import CapacityError, NonFiniteError

__all__ = [
    "DENSE_CAPACITY",
    "LatticeSpec",
    "DiffOperator",
    "BlurOperator",
    "gaussian_kernel",
    "weighted_gram_matvec",
    "dense_gram",
    "circulant_gram_precond",
    "circulant_covariance",
    "tikhonov_solve",
    "GCV_DELTAS",
    "gcv_scores",
    "gcv_delta",
    "check_nonnegative",
    "check_positive",
    "validate_rank_condition",
]

# Largest stacked length for which dense-matrix code paths are allowed.
DENSE_CAPACITY = 4096


def _check_length(v: np.ndarray, n: int, what: str):
    if np.shape(v) != (n,):
        raise ValueError(f"expected {what} of length {n}, got shape "
                         f"{np.shape(v)}")


def _check_dense(n: int, what: str):
    if n > DENSE_CAPACITY:
        raise CapacityError(
            f"{what} needs a dense {n} x {n} matrix; the dense path is capped "
            f"at N = {DENSE_CAPACITY}. Use the matrix-free estimator (ias / "
            "tikhonov) for problems this large."
        )


@dataclass(frozen=True)
class LatticeSpec:
    """k x n pixel lattice with column-wise stacking."""

    k: int
    n: int

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ValueError(f"lattice dimensions must be >= 1, got {self.k} x {self.n}")
        if self.k * self.n < 2:
            raise ValueError("lattice needs at least 2 pixels")

    @property
    def size(self) -> int:
        return self.k * self.n

    def index(self, i: int, j: int) -> int:
        """Stacked index of pixel (row i, column j), 0-based."""
        return (j % self.n) * self.k + (i % self.k)

    def to_grid(self, x: np.ndarray) -> np.ndarray:
        """Stacked vector -> k x n array."""
        return np.asarray(x, dtype=float).reshape((self.k, self.n), order="F")

    def to_stacked(self, img: np.ndarray) -> np.ndarray:
        """k x n array -> stacked vector."""
        img = np.asarray(img, dtype=float)
        if img.shape != (self.k, self.n):
            raise ValueError(f"expected {self.k} x {self.n} image, got {img.shape}")
        return img.ravel(order="F")

    def check_vector(self, v: np.ndarray, name: str) -> np.ndarray:
        """``v`` as floats, checked: length N and finite (errors name it)."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.size,):
            raise ValueError(f"{name} must have length {self.size}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError(f"{name} has non-finite entries", where=name)
        return v


def _block_rows(op, v: np.ndarray, d: np.ndarray, block: tuple):
    """op(v at the +1 pixel, v at the -1 pixel) of one difference block's
    rows into ``d``: the flat shift of v by the block's stride, then the
    wrapped rows afresh from their +1 pixels."""
    stride, here, ahead = block
    op(v[stride:], v[:-stride], out=d[:-stride])
    op(v[ahead], v[here], out=d[here])


def _scatter_ahead(out: np.ndarray, d: np.ndarray, block: tuple):
    """Add each of one block's rows ``d`` to its +1 pixel in ``out``: the
    flat shift back by the block's stride adds the wrapped rows to the
    wrong pixels, so those take their sums afresh."""
    stride, here, ahead = block
    wrapped = out[ahead].copy()
    out[stride:] += d[:-stride]
    np.add(wrapped, d[here], out=out[ahead])


class DiffOperator:
    """Periodic first-difference operator over a lattice.

    One table holds D's geometry, one stencil entry per kept block:
    (stride, here, ahead). On the stacked vector a block's rows are
    v[s + stride] - v[s], stored at s, except its wrapped rows ``here``
    (the last k pixels of the horizontal block, the last of each column in
    the vertical one), whose +1 pixels ``ahead`` wrap round. D, D', the CG
    apply, the row quadratic of VB and the +1/-1 pixel of every row
    (``pos_idx``/``neg_idx``) all read it, and so does D'D's spectrum: the
    rfft2 of its first column D'D e_0, formed once, here.
    """

    def __init__(self, lattice: LatticeSpec):
        self.lattice = lattice
        k, n, N = lattice.k, lattice.n, lattice.size
        # a block along a lattice side of 1 has zero rows: it is dropped
        kept = [(name, block) for name, side, block in (
            ("h", n, (k, np.s_[N - k:], np.s_[:k])),
            ("v", k, (1, np.s_[k - 1::k], np.s_[::k])))
            if side >= 2]
        self.blocks: tuple[str, ...] = tuple(name for name, _ in kept)
        self._table = tuple(block for _, block in kept)
        pixels = np.arange(N)
        self.neg_idx = np.tile(pixels, len(kept))
        # a row's +1 pixel is its -1 pixel plus that row of D applied to the
        # pixel numbers
        self.pos_idx = np.empty_like(self.neg_idx)
        for d, block in zip(self.pos_idx.reshape(len(kept), N), self._table):
            _block_rows(np.subtract, pixels, d, block)
        self.pos_idx += self.neg_idx
        # D'D e_0 is symmetric, so its spectrum is real up to round-off
        self._gram_eig = np.fft.rfft2(lattice.to_grid(
            self.rmatvec(self.matvec(pixels == 0)))).real.copy()
        self._gram_eig.flags.writeable = False

    @property
    def n_rows(self) -> int:
        return self.pos_idx.shape[0]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """D x."""
        x = np.asarray(x, dtype=float)
        _check_length(x, self.lattice.size, "stacked vector")
        out = np.empty((self.n_blocks, self.lattice.size))
        for d, block in zip(out, self._table):
            _block_rows(np.subtract, x, d, block)
        return out.ravel()

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """D' w."""
        w = np.asarray(w, dtype=float)
        _check_length(w, self.n_rows, "difference-row vector")
        w = w.reshape(self.n_blocks, self.lattice.size)
        # a pixel is the +1 entry of the row one step back in each block and
        # the -1 entry of its own row
        out = np.zeros(self.lattice.size)
        for d, block in zip(w, self._table):
            _scatter_ahead(out, d, block)
        # the -1 sums need an array of their own beside the +1 sums in out
        # (subtracting the blocks one by one would round differently)
        np.subtract(out, w.sum(axis=0), out=out)
        return out

    def gram_matvec(self, v: np.ndarray, row_weights: np.ndarray,
                    offset: float = 0.0, out: np.ndarray | None = None,
                    rows: np.ndarray | None = None) -> np.ndarray:
        """D'((W - offset I) D v) for W = diag(``row_weights``), into ``out``
        (length N) through the work array ``rows`` (length ``n_rows``);
        either is allocated when None.

        One block at a time, on the stacked vector itself: the block's rows
        are formed as in ``matvec``, weighted, and scattered into ``out`` as
        in ``rmatvec``, so every pass but the wrapped rows' runs over
        contiguous memory. W - offset is never formed whole (it goes through
        ``out`` before the first scatter and through the first block's spent
        rows after it); at offset 0 it is W bit for bit. It agrees with
        ``rmatvec`` of the weighted ``matvec`` to round-off, not bit for bit.
        """
        N = self.lattice.size
        v = np.asarray(v, dtype=float)
        _check_length(v, N, "stacked vector")
        if out is None:
            out = np.empty(N)
        if rows is None:
            rows = np.empty(self.n_rows)
        _check_length(out, N, "stacked out")
        _check_length(rows, self.n_rows, "difference-row work array")
        blocks = rows.reshape(self.n_blocks, N)
        weights = np.asarray(row_weights, dtype=float).reshape(self.n_blocks, N)
        for b, (d, block) in enumerate(zip(blocks, self._table)):
            _block_rows(np.subtract, v, d, block)
            d *= np.subtract(weights[b], offset, out=blocks[0] if b else out)
            # each row is the -1 entry of its own pixel
            if b:
                out -= d
            else:
                np.negative(d, out=out)
            _scatter_ahead(out, d, block)
        return out

    def gram_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of D'D on the k x (n//2+1) rfft2 frequency grid: the
        rfft2 of its first column, formed at construction and read-only."""
        return self._gram_eig

    def weighted_gram_dense(self, row_weights: np.ndarray) -> np.ndarray:
        """Dense D' W D (N x N), capacity gated."""
        N = self.lattice.size
        _check_dense(N, "weighted difference gram")
        w = np.asarray(row_weights, dtype=float)
        p, q = self.pos_idx, self.neg_idx
        out = np.zeros((N, N))
        # the (p,p), (q,q), (p,q) and (q,p) entries of all rows in one
        # scatter, in that order: every entry sums its terms in the same
        # order as four scatters, one per kind, would
        np.add.at(out, (np.concatenate((p, q, p, q)),
                        np.concatenate((p, q, q, p))),
                  np.concatenate((w, w, -w, -w)))
        return out

    def factor_row_quadratic(self, g: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
        """diag(D G G' D') and diag(G G') for a dense N x N G: per row
        (p, q) of D, |G[p]|^2 + |G[q]|^2 - 2 G[p].G[q], the products over
        the rows of G formed as in ``matvec`` (no D G is formed), and the
        squared row norms |G[s]|^2 it sums."""
        dots = np.empty((self.n_blocks, self.lattice.size))
        for d, block in zip(dots, self._table):
            _block_rows(partial(np.einsum, "il,il->i"), g, d, block)
        sq = np.einsum("ij,ij->i", g, g)
        return sq[self.pos_idx] + sq[self.neg_idx] - 2.0 * dots.ravel(), sq

    def to_dense(self) -> np.ndarray:
        _check_dense(self.lattice.size, "difference operator assembly")
        out = np.zeros((self.n_rows, self.lattice.size))
        rows = np.arange(self.n_rows)
        out[rows, self.pos_idx] += 1.0
        out[rows, self.neg_idx] -= 1.0
        return out


def _fourier_apply(lattice: LatticeSpec, x: np.ndarray, mult: np.ndarray,
                   out: np.ndarray | None = None,
                   spec: np.ndarray | None = None) -> np.ndarray:
    """rfft2(x) * mult transformed back, for a stacked vector x of length N.

    The spectrum is formed, multiplied by ``mult`` and transformed back in
    ``spec``, and the result written into ``out``; either is allocated when
    None.
    """
    _check_length(x, lattice.size, "stacked vector")
    grid = lattice.to_grid(x)
    spec = np.fft.rfft2(grid, out=spec)
    # a real multiplier scales the real and imaginary parts in place: numpy
    # would cast it to complex in chunks for a complex multiply
    for part in (spec,) if np.iscomplexobj(mult) else (spec.real, spec.imag):
        np.multiply(part, mult, out=part)
    if out is None:
        out = np.empty(lattice.size)
    # irfft2's two passes, bit for bit: numpy 2.4's irfft2 hands out=None on
    # to irfftn whatever out it is given, so it would allocate a complex
    # copy of the spectrum and a real result to be copied into out
    np.fft.ifft(spec, axis=0, out=spec)
    np.fft.irfft(spec, n=grid.shape[1], axis=1, out=lattice.to_grid(out))
    return out


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Sampled isotropic Gaussian mask, odd size, normalised to sum 1."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, got {size}")
    # sigma^2 divides below: its overflow raises, its underflow gives NaN
    if not (sigma > 0 and 0 < sigma * sigma < math.inf):
        raise ValueError(f"kernel sigma must be > 0 with a finite nonzero "
                         f"square, got {sigma}")
    if size == 1:
        return np.ones((1, 1))
    c = size // 2
    u = np.arange(-c, c + 1, dtype=float)
    g = np.exp(-0.5 * (u[:, None] ** 2 + u[None, :] ** 2) / sigma ** 2)
    return g / g.sum()


@dataclass
class BlurOperator:
    """Periodic 2-D convolution with an odd, normalised, nonnegative mask.

    matvec computes out(i, j) = sum_{u,v} w(u, v) x(i+u-c, j+v-c) with
    periodic wrap; the adjoint is the same stencil with the flipped mask.
    Both are evaluated in the Fourier domain (the operator is circulant).
    """

    kernel: np.ndarray
    lattice: LatticeSpec
    _fwd: np.ndarray = field(init=False, repr=False)
    _adj: np.ndarray = field(init=False, repr=False)
    _gram: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.kernel, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2 == 0:
            raise ValueError(f"kernel must be odd square, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("kernel weights must be finite")
        if np.any(w < 0):
            raise ValueError("kernel weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"kernel must sum to 1, got {w.sum()!r}")
        self.kernel = w
        k, n = self.lattice.k, self.lattice.n
        c = w.shape[0] // 2
        pad = np.zeros((k, n))
        lag = np.arange(-c, c + 1)
        # kernels larger than the lattice alias by periodic wrap
        np.add.at(pad, np.ix_(lag % k, lag % n), w)
        freq = np.fft.rfft2(pad)
        self._adj = freq            # multiplier of convolution with w
        self._fwd = np.conj(freq)   # correlation with w
        self._gram = np.abs(freq) ** 2  # H'H, real

    @property
    def size(self) -> int:
        return self.lattice.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return _fourier_apply(self.lattice, x, self._fwd)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return _fourier_apply(self.lattice, x, self._adj)

    def gram_matvec(self, x: np.ndarray) -> np.ndarray:
        """H'H x in one FFT round trip."""
        return _fourier_apply(self.lattice, x, self._gram)

    def to_dense(self) -> np.ndarray:
        """Dense H (N x N), capacity gated: a test oracle only; ``dense_gram``
        reads H'H from the mask's autocorrelation instead."""
        _check_dense(self.size, "blur operator assembly")
        k, n, N = self.lattice.k, self.lattice.n, self.size
        c = self.kernel.shape[0] // 2
        s = np.arange(N)
        i, j = s % k, s // k
        out = np.zeros((N, N))
        for du in range(-c, c + 1):
            for dv in range(-c, c + 1):
                wgt = self.kernel[du + c, dv + c]
                cols = ((j + dv) % n) * k + (i + du) % k
                np.add.at(out, (s, cols), wgt)
        return out


def check_nonnegative(value, name: str) -> np.ndarray:
    """``value`` (array or scalar) as floats, checked finite and >= 0."""
    value = np.asarray(value, dtype=float)
    # NaN fails both comparisons, since min and max propagate it
    if not (value.min() >= 0 and value.max() < np.inf):
        raise NonFiniteError(f"{name} must be finite and >= 0", where=name)
    return value


def check_positive(value, name: str, iteration: int | None = None):
    """``value`` (array or scalar), checked finite and > 0, returned as it
    came; an empty array passes."""
    v = np.asarray(value, dtype=float)
    # NaN fails both comparisons, since min and max propagate it
    if v.size and not (v.min() > 0 and v.max() < np.inf):
        at = "" if iteration is None else f" at iteration {iteration}"
        raise NonFiniteError(f"{name} must be positive and finite{at}",
                             where=name, iteration=iteration)
    return value


def _check_same_lattice(blur: BlurOperator, diff: DiffOperator):
    if blur.lattice != diff.lattice:
        b, d = blur.lattice, diff.lattice
        raise ValueError(f"blur lattice {b.k} x {b.n} differs from the "
                         f"difference operator's lattice {d.k} x {d.n}")


def weighted_gram_matvec(blur: BlurOperator, diff: DiffOperator,
                         lam_over_nu: float, row_weights: np.ndarray,
                         v: np.ndarray, out: np.ndarray | None = None, *,
                         rows: np.ndarray | None = None,
                         mv: np.ndarray | None = None,
                         mean_weight: float | None = None) -> np.ndarray:
    """(H'H + (lambda/nu) D' W D) v without forming the matrix.

    The result is mv + (lambda/nu) D'((W - w_mean I) D v) for
    mv = (H'H + (lambda/nu) w_mean D'D) v, with D and D' applied as
    stencils. Without ``mv``, w_mean is 0 and mv = H'H v is formed by its
    circulant multiplier |H^|^2 (one FFT round trip). A caller that passes
    ``mv`` (the M v that CG carries, with no FFT here) must pass as
    ``mean_weight`` the w_mean that its ``circulant_gram_precond`` M was
    built with. ``row_weights`` is the diagonal of W = R^{-2}, one entry per
    difference row; zero entries are allowed (a safeguarded prior keeps them
    finite). It and ``lam_over_nu`` are checked on calls without ``mv``
    only: a CG solve checks them at its start apply, and its carried
    applies reuse the same arrays. The result goes into ``out`` (length N,
    neither ``v`` nor ``mv``), which also serves as work space; ``rows``
    holds the difference rows. Each is allocated when not given.
    """
    _check_same_lattice(blur, diff)
    if mv is None:
        row_weights = check_nonnegative(row_weights, "row_weights")
        check_nonnegative(lam_over_nu, "lam_over_nu")
        mv, mean_weight = blur.gram_matvec(v), 0.0
    elif mean_weight is None:
        raise ValueError("a carried mv needs the preconditioner's mean_weight")
    out = diff.gram_matvec(v, row_weights, mean_weight, out=out, rows=rows)
    out *= lam_over_nu
    out += mv
    return out


def dense_gram(blur: BlurOperator, diff: DiffOperator):
    """Capacity-gated builder: ``build(lam_over_nu, row_weights)`` returns a
    fresh dense H'H + (lambda/nu) D' W D.

    H'H is block-circulant, so its lag table (k x n, formed here once)
    holds all of it: H'H[s, t] = c[i_t - i_s, j_t - j_s] (mod k, n) for
    pixels s = (i_s, j_s) and t = (i_t, j_t). The table is tiled twice in
    each direction, transposed to the n x k order of a stacked vector's
    reshape, and read through one strided view with that entry at
    [j_s, i_s, j_t, i_t]; each build adds the view into the weighted
    difference gram, so no N x N H'H is ever formed.
    """
    _check_same_lattice(blur, diff)
    _check_dense(blur.size, "the Gaussian x-conditional")
    k, n = blur.lattice.k, blur.lattice.n
    w = blur.kernel
    size = w.shape[0]
    # c is the mask's autocorrelation: the products w[u] w[u + lag] of its
    # taps, here at [size - 1 + lag], tap by tap. Unlike irfft2 of |H^|^2
    # it is exactly zero beyond the mask's reach, as H'H is.
    auto = np.zeros((2 * size - 1, 2 * size - 1))
    for (du, dv), wt in np.ndenumerate(w):
        auto[size - 1 - du:2 * size - 1 - du,
             size - 1 - dv:2 * size - 1 - dv] += wt * w
    # lags wrap onto the lattice as the mask does in BlurOperator
    lag = np.arange(1 - size, size)
    lags = np.zeros((k, n))
    np.add.at(lags, np.ix_(lag % k, lag % n), auto)
    # the wrapped sums of a lag and of its negative run in opposite orders:
    # average them, so H'H comes out exactly symmetric
    lags += np.roll(lags[::-1, ::-1], 1, axis=(0, 1))
    lags *= 0.5
    tiled = np.tile(lags.T, (2, 2))
    s0, s1 = tiled.strides
    # entry [j_s, i_s, j_t, i_t] is tiled[n + j_t - j_s, k + i_t - i_s]; the
    # innermost axis, i_t, reads the table forwards
    hth = np.lib.stride_tricks.as_strided(
        tiled[n:, k:], shape=(n, k, n, k), strides=(-s0, -s1, s0, s1),
        writeable=False)

    def build(lam_over_nu: float, row_weights: np.ndarray) -> np.ndarray:
        q = diff.weighted_gram_dense(row_weights)
        q *= lam_over_nu
        grid = q.reshape(hth.shape)
        np.add(grid, hth, out=grid)
        return q

    return build


def circulant_gram_precond(blur: BlurOperator, diff: DiffOperator,
                           lam_over_nu: float, mean_weight: float, *,
                           out: np.ndarray | None = None):
    """Exact inverse of H'H + (lambda/nu) * w_mean * D'D, applied via FFT.

    Freezing the difference weights at their mean makes the operator
    block-circulant, so it diagonalises on the Fourier grid. Used as a
    preconditioner for the true variable-weight system. Every apply
    transforms through one spectrum array, made here, and writes its result
    into ``out`` when given (so each result is overwritten by the next
    apply), or into a fresh array when not. ``lam_over_nu`` and
    ``mean_weight`` must be finite and >= 0.
    """
    _check_same_lattice(blur, diff)
    check_nonnegative(lam_over_nu, "lam_over_nu")
    check_nonnegative(mean_weight, "mean_weight")
    # the reciprocal spectrum, formed in place: numpy divides by (c + 0i) as
    # a multiply by 1/c, so each apply's multiply by it equals the division
    # by the spectrum bit for bit
    inv_eig = (blur._gram
               + lam_over_nu * mean_weight * diff.gram_eigenvalues())
    np.maximum(inv_eig, 1e-300, out=inv_eig)
    np.divide(1.0, inv_eig, out=inv_eig)
    lattice = blur.lattice
    spec = np.empty(inv_eig.shape, dtype=complex)

    def apply(v: np.ndarray) -> np.ndarray:
        return _fourier_apply(lattice, v, inv_eig, out, spec)

    return apply


def tikhonov_solve(blur: BlurOperator, diff: DiffOperator, delta: float,
                   rhs: np.ndarray) -> np.ndarray:
    """(H'H + delta D'D)^{-1} rhs by one division on the Fourier grid: the
    Tikhonov solution at weight ``delta`` when ``rhs`` is H'y."""
    # this module's preconditioner, not the estimators' binding of it, which
    # perfbench/spans.py counts as CG preconditioner applies
    return circulant_gram_precond(blur, diff, delta, 1.0)(rhs)


def _parseval_weights(lattice: LatticeSpec) -> np.ndarray:
    """Column weights that turn a sum over the k x (n//2+1) rfft2 grid of a
    symmetric spectrum into the sum over the full k x n grid: every column
    but the first and, for even n, the last stands for two."""
    weight = np.full(lattice.n // 2 + 1, 2.0)
    weight[0] = 1.0
    if lattice.n % 2 == 0:
        weight[-1] = 1.0
    return weight


def circulant_covariance(blur: BlurOperator, diff: DiffOperator):
    """Builder: ``stats(nu, lam_w)`` returns diag(D S D'), one variance per
    difference row, and tr(H'H S) for the block-circulant covariance S =
    (nu H'H + lam_w D'D)^{-1} (Babacan, Molina & Katsaggelos, IEEE TIP
    2008), with lam_w = lambda w_mean.

    S is diagonal on the Fourier grid, with entry 1 / (nu |H^|^2 + lam_w
    mu) where D'D's eigenvalue is mu. A block of D is a circulant first
    difference, with eigenvalue modulus |s_b|^2 = |rfft2 of its column D_b
    e_0|^2, so each of its rows has variance (1/N) sum |s_b|^2 / (nu |H^|^2
    + lam_w mu) over the Fourier grid, and tr(H'H S) = sum |H^|^2 / (nu
    |H^|^2 + lam_w mu). The sums run over the rfft2 grid with the Parseval
    column weights of ``gcv_scores``. The block spectra are formed here,
    once per builder, and each call costs O(N) with no transform.
    """
    _check_same_lattice(blur, diff)
    lattice = diff.lattice
    N = lattice.size
    weight = _parseval_weights(lattice)
    # one row per block: |s_b|^2 on the flattened rfft2 grid, each column
    # weighted and the 1/N of a row variance folded in
    block_eig = np.stack([
        (np.abs(np.fft.rfft2(lattice.to_grid(col))) ** 2 * weight).ravel()
        for col in diff.matvec(np.arange(N) == 0).reshape(diff.n_blocks, N)])
    block_eig /= N
    hh = blur._gram * weight
    mu = diff.gram_eigenvalues()

    def stats(nu: float, lam_w: float) -> tuple[np.ndarray, float]:
        inv_eig = nu * blur._gram + lam_w * mu
        np.divide(1.0, inv_eig, out=inv_eig)
        return (np.repeat(block_eig @ inv_eig.ravel(), N),
                float(np.sum(hh * inv_eig)))

    return stats


# The Tikhonov weights GCV chooses from: 10^-8 ... 10^0 in quarter decades
GCV_DELTAS = 10.0 ** (np.arange(-32, 1) / 4)


def gcv_scores(blur: BlurOperator, diff: DiffOperator,
               y: np.ndarray) -> np.ndarray:
    """Generalized cross-validation score of the Tikhonov solution at each
    weight of ``GCV_DELTAS`` (Golub, Heath & Wahba, Technometrics 1979).

    With A = H (H'H + delta D'D)^{-1} H' the score is N ||(I - A) y||^2 /
    tr(I - A)^2. I - A is circulant, with eigenvalue g = delta mu / (|H^|^2
    + delta mu) at a frequency where D'D's is mu, so by Parseval the score
    is sum g^2 |y^|^2 / (sum g)^2 over the Fourier grid. On the rfft2 grid
    every column but the first and, for even n, the last stands for two
    columns of the full one, and is weighted twice. g is 0 only at the zero
    frequency (mu = 0, |H^|^2 = 1), so the sum of g is positive.
    """
    _check_same_lattice(blur, diff)
    lattice = blur.lattice
    _check_length(y, lattice.size, "stacked vector")
    spec = np.fft.rfft2(lattice.to_grid(y))
    weight = _parseval_weights(lattice)
    wy2 = weight * np.abs(spec) ** 2
    mu = diff.gram_eigenvalues()
    scores = np.empty(GCV_DELTAS.size)
    # one weight at a time, so the work arrays stay the size of the grid
    for i, delta in enumerate(GCV_DELTAS):
        g = delta * mu
        g /= blur._gram + g
        scores[i] = np.sum(g * g * wy2) / (g.sum(axis=0) @ weight) ** 2
    return scores


def gcv_delta(blur: BlurOperator, diff: DiffOperator, y: np.ndarray) -> float:
    """The weight of ``GCV_DELTAS`` at the least interior local minimum of
    the ``gcv_scores`` score, a score no higher than either neighbour's;
    at the least score only when there is none. On some data the score
    falls all the way to the grid's lower edge, whose solution fits the
    noise, past an interior minimum that does not."""
    scores = gcv_scores(blur, diff, y)
    inner = scores[1:-1]
    interior = np.r_[False, (inner <= scores[:-2]) & (inner <= scores[2:]),
                     False]
    if interior.any():
        scores[~interior] = np.inf
    return float(GCV_DELTAS[np.argmin(scores)])


def validate_rank_condition(blur: BlurOperator, diff: DiffOperator) -> bool:
    """Nul(D) cap Nul(H) = {0} for periodic D (nullspace = constants):
    passes iff H 1 = H^(0) 1 is nonzero, read from H's zero-frequency
    multiplier (the rfft2 of its first column at 0) with no apply."""
    return bool(abs(blur._adj[0, 0]) > 1e-10)
