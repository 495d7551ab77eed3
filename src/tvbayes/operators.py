"""Lattice geometry, periodic difference operators, and the blur forward model.

Images are k x n pixel grids handled as column-wise stacked vectors of
length N = k*n: pixel (i, j) (0-based row i, column j) lives at stacked
index j*k + i. All operators assume periodic boundary conditions in both
directions.

The difference operator D stacks a horizontal block (x[i, j+1] - x[i, j])
over a vertical block (x[i+1, j] - x[i, j]); a block whose lattice
dimension is 1 would be identically zero and is dropped, so a 1-D signal
gets the plain circulant first-difference matrix. All of D's geometry is
one step table of grid slices (see ``DiffOperator``); D, D', the row
quadratic of VB and the +1/-1 column indices of the dense paths each loop
over it.

The blur H is circulant, so H'H is too: its multiplier on the Fourier grid
is the real |H^|^2, and H'H v costs one FFT round trip.

Dense H'H and the dense x-system H'H + (lambda/nu) D' W D of VB, Gibbs and
``model.conditional_params`` are formed only in ``dense_gram``.

Buffers: ``BlurOperator.gram_matvec``, ``DiffOperator.matvec``/``rmatvec``,
``weighted_gram_matvec`` and the ``circulant_gram_precond`` apply take their
work and result arrays from the caller (``out``, ``spec``, ``rows``,
``acc``), numpy style, and allocate the ones not given. The operators keep
none: a CG solve owns one set for its whole run (``estimators._gram_solve``),
so the arrays are freed when the solve ends rather than held while the
caller goes on. Each such call overwrites its buffers, so a result written
into one is valid until the next call that is given it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    "validate_rank_condition",
]

# Largest stacked length for which dense-matrix code paths are allowed.
DENSE_CAPACITY = 4096


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

    @property
    def rfft_shape(self) -> tuple[int, int]:
        """Shape of the rfft2 spectrum of a k x n grid."""
        return self.k, self.n // 2 + 1

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


class DiffOperator:
    """Periodic first-difference operator over a lattice.

    The step table views a stacked vector as the n x k array g[j, i]: the
    horizontal block steps along axis 0, the vertical one along axis 1.
    Per kept block it holds the (ahead, here) slices of the interior rows
    ([1:], [:-1]) and of the wrapped edge row ([:1], [-1:]) on that axis.
    Those rows are g[ahead] - g[here], stored at ``here`` in the block;
    ``pos_idx``/``neg_idx`` hold each row's +1 and -1 pixel.
    """

    # the blocks in row order, each with the axis of g it steps along
    _BLOCK_AXES = (("h", 0), ("v", 1))

    def __init__(self, lattice: LatticeSpec):
        self.lattice = lattice
        self._grid = (lattice.n, lattice.k)
        kept = [(name, axis) for name, axis in self._BLOCK_AXES
                if self._grid[axis] >= 2]
        self.blocks: tuple[str, ...] = tuple(name for name, _ in kept)
        self._axes = tuple(axis for _, axis in kept)
        self._rows = (len(kept), *self._grid)
        steps = []
        for b, axis in enumerate(self._axes):
            lead = (slice(None),) * axis
            for ahead, here in ((np.s_[1:], np.s_[:-1]),
                                (np.s_[:1], np.s_[-1:])):
                steps.append((lead + (ahead,), lead + (here,),
                              (b, *lead, here)))
        self._steps = tuple(steps)
        pixels = np.arange(lattice.size).reshape(self._grid)
        pos = np.empty(self._rows, dtype=pixels.dtype)
        for ahead, _, row in self._steps:
            pos[row] = pixels[ahead]
        self.pos_idx = pos.ravel()
        self.neg_idx = np.tile(pixels.ravel(), len(kept))

    @property
    def n_rows(self) -> int:
        return self.pos_idx.shape[0]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """D x, written into ``out`` (length ``n_rows``) when given."""
        x = np.asarray(x, dtype=float)
        if out is None:
            out = np.empty(self.n_rows)
        g, rows = x.reshape(self._grid), out.reshape(self._rows)
        for ahead, here, row in self._steps:
            np.subtract(g[ahead], g[here], out=rows[row])
        return out

    def rmatvec(self, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """D' w, written into ``out`` (length N) when given."""
        N = self.lattice.size
        w = np.asarray(w, dtype=float).reshape(self.n_blocks, N)
        if out is None:
            out = np.empty(N)
        # a pixel is the +1 entry of the row one step back in each block and
        # the -1 entry of its own row
        out.fill(0.0)
        g, rows = out.reshape(self._grid), w.reshape(self._rows)
        for ahead, _, row in self._steps:
            g[ahead] += rows[row]
        # the -1 sums need an array of their own beside the +1 sums in out
        # (subtracting the blocks one by one would round differently)
        np.subtract(out, w.sum(axis=0), out=out)
        return out

    def gram_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of D'D on the rfft2 frequency grid.

        Each periodic difference block contributes |1 - e^{2 pi i f}|^2
        = 2 - 2 cos(2 pi f) along its axis (axis 1 - a of the k x (n//2+1)
        spectrum for axis a of g); D'D is circulant, so these are exact.
        """
        shape = self.lattice.rfft_shape
        out = np.zeros(shape)
        for axis in self._axes:
            f = np.arange(shape[1 - axis]) / self._grid[axis]
            out += np.expand_dims(2.0 - 2.0 * np.cos(2.0 * np.pi * f), axis)
        return out

    def weighted_gram_dense(self, row_weights: np.ndarray) -> np.ndarray:
        """Dense D' W D (N x N), capacity gated."""
        N = self.lattice.size
        _check_dense(N, "weighted difference gram")
        w = np.asarray(row_weights, dtype=float)
        out = np.zeros((N, N))
        np.add.at(out, (self.pos_idx, self.pos_idx), w)
        np.add.at(out, (self.neg_idx, self.neg_idx), w)
        np.add.at(out, (self.pos_idx, self.neg_idx), -w)
        np.add.at(out, (self.neg_idx, self.pos_idx), -w)
        return out

    def factor_row_quadratic(self, g: np.ndarray) -> np.ndarray:
        """diag(D G G' D') for a dense N x N G: per row (p, q) of D,
        |G[p]|^2 + |G[q]|^2 - 2 G[p].G[q], the products over the step
        table's row slices of G as in ``matvec`` (no D G is formed)."""
        g3 = g.reshape(*self._grid, -1)
        dots = np.empty(self.n_rows)
        rows = dots.reshape(self._rows)
        for ahead, here, row in self._steps:
            np.einsum("jil,jil->ji", g3[ahead], g3[here], out=rows[row])
        sq = np.einsum("ij,ij->i", g, g)
        return sq[self.pos_idx] + sq[self.neg_idx] - 2.0 * dots

    def to_dense(self) -> np.ndarray:
        _check_dense(self.lattice.size, "difference operator assembly")
        out = np.zeros((self.n_rows, self.lattice.size))
        rows = np.arange(self.n_rows)
        out[rows, self.pos_idx] += 1.0
        out[rows, self.neg_idx] -= 1.0
        return out


def _fourier_apply(lattice: LatticeSpec, x: np.ndarray, op, mult: np.ndarray,
                   out: np.ndarray | None,
                   spec: np.ndarray | None) -> np.ndarray:
    """op(rfft2(x), mult) transformed back, as a stacked vector.

    The spectrum is formed and combined with ``mult`` in ``spec`` and the
    result written into ``out``; either is allocated when None.
    """
    grid = lattice.to_grid(x)
    spec = np.fft.rfft2(grid, out=spec)
    op(spec, mult, out=spec)
    if out is None:
        out = np.empty(lattice.size)
    # numpy 2.4's irfft2 hands out=None on to irfftn whatever out it is
    # given, so its result is copied into the buffer here
    np.copyto(lattice.to_grid(out), np.fft.irfft2(spec, s=grid.shape))
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
        if np.any(w < 0):
            raise ValueError("kernel weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"kernel must sum to 1, got {w.sum()!r}")
        self.kernel = w
        k, n = self.lattice.k, self.lattice.n
        c = w.shape[0] // 2
        pad = np.zeros((k, n))
        di, dj = np.meshgrid(np.arange(-c, c + 1), np.arange(-c, c + 1),
                             indexing="ij")
        # kernels larger than the lattice alias by periodic wrap
        np.add.at(pad, (di.ravel() % k, dj.ravel() % n), w.ravel())
        freq = np.fft.rfft2(pad)
        self._adj = freq            # multiplier of convolution with w
        self._fwd = np.conj(freq)   # correlation with w
        self._gram = np.abs(freq) ** 2  # H'H, real

    @property
    def size(self) -> int:
        return self.lattice.size

    def _apply(self, x: np.ndarray, mult: np.ndarray,
               out: np.ndarray | None = None,
               spec: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.size,):
            raise ValueError(f"expected stacked vector of length {self.size}")
        return _fourier_apply(self.lattice, x, np.multiply, mult, out, spec)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, self._fwd)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, self._adj)

    def gram_matvec(self, x: np.ndarray, out: np.ndarray | None = None,
                    spec: np.ndarray | None = None) -> np.ndarray:
        """H'H x in one FFT round trip, into ``out`` (length N) through the
        spectrum buffer ``spec`` (``lattice.rfft_shape``, complex) when
        given."""
        return self._apply(x, self._gram, out, spec)

    def to_dense(self) -> np.ndarray:
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


def weighted_gram_matvec(blur: BlurOperator, diff: DiffOperator,
                         lam_over_nu: float, row_weights: np.ndarray,
                         v: np.ndarray, out: np.ndarray | None = None, *,
                         spec: np.ndarray | None = None,
                         rows: np.ndarray | None = None,
                         acc: np.ndarray | None = None) -> np.ndarray:
    """(H'H + (lambda/nu) D' W D) v without forming the matrix.

    H'H is applied as its circulant multiplier |H^|^2 (one FFT round trip),
    D and D' as grid stencils. ``row_weights`` is the diagonal of
    W = R^{-2}, one entry per difference row; zero entries are allowed (a
    safeguarded prior keeps them finite). The result goes into ``out``
    (length N, not ``v`` itself); ``spec`` (the rfft2 spectrum), ``rows`` (one entry per
    difference row) and ``acc`` (length N, the penalty term) are work
    arrays. Each is allocated when not given.
    """
    row_weights = np.asarray(row_weights, dtype=float)
    # NaN fails both comparisons, since min and max propagate it
    if not (row_weights.min() >= 0 and row_weights.max() < np.inf):
        raise NonFiniteError("difference row weights must be finite and >= 0",
                             where="row_weights")
    if not np.isfinite(lam_over_nu) or lam_over_nu < 0:
        raise NonFiniteError(f"invalid penalty ratio {lam_over_nu}",
                             where="lam_over_nu")
    out = blur.gram_matvec(v, out=out, spec=spec)
    rows = diff.matvec(v, out=rows)
    np.multiply(row_weights, rows, out=rows)
    penalty = diff.rmatvec(rows, out=acc)
    penalty *= lam_over_nu
    out += penalty
    return out


def dense_gram(blur: BlurOperator, diff: DiffOperator):
    """Capacity-gated builder: ``build(lam_over_nu, row_weights)`` returns a
    fresh dense H'H + (lambda/nu) D' W D, from an H'H formed here once."""
    _check_dense(blur.size, "the Gaussian x-conditional")
    hd = blur.to_dense()
    hth = hd.T @ hd
    del hd

    def build(lam_over_nu: float, row_weights: np.ndarray) -> np.ndarray:
        q = diff.weighted_gram_dense(row_weights)
        q *= lam_over_nu
        q += hth
        return q

    return build


def circulant_gram_precond(blur: BlurOperator, diff: DiffOperator,
                           lam_over_nu: float, mean_weight: float, *,
                           spec: np.ndarray | None = None,
                           out: np.ndarray | None = None):
    """Exact inverse of H'H + (lambda/nu) * w_mean * D'D, applied via FFT.

    Freezing the difference weights at their mean makes the operator
    block-circulant, so it diagonalises on the Fourier grid. Used as a
    preconditioner for the true variable-weight system. Every apply
    transforms through ``spec`` and writes its result into ``out`` when they
    are given (so each result is overwritten by the next apply), and
    allocates fresh arrays when they are not.
    """
    eig = (blur._gram
           + lam_over_nu * mean_weight * diff.gram_eigenvalues())
    eig = np.maximum(eig, 1e-300)
    lattice = blur.lattice

    def apply(v: np.ndarray) -> np.ndarray:
        return _fourier_apply(lattice, v, np.divide, eig, out, spec)

    return apply


def validate_rank_condition(blur: BlurOperator, diff: DiffOperator) -> bool:
    """Nul(D) cap Nul(H) = {0} for periodic D (nullspace = constants):
    passes iff H applied to the constant image is nonzero."""
    ones = np.ones(blur.size)
    return float(np.linalg.norm(blur.matvec(ones))) > 1e-10 * np.sqrt(blur.size)
