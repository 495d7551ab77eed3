"""Inner linear-algebra kernels.

Preconditioned conjugate gradients for the matrix-free MAP solves, and a
dense Cholesky wrapper for the mean-field covariances (whole, by LAPACK's
dpotri, or as the factor L^{-T} of ``inverse_factor``) and the sampler's
correlated draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import blas, lapack, solve_triangular

from .errors import NotSpdError, PcgError, SpentFactorError

__all__ = ["PcgResult", "pcg_solve", "SpdFactor"]


@dataclass
class PcgResult:
    x: np.ndarray
    iterations: int
    residual: float  # relative to ||rhs||


def pcg_solve(matvec: Callable[[np.ndarray, np.ndarray | None], np.ndarray],
              rhs: np.ndarray,
              precond: Callable[[np.ndarray], np.ndarray] | None = None,
              tol: float = 1e-8, maxit: int | None = None,
              x0: np.ndarray | None = None) -> PcgResult:
    """Solve the SPD system A x = rhs by preconditioned CG.

    ``tol`` is relative: stop once ||A x - rhs|| <= tol * ||rhs||; a start
    ``x0`` that already meets it comes back after 0 iterations.
    ``precond`` applies M^{-1}, an approximation of A^{-1} (M = I if None).
    ``matvec(v, mv)`` returns A v. Its ``mv`` is M v, which CG carries beside
    each search direction p at the cost of one vector update (M z = r for
    z = M^{-1} r, so M p follows p's own recurrence with r in place of z),
    or None for the start iterate x0; an A whose part M is costly to apply
    can read it from ``mv`` instead, and any other ``matvec`` ignores it.
    ``matvec`` and ``precond`` may return a buffer that they overwrite on
    their next call (the two may even share one): each result is used up
    before either is called again, and none is returned or stored. The
    iterate, the residual and the best iterate are arrays of this solve.
    Raises :class:`PcgError` carrying the best iterate on non-convergence
    or NaN breakdown.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if maxit is None:
        # 10 sqrt(n) is enough once warm-started; the floor covers the
        # ill-conditioned early sweeps of the TV-weighted systems
        maxit = max(1000, int(10 * np.sqrt(n)))
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return PcgResult(np.zeros(n), 0, 0.0)
    if precond is None:
        precond = lambda r: r  # noqa: E731

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = rhs - matvec(x, None)
    res = float(np.linalg.norm(r)) / rhs_norm
    if res <= tol:
        return PcgResult(x, 0, res)
    z = precond(r)
    p = z.copy()
    mp = r.copy()  # M p
    rz = float(r @ z)
    best_x, best_res = x.copy(), res
    for it in range(1, maxit + 1):
        qp = matvec(p, mp)
        pqp = float(p @ qp)
        if not np.isfinite(pqp) or pqp <= 0.0:
            raise PcgError(f"CG breakdown at iteration {it}: p'Qp = {pqp}",
                           best=best_x, iterations=it, residual=best_res)
        alpha = rz / pqp
        # BLAS axpy updates x and r in place (both are contiguous float
        # arrays of this solve), with no step array
        x = blas.daxpy(p, x, a=alpha)
        r = blas.daxpy(qp, r, a=-alpha)
        res = float(np.linalg.norm(r)) / rhs_norm
        if not np.isfinite(res):
            raise PcgError(f"CG produced non-finite residual at iteration {it}",
                           best=best_x, iterations=it, residual=best_res)
        if res < best_res:
            np.copyto(best_x, x)
            best_res = res
        if res <= tol:
            return PcgResult(x, it, res)
        z = precond(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        p *= beta
        p += z
        mp *= beta
        mp += r
        rz = rz_new
    raise PcgError(
        f"CG did not reach tol={tol} in {maxit} iterations "
        f"(best residual {best_res:.3e})",
        best=best_x, iterations=maxit, residual=best_res,
    )


class SpdFactor:
    """Cholesky factorisation A = L L' of a dense SPD matrix.

    Provides solves, the full inverse and its factor G = L^{-T} (A^{-1} =
    G G', ``inverse_factor``), the log-determinant, and draws from N(mean,
    A^{-1}) via x = mean + L^{-T} z (the matrix is taken as a precision).

    ``matrix`` must be symmetric: only its upper triangle is read (the lower
    triangle of its transpose, which LAPACK gets without a transposing copy
    when ``matrix`` is C-ordered). The factor is kept as LAPACK returns it:
    Fortran-ordered, with L in the lower triangle and the input's entries
    still in the strict upper one. Every routine used on it reads the lower
    triangle or the diagonal only. Both inverses come back C-ordered.

    By default ``matrix`` is left untouched: the factor lives in a copy, and
    ``inverse()`` and ``inverse_factor()`` return fresh arrays and leave the
    factor as it was. With ``overwrite=True`` the caller gives up
    ``matrix``, as with scipy's ``overwrite_a``: a C-ordered float64
    ``matrix`` is factored in its own memory (any other layout still goes to
    a copy, and a failed factorisation leaves ``matrix`` undefined), and the
    first ``inverse()`` or ``inverse_factor()`` is formed in the factor's
    memory. That spends the factor: every method then raises
    :class:`SpentFactorError`.
    """

    def __init__(self, matrix: np.ndarray, *, overwrite: bool = False):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        c, info = lapack.dpotrf(a.T, lower=1, clean=0, overwrite_a=overwrite)
        if info > 0:
            raise NotSpdError(
                f"matrix is not positive definite: leading minor {info} failed",
                pivot=int(info))
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrf")
        self._factor = c
        self._overwrite = overwrite
        self.n = a.shape[0]

    def _live(self) -> np.ndarray:
        if self._factor is None:
            raise SpentFactorError("the factor's memory now holds an inverse "
                                   "(overwrite=True)")
        return self._factor

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = lapack.dpotrs(self._live(), rhs, lower=1)
        if info != 0:
            raise ValueError(f"dpotrs failed with info={info}")
        return x

    def inverse(self) -> np.ndarray:
        """A^{-1}, symmetric and C-ordered."""
        # dpotri leaves A^{-1} in the lower triangle of the Fortran factor,
        # which is the upper one of its C-ordered transpose
        inv = self._invert(lapack.dpotri)
        for i in range(1, self.n):
            inv[i, :i] = inv[:i, i]
        return inv

    def inverse_factor(self) -> np.ndarray:
        """G = L^{-T}, upper triangular and C-ordered, so that A^{-1} = G G'."""
        # dtrtri leaves the input's entries above L^{-1}
        g = self._invert(lapack.dtrtri)
        for i in range(1, self.n):
            g[i, :i] = 0.0
        return g

    def _invert(self, routine) -> np.ndarray:
        """``routine`` (dpotri or dtrtri) on the factor, as the C-ordered
        transpose of its result: in the factor's own memory when it is owned
        (overwrite=True), which spends it, and in a copy otherwise."""
        out, info = routine(self._live(), lower=1, overwrite_c=self._overwrite)
        if self._overwrite:
            self._factor = None
        if info != 0:
            raise NotSpdError(f"{routine.__name__} failed with info={info}",
                              pivot=int(info))
        return out.T

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._live()))))

    def sample_precision(self, mean: np.ndarray, rng: np.random.Generator,
                         size: int | None = None) -> np.ndarray:
        """Draw from N(mean, A^{-1}) where A = L L' is the factored matrix."""
        # dpotrf succeeded, so the factor is finite: the scan that
        # check_finite makes of it (an N x N mask per draw) is skipped
        z = rng.standard_normal(self.n if size is None else (self.n, size))
        draws = solve_triangular(self._live(), z, lower=True, trans="T",
                                 check_finite=False)
        # mean + each column of the (n, size) draws; draws.T is one draw
        np.add(mean, draws.T, out=draws.T)
        return draws
