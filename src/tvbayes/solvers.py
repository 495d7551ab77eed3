"""Inner linear-algebra kernels.

Preconditioned conjugate gradients for the matrix-free MAP solves, and a
dense Cholesky wrapper for the mean-field covariances and correlated
Gaussian draws of the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import lapack

from .errors import NotSpdError, PcgError

__all__ = ["PcgResult", "pcg_solve", "SpdFactor"]


@dataclass
class PcgResult:
    x: np.ndarray
    iterations: int
    residual: float  # relative to ||rhs||


def pcg_solve(matvec: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray,
              precond: Callable[[np.ndarray], np.ndarray] | None = None,
              tol: float = 1e-8, maxit: int | None = None,
              x0: np.ndarray | None = None) -> PcgResult:
    """Solve the SPD system matvec(x) = rhs by preconditioned CG.

    ``tol`` is relative: stop once ||matvec(x) - rhs|| <= tol * ||rhs||.
    ``precond`` applies an approximation of the inverse (identity if None).
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
    r = rhs - matvec(x)
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    best_x, best_res = x.copy(), float(np.linalg.norm(r)) / rhs_norm
    step = np.empty(n)
    for it in range(1, maxit + 1):
        qp = matvec(p)
        pqp = float(p @ qp)
        if not np.isfinite(pqp) or pqp <= 0.0:
            raise PcgError(f"CG breakdown at iteration {it}: p'Qp = {pqp}",
                           best=best_x, iterations=it, residual=best_res)
        alpha = rz / pqp
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, qp, out=step)
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
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise PcgError(
        f"CG did not reach tol={tol} in {maxit} iterations "
        f"(best residual {best_res:.3e})",
        best=best_x, iterations=maxit, residual=best_res,
    )


class SpdFactor:
    """Cholesky factorisation of a dense SPD matrix.

    Provides solves, the full inverse, the log-determinant, and draws from
    N(mean, A^{-1}) via x = mean + L^{-T} z (the matrix is interpreted as a
    precision for sampling).
    """

    def __init__(self, matrix: np.ndarray):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        c, info = lapack.dpotrf(a, lower=1, overwrite_a=0)
        if info > 0:
            raise NotSpdError(
                f"matrix is not positive definite: leading minor {info} failed",
                pivot=int(info))
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrf")
        self._lower = np.tril(c)
        self.n = a.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = lapack.dpotrs(self._lower, rhs, lower=1)
        if info != 0:
            raise ValueError(f"dpotrs failed with info={info}")
        return x

    def inverse(self) -> np.ndarray:
        inv, info = lapack.dpotri(self._lower, lower=1)
        if info != 0:
            raise NotSpdError(f"dpotri failed with info={info}", pivot=int(info))
        # dpotri fills one triangle only
        return np.tril(inv) + np.tril(inv, -1).T

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._lower))))

    def sample_precision(self, mean: np.ndarray, rng: np.random.Generator,
                         size: int | None = None) -> np.ndarray:
        """Draw from N(mean, A^{-1}) where A = L L' is the factored matrix."""
        from scipy.linalg import solve_triangular

        if size is None:
            z = rng.standard_normal(self.n)
            return mean + solve_triangular(self._lower, z, lower=True, trans="T")
        z = rng.standard_normal((self.n, size))
        draws = solve_triangular(self._lower, z, lower=True, trans="T")
        return mean[:, None] + draws
