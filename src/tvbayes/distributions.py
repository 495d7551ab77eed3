"""Generalized inverse Gaussian (GIG) calculus and Laplace scale mixtures.

The GIG density used throughout is

    p(x) = x^(p-1) * exp(-(a*x + b/x)/2) / Z(a, b, p)

on x > 0. Admissible parameter triples are those where Z is finite:

    a > 0, b >= 0, p > 0;   a > 0, b > 0, p = 0;   a >= 0, b > 0, p < 0.

The normalising constant Z is written once, in :func:`_gig_log_z`, in its
Gamma (b = 0), inverse-gamma (a = 0) and Bessel forms. The density, the
moments E(X^q) = Z(a, b, p+q) / Z(a, b, p) and the variance are built on
it, so E(X^q) exists exactly when (a, b, p+q) is an admissible triple
(Jorgensen, Statistical Properties of the Generalized Inverse Gaussian
Distribution, 1982).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats
from scipy.linalg import solve_triangular

from .errors import GigParameterError, MomentDivergesError, NotSpdError
from .operators import check_positive

__all__ = [
    "GigParams",
    "MvLaplaceParams",
    "log_bessel_k",
    "gig_log_pdf",
    "gig_moment",
    "gig_mode",
    "gig_mode_batch",
    "gig_variance",
    "gig_sample",
    "gig_sample_batch",
    "gig_inv_moment_batch",
    "laplace1d_log_pdf",
    "mvlaplace_log_pdf",
    "gsm_sample",
]

_EULER_GAMMA = 0.5772156649015328606


@dataclass(frozen=True)
class GigParams:
    """Parameter triple (a, b, p) of a GIG distribution.

    a is rate-like (multiplies x in the exponent), b is inverse-rate-like
    (multiplies 1/x), p is the index. Construction outside the admissible
    region raises :class:`GigParameterError`.
    """

    a: float
    b: float
    p: float

    def __post_init__(self):
        a, b, p = self.a, self.b, self.p
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(p)):
            raise GigParameterError(f"non-finite GIG parameters ({a}, {b}, {p})")
        if a < 0 or b < 0:
            raise GigParameterError(f"negative GIG parameters ({a}, {b}, {p})")
        ok = (a > 0 and b >= 0 and p > 0) or (a > 0 and b > 0 and p == 0) \
            or (a >= 0 and b > 0 and p < 0)
        if not ok:
            raise GigParameterError(
                f"GIG({a}, {b}, {p}) outside the admissible region: need "
                "(a>0, b>=0, p>0), (a>0, b>0, p=0) or (a>=0, b>0, p<0)"
            )


# ---------------------------------------------------------------------------
# Modified Bessel function of the second kind
# ---------------------------------------------------------------------------

def log_bessel_k(p, x):
    """log K_p(x), stable for large x (where K underflows) and small x.

    Accepts scalars or arrays; broadcasts like a ufunc.
    """
    scalar = np.isscalar(p) and np.isscalar(x)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0):
        raise ValueError("log_bessel_k requires x > 0")
    with np.errstate(over="ignore"):
        out = np.log(special.kve(p, x)) - x
    bad = ~np.isfinite(out)
    if np.any(bad):
        # kve overflows only for |p| log(2/x) large; leading small-x term:
        # K_p(x) ~ Gamma(|p|)/2 * (2/x)^|p| (p != 0), K_0(x) ~ -log(x/2) - gamma
        out = np.broadcast_to(out, bad.shape).copy()
        pb = np.abs(np.broadcast_to(p, bad.shape)[bad])
        xb = np.broadcast_to(x, bad.shape)[bad]
        out[bad] = np.where(
            pb > 0,
            math.log(0.5) + special.gammaln(pb) + pb * (np.log(2.0) - np.log(xb)),
            np.log(-np.log(xb / 2.0) - _EULER_GAMMA),
        )
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# GIG normalising constant, density, moments, mode, variance
# ---------------------------------------------------------------------------

def _gig_regime(a: float, b: np.ndarray) -> str:
    """Form of Z shared by GIG(a, b_i, p) over a batch of ``b``: "inv_gamma"
    at a = 0 (needs b > 0), "gamma" when every b is 0, else "bessel" (needs
    b > 0, so mixed zero and positive b raise :class:`GigParameterError`)."""
    if a == 0.0:
        if np.any(b <= 0):
            raise GigParameterError("GIG(a=0, b, p) needs b > 0 everywhere")
        return "inv_gamma"
    if np.all(b == 0.0):
        return "gamma"
    if np.any(b <= 0):
        raise GigParameterError("mixed zero/positive b in a batched GIG call")
    return "bessel"


def _gig_log_z(a: float, b, p: float):
    """log Z(a, b_i, p) per entry of ``b``, where

        Z(a, b, p) = int_0^inf x^(p-1) exp(-(a x + b/x)/2) dx
                   = Gamma(p) (2/a)^p               (b = 0, p > 0)
                   = Gamma(-p) (2/b)^(-p)           (a = 0, p < 0)
                   = 2 (b/a)^(p/2) K_p(sqrt(a b))   (a, b > 0).

    Raises :class:`MomentDivergesError` where the integral diverges: b = 0
    with p <= 0, or a = 0 with p >= 0.
    """
    b = np.asarray(b, dtype=float)
    regime = _gig_regime(a, b)
    if (regime == "gamma" and p <= 0) or (regime == "inv_gamma" and p >= 0):
        raise MomentDivergesError(f"moment diverges: Z(a={a}, b, p={p}) is "
                                  "infinite (needs p > 0 at b = 0, p < 0 at "
                                  "a = 0)")
    if regime == "gamma":
        return np.full(b.shape, special.gammaln(p) - p * math.log(a / 2.0))
    if regime == "inv_gamma":
        return special.gammaln(-p) + p * np.log(b / 2.0)
    return math.log(2.0) + 0.5 * p * (np.log(b) - math.log(a)) \
        + log_bessel_k(p, np.sqrt(a * b))


def gig_log_pdf(params: GigParams, x: float) -> float:
    """Log-density (p-1) log x - (a x + b/x)/2 - log Z of GIG(a, b, p) at
    x > 0."""
    if not x > 0:
        raise ValueError(f"gig_log_pdf requires x > 0, got {x}")
    a, b, p = params.a, params.b, params.p
    return float((p - 1.0) * math.log(x) - 0.5 * (a * x + b / x)
                 - _gig_log_z(a, b, p))


def gig_moment(params: GigParams, q: float) -> float:
    """E(X^q) = Z(a, b, p+q) / Z(a, b, p) for X ~ GIG(a, b, p).

    The moment exists exactly when (a, b, p+q) is an admissible triple;
    otherwise, or when the value overflows, raises
    :class:`MomentDivergesError`.
    """
    a, b, p = params.a, params.b, params.p
    val = float(np.exp(_gig_log_z(a, b, p + q) - _gig_log_z(a, b, p)))
    if not math.isfinite(val):
        raise MomentDivergesError(
            f"moment q={q} of GIG({a}, {b}, {p}) is non-finite")
    return val


def gig_mode(params: GigParams) -> float:
    """Mode of GIG(a, b, p); see :func:`gig_mode_batch`."""
    return float(gig_mode_batch(params.a, np.array([params.b]), params.p)[0])


def gig_mode_batch(a: float, b: np.ndarray, p: float) -> np.ndarray:
    """Mode of GIG(a, b_i, p) per entry of ``b``: ((p-1) + sqrt((p-1)^2 +
    a b))/a, or b/(2(1-p)) at a = 0."""
    b = np.asarray(b, dtype=float)
    if a == 0.0:
        return b / (2.0 * (1.0 - p))
    c = p - 1.0
    # in one array of b's shape: an IAS r-step can set the run's peak memory
    mode = a * b
    np.sqrt(np.add(mode, c * c, out=mode), out=mode)
    return np.divide(np.add(mode, c, out=mode), a, out=mode)


def gig_variance(params: GigParams) -> float:
    """Variance E(X^2) - E(X)^2 of GIG(a, b, p); raises
    :class:`MomentDivergesError` when E(X^2) does not exist."""
    return gig_moment(params, 2.0) - gig_moment(params, 1.0) ** 2


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def gig_sample(params: GigParams, rng: np.random.Generator, size=None):
    """Draw from GIG(a, b, p) using a seeded numpy Generator.

    Degenerate triples dispatch to the gamma/inverse-gamma samplers, the
    half-integer indices to the (reciprocal) inverse Gaussian; the general
    case uses the scipy geninvgauss generator reparameterised as
    GIG(a,b,p) = sqrt(b/a) * geninvgauss(p, sqrt(ab)).
    """
    a, b, p = params.a, params.b, params.p
    out = gig_sample_batch(a, np.full(1 if size is None else size, b), p, rng)
    return float(out[0]) if size is None else out


def gig_sample_batch(a: float, b: np.ndarray, p: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Vectorised draws, one per entry of ``b``, from GIG(a, b_i, p).

    Shared (a, p) with per-latent b is the shape of the conditional scale
    updates, so this is the sampler's hot path. The p = +-1/2 conditionals
    of the Laplace-type priors are exactly (reciprocal) inverse Gaussian
    and use the native wald generator; anything else falls back to scipy.
    All b_i must keep the triple admissible. A draw of 0 or inf (a small
    shape's underflow) raises :class:`NonFiniteError` (``where="sample"``).
    """
    b = np.asarray(b, dtype=float)
    regime = _gig_regime(a, b)
    if regime == "inv_gamma":
        with np.errstate(divide="ignore", over="ignore"):
            draws = (b / 2.0) / rng.gamma(shape=-p, scale=1.0, size=b.shape)
    elif regime == "gamma":
        draws = rng.gamma(shape=p, scale=2.0 / a, size=b.shape)
    elif p == -0.5:
        # GIG(a, b, -1/2) = InverseGaussian(mu=sqrt(b/a), lambda=b)
        draws = rng.wald(np.sqrt(b / a), b)
    elif p == 0.5:
        # 1/X ~ GIG(b, a, -1/2) = InverseGaussian(mu=sqrt(a/b), lambda=a)
        draws = 1.0 / rng.wald(np.sqrt(a / b), np.full_like(b, a))
    else:
        draws = stats.geninvgauss.rvs(p, np.sqrt(a * b), scale=np.sqrt(b / a),
                                      random_state=rng)
    return check_positive(draws, "sample")


def gig_inv_moment_batch(a: float, b: np.ndarray, p: float) -> np.ndarray:
    """E(X^{-1}) for X ~ GIG(a, b_i, p), vectorised over b.

    The mean-field scale updates need this moment for every latent each
    sweep; it is :func:`gig_moment`'s ratio at q = -1, with the same
    existence rule.
    """
    return np.exp(_gig_log_z(a, b, p - 1.0) - _gig_log_z(a, b, p))


# ---------------------------------------------------------------------------
# Laplace densities and the Gaussian scale-mixture construction
# ---------------------------------------------------------------------------

def laplace1d_log_pdf(mu: float, b: float, x: float) -> float:
    """Log-density of the 1-D Laplace (b/2) exp(-b |x - mu|), b > 0."""
    if not b > 0:
        raise ValueError(f"laplace1d_log_pdf requires b > 0, got {b}")
    return math.log(b / 2.0) - b * abs(x - mu)


@dataclass(frozen=True)
class MvLaplaceParams:
    """Location vector and SPD scale matrix of a multivariate Laplace."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        n = mu.shape[0]
        if sigma.shape != (n, n):
            raise ValueError(f"sigma shape {sigma.shape} does not match mu ({n})")
        if not (np.all(np.isfinite(sigma)) and np.allclose(
                sigma, sigma.T, atol=1e-12 * max(1.0, abs(sigma).max()))):
            raise NotSpdError("sigma must be finite and symmetric")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise NotSpdError(f"sigma is not positive definite: {exc}") from exc
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def mvlaplace_log_pdf(params: MvLaplaceParams, x) -> float:
    """Log-density of the multivariate Laplace ML(mu, Sigma), the scale
    mixture of N(mu, r Sigma) over r ~ Exp(1) = GIG(2, 0, 1):

        pdf = (2 pi)^(-n/2) |Sigma|^(-1/2) Z(2, s, 1 - n/2),  s = z' Sigma^-1 z.

    For n >= 2 the density diverges at z = 0 (K_0 blow-up); that point
    returns +inf as the singularity marker.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = params.dim
    if x.shape != (n,):
        raise ValueError(f"x shape {x.shape} does not match dimension {n}")
    chol = params._chol
    w = solve_triangular(chol, x - params.mu, lower=True)
    try:
        log_z = float(_gig_log_z(2.0, float(w @ w), 1.0 - 0.5 * n))
    except MomentDivergesError:
        return math.inf
    return (-0.5 * n * math.log(2.0 * math.pi)
            - float(np.sum(np.log(np.diag(chol)))) + log_z)


def gsm_sample(mu, sigma, mixing: GigParams, rng: np.random.Generator,
               size: int | None = None) -> np.ndarray:
    """Gaussian scale-mixture draws y = mu + sqrt(r) * Sigma^(1/2) z.

    r ~ GIG(mixing), z ~ N(0, I). With Exp(1) mixing the output is
    multivariate Laplace ML(mu, Sigma); with InvGamma(w/2, w/2) mixing it is
    Student-t with w degrees of freedom. Sigma is checked and factored by
    :class:`MvLaplaceParams`: a non-SPD one raises :class:`NotSpdError`.
    """
    params = MvLaplaceParams(mu, sigma)
    mu, chol, n = params.mu, params._chol, params.dim
    if size is None:
        r = gig_sample(mixing, rng)
        return mu + math.sqrt(r) * (chol @ rng.standard_normal(n))
    r = gig_sample(mixing, rng, size=size)
    return mu + np.sqrt(r)[:, None] * (rng.standard_normal((size, n)) @ chol.T)
