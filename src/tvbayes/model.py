"""The hierarchical total-variation posterior.

Joint density over (x, nu, lambda, r) given data y, up to normalisation:

    lambda^(M/2 + a_l - 1) * nu^(N/2 + a_n - 1) * prod_e r_e^(rho)
      * exp( -nu/2 ||y - Hx||^2 - lambda/2 ||R^{-1} D x||^2
             - a/2 sum r - b/2 sum 1/r - b_l lambda - b_n nu )

with N pixels, M difference rows, R^{-2} = diag(1/(2 r_row)) and (a, b, p)
the mixing density of the :class:`Prior`, whose layout sets L: each of the
M/L latents scales L difference rows, L = 1 per edge (one latent per row)
and L the number of difference blocks per pixel (one latent shared by a
pixel's rows). Every latent has exponent rho = p - L/2 - 1 and conditional
GIG index p - L/2. ``LaplaceTV``, ``StudentTV``, ``Laplace2D`` and
``CustomGig`` construct the usual priors.

On the usual 2-D lattice M = 2N and the per-pixel L = 2, which recovers the
familiar lambda^(N + a_l - 1) exponent; the same formulas specialise 1-D
signals (M = N, L = 1 in both layouts) without special cases.

The density reads x only through ||y - Hx||^2 and the squared differences
(Dx)^2, formed in one place, :func:`x_statistics`, and r only through
sum(log r), sum(r) and sum(1/r), formed in :func:`latent_sums`. It is
written once, in :func:`log_joint`, as six named blocks over nu, lambda
and those statistics; :func:`log_posterior` evaluates it at a state, and
IAS scores all four sub-steps of a sweep with it, from the statistics the
sweep already holds.

The nu, lambda and latent-scale conditional formulas live only in three
builders: :func:`nu_conditional`, :func:`lambda_conditional` and
:func:`r_conditional_b`. Each engine computes their statistics and reads
what it needs: IAS the modes, VB the rates and moments (from expected
statistics), Gibbs draws, :func:`conditional_params` the parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .distributions import GigParams, gig_log_pdf
from .errors import (
    DegenerateConditionalError,
    NonFiniteError,
    RankConditionError,
)
from .operators import (
    BlurOperator,
    DiffOperator,
    LatticeSpec,
    check_positive,
    dense_gram,
    validate_rank_condition,
)
from .solvers import SpdFactor

__all__ = [
    "HyperParams",
    "Prior",
    "LaplaceTV",
    "StudentTV",
    "Laplace2D",
    "CustomGig",
    "ModelSpec",
    "LatentState",
    "GammaParams",
    "GaussianParams",
    "log_joint",
    "latent_sums",
    "log_posterior",
    "x_statistics",
    "conditional_params",
    "nu_conditional",
    "lambda_conditional",
    "r_conditional_b",
    "row_weights_from_r",
]


@dataclass(frozen=True)
class HyperParams:
    """Gamma hyperprior parameters for the penalty strength and the noise
    precision. All zero (the default) is the improper 1/lambda, 1/nu prior."""

    alpha_lambda: float = 0.0
    beta_lambda: float = 0.0
    alpha_nu: float = 0.0
    beta_nu: float = 0.0

    def __post_init__(self):
        for name in ("alpha_lambda", "beta_lambda", "alpha_nu", "beta_nu"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"hyperparameter {name} must be >= 0, got {v}")


@dataclass(frozen=True)
class Prior:
    """TV prior: the GIG mixing density of the latent scales and their layout,
    one latent per difference row ("edge") or per pixel ("pixel")."""

    mixing: GigParams
    layout: Literal["edge", "pixel"] = "edge"

    def __post_init__(self):
        if self.layout not in ("edge", "pixel"):
            raise ValueError(f"prior layout must be 'edge' or 'pixel', "
                             f"got {self.layout!r}")


def LaplaceTV(safeguard_b: float = 0.001) -> Prior:
    """Anisotropic-TV prior: per-edge latents, mixing GIG(2, safeguard_b, 1).
    safeguard_b = 0 is the exact Laplace prior (exponential mixing), whose
    latent scales can collapse to zero on flat regions; the small default
    keeps them strictly positive."""
    return Prior(GigParams(2.0, safeguard_b, 1.0))


def StudentTV(w: float = 2.0) -> Prior:
    """Student-t TV prior with w > 0 degrees of freedom: per-edge latents,
    mixing GIG(0, w, -w/2) = InvGamma(w/2, w/2)."""
    return Prior(GigParams(0.0, w, -w / 2.0))


def Laplace2D(mixing_params: GigParams = GigParams(2.0, 0.001, 1.0)) -> Prior:
    """Bivariate-Laplace TV prior: one latent per pixel pools that pixel's
    horizontal and vertical differences. Defaults to the safeguarded
    GIG(2, 0.001, 1) mixing; pass GIG(2, 0, 1) for the exact variant."""
    return Prior(mixing_params, "pixel")


def CustomGig(mixing_params: GigParams) -> Prior:
    """Per-edge latents with an arbitrary admissible GIG mixing density."""
    return Prior(mixing_params)


@dataclass(frozen=True)
class ModelSpec:
    """Immutable bundle of lattice, operators, hyperpriors and prior."""

    lattice: LatticeSpec
    blur: BlurOperator
    diff: DiffOperator
    hyper: HyperParams
    prior: Prior

    def __post_init__(self):
        if not self.blur.lattice == self.diff.lattice == self.lattice:
            raise ValueError("blur and diff must share the model's lattice")
        if not validate_rank_condition(self.blur, self.diff):
            raise RankConditionError(
                "blur and difference operators share a nullspace direction "
                "(H applied to the constant image is ~0); the penalised "
                "system matrix would be singular")

    @classmethod
    def build(cls, lattice: LatticeSpec, kernel: np.ndarray,
              hyper: HyperParams | None = None,
              prior: Prior | None = None) -> "ModelSpec":
        return cls(lattice, BlurOperator(kernel, lattice),
                   DiffOperator(lattice),
                   hyper if hyper is not None else HyperParams(),
                   prior if prior is not None else LaplaceTV())

    @property
    def n_pixels(self) -> int:
        return self.lattice.size

    @property
    def n_rows(self) -> int:
        return self.diff.n_rows

    @property
    def rows_per_latent(self) -> int:
        """L, the difference rows each latent scales: 1 per edge, one per
        difference block per pixel."""
        return self.diff.n_blocks if self.prior.layout == "pixel" else 1

    @property
    def n_latents(self) -> int:
        return self.n_rows // self.rows_per_latent

    @property
    def lambda_shape(self) -> float:
        return 0.5 * self.n_rows + self.hyper.alpha_lambda

    @property
    def nu_shape(self) -> float:
        return 0.5 * self.n_pixels + self.hyper.alpha_nu

    @property
    def r_exponent(self) -> float:
        """Power of each latent in the joint posterior."""
        return self.r_conditional_index - 1.0

    def latents_to_rows(self, values: np.ndarray) -> np.ndarray:
        """Per-latent values spread over the difference rows, each repeated
        over its L rows."""
        return np.tile(values, self.rows_per_latent)

    @property
    def r_conditional_index(self) -> float:
        """GIG index of the latent-scale full conditionals."""
        return self.prior.mixing.p - 0.5 * self.rows_per_latent


@dataclass
class LatentState:
    """One point (x, nu, lambda, r) of the latent space."""

    x: np.ndarray
    nu: float
    lam: float
    r: np.ndarray

    def validate(self, model: ModelSpec):
        model.lattice.check_vector(self.x, "x")
        if self.r.shape != (model.n_latents,):
            raise ValueError(f"r must have length {model.n_latents}")
        for name, v in (("nu", self.nu), ("lambda", self.lam), ("r", self.r)):
            check_positive(v, name)


def row_weights_from_r(r: np.ndarray, model: ModelSpec) -> np.ndarray:
    """Diagonal of R^{-2} = 1/(2 r_row), expanding per-pixel latents over
    their difference rows."""
    # formed in place in the spread copy: one row-length temporary fewer
    # beside the arrays an IAS sweep holds
    w = model.latents_to_rows(np.asarray(r, dtype=float))
    w *= 2.0
    return np.divide(1.0, w, out=w)


@dataclass
class GammaParams:
    """Gamma(shape, rate) conditional."""

    shape: float
    rate: float

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def mode(self) -> float:
        return max(self.shape - 1.0, 0.0) / self.rate

    @property
    def variance(self) -> float:
        return self.shape / self.rate ** 2

    def log_pdf(self, x: float) -> float:
        return gig_log_pdf(GigParams(2.0 * self.rate, 0.0, self.shape), x)


@dataclass
class GaussianParams:
    """N(mean, precision^{-1}) conditional."""

    mean: np.ndarray
    precision: np.ndarray

    def log_pdf(self, x: np.ndarray) -> float:
        factor = SpdFactor(self.precision)
        z = np.asarray(x, dtype=float) - self.mean
        n = self.mean.shape[0]
        return 0.5 * factor.logdet() - 0.5 * n * math.log(2 * math.pi) \
            - 0.5 * float(z @ (self.precision @ z))


def nu_conditional(sq_resid: float, model: ModelSpec) -> GammaParams:
    """Conditional of nu given ||y - Hx||^2 (or its expectation)."""
    return GammaParams(model.nu_shape, 0.5 * sq_resid + model.hyper.beta_nu)


def lambda_conditional(weighted_sq_diff: float,
                       model: ModelSpec) -> GammaParams:
    """Conditional of lambda given ||R^{-1} D x||^2 (or its expectation)."""
    return GammaParams(model.lambda_shape,
                       0.5 * weighted_sq_diff + model.hyper.beta_lambda)


def r_conditional_b(sq_diffs: np.ndarray, lam: float,
                    model: ModelSpec) -> np.ndarray:
    """Second GIG parameter b' = lambda/2 * (squared difference) + b of
    each latent-scale conditional, pooling each latent's L rows of squared
    differences (or their expectations): all M rows in D's order, or one
    latent's L. A zero b' (exact b = 0 mixing only) raises."""
    bprime = sq_diffs.reshape(model.rows_per_latent, -1).sum(axis=0,
                                                           dtype=float)
    bprime *= 0.5 * lam
    bprime += model.prior.mixing.b
    if np.any(bprime == 0.0):
        raise DegenerateConditionalError(
            f"{int(np.sum(bprime == 0.0))} latent-scale conditional(s) "
            "degenerate: zero difference under an exact (b = 0) mixing "
            "density. Use a safeguarded prior, e.g. "
            "LaplaceTV(safeguard_b=0.001).")
    return bprime


def latent_sums(r: np.ndarray) -> tuple[float, float, float]:
    """sum(log r), sum(r) and sum(1/r): all that :func:`log_joint` reads of
    the latent scales, so a caller can keep these three floats instead of r.
    Not checked here; :func:`log_joint` names a non-finite one."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (float(np.sum(np.log(r))), float(np.sum(r)),
                float(np.sum(1.0 / r)))


def log_joint(nu: float, lam: float, r_sums: tuple[float, float, float],
              sq_resid: float, weighted_sq_diff: float,
              model: ModelSpec) -> float:
    """Joint log-density up to normalisation, from nu, lambda, the
    :func:`latent_sums` of r and the statistics ||y - Hx||^2 and
    ||R^{-1} D x||^2. Raises :class:`NonFiniteError` naming the block when
    any term is not finite."""
    mix, h = model.prior.mixing, model.hyper
    sum_log_r, sum_r, sum_inv_r = r_sums

    def block(value: float, where: str) -> float:
        if not math.isfinite(value):
            raise NonFiniteError(f"non-finite log-posterior block: {where}",
                                 where=where)
        return value

    with np.errstate(over="ignore", invalid="ignore"):
        total = block((model.lambda_shape - 1.0) * math.log(lam)
                      - h.beta_lambda * lam, "lambda hyperprior")
        total += block((model.nu_shape - 1.0) * math.log(nu)
                       - h.beta_nu * nu, "nu hyperprior")
        total += block(model.r_exponent * sum_log_r, "latent exponent")
        total += block(-0.5 * nu * sq_resid, "likelihood")
        total += block(-0.5 * lam * weighted_sq_diff, "tv penalty")
        total += block(-0.5 * mix.a * sum_r - 0.5 * mix.b * sum_inv_r,
                       "latent prior")
    return total


def x_statistics(x: np.ndarray, y: np.ndarray,
                 model: ModelSpec) -> tuple[float, np.ndarray]:
    """The two statistics of x that the posterior reads: ||y - Hx||^2 and
    the squared difference (Dx)^2 of every row."""
    resid = y - model.blur.matvec(x)
    return float(resid @ resid), model.diff.matvec(x) ** 2


def log_posterior(state: LatentState, y: np.ndarray, model: ModelSpec) -> float:
    """:func:`log_joint` at the state, from its residual and penalty."""
    state.validate(model)
    y = model.lattice.check_vector(y, "y")
    with np.errstate(over="ignore", invalid="ignore"):
        sq_resid, dx2 = x_statistics(state.x, y, model)
        penalty = float(np.sum(dx2 * row_weights_from_r(state.r, model)))
        return log_joint(state.nu, state.lam, latent_sums(state.r), sq_resid,
                         penalty, model)


def conditional_params(state: LatentState, y: np.ndarray, model: ModelSpec,
                       which):
    """Parameters of a full conditional at the state.

    ``which`` is "x", "nu", "lambda", or ("r", index). The x-conditional
    assembles the dense system matrix and is capacity gated; it builds the
    matrix twice, once to factor in place for the mean and once for the
    returned precision, so one N x N array is live at a time.
    """
    state.validate(model)
    y = model.lattice.check_vector(y, "y")
    if which == "x":
        build = dense_gram(model.blur, model.diff)
        ratio = state.lam / state.nu
        weights = row_weights_from_r(state.r, model)
        mean = SpdFactor(build(ratio, weights), overwrite=True).solve(
            model.blur.rmatvec(y))
        precision = build(ratio, weights)
        precision *= state.nu
        return GaussianParams(mean, precision)
    sq_resid, dx2 = x_statistics(state.x, y, model)
    if which == "nu":
        return nu_conditional(sq_resid, model)
    if which == "lambda":
        weights = row_weights_from_r(state.r, model)
        return lambda_conditional(float(np.sum(dx2 * weights)), model)
    if isinstance(which, tuple) and len(which) == 2 and which[0] == "r":
        idx = which[1]
        if not (isinstance(idx, (int, np.integer))
                and 0 <= idx < model.n_latents):
            raise ValueError(f"latent index must be an int in "
                             f"[0, {model.n_latents}), got {idx!r}")
        rows = dx2.reshape(model.rows_per_latent, -1)[:, idx]
        bprime = r_conditional_b(rows, state.lam, model)
        return GigParams(model.prior.mixing.a, float(bprime[0]),
                         model.r_conditional_index)
    raise ValueError(f"unknown conditional selector {which!r}")
