"""Exception types shared across the package.

Every failure mode a caller may want to catch has its own class; numerical
routines never hand back NaN/inf silently. Each kind of input has one check:
``LatticeSpec.check_vector`` (data y, state x), ``_fourier_apply`` (operator
vectors), ``MvLaplaceParams`` (scale matrices), ``read_table_csv`` (CSV).
Each writer has one too, so no file is written that a reader rejects:
``write_pgm`` (images) and ``write_table_csv`` (CSV tables and signals).
Each positive-finite value of a model state, an engine update or a GIG
draw goes through ``operators.check_positive``.
"""


class TvBayesError(Exception):
    """Base class for all package errors."""


class GigParameterError(TvBayesError, ValueError):
    """GIG parameter triple outside the admissible region."""


class MomentDivergesError(TvBayesError, ArithmeticError):
    """Requested distribution moment does not exist."""


class DegenerateConditionalError(TvBayesError):
    """A latent-scale conditional collapsed (zero pixel difference with an
    exact-Laplace style mixing density, b = 0).

    Remedy: use a safeguarded mixing density, e.g. GIG(2, 0.001, 1).
    """


class RankConditionError(TvBayesError, ValueError):
    """Nullspaces of the blur and difference operators intersect."""


class CapacityError(TvBayesError):
    """Problem too large for a dense-matrix code path."""


class NotSpdError(TvBayesError, ValueError):
    """Matrix failed the symmetric positive definite factorisation.

    ``pivot`` is the 1-based index of the failing leading minor.
    """

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


class SpentFactorError(TvBayesError, RuntimeError):
    """A Cholesky factor was used after its memory was given to an inverse
    (``SpdFactor(..., overwrite=True).inverse()`` or ``.inverse_factor()``)."""


class PcgError(TvBayesError, RuntimeError):
    """Conjugate gradient did not converge; carries the best iterate."""

    def __init__(self, message: str, best=None, iterations: int = 0,
                 residual: float = float("nan")):
        super().__init__(message)
        self.best = best
        self.iterations = iterations
        self.residual = residual


class DivergenceError(TvBayesError, RuntimeError):
    """Degenerate regularisation: the penalty strength ran away.

    ``mode`` is "blank_image" (strength towards infinity) or "no_op"
    (strength towards zero, estimate stays at the blurred noisy input).
    """

    def __init__(self, message: str, mode: str, iteration: int):
        super().__init__(message)
        self.mode = mode
        self.iteration = iteration


class NonFiniteError(TvBayesError, ArithmeticError):
    """A non-finite value appeared; names the offending block/variable."""

    def __init__(self, message: str, where: str, iteration: int | None = None):
        super().__init__(message)
        self.where = where
        self.iteration = iteration


class FileFormatError(TvBayesError, ValueError):
    """Malformed input file; carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
