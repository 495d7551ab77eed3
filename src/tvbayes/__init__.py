"""Edge-preserving image deblurring with a hierarchical total-variation model.

The package estimates the image, the noise precision, the penalty strength
and all per-difference latent scales jointly from the data. Three engines
share one model: coordinate-ascent MAP (``ias_run``), mean-field
variational inference (``vb_run``) and Gibbs sampling (``gibbs_run``), plus
a Tikhonov baseline.
"""

__version__ = "0.1.0"

from .distributions import (
    GigParams,
    MvLaplaceParams,
    gig_log_pdf,
    gig_mode,
    gig_moment,
    gig_sample,
    gig_variance,
    gsm_sample,
    laplace1d_log_pdf,
    log_bessel_k,
    mvlaplace_log_pdf,
)
from .estimators import (
    GibbsChain,
    GibbsOptions,
    IasOptions,
    IasState,
    VbOptions,
    VbState,
    gibbs_run,
    ias_run,
    initial_state,
    tikhonov_baseline,
    vb_run,
)
from .harness import (
    RunReport,
    add_noise_bsnr,
    make_image_2d,
    make_signal_1d,
    metrics,
    read_pgm,
    read_signal_csv,
    write_pgm,
    write_signal_csv,
)
from .model import (
    CustomGig,
    HyperParams,
    Laplace2D,
    LaplaceTV,
    LatentState,
    ModelSpec,
    Prior,
    StudentTV,
    conditional_params,
    log_joint,
    log_posterior,
)
from .operators import (
    BlurOperator,
    DiffOperator,
    LatticeSpec,
    gaussian_kernel,
    validate_rank_condition,
    weighted_gram_matvec,
)
from .solvers import SpdFactor, pcg_solve

__all__ = [name for name in dir() if not name.startswith("_")]
