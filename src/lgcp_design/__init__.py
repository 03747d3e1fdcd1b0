"""Bayesian model-based spatiotemporal survey design for log-Gaussian Cox
processes: spatially balanced and rejection-thinned design generation, and
Monte Carlo evaluation via average-predictive-variance loss and KL
information gain."""

from .domain import (
    Domain,
    Grid,
    discretize,
    from_unit_cube,
    is_admissible,
    load_mask_file,
    point,
    save_mask_file,
    to_unit_cube,
    unit_cube,
)
from .kernels import CovStructure, KernelSpec, MeanFunction, cov_matrix, mean_eval
from .lgcp import (
    GaussianObs,
    LatentPosterior,
    Model,
    NegativeBinomial,
    Poisson,
    PriorTerms,
    fit_lgcp,
    intensity_moments,
    kl_lemma1,
    laplace_predict,
    mean_latent_variance,
    sample_counts,
)
from .gp_gaussian import sample_prior
from .designs import (
    Design,
    InclusionProbability,
    coffee_house,
    default_delta,
    fibonacci_lattice_3d,
    halton,
    inhibitory_close_pairs,
    load_design,
    min_dist_discrete,
    random_design,
    rejection_wrap,
    save_design,
    simple_inhibitory,
    sobol,
    space_fill_rejection,
)
from .evaluation import (
    ConditionedModel,
    UtilityEstimate,
    compare_designs,
    condition_on_data,
    estimate,
    expected_apv,
    expected_kl,
    write_comparison_csv,
)
from .exceptions import (
    DegenerateFieldError,
    EmptyGridError,
    InfeasibleDesignError,
    LgcpDesignError,
    NumericalError,
)

__version__ = "0.1.0"
