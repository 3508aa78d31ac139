"""Simulation, quasi-likelihood estimation, and Monte Carlo verification
for scalar diffusions observed through local means."""

from .estimate import EstimateResult, estimate_augmented, estimate_means_only
from .exact_oracle import GaussianObsModel, build_base_cov, exact_llr, exact_mle, log_density
from .experiments import ExperimentConfig, ExperimentReport, default_verify_configs, run_experiment
from .measures import (
    VCoefficients,
    WeightMeasure,
    measure_from_spec,
    measure_to_spec,
    v_coefficients,
)
from .models import REGISTRY, DiffusionModel, get_model, info_integrand, path_information
from .quasi_score import (
    TriKMatrix,
    aug_summaries,
    augmented_block_cov,
    info_terms,
    interior_block_cov,
    obs_summaries,
    quadratic_forms,
    score_terms,
)
from .simulate import block_edges, observe_values, simulate_values

__version__ = "0.1.0"
