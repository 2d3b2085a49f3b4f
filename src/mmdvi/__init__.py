"""Robust location estimation with an MMD-based pseudo-posterior.

The package fits a diagonal Gaussian variational approximation of the
posterior ``exp(-beta * MMD^2(P_theta, P_hat_n)) * pi(theta)`` by projected
stochastic gradient descent, and ships the contamination benchmark and
prior-mass calculators that accompany it.
"""

from .kernel import GaussianKernel, gaussian_embedding_inner, point_embedding_inner
from .mmd import (
    ContaminatedGaussianSpec,
    check_empirical_convergence,
    kl_contaminated_criterion,
    minimize_criterion,
    mmd2_contaminated_criterion,
    mmd2_gaussian_closed,
    mmd2_model_vs_empirical,
    mmd2_ustat,
    mmd2_vstat,
)
from .models import ModelSpec, sample
from .theory import (
    ExtendedMassReport,
    PriorMassReport,
    ball_radius,
    exact_ball_radius,
    extended_prior_mass_construction,
    prior_mass_lower_bound,
)
from .harness import (
    PROBLEMS,
    ContaminationSpec,
    OutlierSpec,
    Problem,
    SweepResult,
    generate,
    run_sweep,
)
from .vi import (
    FitConfig,
    FitResult,
    FitTrace,
    MeanFieldGaussian,
    fit,
    grad_estimate,
    kl_to_standard_prior,
    objective_exact,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianKernel",
    "gaussian_embedding_inner",
    "point_embedding_inner",
    "mmd2_vstat",
    "mmd2_ustat",
    "mmd2_gaussian_closed",
    "mmd2_model_vs_empirical",
    "ContaminatedGaussianSpec",
    "mmd2_contaminated_criterion",
    "kl_contaminated_criterion",
    "minimize_criterion",
    "check_empirical_convergence",
    "ModelSpec",
    "sample",
    "MeanFieldGaussian",
    "FitConfig",
    "FitTrace",
    "FitResult",
    "fit",
    "grad_estimate",
    "objective_exact",
    "kl_to_standard_prior",
    "ball_radius",
    "exact_ball_radius",
    "PriorMassReport",
    "prior_mass_lower_bound",
    "ExtendedMassReport",
    "extended_prior_mass_construction",
    "OutlierSpec",
    "ContaminationSpec",
    "Problem",
    "PROBLEMS",
    "SweepResult",
    "generate",
    "run_sweep",
    "__version__",
]
