"""Asymptotic theory and desk-scale verification of semi-supervised
Gaussian-mixture classification with uncertain labels.

The package is organised bottom-up:

- ``kernel``    scalar special functions and Gaussian expectations,
- ``overlaps``  the coupled overlap fixed-point system and its two maps,
- ``risk``      Bayes/oracle risks, usefulness, and labeling requirements,
- ``simulate``  synthetic data, channel checks, and reference classifiers,
- ``cli``       the figure-data command line front end.
"""

from .kernel import (
    DEFAULT_RULE,
    approx_error_grid,
    channel_overlap,
    channel_overlap_approx,
    gaussian_tail,
    overlap_integrand,
    overlap_integrand_approx,
    overlap_integrand_series,
    posterior_mean,
)
from .overlaps import (
    ConvergenceError,
    EpsilonMixture,
    OverlapSolution,
    qu_from_qv,
    qv_from_qu,
    sensitivity_ratio,
    solve_overlaps,
)
from .risk import (
    InfeasibilityError,
    absolute_reduction,
    bayes_risk,
    labeled_needed,
    oracle_relative_reduction,
    oracle_risk,
    supervised_risk_theory,
    usefulness,
)
from .simulate import (
    ClassifierOutput,
    Dataset,
    SimulationError,
    channel_overlap_mc_stats,
    classify_oracle,
    classify_semisupervised,
    classify_supervised,
    generate_dataset,
    labeled_needed_empirical,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernel
    "DEFAULT_RULE",
    "gaussian_tail",
    "posterior_mean",
    "overlap_integrand",
    "overlap_integrand_series",
    "overlap_integrand_approx",
    "channel_overlap",
    "channel_overlap_approx",
    "approx_error_grid",
    # overlaps
    "EpsilonMixture",
    "OverlapSolution",
    "ConvergenceError",
    "qu_from_qv",
    "qv_from_qu",
    "solve_overlaps",
    "sensitivity_ratio",
    # risk
    "InfeasibilityError",
    "bayes_risk",
    "oracle_risk",
    "usefulness",
    "absolute_reduction",
    "oracle_relative_reduction",
    "labeled_needed",
    "supervised_risk_theory",
    # simulate
    "SimulationError",
    "Dataset",
    "ClassifierOutput",
    "generate_dataset",
    "channel_overlap_mc_stats",
    "classify_oracle",
    "classify_supervised",
    "classify_semisupervised",
    "labeled_needed_empirical",
]
