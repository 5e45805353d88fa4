"""Asymptotic theory and desk-scale verification of semi-supervised
Gaussian-mixture classification with uncertain labels.

The package is organised bottom-up:

- ``kernel``    scalar special functions and Gaussian expectations,
- ``overlaps``  the coupled overlap fixed-point system and its variants,
- ``risk``      Bayes/oracle risks, usefulness, and labeling requirements,
- ``simulate``  synthetic data, channel checks, and reference classifiers,
- ``cli``       the figure-data command line front end.
"""

from .kernel import (
    DEFAULT_RULE,
    QuadratureRule,
    approx_error_grid,
    channel_overlap,
    channel_overlap_approx,
    gaussian_tail,
    hermite_rule,
    overlap_integrand,
    overlap_integrand_approx,
    overlap_integrand_series,
    posterior_mean,
)
from .overlaps import (
    ConvergenceError,
    EpsilonMixture,
    OverlapSolution,
    ProblemParams,
    qu_from_qv,
    qv_from_qu,
    sensitivity_ratio,
    solve_approx,
    solve_certainty,
    solve_overlaps,
)
from .risk import (
    InfeasibilityError,
    RiskReport,
    absolute_reduction,
    bayes_risk,
    labeled_needed,
    oracle_relative_reduction,
    oracle_risk,
    risk_report,
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
    reference_error,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernel
    "QuadratureRule",
    "hermite_rule",
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
    "ProblemParams",
    "OverlapSolution",
    "ConvergenceError",
    "qu_from_qv",
    "qv_from_qu",
    "solve_overlaps",
    "solve_certainty",
    "solve_approx",
    "sensitivity_ratio",
    # risk
    "InfeasibilityError",
    "RiskReport",
    "bayes_risk",
    "oracle_risk",
    "usefulness",
    "absolute_reduction",
    "oracle_relative_reduction",
    "labeled_needed",
    "supervised_risk_theory",
    "risk_report",
    # simulate
    "SimulationError",
    "Dataset",
    "ClassifierOutput",
    "generate_dataset",
    "channel_overlap_mc_stats",
    "classify_oracle",
    "classify_supervised",
    "classify_semisupervised",
    "reference_error",
    "labeled_needed_empirical",
]
