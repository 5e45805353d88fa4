"""Decision-level metrics derived from the overlap solution.

The feature overlap q_u fixes everything a decision maker cares about:

- ``bayes_risk``            Q(sqrt(q_u)), the asymptotic misclassification
                            floor of the task,
- ``oracle_risk``           Q(sqrt(lam)), the error with known class centers
                            (the c -> infinity limit of the Bayes risk),
- ``usefulness``            F(q_u), how much of a certainty-labeled sample's
                            information one unlabeled sample carries,
- error-reduction ratios comparing supervised, semi-supervised and oracle
  error levels, and
- ``labeled_needed``        the labeled-sample count that matches a target
                            information level when labels are only
                            kappa-reliable.
"""

from __future__ import annotations

import math

from .kernel import _check_count, _check_nonneg, _check_positive, _check_real, _check_unit
from .kernel import channel_overlap, gaussian_tail
from .overlaps import qu_from_qv

__all__ = [
    "InfeasibilityError",
    "bayes_risk",
    "oracle_risk",
    "usefulness",
    "absolute_reduction",
    "oracle_relative_reduction",
    "labeled_needed",
    "supervised_risk_theory",
]


class InfeasibilityError(ValueError):
    """The requested labeling regime cannot reach the target information level."""


def bayes_risk(q_u) -> float:
    """Asymptotic misclassification floor Q(sqrt(q_u)).

    0.5 at q_u = 0 (uninformative scores), strictly decreasing in q_u.
    """
    return gaussian_tail(math.sqrt(_check_nonneg(q_u, "q_u")))


def oracle_risk(lam) -> float:
    """Error Q(sqrt(lam)) of the classifier that knows the class centers."""
    return gaussian_tail(math.sqrt(_check_nonneg(lam, "lam")))


def usefulness(q_u) -> float:
    """Information value F(q_u) of an unlabeled sample, relative to a labeled one.

    0 when the task is hopeless (Bayes risk 0.5), approaching 1 as the task
    becomes easy; monotone decreasing as a function of the Bayes risk.
    """
    return channel_overlap(0.0, _check_nonneg(q_u, "q_u"))


def absolute_reduction(e_sup: float, e_semi: float) -> float:
    """Error reduction (e_sup - e_semi) / e_sup from going semi-supervised.

    Requires e_sup > 0 (the ratio is undefined at zero supervised error);
    lands in [0, 1] whenever e_semi <= e_sup.  Noisy empirical inputs with
    e_semi > e_sup yield a negative value rather than an error.
    """
    es = _check_positive(e_sup, "e_sup")
    ss = _check_nonneg(e_semi, "e_semi")
    return (es - ss) / es


def oracle_relative_reduction(e_sup: float, e_semi: float, e_oracle: float) -> float:
    """Share (e_sup - e_semi) / (e_sup - e_oracle) of the gap to oracle closed.

    Reads as "how much of the way to oracle error has been done"; requires
    e_oracle < e_sup (the denominator degenerates otherwise).
    """
    es = _check_positive(e_sup, "e_sup")
    ss = _check_nonneg(e_semi, "e_semi")
    eo = _check_nonneg(e_oracle, "e_oracle")
    if es <= eo:
        raise ValueError("e_sup must exceed e_oracle (degenerate denominator)")
    return (es - ss) / (es - eo)


def labeled_needed(eta: float, kappa: float, n: int) -> float:
    """Labeled count eta / (2 kappa - 1)^2 * n matching the eta-certainty level.

    A fraction eta of certainty labels and n_l labels of per-sample
    reliability kappa carry the same mean squared confidence exactly when
    n_l = eta n / (2 kappa - 1)^2.  Feasible only for (2 kappa - 1)^2 >= eta:
    below that, even labeling every sample falls short.  eta lies in (0, 1]
    and kappa in [0.5, 1], where 0.5 is infeasible.  Returns a real; callers
    round up to a whole sample count.
    """
    eta = _check_unit(eta, "eta", low_open=True)
    kappa = _check_real(kappa, "kappa")
    if not 0.5 <= kappa <= 1.0:  # nan fails it too
        raise ValueError("kappa must lie in [0.5, 1]")
    n = _check_count(n, "n")
    if kappa == 0.5:
        raise InfeasibilityError("kappa = 0.5 labels carry no information")
    conf_sq = (2.0 * kappa - 1.0) ** 2
    if conf_sq < eta:
        raise InfeasibilityError(
            f"(2 kappa - 1)^2 = {conf_sq:.6g} < eta = {eta:.6g}: no labeled count "
            "can reach the target confidence level"
        )
    return eta / conf_sq * n


def supervised_risk_theory(lam: float, c: float, eta: float) -> float:
    """Asymptotic error of learning from the labeled subsample alone.

    Discarding unlabeled data leaves eta * n certainty-labeled samples, i.e.
    the pinned system q_v = 1 at sample ratio eta c, so the score SNR is
    qu_from_qv(lam, eta * c, 1) and the error its Gaussian tail.  This is the
    theory baseline the plug-in supervised classifier attains.  eta, the
    certainty mixture's fraction, lies in [0, 1], where 0 is infeasible.
    """
    eta = _check_unit(eta, "eta")
    if eta == 0.0:
        raise InfeasibilityError("supervised baseline needs a positive labeled fraction")
    return bayes_risk(qu_from_qv(lam, _check_positive(c, "c") * eta, 1.0))

