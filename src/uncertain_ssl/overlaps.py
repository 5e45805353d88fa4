"""Self-consistent overlap system for semi-supervised learning with uncertain labels.

In the proportional regime (n samples, p features, c = n/p, class separation
SNR ``lam``) the asymptotic performance of Bayes-optimal classification is
characterised by two coupled scalars: a feature-space overlap q_u (the SNR of
the optimal per-sample score) and a label-space overlap q_v (the alignment of
the posterior-mean labels with the truth).  They solve

    q_u = lam^2 c q_v / (1 + lam c q_v)
    q_v = sum_j w_j F_{eps_j}(q_u)

where the mixture (eps_j, w_j) is the empirical distribution of per-sample
label confidences and F is the scalar channel overlap.  ``solve_overlaps``
solves it from (lam, c, mixture): it iterates the damped pair of maps from
two initialisations (q_v = 1 and q_v = max(eps_bar_sq, 1e-6), the mixture's
mean squared confidence floored at 1e-6), polishes each end point with a
secant refinement of the scalar defect, and returns the converged solution
with the larger q_u.  It checks lam, c and the finiteness of lam * lam * c
once, before iterating; ``qu_from_qv``, ``sensitivity_ratio`` and the
solver's iterations share one private copy of the feature map.

The classical certainty-labeled system (a fraction eta of hard labels, the
rest unlabeled) is the mixture ``EpsilonMixture.certainty(eta)``, that is
{(1, eta), (0, 1 - eta)}, for which q_v = eta + (1 - eta) F(q_u).  The
collapsed approximation of a mixture replaces its label map by
eps_bar_sq + (1 - eps_bar_sq) F(q_u): it is the certainty system at
eta = eps_bar_sq, exact whenever every atom has eps**2 in {0, 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import _check_count, _check_eps, _check_nonneg, _check_positive, _check_real
from .kernel import _check_sequence, _check_unit, _QuadraturePlan, channel_overlap

__all__ = [
    "EpsilonMixture",
    "OverlapSolution",
    "ConvergenceError",
    "qu_from_qv",
    "qv_from_qu",
    "solve_overlaps",
    "sensitivity_ratio",
]


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed; ``last`` carries the best iterate found."""

    def __init__(self, message: str, last: "OverlapSolution"):
        super().__init__(message)
        self.last = last


@dataclass(frozen=True)
class EpsilonMixture:
    """Discrete distribution of signed label confidences eps in [-1, 1].

    ``atoms`` is a tuple of (eps, weight) pairs; weights are normalised to
    sum exactly to one.  The mean squared confidence ``eps_bar_sq`` is the
    fraction of certainty-labeled data the mixture is informationally worth.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        atoms = _check_sequence(self.atoms, "mixture atoms", "(eps, weight) pairs")
        if not atoms:
            raise ValueError("mixture needs at least one atom")
        eps, w = [], []
        for index, atom in enumerate(atoms):
            try:
                e, wj = atom
            except (TypeError, ValueError):
                raise ValueError(
                    f"mixture atom {index} must be an (eps, weight) pair, got {atom!r}"
                ) from None
            eps.append(_check_real(e, "eps"))
            w.append(_check_nonneg(wj, "atom weight"))
        eps = _check_eps(np.array(eps))
        w = np.array(w)
        total = float(w.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError("atom weights must sum to 1 (within 1e-9)")
        w = w / total
        object.__setattr__(
            self, "atoms", tuple((float(e), float(wj)) for e, wj in zip(eps, w))
        )

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (eps, weights) arrays of the atoms, built once."""
        eps = np.array([e for e, _ in self.atoms], dtype=float)
        w = np.array([wj for _, wj in self.atoms], dtype=float)
        eps.flags.writeable = False
        w.flags.writeable = False
        return eps, w

    @cached_property
    def _label_plan(self) -> _QuadraturePlan:
        """Quadrature plan of the atoms' eps array, built once."""
        return _QuadraturePlan(self._arrays[0])

    @property
    def eps_bar_sq(self) -> float:
        """Mean squared confidence sum_j w_j eps_j**2, in [0, 1]."""
        return float(sum(wj * e * e for e, wj in self.atoms))

    @classmethod
    def certainty(cls, eta: float) -> "EpsilonMixture":
        """Fraction ``eta`` of certainty labels, the rest unlabeled."""
        eta = _check_unit(eta, "eta")
        return cls(atoms=((1.0, eta), (0.0, 1.0 - eta)))

    @classmethod
    def from_samples(cls, eps_values) -> "EpsilonMixture":
        """Empirical mixture of a vector of per-sample confidences."""
        e = _check_eps(eps_values).ravel()
        if e.size == 0:
            raise ValueError("need at least one sample")
        vals, counts = np.unique(e, return_counts=True)
        return cls(atoms=tuple(zip(vals.tolist(), (counts / e.size).tolist())))


@dataclass(frozen=True)
class OverlapSolution:
    """Solution of the overlap system with convergence diagnostics.

    q_u is computed from q_v by the feature map, so ``residual`` is the
    defect |q_v - qv_from_qu(mixture, q_u)| of the label equation.
    """

    q_u: float
    q_v: float
    residual: float
    iterations: int
    converged: bool


def _check_gain(lam: float, c: float) -> None:
    """Reject a checked (lam, c) pair whose lam * lam * c overflows, so that
    inf / inf never reaches the feature map."""
    if not math.isfinite(lam * lam * c):
        raise ValueError(f"lam * lam * c must be finite, got lam = {lam:g} and c = {c:g}")


def _feature_map(lam: float, c: float, q_v: float) -> float:
    """q_u = lam^2 c q_v / (1 + lam c q_v) at a (lam, c) pair that passed
    ``_check_gain``; the one copy of the formula."""
    return lam * lam * c * q_v / (1.0 + lam * c * q_v)


def qu_from_qv(lam: float, c: float, q_v: float) -> float:
    """Feature-overlap map q_u = lam^2 c q_v / (1 + lam c q_v).

    Valued in [0, lam), strictly increasing in q_v when lam > 0.  A bool
    argument is rejected, and so is a (lam, c) pair whose lam * lam * c
    overflows.
    """
    lam = _check_nonneg(lam, "lam")
    c = _check_positive(c, "c")
    q_v = _check_real(q_v, "q_v")
    if not -1e-12 <= q_v <= 1.0 + 1e-12:  # nan fails it too
        raise ValueError("q_v must lie in [0, 1]")
    _check_gain(lam, c)
    return _feature_map(lam, c, min(max(q_v, 0.0), 1.0))


def qv_from_qu(mixture: EpsilonMixture, q_u: float) -> float:
    """Label-overlap map: mixture average of the channel overlap at SNR q_u.

    One kernel call on the mixture's quadrature plan, built on its first
    evaluation, gives every atom's overlap with the bits of the call on its
    eps array: each distinct eps**2 is evaluated once, and eps**2 in {0, 1}
    costs no table row.  The weighted terms are summed as Python floats in
    atom order.
    """
    if not isinstance(mixture, EpsilonMixture):
        raise TypeError("mixture must be an EpsilonMixture")
    w = mixture._arrays[1]
    return sum((w * channel_overlap(mixture._label_plan, q_u)).tolist())


def _secant_polish(defect, q0: float):
    """Refine a root of ``defect`` near q0 by at most 60 clamped secant steps,
    stopping once |defect| falls below 1e-14.

    Keeps the best-|defect| point seen; the residual-tolerance fixed point
    parks O(sqrt(tol)) away from the root when the map slope approaches one,
    and this closes that gap.
    """
    x0 = min(max(q0, 0.0), 1.0)
    f0 = defect(x0)
    best_x, best_f = x0, f0
    x1 = min(x0 + max(1e-9, 1e-9 * abs(x0)), 1.0)
    if x1 == x0:
        x1 = x0 - 1e-9
    f1 = defect(x1)
    if abs(f1) < abs(best_f):
        best_x, best_f = x1, f1
    for _ in range(60):
        if f1 == f0 or abs(best_f) < 1e-14:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        x2 = min(max(x2, 0.0), 1.0)
        if x2 == x1:
            break
        f2 = defect(x2)
        if abs(f2) < abs(best_f):
            best_x, best_f = x2, f2
        x0, f0, x1, f1 = x1, f1, x2, f2
    return best_x


def _solve_from(
    lam: float, c: float, mixture: EpsilonMixture, q_v0: float, tol: float, max_iter: int
) -> OverlapSolution:
    def defect(q_v: float) -> float:  # the polish keeps q_v in [0, 1]
        return q_v - qv_from_qu(mixture, _feature_map(lam, c, q_v))

    q_v = q_v0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # q_v stays >= 0, but the label map's rounding can carry it just past
        # 1, where qu_from_qv would clamp it; so does the conditional.
        target = qv_from_qu(mixture, _feature_map(lam, c, q_v if q_v < 1.0 else 1.0))
        if abs(target - q_v) < tol:
            break
        q_v = q_v + 0.5 * (target - q_v)  # damped: halfway to the map's value
    q_v = _secant_polish(defect, q_v)
    if mixture.eps_bar_sq == 0.0 and q_v <= 1e-5:
        # All-unlabeled mixtures always admit the exact solution (0, 0); a
        # polished iterate this small means no larger root exists (at the
        # marginal slope the double root defeats any residual tolerance).
        q_v = 0.0
    q_u = _feature_map(lam, c, q_v)
    residual = abs(q_v - qv_from_qu(mixture, q_u))
    return OverlapSolution(
        q_u=q_u,
        q_v=q_v,
        residual=residual,
        iterations=iterations,
        converged=residual < tol,
    )


def solve_overlaps(
    lam: float,
    c: float,
    mixture: EpsilonMixture,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> OverlapSolution:
    """Solve the coupled overlap system at SNR ``lam``, sample ratio ``c``
    and label-confidence ``mixture`` by damped alternating iteration.

    Runs from both q_v = 1 and q_v = max(eps_bar_sq, 1e-6) (the floor lets the
    iterate escape the uninformative point when it is unstable), polishes each
    end point with a secant refinement of the scalar defect, and returns the
    converged solution with the larger q_u.  Raises ``ConvergenceError`` with
    the best iterate when no initialisation meets the residual tolerance.
    """
    lam = _check_nonneg(lam, "lam")
    c = _check_positive(c, "c")
    if not isinstance(mixture, EpsilonMixture):
        raise TypeError("mixture must be an EpsilonMixture")
    tol = _check_positive(tol, "tol")
    max_iter = _check_count(max_iter, "max_iter")
    _check_gain(lam, c)

    inits = (1.0, max(mixture.eps_bar_sq, 1e-6))
    runs = [_solve_from(lam, c, mixture, q_v0, tol, max_iter) for q_v0 in inits]
    converged = [r for r in runs if r.converged]
    if not converged:
        best = min(runs, key=lambda r: r.residual)
        raise ConvergenceError(
            f"overlap iteration did not converge within {max_iter} iterations "
            f"(best residual {best.residual:.3e})",
            best,
        )
    return max(converged, key=lambda r: r.q_u)


def sensitivity_ratio(
    lam: float, c: float, q_v: float, delta: float
) -> tuple[float, float]:
    """Relative responses (|dq_u|/q_u, |dq_v|/q_v) to a q_v perturbation.

    The first component never exceeds the second: the q_v -> q_u map contracts
    relative changes by the factor 1/(1 + lam c q_v), which is also the limit
    of the ratio of the two components as delta -> 0.  The perturbed point
    q_v + delta probes the map itself and may exceed 1 by the perturbation
    (the map extends smoothly past the physical range).  A (lam, c) pair
    whose lam * lam * c overflows is rejected, as by ``qu_from_qv``.
    """
    lam = _check_nonneg(lam, "lam")
    c = _check_positive(c, "c")
    q_v = _check_unit(q_v, "q_v", low_open=True)
    delta = _check_real(delta, "delta")
    if not math.isfinite(delta) or q_v + delta <= 0.0:
        raise ValueError("delta must be finite, and the perturbed point q_v + delta positive")
    _check_gain(lam, c)
    q_u = _feature_map(lam, c, q_v)
    d_qu = _feature_map(lam, c, q_v + delta) - q_u
    rel_v = abs(delta) / q_v
    rel_u = abs(d_qu) / q_u if q_u > 0.0 else 0.0
    return rel_u, rel_v
