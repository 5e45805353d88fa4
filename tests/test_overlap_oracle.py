"""``solve_overlaps`` against a frozen copy of the solver it replaced.

The solver reads one defect g(q_v) = q_v - qv_from_qu(qu_from_qv(q_v)) in
its damped step, its secant polish and its residual.  The copy below is the
earlier shape, which built the damped step's target and the residual from
the two maps separately and evaluated the polished point's label map twice.
Every solution, and every ``ConvergenceError``, must keep its bits.
"""

from __future__ import annotations

import math
import random

from uncertain_ssl import overlaps
from uncertain_ssl.overlaps import (
    ConvergenceError,
    EpsilonMixture,
    OverlapSolution,
    solve_overlaps,
)


# The earlier solver, kept as it was apart from module-qualified names.
def _oracle_secant_polish(defect, q0: float):
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


def _oracle_solve_from(lam, c, mixture, q_v0, tol, max_iter) -> OverlapSolution:
    def defect(q_v: float) -> float:
        return q_v - overlaps.qv_from_qu(mixture, overlaps._feature_map(lam, c, q_v))

    q_v = q_v0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        target = overlaps.qv_from_qu(
            mixture, overlaps._feature_map(lam, c, q_v if q_v < 1.0 else 1.0)
        )
        if abs(target - q_v) < tol:
            break
        q_v = q_v + 0.5 * (target - q_v)
    q_v = _oracle_secant_polish(defect, q_v)
    if mixture.eps_bar_sq == 0.0 and q_v <= 1e-5:
        q_v = 0.0
    q_u = overlaps._feature_map(lam, c, q_v)
    residual = abs(q_v - overlaps.qv_from_qu(mixture, q_u))
    return OverlapSolution(
        q_u=q_u, q_v=q_v, residual=residual, iterations=iterations, converged=residual < tol
    )


def _oracle_solve(lam, c, mixture, tol=1e-10, max_iter=10000) -> OverlapSolution:
    inits = (1.0, max(mixture.eps_bar_sq, 1e-6))
    runs = [_oracle_solve_from(lam, c, mixture, q_v0, tol, max_iter) for q_v0 in inits]
    converged = [r for r in runs if r.converged]
    if not converged:
        best = min(runs, key=lambda r: r.residual)
        raise ConvergenceError(
            f"overlap iteration did not converge within {max_iter} iterations "
            f"(best residual {best.residual:.3e})",
            best,
        )
    return max(converged, key=lambda r: r.q_u)


def _bits(solution: OverlapSolution) -> tuple:
    return (
        solution.q_u.hex(),
        solution.q_v.hex(),
        solution.residual.hex(),
        solution.iterations,
        solution.converged,
    )


def _outcome(solve, *args) -> tuple:
    try:
        return ("solved", _bits(solve(*args)))
    except ConvergenceError as error:
        return ("raised", str(error), _bits(error.last))


def _soft_mixture(seed: int) -> EpsilonMixture:
    """A noisy labeler's 2 000 atoms: 1 000 drawn reliabilities, each reported
    once as +eps and once as -eps."""
    rng = random.Random(f"mixture/{seed}")
    atoms = []
    for _ in range(1000):
        eps = 2.0 * rng.uniform(0.5, 1.0) - 1.0
        atoms += [(eps, 1.0 / 2000), (-eps, 1.0 / 2000)]
    return EpsilonMixture(tuple(atoms))


def _random_mixture(rng: random.Random) -> EpsilonMixture:
    """One to six atoms; some sit at eps in {0, +-1}, where the channel is exact."""
    eps = [rng.choice([0.0, 1.0, -1.0, rng.uniform(-1.0, 1.0)]) for _ in range(rng.randint(1, 6))]
    w = [rng.random() + 1e-3 for _ in eps]
    return EpsilonMixture(tuple((e, wj / sum(w)) for e, wj in zip(eps, w)))


def _cases() -> list[tuple]:
    # The certainty grid holds the critical point (1, 1, eta = 0), where both
    # starts snap to 0 after 10 000 steps, and the near-critical eta = 1e-6.
    cases = [
        (lam, c, EpsilonMixture.certainty(eta), tol, max_iter)
        for eta in (0.0, 1e-6, 1e-3, 0.2, 1.0)
        for lam in (0.5, 1.0, 1.2, 2.0)
        for c in (1.0, 3.0)
        for tol, max_iter in ((1e-10, 10000), (1e-300, 7), (1e-12, 1))
    ]
    soft = _soft_mixture(0)
    cases += [(2.0, 1.0, soft, 1e-10, 10000), (2.0, 1.0, soft, 1e-300, 3)]
    rng = random.Random("overlap-oracle")
    while len(cases) < 600:
        cases.append(
            (
                rng.choice([0.0, rng.uniform(0.0, 3.0)]),
                math.exp(rng.uniform(math.log(0.1), math.log(10.0))),
                _random_mixture(rng),
                rng.choice([1e-8, 1e-10, 1e-12, 1e-14, 1e-16, 1e-300]),
                rng.choice([1, 2, 3, 5, 10, 30, 100, 300]),
            )
        )
    return cases


def test_every_solve_keeps_the_oracles_bits():
    outcomes = []
    for case in _cases():
        expected = _outcome(_oracle_solve, *case)
        assert _outcome(solve_overlaps, *case) == expected, case
        outcomes.append(expected[0])
    # Both branches are exercised.
    assert 10 <= outcomes.count("raised") <= len(outcomes) - 100


def test_the_end_point_is_evaluated_once(monkeypatch):
    calls = []
    label_map = overlaps.qv_from_qu

    def counted(mixture, q_u):
        calls.append(q_u)
        return label_map(mixture, q_u)

    monkeypatch.setattr(overlaps, "qv_from_qu", counted)
    mixture = EpsilonMixture.certainty(0.2)
    solve_overlaps(2.0, 1.0, mixture)
    new = len(calls)
    calls.clear()
    _oracle_solve(2.0, 1.0, mixture)
    # One label map fewer per start: the polished point's defect is the residual.
    assert new == len(calls) - 2

