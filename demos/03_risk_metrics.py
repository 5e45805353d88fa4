"""Decision metrics: Bayes and oracle risks, the usefulness of unlabeled
data, error reductions, and how many unreliable labels replace reliable ones.

Run:  python3 demos/03_risk_metrics.py
"""

from uncertain_ssl import (
    EpsilonMixture,
    InfeasibilityError,
    absolute_reduction,
    bayes_risk,
    labeled_needed,
    oracle_relative_reduction,
    oracle_risk,
    solve_overlaps,
    supervised_risk_theory,
    usefulness,
)

print("== Usefulness of unlabeled data against the Bayes risk ==")
print("  the only driver is how solvable the task is:")
for q_u in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 15.0):
    print(
        f"  q_u={q_u:5.1f}: risk={bayes_risk(q_u):.4f}  usefulness={usefulness(q_u):.4f}"
    )

print()
print("== Error levels and reductions at eta=0.2 across the SNR ==")
for lam in (0.5, 1.0, 2.0, 4.0):
    e_sup = supervised_risk_theory(lam, 1.0, 0.2)
    e_semi = bayes_risk(solve_overlaps(lam, 1.0, EpsilonMixture.certainty(0.2)).q_u)
    e_oracle = oracle_risk(lam)
    print(
        f"  lam={lam:.1f}: sup={e_sup:.4f} semi={e_semi:.4f} "
        f"oracle={e_oracle:.4f}  abs={absolute_reduction(e_sup, e_semi):.1%} "
        f"to-oracle={oracle_relative_reduction(e_sup, e_semi, e_oracle):.1%}"
    )

print()
print("== Labeled counts matching 20% certainty labels (n = 1000) ==")
for kappa in (0.7, 0.72, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0):
    try:
        count = labeled_needed(0.2, kappa, 1000)
        print(f"  kappa={kappa:.2f}: {count:7.1f} labels")
    except InfeasibilityError as exc:
        print(f"  kappa={kappa:.2f}: infeasible ({exc})")
