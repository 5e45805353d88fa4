"""Solving the coupled overlap system and probing its sensitivity.

The two overlaps (q_u, q_v) fix the asymptotic performance of the task.
This script solves the system for a few labeling mixtures, shows that the
certainty-labeled system is the two-atom special case, and demonstrates the
relative-change contraction of the q_v -> q_u map.

Run:  python3 demos/02_overlap_system.py
"""

from uncertain_ssl import (
    EpsilonMixture,
    bayes_risk,
    sensitivity_ratio,
    solve_overlaps,
)

lam, c = 2.0, 1.0

print(f"== Certainty labels at lam={lam}, c={c} ==")
for eta in (0.0, 0.2, 0.5, 1.0):
    sol = solve_overlaps(lam, c, EpsilonMixture.certainty(eta))
    print(
        f"  eta={eta:.1f}: q_u={sol.q_u:.6f} q_v={sol.q_v:.6f} "
        f"risk={bayes_risk(sol.q_u):.4f} ({sol.iterations} iterations, "
        f"residual {sol.residual:.1e})"
    )

print()
print("== A soft-label mixture and its collapsed approximation ==")
mixture = EpsilonMixture(atoms=((0.8, 0.25), (0.4, 0.25), (0.0, 0.5)))
exact = solve_overlaps(lam, c, mixture)
# the collapsed approximation: the certainty system at eta = eps_bar_sq
approx = solve_overlaps(lam, c, EpsilonMixture.certainty(mixture.eps_bar_sq))
print(f"  mean squared confidence: {mixture.eps_bar_sq:.4f}")
print(f"  exact solve:  q_u={exact.q_u:.6f} q_v={exact.q_v:.6f}")
print(f"  collapsed:    q_u={approx.q_u:.6f} q_v={approx.q_v:.6f}")
print(
    f"  relative gaps: q_v {abs(approx.q_v - exact.q_v) / exact.q_v:.2%}, "
    f"q_u {abs(approx.q_u - exact.q_u) / exact.q_u:.2%} (u-gap never exceeds v-gap)"
)

print()
print("== Sensitivity: a q_v error contracts before reaching q_u ==")
for q_v in (0.25, 0.5, 1.0):
    rel_u, rel_v = sensitivity_ratio(lam, c, q_v, 1e-6)
    print(
        f"  at q_v={q_v:.2f}: ratio of relative changes {rel_u / rel_v:.4f} "
        f"(analytic 1/(1 + lam c q_v) = {1.0 / (1.0 + lam * c * q_v):.4f})"
    )

print()
print("== Two mixtures with the same information content ==")
mix_hard = EpsilonMixture(atoms=((1.0, 0.2), (0.0, 0.8)))
mix_soft = EpsilonMixture(atoms=((0.5, 0.8), (0.0, 0.2)))
for name, mix in (("20% certain", mix_hard), ("80% half-sure", mix_soft)):
    sol = solve_overlaps(lam, c, mix)
    print(
        f"  {name}: eps_bar_sq={mix.eps_bar_sq:.2f}  q_u={sol.q_u:.5f}  "
        f"risk={bayes_risk(sol.q_u):.5f}"
    )
print("  equal mean squared confidence puts the risks within a fraction of a percent.")
