"""Confronting the theory with simulation: the scalar channel check and the
three classifiers (oracle, supervised plug-in, iterative semi-supervised)
on one synthetic campaign.

Run:  python3 demos/04_monte_carlo.py       (about ten seconds)
"""

import numpy as np

from uncertain_ssl import (
    EpsilonMixture,
    bayes_risk,
    channel_overlap,
    channel_overlap_mc_stats,
    classify_oracle,
    classify_semisupervised,
    classify_supervised,
    generate_dataset,
    oracle_risk,
    solve_overlaps,
)

print("== Scalar channel check (Monte Carlo vs quadrature) ==")
for eps, q in ((0.0, 0.5), (0.5, 0.8), (0.75, 2.0)):
    mc, se = channel_overlap_mc_stats(eps, q, 500_000, seed=[8, int(10 * eps), int(q)])
    th = channel_overlap(eps, q)
    print(f"  eps={eps:.2f} q={q:.1f}: mc={mc:.5f} theory={th:.5f} z={(mc - th) / se:+.2f}")

print()
lam, n, p, eta = 2.0, 2000, 2000, 0.2
print(f"== Campaign: lam={lam}, n=p={n}, {eta:.0%} certain labels, 10 seeds ==")
mixture = EpsilonMixture.certainty(eta)
solution = solve_overlaps(lam, n / p, mixture)
print(f"  solved overlaps: q_u={solution.q_u:.5f}, q_v={solution.q_v:.5f}")
print(f"  predicted risks: semi={bayes_risk(solution.q_u):.4f}, oracle={oracle_risk(lam):.4f}")

oracle_err, sup_err, semi_err, iters = [], [], [], []
for r in range(10):
    ds = generate_dataset(p, n, lam, [(eta, 1.0)], seed=[51, r])
    oracle_err.append(classify_oracle(ds).error_unlabeled)
    sup_err.append(classify_supervised(ds).error_unlabeled)
    out = classify_semisupervised(ds, t_max=30)
    semi_err.append(out.error_unlabeled)
    iters.append(out.iterations)

print(f"  measured on unlabeled samples (mean of 10 seeds):")
print(f"    oracle      {np.mean(oracle_err):.4f}")
print(f"    supervised  {np.mean(sup_err):.4f}")
print(f"    semi-sup    {np.mean(semi_err):.4f}  ({np.mean(iters):.0f} passes on average)")
print(
    f"  gap to predicted Bayes risk: "
    f"{np.mean(semi_err) - bayes_risk(solution.q_u):+.4f}"
)
