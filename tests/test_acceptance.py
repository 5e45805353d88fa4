"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance and runtime budget is pinned here;
nothing is deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest
from scipy import optimize

from uncertain_ssl.cli import main as cli_main
from uncertain_ssl.kernel import (
    approx_error_grid,
    channel_overlap,
    gaussian_tail,
)
from uncertain_ssl.overlaps import (
    EpsilonMixture,
    qu_from_qv,
    sensitivity_ratio,
    solve_overlaps,
)
from uncertain_ssl.risk import (
    InfeasibilityError,
    absolute_reduction,
    bayes_risk,
    oracle_relative_reduction,
    oracle_risk,
    supervised_risk_theory,
)
from uncertain_ssl.simulate import (
    channel_overlap_mc_stats,
    classify_oracle,
    classify_semisupervised,
    generate_dataset,
    labeled_needed_empirical,
)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{status}] {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_approximation_bound():
    """Surrogate relative error <= 0.08 on the full grid, exactly 0 at the
    exact priors, inside 10 seconds."""
    start = time.perf_counter()
    eps_grid = np.linspace(0.0, 1.0, 101)
    q_grid = np.linspace(0.1, 10.0, 100)
    surface = approx_error_grid(eps_grid, q_grid)
    worst = float(surface.max())
    zero_rows = bool(np.all(surface[0] == 0.0) and np.all(surface[-1] == 0.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.08 and zero_rows and elapsed < 10.0
    report(
        1,
        "approximation bound on the (eps, q) grid",
        ok,
        f"max {worst:.4f}, exact rows {zero_rows}, {elapsed:.2f}s",
    )


def _certainty_oracle(lam: float, c: float, eta: float) -> tuple[float, float]:
    """Independent root of q_v = eta + (1 - eta) F(qu(q_v)): bracketed scan
    from above plus Brent's method (not the package's damped iteration)."""

    def defect(q_v: float) -> float:
        return q_v - (eta + (1.0 - eta) * channel_overlap(0.0, qu_from_qv(lam, c, q_v)))

    if defect(1.0) <= 0.0:
        return qu_from_qv(lam, c, 1.0), 1.0
    grid = np.linspace(1.0, 1e-9, 500)
    values = [defect(g) for g in grid]
    for a, b, fa, fb in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if fa > 0.0 and fb <= 0.0:
            root = optimize.brentq(defect, b, a, xtol=1e-15)
            return qu_from_qv(lam, c, root), root
    return 0.0, 0.0


def test_criterion_2_certainty_equivalence():
    """Mixture solver equals a direct certainty-system implementation to 1e-9
    across the (lam, c, eta) grid, inside 5 seconds."""
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.25, 1.0, 2.0, 4.0):
        for c in (0.5, 1.0, 5.0):
            for eta in (0.0, 0.2, 0.5, 1.0):
                mixture = EpsilonMixture(atoms=((1.0, eta), (0.0, 1.0 - eta)))
                solution = solve_overlaps(lam, c, mixture)
                q_u_direct, q_v_direct = _certainty_oracle(lam, c, eta)
                worst = max(
                    worst,
                    abs(solution.q_u - q_u_direct),
                    abs(solution.q_v - q_v_direct),
                )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    report(2, "certainty-case equivalence", ok, f"worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_contraction():
    """Relative q_u changes never exceed relative q_v changes, and the
    infinitesimal ratio matches 1/(1 + lam c q_v) within 1e-3, inside 5 s."""
    start = time.perf_counter()
    contraction_ok = True
    ratio_worst = 0.0
    for lam in (0.25, 1.0, 2.0, 4.0):
        for c in (0.5, 1.0, 5.0):
            for q_v in (0.2, 0.5, 0.8, 1.0):
                for delta in (1e-6, 1e-3, 0.05):
                    rel_u, rel_v = sensitivity_ratio(lam, c, q_v, delta)
                    contraction_ok &= rel_u <= rel_v + 1e-15
                rel_u, rel_v = sensitivity_ratio(lam, c, q_v, 1e-6)
                analytic = 1.0 / (1.0 + lam * c * q_v)
                ratio_worst = max(ratio_worst, abs(rel_u / rel_v - analytic))
    elapsed = time.perf_counter() - start
    ok = contraction_ok and ratio_worst < 1e-3 and elapsed < 5.0
    report(
        3,
        "relative-change contraction and analytic limit",
        ok,
        f"worst ratio gap {ratio_worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_channel_lemma():
    """Monte Carlo channel alignment within 3 standard errors of quadrature
    on a 5 x 5 grid at 1e6 trials, inside 60 seconds."""
    start = time.perf_counter()
    worst_z = 0.0
    for i, eps in enumerate((0.0, 0.25, 0.5, 0.75, 0.95)):
        for j, q in enumerate((0.1, 0.5, 1.0, 2.0, 5.0)):
            mc, se = channel_overlap_mc_stats(eps, q, 1_000_000, seed=[2024, i, j])
            z = abs(mc - channel_overlap(eps, q)) / se
            worst_z = max(worst_z, z)
    elapsed = time.perf_counter() - start
    ok = worst_z < 3.0 and elapsed < 60.0
    report(4, "scalar channel lemma", ok, f"worst |z| {worst_z:.2f}, {elapsed:.1f}s")


def test_criterion_5_oracle_risk():
    """Known-centers classifier matches Q(sqrt(lam)) within 3 binomial
    standard errors at n = 1e5, inside 30 seconds."""
    start = time.perf_counter()
    worst_z = 0.0
    n = 100_000
    for k, lam in enumerate((0.25, 1.0, 2.0)):
        ds = generate_dataset(10, n, lam, [], seed=[606, k])
        error = classify_oracle(ds).error_unlabeled  # no labels: every sample scored
        expected = gaussian_tail(math.sqrt(lam))
        se = math.sqrt(expected * (1.0 - expected) / n)
        worst_z = max(worst_z, abs(error - expected) / se)
    elapsed = time.perf_counter() - start
    ok = worst_z < 3.0 and elapsed < 30.0
    report(5, "oracle risk calibration", ok, f"worst |z| {worst_z:.2f}, {elapsed:.1f}s")


def test_criterion_6_theory_vs_simulation():
    """Iterative semi-supervised error within 0.03 of the solved Bayes risk
    at lam = 2, c = 1, n = p = 2000, 20% certain labels, 10 seeds, < 3 min."""
    start = time.perf_counter()
    lam, n, p, eta, seeds = 2.0, 2000, 2000, 0.2, 10
    theory = bayes_risk(solve_overlaps(lam, 1.0, EpsilonMixture.certainty(eta)).q_u)
    errors = []
    for r in range(seeds):
        ds = generate_dataset(p, n, lam, [(eta, 1.0)], seed=[1234, r])
        errors.append(classify_semisupervised(ds, t_max=30).error_unlabeled)
    gap = abs(float(np.mean(errors)) - theory)
    elapsed = time.perf_counter() - start
    ok = gap <= 0.03 and elapsed < 180.0
    report(
        6,
        "theory vs simulation at desk scale",
        ok,
        f"mean {np.mean(errors):.4f} vs theory {theory:.4f}, gap {gap:.4f}, {elapsed:.1f}s",
    )


def test_criterion_7_labeled_data_requirement():
    """Empirical labeled-count requirement within 15% of eta/(2 kappa - 1)^2 n
    at the reference sizes (n = 1000, p = 200, lam = 0.25), 10 reps, < 10 min;
    the combination below the feasibility line must be rejected."""
    start = time.perf_counter()
    p, n, lam, seed, reps = 200, 1000, 0.25, 777, 10
    failures = []
    details = []
    for eta in (1.0 / 5.0, 1.0 / 2.0):
        feasible = []
        for kappa in (0.75, 0.9, 1.0):
            if (2.0 * kappa - 1.0) ** 2 < eta:
                with pytest.raises(InfeasibilityError):
                    labeled_needed_empirical(p, n, lam, eta, [kappa], seed=seed, reps=reps)
                details.append(f"eta={eta:.2f},k={kappa}: infeasible ok")
            else:
                feasible.append(kappa)
        counts = labeled_needed_empirical(p, n, lam, eta, feasible, seed=seed, reps=reps)
        for kappa, found in zip(feasible, counts):
            predicted = eta / (2.0 * kappa - 1.0) ** 2 * n
            rel = (found - predicted) / predicted
            details.append(f"eta={eta:.2f},k={kappa}: {found} vs {predicted:.0f} ({rel:+.1%})")
            if abs(rel) > 0.15:
                failures.append(details[-1])
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600.0
    report(
        7,
        "labeled-data requirement law",
        ok,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_8_reduction_curve_laws():
    """Theory reduction curves: absolute reduction strictly increasing in the
    SNR; against the ratio, the oracle-relative reduction increases while the
    absolute one eventually decreases; inside 30 seconds."""
    start = time.perf_counter()
    eta = 0.2

    def bounds(lam: float, c: float) -> tuple[float, float]:
        e_sup = supervised_risk_theory(lam, c, eta)
        e_semi = bayes_risk(solve_overlaps(lam, c, EpsilonMixture.certainty(eta)).q_u)
        e_orc = oracle_risk(lam)
        return (
            absolute_reduction(e_sup, e_semi),
            oracle_relative_reduction(e_sup, e_semi, e_orc),
        )

    lam_grid = np.linspace(0.25, 4.0, 16)
    abs_in_lam = [bounds(lam, 1.0)[0] for lam in lam_grid]
    lam_ok = bool(np.all(np.diff(abs_in_lam) > 0.0))

    c_grid = np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0])
    pairs = [bounds(2.0, c) for c in c_grid]
    abs_in_c = np.array([pair[0] for pair in pairs])
    orc_in_c = np.array([pair[1] for pair in pairs])
    oracle_ok = bool(np.all(np.diff(orc_in_c) > 0.0))
    peak = int(np.argmax(abs_in_c))
    tail_ok = peak < abs_in_c.size - 1 and bool(np.all(np.diff(abs_in_c[peak:]) < 0.0))

    elapsed = time.perf_counter() - start
    ok = lam_ok and oracle_ok and tail_ok and elapsed < 30.0
    report(
        8,
        "reduction-curve qualitative laws",
        ok,
        f"increasing in snr {lam_ok}, oracle-relative up in ratio {oracle_ok}, "
        f"absolute peaks then falls {tail_ok}, {elapsed:.2f}s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Identical configuration and seed give byte-identical output files,
    inside 5 seconds."""
    start = time.perf_counter()
    solve_cfg = tmp_path / "solve.json"
    solve_cfg.write_text('{"lambda": 2.0, "c": 1.0, "eta": 0.2}')
    check_cfg = tmp_path / "check.json"
    check_cfg.write_text('{"eps_values": [0.0, 0.5], "q_values": [1.0], "trials": 20000}')

    identical = True
    for command, cfg, seeded in (
        ("solve", solve_cfg, False),
        ("channel-check", check_cfg, True),
    ):
        paths = [tmp_path / f"{command}_{k}.dat" for k in "ab"]
        for path in paths:
            argv = [command, "--config", str(cfg), "--out", str(path)]
            if seeded:
                argv += ["--seed", "17"]
            assert cli_main(argv) == 0
        blobs = [path.read_bytes() for path in paths]
        manifests = [
            (tmp_path / f"{command}_{k}.dat.manifest.json").read_bytes() for k in "ab"
        ]
        identical &= blobs[0] == blobs[1] and manifests[0] == manifests[1]
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 5.0
    report(9, "CLI determinism", ok, f"byte-identical {identical}, {elapsed:.2f}s")
