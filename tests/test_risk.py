"""Risk-metric checks: tail values against frozen oracles, reduction
arithmetic and its degenerate denominators, the labeled-count law, and the
equal-information equivalence between labeling settings."""

import re

import numpy as np
import pytest

from uncertain_ssl.overlaps import EpsilonMixture, qu_from_qv, solve_overlaps
from uncertain_ssl.risk import (
    InfeasibilityError,
    absolute_reduction,
    bayes_risk,
    labeled_needed,
    oracle_relative_reduction,
    oracle_risk,
    supervised_risk_theory,
    usefulness,
)

# Adaptive quadrature of the normal density, frozen (see test_kernel).
Q_AT_ONE = 0.15865525393145707
Q_AT_SQRT_HALF = 0.23975006109347674


class TestBayesRisk:
    def test_uninformative_scores(self):
        assert bayes_risk(0.0) == 0.5

    def test_half_overlap_value(self):
        assert abs(bayes_risk(0.5) - Q_AT_SQRT_HALF) < 1e-4
        assert abs(bayes_risk(0.5) - 0.2398) < 1e-4

    def test_tail_bound_at_strong_overlap(self):
        assert bayes_risk(10.0) < 1e-3

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 6.0, 61)
        values = [bayes_risk(q) for q in grid]
        assert np.all(np.diff(values) < 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bayes_risk(-0.1)


class TestOracleRisk:
    def test_no_signal(self):
        assert oracle_risk(0.0) == 0.5

    def test_unit_snr(self):
        assert abs(oracle_risk(1.0) - Q_AT_ONE) < 1e-6

    def test_lower_bounds_bayes_risk_at_finite_ratio(self):
        for lam in (0.25, 1.0, 2.0, 4.0):
            solution = solve_overlaps(lam, 1.0, EpsilonMixture.certainty(0.3))
            assert oracle_risk(lam) <= bayes_risk(solution.q_u)


class TestUsefulness:
    def test_hopeless_task(self):
        assert usefulness(0.0) == 0.0

    def test_saturation(self):
        assert usefulness(25.0) > 0.99

    def test_monotone_against_bayes_risk(self):
        q_grid = np.linspace(0.0, 25.0, 40)
        risks = [bayes_risk(q) for q in q_grid]
        values = [usefulness(q) for q in q_grid]
        # risk decreases along the grid while usefulness increases
        assert np.all(np.diff(risks) < 0.0)
        assert np.all(np.diff(values) > 0.0)


class TestReductions:
    def test_absolute_reduction_arithmetic(self):
        assert absolute_reduction(0.3, 0.3) == 0.0
        assert absolute_reduction(0.3, 0.0) == 1.0
        assert absolute_reduction(0.25, 0.20) == pytest.approx(0.2)

    def test_absolute_reduction_rejects_zero_supervised_error(self):
        with pytest.raises(ValueError):
            absolute_reduction(0.0, 0.0)

    def test_oracle_relative_arithmetic(self):
        assert oracle_relative_reduction(0.3, 0.3, 0.1) == 0.0
        assert oracle_relative_reduction(0.3, 0.1, 0.1) == 1.0
        assert oracle_relative_reduction(0.30, 0.20, 0.10) == pytest.approx(0.5)

    def test_oracle_relative_rejects_degenerate_denominator(self):
        with pytest.raises(ValueError):
            oracle_relative_reduction(0.2, 0.1, 0.2)


class TestLabeledNeeded:
    def test_perfect_labels(self):
        assert labeled_needed(0.2, 1.0, 1000) == pytest.approx(200.0)

    def test_diluted_labels(self):
        assert labeled_needed(0.1, 0.75, 1000) == pytest.approx(400.0)

    def test_infeasible_confidence(self):
        with pytest.raises(InfeasibilityError):
            labeled_needed(0.5, 0.6, 1000)
        with pytest.raises(InfeasibilityError):
            labeled_needed(0.2, 0.5, 1000)

    def test_decreasing_in_reliability_linear_in_size(self):
        kappas = np.linspace(0.8, 1.0, 9)
        counts = [labeled_needed(0.2, k, 1000) for k in kappas]
        assert np.all(np.diff(counts) < 0.0)
        assert labeled_needed(0.2, 0.9, 2000) == pytest.approx(
            2.0 * labeled_needed(0.2, 0.9, 1000)
        )
        assert labeled_needed(0.4, 0.9, 1000) == pytest.approx(
            2.0 * labeled_needed(0.2, 0.9, 1000)
        )

    @pytest.mark.parametrize("n", [2.7, 1000.0, np.float64(1000.0), True, np.True_, "1000"])
    def test_non_integer_size_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            labeled_needed(0.1, 1.0, n)

    @pytest.mark.parametrize("n", [1000, np.int64(1000), np.int32(1000)])
    def test_integer_sizes_accepted(self, n):
        assert labeled_needed(0.1, 1.0, n) == pytest.approx(100.0)


class TestEffectiveEta:
    """eps_bar_sq, the fraction of certainty labels a mixture is worth."""

    def test_all_unlabeled(self):
        assert EpsilonMixture(atoms=((0.0, 1.0),)).eps_bar_sq == 0.0

    def test_certainty_mixture(self):
        assert EpsilonMixture.certainty(0.2).eps_bar_sq == pytest.approx(0.2)

    def test_uniform_confidence_block(self):
        mixture = EpsilonMixture(atoms=((2.0 * 0.75 - 1.0, 0.4), (0.0, 0.6)))
        assert mixture.eps_bar_sq == pytest.approx(0.1, abs=1e-15)


class TestSupervisedRiskTheory:
    def test_fully_labeled_matches_pinned_system(self):
        for lam in (0.5, 2.0):
            for c in (1.0, 5.0):
                expected = bayes_risk(qu_from_qv(lam, c, 1.0))
                assert supervised_risk_theory(lam, c, 1.0) == pytest.approx(expected)

    def test_needs_labels(self):
        with pytest.raises(InfeasibilityError):
            supervised_risk_theory(1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "lam, c, eta, shown",
        [(1e200, 1.0, 0.2, "lam = 1e+200, c = 1 and eta = 0.2"),
         (1e154, 1e10, 0.5, "lam = 1e+154, c = 1e+10 and eta = 0.5")],
    )
    def test_overflow_names_lam_c_and_eta(self, lam, c, eta, shown):
        message = f"lam * lam * c * eta must be finite, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            supervised_risk_theory(lam, c, eta)

    def test_never_beats_semisupervised(self):
        for lam in (0.5, 1.0, 2.0):
            for c in (0.5, 1.0, 5.0):
                semi = bayes_risk(solve_overlaps(lam, c, EpsilonMixture.certainty(0.2)).q_u)
                assert supervised_risk_theory(lam, c, 0.2) >= semi - 1e-12


class TestRiskReport:
    """The risks the ``solve`` command reports next to a solved overlap pair."""

    def test_invariant_ordering(self):
        solution = solve_overlaps(2.0, 1.0, EpsilonMixture.certainty(0.2))
        assert oracle_risk(2.0) <= bayes_risk(solution.q_u) <= 0.5
        assert 0.0 <= usefulness(solution.q_u) <= 1.0


class TestEquivalenceOfSettings:
    """Mixtures carrying the same mean squared confidence are interchangeable:
    exactly under the collapsed solver, and within the surrogate budget
    propagated through the contraction for the exact solver."""

    MIX_A = EpsilonMixture(atoms=((1.0, 0.2), (0.0, 0.8)))
    MIX_B = EpsilonMixture(atoms=((0.5, 0.8), (0.0, 0.2)))

    def test_same_effective_eta(self):
        assert self.MIX_A.eps_bar_sq == pytest.approx(self.MIX_B.eps_bar_sq)

    def test_collapsed_solver_identical(self):
        for lam in (0.5, 1.0, 2.0):
            for c in (0.5, 1.0, 5.0):
                # the collapsed solve is the certainty system at eta = eps_bar_sq
                sol_a = solve_overlaps(lam, c, EpsilonMixture.certainty(self.MIX_A.eps_bar_sq))
                sol_b = solve_overlaps(lam, c, EpsilonMixture.certainty(self.MIX_B.eps_bar_sq))
                assert sol_a.q_u == sol_b.q_u
                assert sol_a.q_v == sol_b.q_v

    def test_exact_solver_within_propagated_budget(self):
        for lam in (0.5, 1.0, 2.0):
            for c in (0.5, 1.0, 5.0):
                sol_a = solve_overlaps(lam, c, self.MIX_A)
                sol_b = solve_overlaps(lam, c, self.MIX_B)
                rel_v = abs(sol_a.q_v - sol_b.q_v) / sol_a.q_v
                rel_u = abs(sol_a.q_u - sol_b.q_u) / sol_a.q_u
                risk_gap = abs(bayes_risk(sol_a.q_u) - bayes_risk(sol_b.q_u))
                assert rel_u <= rel_v <= 0.08
                assert risk_gap <= 0.02
