"""Overlap-system checks: the two maps, self-consistency of the solver against
an independent bracketing root-finder, the certainty special case, the
collapsed approximation, and the relative-change contraction."""

import math
import pickle

import numpy as np
import pytest
from scipy import optimize

import uncertain_ssl.kernel as kernel_module
import uncertain_ssl.overlaps as overlaps_module
from uncertain_ssl.kernel import channel_overlap
from uncertain_ssl.overlaps import (
    ConvergenceError,
    EpsilonMixture,
    qu_from_qv,
    qv_from_qu,
    sensitivity_ratio,
    solve_overlaps,
)

LAM_GRID = (0.25, 1.0, 2.0, 4.0)
C_GRID = (0.5, 1.0, 5.0)
ETA_GRID = (0.0, 0.2, 0.5, 1.0)


def certainty_fixed_point_oracle(lam, c, eta):
    """Largest root of q_v = eta + (1 - eta) F(qu(q_v)), by bracketed bisection.

    Independent of the package's damped iteration: scans the defect for its
    rightmost sign change and hands the bracket to Brent's method.  With no
    labels and no sign change the only solution is the uninformative origin.
    """

    def defect(q_v):
        return q_v - (eta + (1.0 - eta) * channel_overlap(0.0, qu_from_qv(lam, c, q_v)))

    if defect(1.0) <= 0.0:
        return qu_from_qv(lam, c, 1.0), 1.0
    grid = np.linspace(1.0, 1e-9, 400)
    values = [defect(g) for g in grid]
    for a, b, fa, fb in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if fa > 0.0 and fb <= 0.0:
            root = optimize.brentq(defect, b, a, xtol=1e-15)
            return qu_from_qv(lam, c, root), root
    if eta > 0.0:
        root = optimize.brentq(defect, eta / 2.0, 1.0, xtol=1e-15)
        return qu_from_qv(lam, c, root), root
    return 0.0, 0.0


class TestEpsilonMixture:
    def test_weights_normalise_and_validate(self):
        mix = EpsilonMixture(atoms=((0.5, 0.4), (0.0, 0.6)))
        assert abs(sum(w for _, w in mix.atoms) - 1.0) <= 1e-15
        assert mix.eps_bar_sq == pytest.approx(0.1, abs=1e-15)
        with pytest.raises(ValueError):
            EpsilonMixture(atoms=((0.5, 0.4), (0.0, 0.4)))
        with pytest.raises(ValueError):
            EpsilonMixture(atoms=((1.5, 1.0),))

    @pytest.mark.parametrize("atom", [(0.5, 1.0, 3), (0.5,), 0.5, None])
    def test_atom_that_is_not_a_pair_rejected(self, atom):
        with pytest.raises(ValueError, match=r"mixture atom 1 must be an \(eps, weight\) pair"):
            EpsilonMixture(atoms=((0.0, 0.5), atom))

    @pytest.mark.parametrize("atoms", [5, None])
    def test_atoms_that_are_not_a_sequence_rejected(self, atoms):
        with pytest.raises(ValueError, match=r"^mixture atoms must be a sequence"):
            EpsilonMixture(atoms=atoms)

    def test_certainty_factory(self):
        mix = EpsilonMixture.certainty(0.2)
        assert mix.atoms == ((1.0, 0.2), (0.0, 0.8))
        assert mix.eps_bar_sq == pytest.approx(0.2, abs=1e-15)

    def test_from_samples(self):
        mix = EpsilonMixture.from_samples([0.5, 0.5, 0.0, -0.5])
        weights = dict((e, w) for e, w in mix.atoms)
        assert weights[0.5] == pytest.approx(0.5)
        assert weights[-0.5] == pytest.approx(0.25)
        assert mix.eps_bar_sq == pytest.approx(0.1875)


class TestFeatureOverlapMap:
    def test_no_signal_or_no_alignment(self):
        assert qu_from_qv(0.0, 2.0, 0.7) == 0.0
        assert qu_from_qv(1.5, 2.0, 0.0) == 0.0

    def test_unit_point(self):
        assert qu_from_qv(1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_strictly_increasing_and_bounded(self):
        lam, c = 1.7, 2.3
        q_v = np.linspace(0.0, 1.0, 51)
        values = [qu_from_qv(lam, c, q) for q in q_v]
        assert np.all(np.diff(values) > 0.0)
        assert all(0.0 <= v < lam for v in values)


class TestLabelOverlapMap:
    def test_all_certain_is_one(self):
        mix = EpsilonMixture(((1.0, 1.0),))
        for q_u in (0.0, 0.3, 5.0):
            assert qv_from_qu(mix, q_u) == 1.0

    def test_all_unlabeled_at_zero(self):
        assert qv_from_qu(EpsilonMixture(((0.0, 1.0),)), 0.0) == 0.0

    def test_certainty_mixture_affine_identity(self):
        eta = 0.3
        mix = EpsilonMixture.certainty(eta)
        for q_u in (0.0, 0.4, 1.0, 3.0):
            expected = eta + (1.0 - eta) * channel_overlap(0.0, q_u)
            assert abs(qv_from_qu(mix, q_u) - expected) < 1e-12


def soft_mixture(seed, atoms):
    """Random mixture with the exact confidences -1, 0 and 1 among its atoms."""
    rng = np.random.default_rng(seed)
    eps = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, atoms - 3)])
    w = rng.random(atoms)
    return EpsilonMixture(atoms=tuple(zip(eps.tolist(), (w / w.sum()).tolist())))


class TestBatchedLabelOverlapMap:
    """One kernel call per map evaluation, on one quadrature plan per mixture,
    with the bits of the per-atom sum."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_equals_per_atom_sum(self, seed):
        mix = soft_mixture(seed, 2000)
        for q_u in (0.0, 1e-7, 0.25, 1.3, 25.0):
            expected = sum(wj * channel_overlap(e, q_u) for e, wj in mix.atoms)
            assert qv_from_qu(mix, q_u) == expected

    def test_one_kernel_call_whatever_the_atom_count(self, monkeypatch):
        calls = []

        def counting(eps, q):
            calls.append(np.size(eps))
            return channel_overlap(eps, q)

        monkeypatch.setattr(overlaps_module, "channel_overlap", counting)
        for atoms in (3, 40, 2000):
            qv_from_qu(soft_mixture(atoms, atoms), 0.6)
        qv_from_qu(EpsilonMixture(((0.4, 1.0),)), 0.6)
        assert calls == [3, 40, 2000, 1]

    def test_plan_built_once_per_mixture(self):
        mix = soft_mixture(3, 40)
        plan = mix._label_plan
        qv_from_qu(mix, 0.6)
        qv_from_qu(mix, 1.2)
        assert mix._label_plan is plan
        twin = EpsilonMixture(atoms=mix.atoms)
        assert twin == mix and twin._label_plan is not plan

    def test_one_row_per_distinct_squared_confidence(self, monkeypatch):
        rows, ratio = [], kernel_module._psi_ratio

        def counting(e2, th):
            rows.append(e2.shape[0])
            return ratio(e2, th)

        monkeypatch.setattr(kernel_module, "_psi_ratio", counting)
        eps = np.random.default_rng(4).uniform(0.01, 0.99, 1000)
        mix = EpsilonMixture.from_samples(np.concatenate([eps, -eps]))
        assert len(mix.atoms) == 2000
        qv_from_qu(mix, 0.6)
        qv_from_qu(EpsilonMixture.certainty(0.3), 0.6)
        qv_from_qu(EpsilonMixture(atoms=((-0.8, 0.05), (0.0, 0.9), (0.8, 0.05))), 0.6)
        # The 1000 rows are tabulated in blocks of ``step``.
        step = kernel_module._TABLE_BLOCK_CELLS // len(kernel_module.DEFAULT_RULE)
        assert 1 < step < 1000
        assert rows == [min(step, 1000 - start) for start in range(0, 1000, step)] + [1]

    def test_evaluated_mixture_still_pickles(self):
        mix = soft_mixture(5, 40)
        value = qv_from_qu(mix, 0.6)
        copy = pickle.loads(pickle.dumps(mix))
        assert copy == mix
        assert qv_from_qu(copy, 0.6) == value

    def test_bool_snr_rejected_not_coerced(self):
        with pytest.raises(ValueError, match="not a bool"):
            qv_from_qu(EpsilonMixture(((0.4, 1.0),)), True)

    def test_cached_arrays_leave_fields_and_equality_alone(self):
        mix = EpsilonMixture(atoms=((0.5, 0.4), (-0.25, 0.6)))
        twin = EpsilonMixture(atoms=((0.5, 0.4), (-0.25, 0.6)))
        eps, w = mix._arrays
        assert mix._arrays is mix._arrays
        assert eps.tolist() == [0.5, -0.25] and w.tolist() == [0.4, 0.6]
        assert not eps.flags.writeable and not w.flags.writeable
        assert mix == twin and hash(mix) == hash(twin)
        assert repr(mix) == repr(twin)


class TestSolveOverlaps:
    def test_no_signal_forces_zero_feature_overlap(self):
        mix = EpsilonMixture(atoms=((0.6, 0.5), (0.0, 0.5)))
        solution = solve_overlaps(0.0, 1.0, mix)
        assert solution.q_u == 0.0
        assert solution.q_v == pytest.approx(qv_from_qu(mix, 0.0), abs=1e-10)
        assert solution.q_v == pytest.approx(mix.eps_bar_sq, abs=1e-10)

    def test_pinned_label_overlap_closed_form(self):
        solution = solve_overlaps(0.25, 5.0, EpsilonMixture.certainty(1.0))
        assert solution.q_v == pytest.approx(1.0, abs=1e-12)
        assert solution.q_u == pytest.approx(0.25 * 1.25 / 2.25, abs=1e-12)

    def test_self_consistency_residual(self):
        mix = EpsilonMixture(atoms=((1.0, 0.2), (0.0, 0.8)))
        solution = solve_overlaps(1.0, 1.0, mix)
        assert solution.converged
        assert abs(solution.q_u - qu_from_qv(1.0, 1.0, solution.q_v)) < 1e-9
        assert abs(solution.q_v - qv_from_qu(mix, solution.q_u)) < 1e-9

    def test_residual_contract_on_grid(self):
        for lam in LAM_GRID:
            for c in C_GRID:
                for eta in ETA_GRID:
                    solution = solve_overlaps(lam, c, EpsilonMixture.certainty(eta))
                    assert solution.converged
                    assert solution.residual < 1e-10
                    # the label overlap can never fall below the mean
                    # squared confidence, and q_u stays below lam
                    assert solution.q_v >= eta - 1e-12
                    assert 0.0 <= solution.q_u <= lam

    def test_monotone_in_resources(self):
        lam_grid = (0.25, 0.5, 1.0, 2.0)
        c_grid = (0.5, 1.0, 2.0, 5.0)
        eta_grid = (0.0, 0.2, 0.5, 1.0)
        q_u = {
            (lam, c, eta): solve_overlaps(lam, c, EpsilonMixture.certainty(eta)).q_u
            for lam in lam_grid
            for c in c_grid
            for eta in eta_grid
        }
        slack = 1e-11
        for lam_lo, lam_hi in zip(lam_grid[:-1], lam_grid[1:]):
            for c in c_grid:
                for eta in eta_grid:
                    assert q_u[(lam_hi, c, eta)] >= q_u[(lam_lo, c, eta)] - slack
        for lam in lam_grid:
            for c_lo, c_hi in zip(c_grid[:-1], c_grid[1:]):
                for eta in eta_grid:
                    assert q_u[(lam, c_hi, eta)] >= q_u[(lam, c_lo, eta)] - slack
        for lam in lam_grid:
            for c in c_grid:
                for eta_lo, eta_hi in zip(eta_grid[:-1], eta_grid[1:]):
                    assert q_u[(lam, c, eta_hi)] >= q_u[(lam, c, eta_lo)] - slack

    @pytest.mark.parametrize("max_iter", [2.9, 4.0, np.float64(4.0), True, np.True_])
    def test_non_integer_max_iter_rejected_before_any_iteration(self, monkeypatch, max_iter):
        def no_iteration(*args):
            raise AssertionError("iterated before max_iter was checked")

        monkeypatch.setattr(overlaps_module, "_solve_from", no_iteration)
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            solve_overlaps(2.0, 1.0, EpsilonMixture.certainty(0.2), max_iter=max_iter)

    def test_numpy_integer_max_iter_accepted(self):
        mix = EpsilonMixture.certainty(0.2)
        assert solve_overlaps(2.0, 1.0, mix, max_iter=np.int64(10000)) == solve_overlaps(
            2.0, 1.0, mix
        )

    def test_non_convergence_carries_last_iterate(self):
        with pytest.raises(ConvergenceError) as info:
            solve_overlaps(2.0, 1.0, EpsilonMixture.certainty(0.2), tol=1e-16, max_iter=2)
        assert info.value.last.iterations >= 1
        assert math.isfinite(info.value.last.q_v)


class TestSolveCertainty:
    def test_fully_labeled_closed_form(self):
        for lam in (0.5, 2.0):
            for c in (1.0, 3.0):
                solution = solve_overlaps(lam, c, EpsilonMixture.certainty(1.0))
                assert solution.q_v == pytest.approx(1.0, abs=1e-12)
                assert solution.q_u == pytest.approx(
                    lam * lam * c / (1.0 + lam * c), abs=1e-12
                )

    def test_no_signal(self):
        assert solve_overlaps(0.0, 2.0, EpsilonMixture.certainty(0.4)).q_u == 0.0

    def test_matches_general_solver_on_two_atom_mixture(self):
        mix = EpsilonMixture(atoms=((1.0, 0.2), (0.0, 0.8)))
        general = solve_overlaps(2.0, 1.0, mix)
        special = solve_overlaps(2.0, 1.0, EpsilonMixture.certainty(0.2))
        assert abs(general.q_u - special.q_u) < 1e-9
        assert abs(general.q_v - special.q_v) < 1e-9

    def test_matches_independent_root_finder(self):
        q_u, q_v = certainty_fixed_point_oracle(2.0, 1.0, 0.2)
        solution = solve_overlaps(2.0, 1.0, EpsilonMixture.certainty(0.2))
        assert abs(solution.q_u - q_u) < 1e-9
        assert abs(solution.q_v - q_v) < 1e-9


def collapsed(lam, c, mixture):
    """The collapsed approximation: the certainty system at eta = eps_bar_sq."""
    return solve_overlaps(lam, c, EpsilonMixture.certainty(mixture.eps_bar_sq))


class TestSolveApprox:
    def test_exact_for_certainty_style_mixtures(self):
        mix = EpsilonMixture(atoms=((1.0, 0.3), (0.0, 0.7)))
        exact = solve_overlaps(1.5, 1.0, mix)
        approx = collapsed(1.5, 1.0, mix)
        assert abs(exact.q_u - approx.q_u) < 1e-10
        assert abs(exact.q_v - approx.q_v) < 1e-10

    def test_exact_for_all_unlabeled(self):
        mix = EpsilonMixture(((0.0, 1.0),))
        assert abs(solve_overlaps(1.0, 5.0, mix).q_u - collapsed(1.0, 5.0, mix).q_u) < 1e-10

    def test_within_surrogate_budget_for_soft_labels(self):
        # The pointwise surrogate error (at most ~7.6% on the grid) amplifies
        # through the fixed point by 1/(1 - slope); at this worst point the
        # solved q_v gap is 8.69%, so the budget is 0.09, not the pointwise 0.08.
        mix = EpsilonMixture(((0.5, 1.0),))
        exact = solve_overlaps(1.0, 1.0, mix)
        approx = collapsed(1.0, 1.0, mix)
        rel_v = abs(approx.q_v - exact.q_v) / exact.q_v
        rel_u = abs(approx.q_u - exact.q_u) / exact.q_u
        assert rel_v <= 0.09
        assert rel_u <= rel_v


class TestSensitivityRatio:
    def test_analytic_contraction_factor(self):
        rel_u, rel_v = sensitivity_ratio(1.0, 1.0, 1.0, 1e-6)
        assert abs(rel_u / rel_v - 0.5) < 1e-3

    def test_no_signal_means_no_response(self):
        rel_u, rel_v = sensitivity_ratio(0.0, 1.0, 0.5, 1e-3)
        assert rel_u == 0.0

    def test_zero_perturbation(self):
        assert sensitivity_ratio(1.0, 2.0, 0.5, 0.0) == (0.0, 0.0)

    def test_relative_contraction_on_grid(self):
        for lam in LAM_GRID:
            for c in C_GRID:
                for q_v in (0.2, 0.5, 0.8, 1.0):
                    for delta in (1e-6, 1e-3, 0.05):
                        rel_u, rel_v = sensitivity_ratio(lam, c, q_v, delta)
                        assert rel_u <= rel_v + 1e-15
