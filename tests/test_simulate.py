"""Monte Carlo module checks: dataset statistics and reproducibility, the
scalar channel lemma against quadrature, classifier calibration against known
error levels, and the labeled-count search protocol."""

import json
import math
import multiprocessing
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from uncertain_ssl import cli, simulate
from uncertain_ssl.kernel import _posterior_mean, channel_overlap, gaussian_tail
from uncertain_ssl.overlaps import EpsilonMixture, qu_from_qv, qv_from_qu
from uncertain_ssl.risk import InfeasibilityError
from uncertain_ssl.simulate import (
    SimulationError,
    channel_overlap_mc_stats,
    classify_oracle,
    classify_semisupervised,
    classify_supervised,
    generate_dataset,
    labeled_needed_empirical,
)


# (p, n, lam, eta, kappa, seed, target, count) recorded from the search that
# regenerated every dataset per probe, at reps = 3 and t_max = 20; ``target``
# is the reference run's mean error on its unlabeled samples.
GOLDEN = [
    (50, 250, 1.0, 0.1, 0.9, 5, 0.19259259259259262, 116),
    (40, 200, 1.0, 0.1, 0.85, [3, 1], 0.1962962962962963, 22),
]


def binomial_se(rate: float, count: int) -> float:
    return math.sqrt(rate * (1.0 - rate) / count)


class TestGenerateDataset:
    def test_shapes_counts_and_center(self):
        ds = generate_dataset(40, 501, 1.7, [(0.4, 0.75)], seed=11)
        assert ds.features.shape == (40, 501)
        assert ds.p == 40 and ds.n == 501
        assert ds.n_labeled == round(0.4 * 501)
        assert ds.n_labeled + ds.n_unlabeled == ds.n
        assert ds.snr == pytest.approx(1.7, rel=1e-12)
        assert abs(int(ds.truth_labels.sum())) <= 1

    def test_confidence_values(self):
        kappa = 0.75
        ds = generate_dataset(10, 1000, 0.5, [(0.4, kappa)], seed=3)
        labeled = ds.label_eps[ds.label_eps != 0.0]
        np.testing.assert_allclose(np.abs(labeled), 2.0 * kappa - 1.0)
        # reported class recovers as the sign of eps; labelers are right
        # with probability kappa
        reports = np.sign(ds.label_eps[:400])
        agree = float(np.mean(reports == ds.truth_labels[:400]))
        assert abs(agree - kappa) < 3.0 * binomial_se(kappa, 400)

    def test_perfect_labelers_match_truth(self):
        ds = generate_dataset(5, 400, 1.0, [(1.0, 1.0)], seed=9)
        np.testing.assert_array_equal(np.sign(ds.label_eps), ds.truth_labels)
        assert ds.n_unlabeled == 0

    def test_empty_labeling(self):
        ds = generate_dataset(5, 100, 1.0, [], seed=1)
        assert ds.n_labeled == 0
        np.testing.assert_array_equal(ds.label_eps, 0.0)

    def test_realized_effective_eta(self):
        ds = generate_dataset(10, 100_000, 1.0, [(0.4, 0.75)], seed=21)
        realized = EpsilonMixture.from_samples(ds.label_eps).eps_bar_sq
        assert realized == pytest.approx(0.4 * 0.25, abs=1e-12)

    def test_column_distribution(self):
        # the confidence-weighted average (1/n) sum y_i x_i concentrates on mu
        ds = generate_dataset(20, 50_000, 2.0, [], seed=4)
        estimate = ds.features @ ds.truth_labels.astype(float) / ds.n
        np.testing.assert_allclose(estimate, ds.truth_mean, atol=5.0 / math.sqrt(ds.n))
        centered = ds.features - ds.truth_mean[:, None] * ds.truth_labels[None, :]
        assert abs(float(np.var(centered)) - 1.0) < 0.01

    def test_deterministic_given_seed(self):
        a = generate_dataset(8, 300, 1.0, [(0.3, 0.8)], seed=123)
        b = generate_dataset(8, 300, 1.0, [(0.3, 0.8)], seed=123)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.truth_labels, b.truth_labels)
        np.testing.assert_array_equal(a.label_eps, b.label_eps)
        c = generate_dataset(8, 300, 1.0, [(0.3, 0.8)], seed=124)
        assert not np.array_equal(a.features, c.features)

    def test_common_random_numbers_across_fractions(self):
        # same seed, larger block: everything but the extra labels coincides
        small = generate_dataset(8, 300, 1.0, [(0.2, 0.8)], seed=7)
        large = generate_dataset(8, 300, 1.0, [(0.5, 0.8)], seed=7)
        np.testing.assert_array_equal(small.features, large.features)
        np.testing.assert_array_equal(small.truth_labels, large.truth_labels)
        np.testing.assert_array_equal(small.label_eps[:60], large.label_eps[:60])

    def test_features_equal_mean_plus_noise(self):
        # several row blocks: the class means are added into the noise in place
        p, n, lam, seed = 700, 150, 1.7, [4, 2]
        assert p > simulate._ROW_BLOCK_CELLS // n
        ds = generate_dataset(p, n, lam, [(0.2, 0.9)], seed=seed)
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal(p)
        mu = math.sqrt(lam) * direction / float(np.linalg.norm(direction))
        y = np.ones(n, dtype=np.int64)
        y[: n // 2] = -1
        y = y[rng.permutation(n)]
        expected = mu[:, None] * y[None, :] + rng.standard_normal((p, n))
        assert ds.features.dtype == expected.dtype
        assert ds.features.tobytes() == expected.tobytes()

    def test_draw_holds_one_feature_matrix(self):
        p, n = 400, 500
        tracemalloc.start()
        try:
            generate_dataset(p, n, 1.0, [(0.2, 0.9)], seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * p * n * 8

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_dataset(5, 100, 1.0, [(0.7, 0.9), (0.6, 0.8)], seed=0)
        with pytest.raises(ValueError):
            generate_dataset(5, 100, 1.0, [(0.5, 0.5)], seed=0)
        with pytest.raises(ValueError):
            generate_dataset(5, 100, -1.0, [], seed=0)

    @pytest.mark.parametrize(
        "p, n, name",
        [(3.9, 10, "p"), (4, 10.5, "n"), (4.0, 10, "p"), (4, np.float64(10.0), "n"),
         (True, 10, "p"), (4, np.True_, "n")],
    )
    def test_non_integer_sizes_rejected(self, p, n, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            generate_dataset(p, n, 1.0, [(0.5, 1.0)], seed=0)

    def test_numpy_integer_sizes_accepted(self):
        ds = generate_dataset(np.int64(4), np.int32(10), 1.0, [(0.5, 1.0)], seed=0)
        assert ds.features.shape == (4, 10)
        plain = generate_dataset(4, 10, 1.0, [(0.5, 1.0)], seed=0)
        assert ds.features.tobytes() == plain.features.tobytes()


BOOL_SEEDS = [True, False, np.True_, np.array(True), [3, True], (np.False_, 2)]
SEEDED_CALLS = {
    "generate_dataset": lambda seed: generate_dataset(4, 10, 1.0, [(0.2, 0.9)], seed=seed),
    "channel_overlap_mc_stats": lambda seed: channel_overlap_mc_stats(0.3, 0.7, 10, seed=seed),
    "labeled_needed_empirical": lambda seed: labeled_needed_empirical(
        10, 40, 1.0, 0.2, [0.9], seed=seed, reps=2, t_max=5
    ),
}


class TestSeeds:
    """A seed goes to ``default_rng`` as given, which would read a bool as 0
    or 1; a bool seed, or a bool entry of a sequence seed, is rejected before
    any draw."""

    @pytest.mark.parametrize("seed", BOOL_SEEDS, ids=repr)
    @pytest.mark.parametrize("name", SEEDED_CALLS)
    def test_bool_seed_rejected_before_any_draw(self, monkeypatch, name, seed):
        def no_draw(*args):
            raise AssertionError("a draw started before the seed was checked")

        monkeypatch.setattr(simulate, "_base_draw", no_draw)
        monkeypatch.setattr(simulate.np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match="seed must be an integer .*, not a bool"):
            SEEDED_CALLS[name](seed)

    @pytest.mark.parametrize("seed", [1, np.int64(1), [1], (3, 2), np.array([3, 2])])
    def test_integer_and_sequence_seeds_pass_as_given(self, seed):
        ds = generate_dataset(4, 10, 1.0, [(0.2, 0.9)], seed=seed)
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal(4)
        assert ds.truth_mean.tobytes() == (direction / np.linalg.norm(direction)).tobytes()


class TestChannelOverlapMonteCarlo:
    def test_certain_prior_every_trial(self):
        assert channel_overlap_mc_stats(1.0, 3.0, 1000, seed=5) == (1.0, 0.0)

    @pytest.mark.parametrize(
        "eps, q",
        [(0.5, float("nan")), (0.5, float("inf")), (0.5, -1.0), (2.0, 1.0), (-1.5, 1.0),
         (float("nan"), 1.0), (float("inf"), 1.0)],
    )
    def test_bad_input_rejected_before_the_draw(self, monkeypatch, eps, q):
        with pytest.raises(ValueError) as quadrature:
            channel_overlap(eps, q)

        def no_draw(seed):
            raise AssertionError("samples drawn before eps and q were checked")

        monkeypatch.setattr(simulate.np.random, "default_rng", no_draw)
        with pytest.raises(ValueError) as monte_carlo:
            channel_overlap_mc_stats(eps, q, 1000, seed=5)
        assert str(monte_carlo.value) == str(quadrature.value)

    @pytest.mark.parametrize("trials", [2.9, 4.0, np.float64(4.0), True, np.True_])
    def test_non_integer_trials_rejected_before_the_draw(self, monkeypatch, trials):
        def no_draw(seed):
            raise AssertionError("samples drawn before trials was checked")

        monkeypatch.setattr(simulate.np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match="trials must be an integer"):
            channel_overlap_mc_stats(0.5, 1.0, trials, seed=1)

    def test_numpy_integer_trials_accepted(self):
        plain = channel_overlap_mc_stats(0.5, 1.0, 3, seed=1)
        assert channel_overlap_mc_stats(0.5, 1.0, np.int64(3), seed=1) == plain

    def test_eps_array_rejected(self):
        with pytest.raises(ValueError, match="eps must be a scalar"):
            channel_overlap_mc_stats(np.array([0.25, 0.5]), 1.0, 1000, seed=5)

    def test_unlabeled_zero_snr(self):
        assert channel_overlap_mc_stats(0.0, 0.0, 1000, seed=5)[0] == 0.0

    def test_matches_quadrature(self):
        mc, se = channel_overlap_mc_stats(0.5, 0.8, 1_000_000, seed=42)
        assert abs(mc - channel_overlap(0.5, 0.8)) < 3.0 * se


class TestClassifyOracle:
    def test_no_signal_is_coin_flip(self):
        ds = generate_dataset(10, 100_000, 0.0, [], seed=2)
        out = classify_oracle(ds)
        assert abs(out.error_all - 0.5) < 3.0 * binomial_se(0.5, ds.n)

    def test_unit_snr_matches_tail(self):
        ds = generate_dataset(10, 100_000, 1.0, [], seed=3)
        out = classify_oracle(ds)
        expected = gaussian_tail(1.0)
        assert abs(out.error_all - expected) < 3.0 * binomial_se(expected, ds.n)

    @pytest.mark.parametrize("lam", [0.25, 2.0, 4.0])
    def test_snr_grid_matches_tail(self, lam):
        ds = generate_dataset(10, 100_000, lam, [], seed=int(100 * lam))
        expected = gaussian_tail(math.sqrt(lam))
        error = classify_oracle(ds).error_all
        assert abs(error - expected) < 3.0 * binomial_se(expected, ds.n)

    def test_strong_snr_is_errorless(self):
        ds = generate_dataset(10, 10_000, 25.0, [], seed=4)
        assert classify_oracle(ds).error_all == 0.0

    def test_hard_labels_follow_soft_signs(self):
        ds = generate_dataset(6, 500, 1.0, [(0.2, 0.9)], seed=5)
        out = classify_oracle(ds)
        np.testing.assert_array_equal(
            out.hard_labels, np.where(out.soft_scores >= 0.0, 1, -1)
        )
        assert np.all(np.abs(out.soft_scores) <= 1.0)


class TestClassifySupervised:
    def test_dense_labels_approach_oracle(self):
        ds = generate_dataset(10, 100_000, 1.0, [(1.0, 1.0)], seed=6)
        sup = classify_supervised(ds)
        oracle = classify_oracle(ds)
        assert abs(sup.error_all - oracle.error_all) < 0.01

    def test_requires_labels(self):
        ds = generate_dataset(10, 200, 1.0, [], seed=7)
        with pytest.raises(SimulationError):
            classify_supervised(ds)

    def test_deterministic(self):
        ds = generate_dataset(10, 400, 1.0, [(0.3, 0.8)], seed=8)
        out_a = classify_supervised(ds)
        out_b = classify_supervised(ds)
        np.testing.assert_array_equal(out_a.hard_labels, out_b.hard_labels)
        assert out_a.error_unlabeled == out_b.error_unlabeled


class TestClassifySemisupervised:
    def test_all_certain_labels_stay_pinned(self):
        ds = generate_dataset(50, 400, 1.0, [(1.0, 1.0)], seed=9)
        out = classify_semisupervised(ds, 1.0)
        np.testing.assert_array_equal(out.soft_scores, ds.label_eps)
        assert out.error_unlabeled is None
        assert out.iterations == 1
        assert out.error_all == 0.0

    def test_no_signal_is_coin_flip(self):
        ds = generate_dataset(40, 4000, 0.0, [(0.2, 1.0)], seed=10)
        out = classify_semisupervised(ds, 0.0)
        assert abs(out.error_unlabeled - 0.5) < 4.0 * binomial_se(0.5, ds.n_unlabeled)

    @pytest.fixture
    def no_pass(self, monkeypatch):
        """Fails the run if its first pass starts."""

        def no_pass(*args):
            raise AssertionError("a pass ran before the arguments were checked")

        monkeypatch.setattr(simulate, "qu_from_qv", no_pass)

    @pytest.mark.parametrize("t_max", [2.9, 4.0, np.float64(4.0), True, np.True_])
    def test_non_integer_t_max_rejected_before_any_pass(self, no_pass, t_max):
        ds = generate_dataset(20, 100, 1.0, [(0.3, 0.9)], seed=4)
        with pytest.raises(ValueError, match="t_max must be an integer"):
            classify_semisupervised(ds, 1.0, t_max=t_max, stop_tol=0.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_bad_lam_rejected_before_any_pass(self, no_pass, lam):
        # the snr comparison is false for nan and inf, so it would let both pass
        ds = generate_dataset(20, 100, 1.0, [(0.3, 0.9)], seed=4)
        with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
            classify_semisupervised(ds, lam)

    @pytest.mark.parametrize("stop_tol", [float("nan"), -1.0, True, "0.1"])
    def test_bad_stop_tol_rejected_before_any_pass(self, no_pass, stop_tol):
        # nan and -1.0 used to run every pass, True to stop after the first
        ds = generate_dataset(20, 100, 1.0, [(0.3, 0.9)], seed=4)
        with pytest.raises(ValueError, match="^stop_tol must be"):
            classify_semisupervised(ds, 1.0, t_max=30, stop_tol=stop_tol)

    def test_numpy_integer_t_max_accepted(self):
        ds = generate_dataset(20, 100, 1.0, [(0.3, 0.9)], seed=4)
        plain = classify_semisupervised(ds, 1.0, t_max=3, stop_tol=0.0)
        out = classify_semisupervised(ds, 1.0, t_max=np.int32(3), stop_tol=0.0)
        assert out.iterations == plain.iterations == 3
        assert out.soft_scores.tobytes() == plain.soft_scores.tobytes()

    def test_no_labels_runs_without_failure(self):
        ds = generate_dataset(40, 400, 1.0, [], seed=11)
        out = classify_semisupervised(ds, 1.0)
        assert out.error_unlabeled is not None

    def test_degenerate_scores_rejected(self):
        # zero features with a nonzero center make every raw score vanish
        # while the recursion still predicts a positive score SNR
        from uncertain_ssl.simulate import Dataset

        n, p = 8, 4
        mu = np.zeros(p)
        mu[0] = 1.0
        ds = Dataset(
            features=np.zeros((p, n)),
            truth_labels=np.array([1, -1] * (n // 2), dtype=np.int64),
            label_eps=np.array([1.0, -1.0] + [0.0] * (n - 2)),
            truth_mean=mu,
        )
        with pytest.raises(SimulationError):
            classify_semisupervised(ds, 1.0)

    def test_mismatched_snr_rejected(self):
        ds = generate_dataset(40, 400, 1.0, [(0.2, 1.0)], seed=12)
        with pytest.raises(SimulationError):
            classify_semisupervised(ds, 2.0)

    def test_bad_confidence_rejected_before_the_passes(self, monkeypatch):
        # The confidences are checked once, when the realised mixture is
        # built, and not again by the denoiser inside the pass loop.
        import uncertain_ssl.simulate as simulate_module

        ds = generate_dataset(30, 60, 1.0, [(0.2, 0.9)], seed=14)
        bad = replace(ds, label_eps=np.where(ds.label_eps > 0.0, 1.5, ds.label_eps))
        with pytest.raises(ValueError):
            classify_semisupervised(bad, 1.0)

        def checked(*args):
            raise AssertionError("the pass loop called the checked posterior_mean")

        monkeypatch.setattr(simulate_module, "posterior_mean", checked)
        assert classify_semisupervised(ds, 1.0, t_max=3).iterations >= 1

    def test_deterministic(self):
        ds = generate_dataset(30, 600, 2.0, [(0.2, 0.9)], seed=13)
        out_a = classify_semisupervised(ds, 2.0)
        out_b = classify_semisupervised(ds, 2.0)
        np.testing.assert_array_equal(out_a.soft_scores, out_b.soft_scores)

    def test_error_ordering_across_methods(self):
        # oracle <= semi-supervised <= supervised (within noise), averaged
        lam, n, p, eta, reps = 2.0, 2000, 2000, 0.2, 10
        oracle_err, semi_err, sup_err = [], [], []
        for r in range(reps):
            ds = generate_dataset(p, n, lam, [(eta, 1.0)], seed=[404, r])
            oracle_err.append(classify_oracle(ds).error_unlabeled)
            semi_err.append(classify_semisupervised(ds, lam).error_unlabeled)
            sup_err.append(classify_supervised(ds).error_unlabeled)
        se = binomial_se(float(np.mean(sup_err)), reps * int(n * (1 - eta)))
        assert np.mean(oracle_err) <= np.mean(semi_err) + 2.0 * se
        assert np.mean(semi_err) <= np.mean(sup_err) + 2.0 * se

    def test_builds_the_realised_mixture_once(self, monkeypatch):
        ds = generate_dataset(30, 60, 1.0, [(0.2, 0.9)], seed=14)
        built = []
        from_samples = EpsilonMixture.from_samples

        def counting(eps_values):
            built.append(np.array(eps_values))
            return from_samples(eps_values)

        monkeypatch.setattr(EpsilonMixture, "from_samples", counting)
        assert classify_semisupervised(ds, 1.0, t_max=5, stop_tol=0.0).iterations == 5
        assert len(built) == 1
        assert built[0].tobytes() == ds.label_eps.tobytes()


def loop_oracle(ds, lam, t_max=50, stop_tol=1e-6):
    """The pass loop as it was before the calibration was shared, verbatim
    from its checks on; the reference the lean loop must match bit for bit."""
    c = ds.n / ds.p
    X = ds.features
    eps = np.asarray(ds.label_eps, dtype=float)
    col_sq = np.einsum("ij,ij->j", X, X)
    mixture = EpsilonMixture.from_samples(eps)
    n = ds.n

    v = eps.copy()
    q_v = mixture.eps_bar_sq
    iterations = 0
    for iterations in range(1, int(t_max) + 1):
        q_u = qu_from_qv(lam, c, q_v)
        q_v = qv_from_qu(mixture, q_u)
        direction = X @ v / n
        raw = X.T @ direction - (col_sq / n) * v
        if q_u == 0.0:
            u = np.zeros(n)
        else:
            mean_sq = float(np.mean(raw * raw))
            if mean_sq == 0.0:
                raise SimulationError("degenerate scores: zero second moment")
            scale = math.sqrt(mean_sq / (q_u * (q_u + 1.0)))
            u = raw / scale
        v_new = _posterior_mean(eps, u)
        delta = float(np.mean(np.abs(v_new - v)))
        v = v_new
        if delta < stop_tol:
            break
    return v, iterations


class TestLeanPassLoop:
    """The pass loop runs the overlap recursion one step per pass; it must
    give the old loop's scores bit for bit."""

    @pytest.mark.parametrize(
        "lam, labeling, t_max, stops_early",
        [
            (1.5, [(0.2, 1.0)], 50, None),
            (1.5, [(0.3, 0.8)], 50, None),
            (1.5, [], 50, None),
            (0.0, [(0.2, 0.8)], 50, None),
            (1.5, [(0.3, 0.8)], 1, None),
            (2.5, [(0.4, 1.0)], 200, True),
            (1.5, [(0.1, 0.7), (0.2, 1.0)], 50, None),
        ],
        ids=["kappa-1", "soft-kappa", "unlabeled", "lam-0", "t_max-1", "early-stop", "two-blocks"],
    )
    def test_matches_the_old_loop(self, lam, labeling, t_max, stops_early):
        p, n = 60, 300
        for seed in (3, 4):
            ds = generate_dataset(p, n, lam, labeling, seed=seed)
            soft, iterations = loop_oracle(ds, ds.snr, t_max=t_max)
            if stops_early:
                assert iterations < t_max
            for _ in range(2):  # a second run gives the same scores
                out = classify_semisupervised(ds, ds.snr, t_max=t_max)
                assert out.soft_scores.tobytes() == soft.tobytes()
                assert out.hard_labels.tobytes() == simulate._hard_decisions(soft).tobytes()
                assert out.iterations == iterations

    def test_calibration_runs_no_further_than_the_passes(self, monkeypatch):
        calls = []
        label_map = simulate.qv_from_qu

        def counting(mixture, q_u):
            calls.append(q_u)
            return label_map(mixture, q_u)

        monkeypatch.setattr(simulate, "qv_from_qu", counting)
        ds = generate_dataset(60, 300, 2.5, [(0.4, 1.0)], seed=3)
        out = classify_semisupervised(ds, ds.snr, t_max=10**6)
        assert out.iterations < 200
        assert len(calls) == out.iterations - 1
        # the label map is fed the score SNRs of the serial recursion
        mixture = EpsilonMixture.from_samples(ds.label_eps)
        q_v, expected = mixture.eps_bar_sq, []
        for _ in calls:
            q_u = qu_from_qv(ds.snr, ds.n / ds.p, q_v)
            expected.append(q_u)
            q_v = label_map(mixture, q_u)
        assert calls == expected


class TestLabeledNeededEmpirical:
    def test_perfect_labels_reproduce_reference(self):
        p, n, lam, eta, seed, reps = 50, 400, 1.0, 0.2, 314, 4
        [found] = labeled_needed_empirical(p, n, lam, eta, [1.0], seed=seed, reps=reps)
        assert abs(found - eta * n) <= max(4.0, 0.05 * eta * n)

    def test_infeasible_reliability_rejected(self):
        with pytest.raises(InfeasibilityError):
            labeled_needed_empirical(50, 400, 1.0, 0.5, [0.6], seed=1, reps=2)

    def test_unreachable_target_fails(self, monkeypatch):
        probes = []

        def never_meets_the_reference(pool, bank, reference_hard, lam, n_labeled, kappa, t_max):
            probes.append(n_labeled)
            return 1.0

        monkeypatch.setattr(simulate, "_probe", never_meets_the_reference)
        with pytest.raises(SimulationError, match="not reached at kappa = 0.9 .* up to 380"):
            labeled_needed_empirical(50, 400, 1.0, 0.2, [0.9], seed=1, reps=2)
        assert probes == [80, 160, 320, 380]

    def test_noisier_labels_need_more_of_them(self):
        # subcritical regime (lam^2 c < 1) where labels drive the error
        p, n, lam, eta, seed, reps = 100, 500, 0.25, 0.2, 99, 6
        [found] = labeled_needed_empirical(p, n, lam, eta, [0.8], seed=seed, reps=reps)
        assert found > eta * n

    def test_quarter_reliability_tracks_square_law(self):
        # at the reference sizes, kappa = 0.75 labels should quadruple the
        # eta = 0.1 requirement (search scatter is ~15% at ten replicates)
        p, n, lam, eta, kappa, seed, reps = 200, 1000, 0.25, 0.1, 0.75, 2024, 10
        [found] = labeled_needed_empirical(p, n, lam, eta, [kappa], seed=seed, reps=reps)
        predicted = eta / (2.0 * kappa - 1.0) ** 2 * n
        assert abs(found - predicted) / predicted <= 0.15

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"eta": 0.0}, "eta must lie in"),
            ({"eta": float("nan")}, "eta must lie in"),
            ({"kappas": []}, "kappas must not be empty"),
            ({"kappas": [0.9, 0.5]}, "kappa must lie in"),
            ({"kappas": [0.9, float("nan")]}, "kappa must lie in"),
            ({"p": 0}, "p must be at least 1"),
            ({"n": 40.5}, "n must be an integer"),
            ({"lam": -1.0}, "lam must be finite"),
            ({"reps": 0}, "reps must be at least 1"),
            ({"reps": 2.5}, "reps must be an integer"),
            ({"reps": True}, "reps must be an integer, not a bool"),
            ({"t_max": 0}, "t_max must be at least 1"),
            ({"t_max": 20.0}, "t_max must be an integer"),
            ({"eta": 0.5, "kappas": [1.0, 0.6]}, "no labeled count can reach"),
            ({"eta": 0.97, "kappas": [1.0]}, "reference labeled count leaves too few"),
        ],
    )
    def test_bad_arguments_rejected_before_any_draw(self, monkeypatch, change, message):
        def no_draw(*args):
            raise AssertionError("a replicate was drawn before the arguments were checked")

        monkeypatch.setattr(simulate, "_base_draw", no_draw)
        args = {"p": 10, "n": 40, "lam": 1.0, "eta": 0.2, "kappas": [0.9, 1.0],
                "seed": 3, "reps": 2, "t_max": 20}
        args.update(change)
        with pytest.raises((ValueError, SimulationError), match=message):
            labeled_needed_empirical(**args)


CORE_SETS = [{0}, {0, 1}, {0, 1, 2, 3}]


class TestFreshReplicates:
    """``simulate`` and ``reduction`` run their fresh-draw replicates on up to
    one thread per usable core; nothing they return may depend on how many.
    The matrices hold about 500 000 cells, so that BLAS threads too when its
    thread count is not pinned: OpenBLAS 0.3.31 on 2 cores splits a
    matrix-vector product over threads only from somewhere between 320 000
    and 500 000 cells."""

    P, N, LAM, LABELING, SEED, REPS, T_MAX = 500, 1000, 1.5, [(0.2, 0.9)], 7, 5, 20

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class RecordingPool(simulate.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", RecordingPool)
        return sizes

    def each_core_set(self, monkeypatch):
        for cores in CORE_SETS:
            monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid, c=cores: c)
            yield cores

    def errors(self):
        return simulate._fresh_replicate_errors(
            self.P, self.N, self.LAM, self.LABELING, self.SEED, self.REPS, self.T_MAX
        )

    def test_errors_do_not_depend_on_the_worker_count(self, monkeypatch, pool_sizes):
        expected = []
        for r in range(self.REPS):
            ds = generate_dataset(self.P, self.N, self.LAM, self.LABELING, seed=[self.SEED, r])
            expected.append((
                classify_oracle(ds).error_unlabeled,
                classify_supervised(ds).error_unlabeled,
                classify_semisupervised(ds, self.LAM, t_max=self.T_MAX).error_unlabeled,
            ))
        for _ in self.each_core_set(monkeypatch):
            assert self.errors() == expected
        assert pool_sizes == [1, 2, 4]

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("simulate", {"n": 1000, "p": 500, "reps": 5, "t_max": 15, "labeling": [[0.3, 0.9]]}),
            ("reduction", {"p": 700, "lambdas": [1.0, 2.0], "reps": 5, "t_max": 15}),
        ],
    )
    def test_tables_do_not_depend_on_the_worker_count(
        self, tmp_path, monkeypatch, pool_sizes, command, payload
    ):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(payload))
        tables = []
        for cores in self.each_core_set(monkeypatch):
            out = tmp_path / f"out_{len(cores)}.dat"
            assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[1] == tables[0] and tables[2] == tables[0]
        runs = len(payload.get("lambdas", [None]))  # one pool per reduction point
        assert pool_sizes == [1] * runs + [2] * runs + [4] * runs

    def test_failing_replicate_raises_as_the_serial_loop(self, monkeypatch):
        draw = simulate.generate_dataset

        def failing_draw(p, n, lam, labeling, seed):
            r = seed[-1]
            if r == 1:
                time.sleep(0.05)  # with 4 workers, replicate 3 fails first in time
                raise SimulationError(f"replicate {r} failed")
            if r == 3:
                raise ValueError(f"replicate {r} failed")
            return draw(p, n, lam, labeling, seed)

        monkeypatch.setattr(simulate, "generate_dataset", failing_draw)
        raised = []
        for _ in self.each_core_set(monkeypatch):
            with pytest.raises(Exception) as info:
                self.errors()
            raised.append((info.type, str(info.value)))
        assert raised == [(SimulationError, "replicate 1 failed")] * len(CORE_SETS)

    def test_streams_are_built_only_as_replicates_are_submitted(self, monkeypatch):
        started, finished = [], []

        def stream(seed, r):
            started.append(r - len(finished))  # replicates running, this one excluded
            return [seed, r]

        def replicate(p, n, lam, labeling, t_max, stream):
            r = stream[-1]
            time.sleep(0.002 * (r % 3))  # later replicates may finish first
            finished.append(r)
            if r == 5:
                raise SimulationError("replicate 5 failed")
            return r, None, -r

        monkeypatch.setattr(simulate, "_rep_stream", stream)
        monkeypatch.setattr(simulate, "_fresh_replicate", replicate)
        for cores in self.each_core_set(monkeypatch):
            started.clear()
            finished.clear()
            errors = simulate._fresh_replicate_errors(1, 1, 1.0, [], 0, 5, 1)
            assert errors == [(r, None, -r) for r in range(5)]
            assert max(started) < len(cores)
            started.clear()
            finished.clear()
            with pytest.raises(SimulationError, match="replicate 5 failed"):
                simulate._fresh_replicate_errors(1, 1, 1.0, [], 0, 10_000, 1)
            assert len(started) <= 6 + len(cores)
            assert max(started) < len(cores)


class TestReplicateBank:
    """The labeled-count search draws each replicate once and rebuilds every
    probe's dataset from that draw; the result must be the dataset
    ``generate_dataset`` draws from the same stream, bit for bit."""

    P, N, LAM, REPS = 12, 90, 1.3, 3

    @pytest.mark.parametrize("seed", [5, [3, 1]], ids=["int-seed", "sequence-seed"])
    @pytest.mark.parametrize(
        "labeling",
        [[], [(0.3, 1.0)], [(0.25, 0.8)], [(0.2, 0.9), (0.3, 1.0)]],
        ids=["empty", "kappa-1", "kappa-below-1", "two-blocks"],
    )
    def test_rebuilt_dataset_equals_generate_dataset(self, seed, labeling):
        bank = simulate._draw_bank(self.P, self.N, self.LAM, seed, self.REPS)
        blocks = simulate._check_labeling(labeling)
        assert len(bank) == self.REPS
        for r, entry in enumerate(bank):
            # twice from one entry: a probe must not advance the stored state
            for _ in range(2):
                rebuilt = simulate._dataset_from_bank(entry, blocks)
                fresh = generate_dataset(
                    self.P, self.N, self.LAM, labeling, seed=simulate._rep_stream(seed, r)
                )
                for field in ("features", "truth_labels", "label_eps", "truth_mean"):
                    a, b = getattr(rebuilt, field), getattr(fresh, field)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field

    def test_search_draws_each_replicate_and_reference_once(self, monkeypatch):
        p, n, lam, eta, seed, reps = 20, 120, 1.0, 0.1, 8, 3
        base_draws = []
        references = []
        base_draw, hard_labels = simulate._base_draw, simulate._hard_labels

        def counting_base_draw(*args):
            base_draws.append(args[3])
            return base_draw(*args)

        def counting_hard_labels(pool, bank, lam, n_labeled, kappa, t_max):
            if kappa == 1.0:
                references.append(n_labeled)
            return hard_labels(pool, bank, lam, n_labeled, kappa, t_max)

        monkeypatch.setattr(simulate, "_base_draw", counting_base_draw)
        monkeypatch.setattr(simulate, "_hard_labels", counting_hard_labels)
        counts = labeled_needed_empirical(p, n, lam, eta, (0.95, 0.9, 0.85), seed=seed, reps=reps)
        assert len(counts) == 3 and all(isinstance(c, int) for c in counts)
        assert base_draws == [[seed, r] for r in range(reps)]
        assert references == [round(eta * n)]

    def test_kappa_one_search_reuses_the_reference_run(self, monkeypatch):
        p, n, lam, eta, seed, reps, t_max = 20, 120, 1.0, 0.1, 8, 3, 20
        n_ref = round(eta * n)
        runs = []
        hard_labels = simulate._hard_labels

        def counting_hard_labels(pool, bank, lam, n_labeled, kappa, t_max):
            runs.append((n_labeled, kappa))
            return hard_labels(pool, bank, lam, n_labeled, kappa, t_max)

        monkeypatch.setattr(simulate, "_hard_labels", counting_hard_labels)
        counts = labeled_needed_empirical(
            p, n, lam, eta, (0.9, 1.0), seed=seed, reps=reps, t_max=t_max
        )
        assert runs[0] == (n_ref, 1.0)
        assert runs.count((n_ref, 1.0)) == 1  # the kappa = 1 search ran no copy
        assert any(kappa == 1.0 for _, kappa in runs[1:]) and counts[1] <= n_ref
        # the probe it skips would give exactly the 0.0 it is seeded with
        bank = simulate._draw_bank(p, n, lam, seed, reps)
        with simulate._replicate_pool(bank) as pool:
            reference = hard_labels(pool, bank, lam, n_ref, 1.0, t_max)
            assert simulate._probe(pool, bank, reference, lam, n_ref, 1.0, t_max) == 0.0

    @pytest.mark.parametrize("p, n, lam, eta, kappa, seed, target, count", GOLDEN)
    def test_golden_counts(self, p, n, lam, eta, kappa, seed, target, count):
        n_ref = round(eta * n)
        bank = simulate._draw_bank(p, n, lam, seed, 3)
        with simulate._replicate_pool(bank) as pool:
            reference = simulate._hard_labels(pool, bank, lam, n_ref, 1.0, 20)
        errors = [float(np.mean(h[n_ref:] != e[1][n_ref:])) for h, e in zip(reference, bank)]
        assert float(np.mean(errors)) == target
        found = labeled_needed_empirical(p, n, lam, eta, [kappa], seed=seed, reps=3, t_max=20)
        assert found == [count]


class TestReplicatePool:
    """The labeled-count search scores its replicates on a process pool: the
    counts must not depend on the worker count or the start method, a
    worker's failure must surface as in a serial loop, and no worker may
    outlive the call."""

    def recorded_pools(self, monkeypatch) -> list:
        """The worker count of each pool the search opens."""
        sizes = []
        make_pool = simulate._replicate_pool

        def recording_pool(bank):
            pool = make_pool(bank)
            sizes.append(pool._max_workers)
            return pool

        monkeypatch.setattr(simulate, "_replicate_pool", recording_pool)
        return sizes

    @pytest.mark.parametrize("p, n, lam, eta, kappa, seed, target, count", GOLDEN)
    def test_counts_do_not_depend_on_the_worker_count(
        self, monkeypatch, p, n, lam, eta, kappa, seed, target, count
    ):
        sizes = self.recorded_pools(monkeypatch)
        for workers in (1, 2, 3):
            monkeypatch.setattr(simulate, "_usable_cores", lambda w=workers: w)
            found = labeled_needed_empirical(p, n, lam, eta, [kappa], seed=seed, reps=3, t_max=20)
            assert found == [count]
            assert multiprocessing.active_children() == []
        assert sizes == [1, 2, 3]

    def test_spawned_workers_give_the_same_counts(self, monkeypatch):
        # without fork, the worker function and the initializer are pickled
        # and the bank is sent to each worker
        p, n, lam, eta, kappa, seed, _, count = GOLDEN[0]
        methods = []
        get_context = multiprocessing.get_context

        def recording_context(method=None):
            methods.append(method)
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", recording_context)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        found = labeled_needed_empirical(p, n, lam, eta, [kappa], seed=seed, reps=3, t_max=20)
        assert found == [count]
        assert methods == ["spawn"]
        assert multiprocessing.active_children() == []

    @pytest.fixture
    def failing_workers(self, monkeypatch):
        """Replicate 1 raises a ``SimulationError`` late and replicate 3 a
        ``ValueError`` early; forked workers inherit the patch."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the patch reaches the workers only through fork")
        rebuild = simulate._dataset_from_bank

        def failing_rebuild(entry, blocks):
            r = next(i for i, e in enumerate(simulate._worker_bank) if e is entry)
            if r == 1:
                time.sleep(0.2)  # with 4 workers, replicate 3 fails first in time
                raise SimulationError(f"replicate {r} failed")
            if r == 3:
                raise ValueError(f"replicate {r} failed")
            return rebuild(entry, blocks)

        monkeypatch.setattr(simulate, "_dataset_from_bank", failing_rebuild)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 4)

    def test_worker_failure_raises_as_the_serial_loop(self, failing_workers):
        with pytest.raises(Exception) as info:
            labeled_needed_empirical(20, 120, 1.0, 0.1, [0.9], seed=8, reps=5)
        assert (info.type, str(info.value)) == (SimulationError, "replicate 1 failed")
        assert multiprocessing.active_children() == []

    def test_worker_failure_exits_4(self, tmp_path, failing_workers):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"n": 120, "p": 20, "lambda": 1.0, "etas": [0.1], "reps": 5,
             "theory_points": 3, "empirical_points": 1, "t_max": 10, "seed": 8}
        ))
        out = tmp_path / "out"
        assert cli.main(["labeled-needed", "--config", str(config), "--out", str(out)]) == 4
        assert multiprocessing.active_children() == []
