"""Monte Carlo module checks: dataset statistics and reproducibility, the
scalar channel lemma against quadrature, classifier calibration against known
error levels, and the labeled-count search protocol."""

import concurrent.futures
import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from uncertain_ssl import cli, overlaps, simulate
from uncertain_ssl.kernel import channel_overlap, gaussian_tail, posterior_mean
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

# The same searches at reps = 5, recorded from the search whose workers all
# shared the draws of the calling process.
GOLDEN_FIVE = [
    (50, 250, 1.0, 0.1, 0.9, 5, 0.2106666666666667, 76),
    (40, 200, 1.0, 0.1, 0.85, [3, 1], 0.20444444444444448, 20),
]


def reference_round(workers, p, n, lam, n_ref, reps, t_max):
    """The search's reference masks from its own ``workers``, the reference
    column calibrated by the schedule the search sends with it."""
    schedule = simulate._probe_schedule(lam, n / p, n_ref / n, 1.0, t_max)
    return simulate._probe_round(workers, reps, [(n_ref, 1.0)], [schedule])


def reference_target(p, n, lam, eta, seed, reps, t_max):
    """The reference run's mean error on its unlabeled samples, from the
    masks the search's own workers return."""
    n_ref = round(eta * n)
    with simulate._replicate_workers(p, n, lam, seed, reps) as workers:
        reference = reference_round(workers, p, n, lam, n_ref, reps, t_max)
    return float(np.mean([float(np.mean(wrong[0, n_ref:])) for wrong in reference]))


def realised_schedule(ds):
    """The lazy calibration ``classify_semisupervised`` builds from ``ds``."""
    mixture = EpsilonMixture.from_samples(ds.label_eps)
    return simulate._calibration(ds.snr, ds.n / ds.p, mixture)


def fork_only():
    """Skips a test whose patches must reach the workers, which only a fork
    copies."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the patch reaches the workers only through fork")


# sha256 of generate_dataset(12, 90, 1.3, labeling, seed)'s features,
# truth_labels, label_eps and truth_mean bytes, in that order, recorded from
# the draw that took each block's reliability uniforms from the generator in
# turn after the noise.
DRAW_GOLDEN = [
    ([], 5, "892e83be72188915233a1c9301f9a80af144058a73b2d2aedf1c62c7b8e666af"),
    ([], [3, 1], "1c4aaba59ce98e1d4f9957c796198399636d5db0e25a1183d8e72f7c937c3a31"),
    ([(0.3, 1.0)], 5, "79b8718a67954d985da912c9906e3a86f2486181a8831e631e168398f1e2e601"),
    ([(0.3, 1.0)], [3, 1], "983b42394b86a3b6235ebd6b44abcec7e8a859bad162f8bb28f84931f97db16b"),
    (
        [(0.2, 0.9), (0.3, 1.0)],
        5,
        "7327f2fb4b04441731f728e06c824a191d9ab7816325a6f2754c0a5f025c288a",
    ),
    (
        [(0.2, 0.9), (0.3, 1.0)],
        [3, 1],
        "2ae645709b8566ad4c254b3cd5aa31384ba66f18976fbce5a990395afeb7d619",
    ),
]

DATASET_FIELDS = ("features", "truth_labels", "label_eps", "truth_mean")


def binomial_se(rate: float, count: int) -> float:
    return math.sqrt(rate * (1.0 - rate) / count)


class TestGenerateDataset:
    def test_shapes_counts_and_center(self):
        ds = generate_dataset(40, 501, 1.7, [(0.4, 0.75)], seed=11)
        assert ds.features.shape == (40, 501)
        assert ds.p == 40 and ds.n == 501
        assert ds.n_labeled == round(0.4 * 501)
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
        assert ds.n_labeled == ds.n

    @pytest.mark.parametrize("labeling, seed, digest", DRAW_GOLDEN)
    def test_golden_draw(self, labeling, seed, digest):
        ds = generate_dataset(12, 90, 1.3, labeling, seed=seed)
        h = hashlib.sha256()
        for field in DATASET_FIELDS:
            h.update(getattr(ds, field).tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize(
        "n, confidences", [(3, [1.0, 1.0, 0.5]), (5, [1.0, 1.0, 0.5, 0.5, 0.5])]
    )
    def test_blocks_summing_to_one_label_every_sample(self, n, confidences):
        # block i ends at round of the running fraction times n, so the
        # halves of an odd n split 2 + 1 and 2 + 3 with none left over
        ds = generate_dataset(2, n, 1.0, [(0.5, 1.0), (0.5, 0.75)], seed=0)
        assert ds.n_labeled == n
        assert np.abs(ds.label_eps).tolist() == confidences

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


# (field, bad value from a p = 4, n = 10 dataset) per case.
BAD_FIELDS = {
    "features-1d": ("features", lambda ds: ds.features[0]),
    "features-3d": ("features", lambda ds: ds.features[None]),
    "features-complex": ("features", lambda ds: ds.features.astype(complex)),
    "features-bool": ("features", lambda ds: ds.features > 0.0),
    "features-list": ("features", lambda ds: ds.features.tolist()),
    "truth-all-zero": ("truth_labels", lambda ds: np.zeros(10, dtype=np.int64)),
    "truth-short": ("truth_labels", lambda ds: ds.truth_labels[:7]),
    "truth-two": ("truth_labels", lambda ds: 2 * ds.truth_labels),
    "truth-bool": ("truth_labels", lambda ds: ds.truth_labels > 0),
    "eps-short": ("label_eps", lambda ds: ds.label_eps[:7]),
    "eps-2d": ("label_eps", lambda ds: ds.label_eps[None]),
    "eps-over-one": ("label_eps", lambda ds: np.where(ds.label_eps > 0.0, 1.5, ds.label_eps)),
    "eps-nan": ("label_eps", lambda ds: np.full(10, np.nan)),
    "eps-string": ("label_eps", lambda ds: ["a"] * 10),
    "mean-short": ("truth_mean", lambda ds: ds.truth_mean[:3]),
    "mean-long": ("truth_mean", lambda ds: np.append(ds.truth_mean, 0.0)),
    "mean-nan": ("truth_mean", lambda ds: np.full(4, np.nan)),
    "mean-inf": ("truth_mean", lambda ds: np.array([np.inf, 0.0, 0.0, 0.0])),
}


class TestDatasetChecks:
    """A ``Dataset`` checks its fields when it is built, so that no classifier
    runs on a mismatched or out-of-range field: a short ``truth_mean`` or
    ``label_eps``, a nan center or all-zero truth labels once ran to a result
    or failed with an ``IndexError``."""

    @pytest.mark.parametrize("case", BAD_FIELDS)
    def test_bad_field_rejected_with_its_name(self, case):
        ds = generate_dataset(4, 10, 1.0, [(0.3, 0.9)], seed=2)
        field, bad = BAD_FIELDS[case]
        with pytest.raises(ValueError, match=field):
            replace(ds, **{field: bad(ds)})

    def test_checked_fields_kept_as_given(self):
        ds = generate_dataset(4, 10, 1.0, [(0.3, 0.9)], seed=2)
        again = replace(ds)
        for field in DATASET_FIELDS:
            assert getattr(again, field) is getattr(ds, field)

    def test_integer_confidences_read_as_floats(self):
        ds = generate_dataset(4, 10, 1.0, [], seed=2)
        labeled = replace(ds, label_eps=np.array([1, -1] + [0] * 8))
        assert labeled.label_eps.dtype == float and labeled.n_labeled == 2


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
        out = classify_semisupervised(ds)
        np.testing.assert_array_equal(out.soft_scores, ds.label_eps)
        assert out.error_unlabeled is None
        assert out.iterations == 1
        assert out.error_all == 0.0

    def test_no_signal_is_coin_flip(self):
        ds = generate_dataset(40, 4000, 0.0, [(0.2, 1.0)], seed=10)
        out = classify_semisupervised(ds)
        assert abs(out.error_unlabeled - 0.5) < 4.0 * binomial_se(0.5, ds.n - ds.n_labeled)

    @pytest.fixture
    def no_pass(self, monkeypatch):
        """Fails the run if its first pass starts."""

        def no_pass(*args):
            raise AssertionError("a pass ran before the arguments were checked")

        monkeypatch.setattr(simulate, "_feature_map", no_pass)

    @pytest.mark.parametrize("t_max", [2.9, 4.0, np.float64(4.0), True, np.True_])
    def test_non_integer_t_max_rejected_before_any_pass(self, no_pass, t_max):
        ds = generate_dataset(20, 100, 1.0, [(0.3, 0.9)], seed=4)
        with pytest.raises(ValueError, match="t_max must be an integer"):
            classify_semisupervised(ds, t_max=t_max)

    def test_numpy_integer_t_max_accepted(self):
        ds = generate_dataset(20, 100, 1.0, [(0.3, 0.9)], seed=4)
        plain = classify_semisupervised(ds, t_max=3)
        out = classify_semisupervised(ds, t_max=np.int32(3))
        assert out.iterations == plain.iterations == 3
        assert out.soft_scores.tobytes() == plain.soft_scores.tobytes()

    def test_no_labels_runs_without_failure(self):
        ds = generate_dataset(40, 400, 1.0, [], seed=11)
        out = classify_semisupervised(ds)
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
            classify_semisupervised(ds)

    def test_bad_confidence_rejected_before_the_passes(self, monkeypatch):
        # The confidences are checked once, when the dataset is built, and
        # not again by the denoiser inside the pass loop; lam and c are
        # checked once, before it, and not by the feature map's checked form.
        import uncertain_ssl.simulate as simulate_module

        ds = generate_dataset(30, 60, 1.0, [(0.2, 0.9)], seed=14)
        with pytest.raises(ValueError):
            bad = replace(ds, label_eps=np.where(ds.label_eps > 0.0, 1.5, ds.label_eps))
            classify_semisupervised(bad)

        def checked(*args):
            raise AssertionError("the pass loop called a checked public map")

        monkeypatch.setattr(simulate_module, "posterior_mean", checked)
        monkeypatch.setattr(overlaps, "qu_from_qv", checked)
        assert "qu_from_qv" not in vars(simulate_module)
        assert classify_semisupervised(ds, t_max=3).iterations >= 1

    def test_deterministic(self):
        ds = generate_dataset(30, 600, 2.0, [(0.2, 0.9)], seed=13)
        out_a = classify_semisupervised(ds)
        out_b = classify_semisupervised(ds)
        np.testing.assert_array_equal(out_a.soft_scores, out_b.soft_scores)

    def test_error_ordering_across_methods(self):
        # oracle <= semi-supervised <= supervised (within noise), averaged
        lam, n, p, eta, reps = 2.0, 2000, 2000, 0.2, 10
        oracle_err, semi_err, sup_err = [], [], []
        for r in range(reps):
            ds = generate_dataset(p, n, lam, [(eta, 1.0)], seed=[404, r])
            oracle_err.append(classify_oracle(ds).error_unlabeled)
            semi_err.append(classify_semisupervised(ds).error_unlabeled)
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
        assert classify_semisupervised(ds, t_max=5).iterations == 5
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
        v_new = posterior_mean(eps, u)
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
                out = classify_semisupervised(ds, t_max=t_max)
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
        out = classify_semisupervised(ds, t_max=10**6)
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


def gemv_loop(ds, t_max):
    """The one-dataset pass loop with its two matrix-vector products, as it
    was before the columns were batched, verbatim from its checks on."""
    from uncertain_ssl.kernel import _posterior_mean_at
    from uncertain_ssl.overlaps import _feature_map

    eps = ds.label_eps
    lam = ds.snr
    n = ds.n
    c = n / ds.p
    mixture = EpsilonMixture.from_samples(eps)
    denoise = _posterior_mean_at(eps)
    X = ds.features
    col_sq_n = np.einsum("ij,ij->j", X, X) / n

    v = eps.copy()
    q_v = mixture.eps_bar_sq
    iterations = 0
    for iterations in range(1, t_max + 1):
        if iterations > 1:
            q_v = qv_from_qu(mixture, q_u)
        q_u = _feature_map(lam, c, q_v if q_v < 1.0 else 1.0)
        raw = X.T @ (X @ v / n) - col_sq_n * v
        if q_u == 0.0:
            u = np.zeros(n)
        else:
            mean_sq = float(np.add.reduce(raw * raw)) / n
            if mean_sq == 0.0:
                raise SimulationError("degenerate scores: zero second moment")
            scale = math.sqrt(mean_sq / (q_u * (q_u + 1.0)))
            u = raw / scale
        v_new = denoise(u)
        delta = float(np.add.reduce(np.abs(v_new - v))) / n
        v = v_new
        if delta < 1e-6:
            break
    return v, iterations


class TestSemisupervisedColumns:
    """The classifier scores G datasets that share a draw as the columns of
    one run: with one column it is the matrix-vector pass loop bit for bit,
    and with more, each column keeps the hard labels and the pass count of
    its one-column run."""

    @pytest.mark.parametrize(
        "p, n, lam, labeling, t_max",
        [
            (2000, 2000, 1.5, [(0.2, 0.9)], 4),
            (200, 200, 1.5, [(0.3, 1.0)], 50),
            (200, 1000, 0.5, [(0.1, 0.7), (0.2, 1.0)], 50),
            (200, 1000, 0.0, [(0.2, 0.8)], 5),
            (200, 1000, 1.5, [], 5),
        ],
        ids=["2000x2000", "200x200-pinned", "200x1000-pinned", "q_u-0-lam-0", "q_u-0-unlabeled"],
    )
    def test_one_column_is_the_matrix_vector_loop(self, p, n, lam, labeling, t_max):
        ds = generate_dataset(p, n, lam, labeling, seed=[31, p, n])
        soft, iterations = gemv_loop(ds, t_max)
        block, passes = simulate._semisupervised_columns([ds], [realised_schedule(ds)], t_max)
        assert block.shape == (1, n)
        assert block[0].tobytes() == soft.tobytes()
        assert passes == [iterations]
        out = classify_semisupervised(ds, t_max=t_max)
        assert out.soft_scores.tobytes() == soft.tobytes() and out.iterations == iterations

    @pytest.mark.parametrize("p, n", [(60, 300), (200, 1000)])
    def test_columns_keep_their_one_column_labels_and_passes(self, p, n):
        draw = simulate._base_draw(p, n, 1.2, [17, p])
        labelings = [
            [(0.2, 1.0)],
            [(0.5, 0.7)],
            [],  # q_u = 0 at every pass: u = 0 beside scaled columns
            [(0.1, 0.9)],
            [(0.05, 0.6), (0.3, 1.0)],
            [(0.2, 1.0)],  # a repeated column
        ]
        datasets = [simulate._dataset(draw, simulate._check_labeling(b)) for b in labelings]
        alone = [classify_semisupervised(ds, t_max=60) for ds in datasets]
        passes = [out.iterations for out in alone]
        assert len(set(passes)) > 2 and min(passes) < 60  # they stop at different passes
        schedules = [realised_schedule(ds) for ds in datasets]
        block, block_passes = simulate._semisupervised_columns(datasets, schedules, 60)
        assert block_passes == passes
        for row, out in zip(block, alone):
            assert simulate._hard_decisions(row).tobytes() == out.hard_labels.tobytes()
            np.testing.assert_allclose(row, out.soft_scores, rtol=0.0, atol=1e-8)

    def test_a_degenerate_column_fails_the_run(self):
        n, p = 8, 4
        mu = np.zeros(p)
        mu[0] = 1.0
        y = np.array([1, -1] * (n // 2), dtype=np.int64)
        eps = [np.zeros(n), np.array([1.0, -1.0] + [0.0] * (n - 2))]
        datasets = [
            simulate.Dataset(features=np.zeros((p, n)), truth_labels=y, label_eps=e, truth_mean=mu)
            for e in eps
        ]
        with pytest.raises(SimulationError, match="zero second moment"):
            schedules = [realised_schedule(ds) for ds in datasets]
            simulate._semisupervised_columns(datasets, schedules, 5)


class TestSearchSchedules:
    """The search calibrates each probe column by a schedule built once per
    round in the calling process, from the nominal lam, c = n/p and the
    intended mixture; the workers run no recursion.  A probe's dataset would
    give the realised lam and mixture, equal up to rounding."""

    def test_search_schedules_track_the_realised_recursion(self, monkeypatch):
        # the `search` benchmark's config: labeled-needed's defaults, etas [0.02]
        cfg = {**cli._COMMANDS["labeled-needed"].defaults, "etas": [0.02]}
        p, n, lam, seed, t_max = cfg["p"], cfg["n"], cfg["lambda"], cfg["seed"], cfg["t_max"]
        rounds = []
        probe_round = simulate._probe_round

        def recording_probe_round(pool, reps, columns, schedules):
            rounds.append((list(columns), schedules))
            return probe_round(pool, reps, columns, schedules)

        monkeypatch.setattr(simulate, "_probe_round", recording_probe_round)
        cli.cmd_labeled_needed(cfg)
        assert len(rounds) > 1
        for r in range(cfg["reps"]):
            draw = simulate._base_draw(p, n, lam, simulate._rep_stream(seed, r))
            for columns, schedules in rounds:
                datasets = [simulate._dataset(draw, [(n_l / n, kappa)]) for n_l, kappa in columns]
                realised = [
                    [q_u for _, q_u in zip(range(t_max), realised_schedule(ds))] for ds in datasets
                ]
                for nominal, exact in zip(schedules, realised):
                    assert len(nominal) == t_max
                    np.testing.assert_allclose(nominal, exact, rtol=2e-15, atol=0.0)
                soft, passes = simulate._semisupervised_columns(datasets, schedules, t_max)
                soft_realised, passes_realised = simulate._semisupervised_columns(
                    datasets, realised, t_max
                )
                assert passes == passes_realised
                hard = simulate._hard_decisions(soft)
                assert hard.tobytes() == simulate._hard_decisions(soft_realised).tobytes()

    def test_workers_run_no_recursion(self, monkeypatch):
        calls = []
        label_map = simulate.qv_from_qu

        def counting(mixture, q_u):
            calls.append(q_u)
            return label_map(mixture, q_u)

        monkeypatch.setattr(simulate, "qv_from_qu", counting)
        p, n, lam, t_max = 40, 200, 1.0, 20
        draw = simulate._base_draw(p, n, lam, [3, 1])
        columns = [(20, 1.0), (30, 0.9), (40, 0.8)]
        schedules = [simulate._probe_schedule(lam, n / p, n_l / n, k, t_max) for n_l, k in columns]
        assert len(calls) == len(columns) * (t_max - 1)
        calls.clear()
        masks = simulate._replicate_masks(draw, columns, schedules)
        assert masks.shape == (len(columns), n) and calls == []

        # the calling process builds t_max - 1 steps per column of each round
        made = []  # the calls made before each round, and the round's width
        probe_round = simulate._probe_round

        def recording_probe_round(pool, reps, columns, schedules):
            made.append((len(calls), len(columns)))
            return probe_round(pool, reps, columns, schedules)

        monkeypatch.setattr(simulate, "_probe_round", recording_probe_round)
        labeled_needed_empirical(
            p, n, lam, 0.1, [0.8, 0.85, 0.9, 1.0], seed=[3, 1], reps=3, t_max=t_max
        )
        assert len(made) > 1
        before = 0
        for total, width in made:
            assert total - before == width * (t_max - 1)
            before = total
        assert len(calls) == before  # nothing after the last round


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
        probe_round = simulate._probe_round

        def never_meets_the_reference(pool, reps, columns, schedules):
            masks = probe_round(pool, reps, columns, schedules)
            for g, (n_labeled, kappa) in enumerate(columns):
                if kappa != 1.0:  # not the reference run
                    probes.append(n_labeled)
                    for mask in masks:
                        mask[g] = True  # every sample wrong
            return masks

        monkeypatch.setattr(simulate, "_probe_round", never_meets_the_reference)
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
        monkeypatch.setattr(simulate, "_replicate_workers", no_draw)  # they would draw
        args = {"p": 10, "n": 40, "lam": 1.0, "eta": 0.2, "kappas": [0.9, 1.0],
                "seed": 3, "reps": 2, "t_max": 20}
        args.update(change)
        with pytest.raises((ValueError, SimulationError), match=message):
            labeled_needed_empirical(**args)


CORE_SETS = [{0}, {0, 1}, {0, 1, 2, 3}]


class TestFreshReplicates:
    """``simulate`` and ``reduction`` run the fresh-draw replicates of every
    point on one pool of up to one thread per usable core; nothing they
    return may depend on how many.
    The matrices hold about 500 000 cells, so that BLAS threads too when its
    thread count is not pinned: OpenBLAS 0.3.31 on 2 cores splits a
    matrix-vector product over threads only from somewhere between 320 000
    and 500 000 cells."""

    P, N, LAM, LABELING, SEED, REPS, T_MAX = 500, 1000, 1.5, [(0.2, 0.9)], 7, 5, 20

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        # simulate imports the pool class when a run starts, from here.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        return sizes

    def each_core_set(self, monkeypatch):
        for cores in CORE_SETS:
            monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid, c=cores: c)
            yield cores

    def point(self):
        return (self.P, self.N, self.LAM, self.LABELING, self.SEED)

    def errors(self):
        [errors] = simulate._fresh_replicate_errors([self.point()], self.REPS, self.T_MAX)
        return errors

    def test_errors_do_not_depend_on_the_worker_count(self, monkeypatch, pool_sizes):
        expected = []
        for r in range(self.REPS):
            ds = generate_dataset(self.P, self.N, self.LAM, self.LABELING, seed=[self.SEED, r])
            expected.append((
                classify_oracle(ds).error_unlabeled,
                classify_supervised(ds).error_unlabeled,
                classify_semisupervised(ds, t_max=self.T_MAX).error_unlabeled,
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
        assert pool_sizes == [1, 2, 4]  # one pool per run, whatever its points

    def test_points_equal_one_point_calls(self, monkeypatch, pool_sizes):
        other = (300, 600, 2.5, [(0.3, 1.0)], [self.SEED, 1])
        apart = [
            simulate._fresh_replicate_errors([point], self.REPS, self.T_MAX)[0]
            for point in (self.point(), other)
        ]
        pool_sizes.clear()
        for cores in (1, 2, 3):
            monkeypatch.setattr(simulate, "_usable_cores", lambda c=cores: c)
            together = simulate._fresh_replicate_errors(
                [self.point(), other], self.REPS, self.T_MAX
            )
            assert together == apart
        assert pool_sizes == [1, 2, 3]

    def test_failing_replicate_raises_first_in_point_then_replicate_order(
        self, monkeypatch
    ):
        def replicate(p, n, lam, labeling, t_max, stream):
            point, r = stream[-2:]
            if (point, r) in ((0, 3), (1, 0)):
                time.sleep(0.05 * (point == 0))  # point 1 fails first in time
                raise SimulationError(f"point {point} replicate {r} failed")
            return r, None, -r

        monkeypatch.setattr(simulate, "_fresh_replicate", replicate)
        points = [(1, 1, 1.0, [], [0, index]) for index in range(2)]
        for _ in self.each_core_set(monkeypatch):
            with pytest.raises(SimulationError, match="point 0 replicate 3 failed"):
                simulate._fresh_replicate_errors(points, 5, 1)

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
            errors = simulate._fresh_replicate_errors([(1, 1, 1.0, [], 0)], 5, 1)
            assert errors == [[(r, None, -r) for r in range(5)]]
            assert max(started) < len(cores)
            started.clear()
            finished.clear()
            with pytest.raises(SimulationError, match="replicate 5 failed"):
                simulate._fresh_replicate_errors([(1, 1, 1.0, [], 0)], 10_000, 1)
            assert len(started) <= 6 + len(cores)
            assert max(started) < len(cores)


class TestReplicateBank:
    """The labeled-count search draws each replicate once and builds every
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
        blocks = simulate._check_labeling(labeling)
        for r in range(self.REPS):
            stream = simulate._rep_stream(seed, r)
            draw = simulate._base_draw(self.P, self.N, self.LAM, stream)
            # twice from one draw: a probe must not change the stored draw
            for _ in range(2):
                rebuilt = simulate._dataset(draw, blocks)
                fresh = generate_dataset(self.P, self.N, self.LAM, labeling, seed=stream)
                for field in DATASET_FIELDS:
                    a, b = getattr(rebuilt, field), getattr(fresh, field)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field

    def test_search_draws_each_replicate_and_reference_once(self, monkeypatch, tmp_path):
        fork_only()
        p, n, lam, eta, seed, reps = 20, 120, 1.0, 0.1, 8, 3
        log = tmp_path / "draws.log"
        references = []
        base_draw, probe_round = simulate._base_draw, simulate._probe_round

        def logging_base_draw(*args):
            # the forked workers inherit the patch; each process logs its pid
            with open(log, "a") as handle:
                handle.write(json.dumps([os.getpid(), args[3]]) + "\n")
            return base_draw(*args)

        def counting_probe_round(pool, reps, columns, schedules):
            references.extend(n_labeled for n_labeled, kappa in columns if kappa == 1.0)
            return probe_round(pool, reps, columns, schedules)

        monkeypatch.setattr(simulate, "_base_draw", logging_base_draw)
        monkeypatch.setattr(simulate, "_probe_round", counting_probe_round)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        counts = labeled_needed_empirical(p, n, lam, eta, (0.95, 0.9, 0.85), seed=seed, reps=reps)
        assert len(counts) == 3 and all(isinstance(c, int) for c in counts)
        drawn = [json.loads(line) for line in log.read_text().splitlines()]
        assert sorted(stream for _, stream in drawn) == [[seed, r] for r in range(reps)]
        owner = {stream[1]: pid for pid, stream in drawn}
        assert os.getpid() not in owner.values()  # the calling process draws nothing
        assert owner[0] == owner[2] != owner[1]  # worker k owns replicates k, k + 2
        assert references == [round(eta * n)]

    def test_kappa_one_search_reuses_the_reference_run(self, monkeypatch):
        p, n, lam, eta, seed, reps, t_max = 20, 120, 1.0, 0.1, 8, 3, 20
        n_ref = round(eta * n)
        rounds = []
        probe_round = simulate._probe_round

        def counting_probe_round(pool, reps, columns, schedules):
            rounds.append(list(columns))
            return probe_round(pool, reps, columns, schedules)

        monkeypatch.setattr(simulate, "_probe_round", counting_probe_round)
        counts = labeled_needed_empirical(
            p, n, lam, eta, (0.9, 1.0), seed=seed, reps=reps, t_max=t_max
        )
        runs = [column for columns in rounds for column in columns]
        assert runs[0] == (n_ref, 1.0)  # the reference, first in the first round
        assert runs.count((n_ref, 1.0)) == 1  # the kappa = 1 search ran no copy
        assert any(kappa == 1.0 for _, kappa in runs[1:]) and counts[1] <= n_ref
        # the probe it skips would repeat the reference run, so its paired
        # mean is exactly the 0.0 it is seeded with
        monkeypatch.setattr(simulate, "_probe_round", probe_round)
        with simulate._replicate_workers(p, n, lam, seed, reps) as workers:
            reference = reference_round(workers, p, n, lam, n_ref, reps, t_max)
            again = reference_round(workers, p, n, lam, n_ref, reps, t_max)
        for a, b in zip(reference, again):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("p, n, lam, eta, kappa, seed, target, count", GOLDEN)
    def test_golden_counts(self, p, n, lam, eta, kappa, seed, target, count):
        assert reference_target(p, n, lam, eta, seed, 3, 20) == target
        found = labeled_needed_empirical(p, n, lam, eta, [kappa], seed=seed, reps=3, t_max=20)
        assert found == [count]


class TestRoundSearch:
    """The kappa searches of a call run in rounds: every running search names
    its next probe, and each replicate scores the round's probes together.
    The counts, the probes and the failure raised must be those of the
    searches run one after another."""

    @pytest.mark.parametrize(
        "kappa, threshold, count, probes",
        [
            (0.9, 81, 81, [80, 160, 120, 100, 90, 85, 82, 81]),
            (0.9, 50, 50, [80, 40, 60, 50, 45, 47, 48, 49]),
            (0.9, 0, 1, [80, 40, 20, 10, 5, 2, 1]),
            (0.9, 380, 380, [80, 160, 320, 380, 350, 365, 372, 376, 378, 379]),
            (1.0, 30, 30, [40, 20, 30, 25, 27, 28, 29]),
        ],
    )
    def test_search_finds_the_smallest_count_probing_each_once(
        self, kappa, threshold, count, probes
    ):
        search = simulate._search(kappa, 80, 380)
        seen, reply = [], None
        with pytest.raises(StopIteration) as done:
            while True:
                seen.append(search.send(reply))
                reply = -0.5 if seen[-1] >= threshold else 0.5
        assert done.value.value == count
        assert seen == probes and len(set(seen)) == len(seen)

    def test_unreachable_search_raises_after_its_last_probe(self):
        search = simulate._search(0.9, 80, 380)
        seen = [next(search)]
        with pytest.raises(SimulationError, match="kappa = 0.9 by any .* up to 380"):
            while True:
                seen.append(search.send(0.5))
        assert seen == [80, 160, 320, 380]

    def test_round_counts_equal_each_kappa_searched_alone(self, monkeypatch):
        p, n, lam, eta, seed, reps, t_max = 40, 200, 1.0, 0.1, [3, 1], 3, 20
        kappas = [0.8, 0.85, 0.9, 1.0]
        alone = [
            labeled_needed_empirical(p, n, lam, eta, [kappa], seed=seed, reps=reps, t_max=t_max)[0]
            for kappa in kappas
        ]
        widths = []
        probe_round = simulate._probe_round

        def recording_probe_round(pool, reps, columns, schedules):
            widths.append(len(columns))
            return probe_round(pool, reps, columns, schedules)

        monkeypatch.setattr(simulate, "_probe_round", recording_probe_round)
        together = labeled_needed_empirical(
            p, n, lam, eta, kappas, seed=seed, reps=reps, t_max=t_max
        )
        assert together == alone
        assert widths[0] == len(kappas) + 1  # the reference joins the first round

    @pytest.fixture
    def scripted(self, monkeypatch):
        """Searches that follow a script per kappa, on rounds that score
        nothing: a list of the probes each search yields, then a count to
        return or an error to raise; records the probes each search got a
        reply for."""
        replied = {}

        def run(scripts):
            def search(kappa, n_ref, hi):
                *probes, end = scripts[kappa]
                for n_l in probes:
                    yield n_l
                    replied.setdefault(kappa, []).append(n_l)
                if isinstance(end, Exception):
                    raise end
                return end

            def probe_round(pool, reps, columns, schedules):
                assert len(schedules) == len(columns)
                return [np.zeros((len(columns), 40), dtype=bool) for _ in range(reps)]

            def schedule(n_l, kappa):
                return [0.5] * 5

            monkeypatch.setattr(simulate, "_search", search)
            monkeypatch.setattr(simulate, "_probe_round", probe_round)
            return simulate._search_counts(None, 2, list(scripts), 4, 30, schedule)

        return run, replied

    def test_first_failure_in_kappa_order_raises(self, scripted):
        run, replied = scripted
        scripts = {
            0.6: [4, 8, 16, 30, SimulationError("first")],  # fails in round 5
            0.7: [4, SimulationError("second")],  # fails in round 2
            0.8: [4, 8, 16, 30, 23, 7],
        }
        with pytest.raises(SimulationError, match="first"):
            run(scripts)
        assert replied[0.6] == [4, 8, 16, 30]  # ran to its end
        assert 0.8 not in replied  # stopped when the search before it failed

    def test_later_failure_raises_when_the_searches_before_it_succeed(self, scripted):
        run, replied = scripted
        scripts = {0.6: [4, 8, 6, 5], 0.7: [4, 8, 16, 30, SimulationError("second")], 0.8: [4, 8]}
        with pytest.raises(SimulationError, match="second"):
            run(scripts)
        assert replied == {0.6: [4, 8, 6], 0.7: [4, 8, 16, 30], 0.8: [4]}

    def test_counts_in_kappa_order(self, scripted):
        run, _ = scripted
        assert run({0.6: [4, 8, 16, 9], 0.7: [3], 0.8: [4, 2, 2]}) == [9, 3, 2]


class TestReplicatePool:
    """The labeled-count search scores its replicates on worker processes,
    each drawing the replicates it owns: the counts must not depend on the
    worker count or the start method, a worker's failure must surface as in
    a serial loop, a dead worker must make the call raise, and no worker may
    outlive the call."""

    def recorded_pools(self, monkeypatch) -> list:
        """The worker count of each call's workers."""
        sizes = []
        start = simulate._replicate_workers

        @contextlib.contextmanager
        def recording_workers(*args):
            with start(*args) as workers:
                sizes.append(len(workers))
                yield workers

        monkeypatch.setattr(simulate, "_replicate_workers", recording_workers)
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

    @pytest.mark.parametrize(
        "reps, workers, case",
        [(3, 2, case) for case in GOLDEN] + [(5, 4, case) for case in GOLDEN_FIVE],
        ids=["3-on-2-int-seed", "3-on-2-sequence-seed", "5-on-4-int-seed", "5-on-4-sequence-seed"],
    )
    def test_uneven_ownership_gives_the_golden_counts(self, monkeypatch, reps, workers, case):
        # one worker owns a replicate more than another
        p, n, lam, eta, kappa, seed, target, count = case
        sizes = self.recorded_pools(monkeypatch)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: workers)
        assert reference_target(p, n, lam, eta, seed, reps, 20) == target
        found = labeled_needed_empirical(p, n, lam, eta, [kappa], seed=seed, reps=reps, t_max=20)
        assert found == [count]
        assert sizes == [workers, workers]
        assert multiprocessing.active_children() == []

    def test_spawned_workers_give_the_same_counts(self, monkeypatch):
        # without fork, the worker function and its arguments are pickled;
        # the arguments hold no draw, and the calling process draws none
        p, n, lam, eta, kappa, seed, _, count = GOLDEN[0]
        methods, sent = [], []
        get_context = multiprocessing.get_context

        def recording_context(method=None):
            methods.append(method)
            context = get_context(method)
            make = context.Process

            def recording_process(*, target, args):
                sent.append(pickle.dumps(args[2:]))  # all but the two ends of its pipe
                return make(target=target, args=args)

            monkeypatch.setattr(context, "Process", recording_process)
            return context

        def no_draw(*args):
            raise AssertionError("the calling process drew a replicate")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", recording_context)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        monkeypatch.setattr(simulate, "_base_draw", no_draw)  # spawned workers import their own
        found = labeled_needed_empirical(p, n, lam, eta, [kappa], seed=seed, reps=3, t_max=20)
        assert found == [count]
        assert methods == ["spawn"]
        assert [pickle.loads(args)[-1] for args in sent] == [range(0, 3, 2), range(1, 3, 2)]
        assert max(map(len, sent)) < 1000  # one replicate's draw is 100 kB
        assert multiprocessing.active_children() == []

    @pytest.fixture
    def replicate_of(self, monkeypatch):
        """The replicate of a draw, in the worker that drew it: forked
        workers inherit the tagging ``_base_draw``, and each fills its own
        copy of the map."""
        fork_only()
        base_draw = simulate._base_draw
        owner = {}

        def tagging_draw(p, n, lam, stream):
            draw = base_draw(p, n, lam, stream)
            owner[id(draw)] = stream[-1]
            return draw

        monkeypatch.setattr(simulate, "_base_draw", tagging_draw)
        return lambda draw: owner[id(draw)]

    @pytest.fixture
    def failing_workers(self, monkeypatch, replicate_of):
        """Replicate 1 raises a ``SimulationError`` late and replicate 3 a
        ``ValueError`` early; forked workers inherit the patch."""
        build = simulate._dataset

        def failing_build(draw, blocks):
            r = replicate_of(draw)
            if r == 1:
                time.sleep(0.2)  # with 4 workers, replicate 3 fails first in time
                raise SimulationError(f"replicate {r} failed")
            if r == 3:
                raise ValueError(f"replicate {r} failed")
            return build(draw, blocks)

        monkeypatch.setattr(simulate, "_dataset", failing_build)
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

    @pytest.mark.parametrize(
        "failing_run, error, message",
        [(1, ArithmeticError, "replicate 1 failed"), (3, KeyError, "replicate 2's draw failed")],
        ids=["run-before-draw", "draw-before-run"],
    )
    def test_failed_draw_counts_in_replicate_order(
        self, monkeypatch, replicate_of, failing_run, error, message
    ):
        # On 2 workers replicate 2's draw fails in worker 0 before any round,
        # and a run of worker 1 fails in the first round; as in a serial
        # loop, the replicate that comes first raises.
        base_draw, build = simulate._base_draw, simulate._dataset

        def failing_draw(p, n, lam, stream):
            if stream[-1] == 2:
                raise KeyError("replicate 2's draw failed")
            return base_draw(p, n, lam, stream)

        def failing_build(draw, blocks):
            if replicate_of(draw) == failing_run:
                raise ArithmeticError(f"replicate {failing_run} failed")
            return build(draw, blocks)

        monkeypatch.setattr(simulate, "_base_draw", failing_draw)
        monkeypatch.setattr(simulate, "_dataset", failing_build)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        with pytest.raises(error, match=message):
            labeled_needed_empirical(20, 120, 1.0, 0.1, [0.9], seed=8, reps=4)
        assert multiprocessing.active_children() == []

    def test_dying_worker_makes_the_call_raise(self, monkeypatch, replicate_of):
        # replicate 3's worker exits in the middle of the first round, after
        # it scored replicate 1; the alarm turns a hang into a failure
        build = simulate._dataset

        def dying_build(draw, blocks):
            if replicate_of(draw) == 3:
                os._exit(7)
            return build(draw, blocks)

        def hung(signum, frame):
            raise TimeoutError("the call waited on a dead worker")

        monkeypatch.setattr(simulate, "_dataset", dying_build)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError, match="search worker 1 exited with code 7"):
                labeled_needed_empirical(20, 120, 1.0, 0.1, [0.9], seed=8, reps=5)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_workers_exit_when_the_calling_process_dies(self):
        # A child process runs a search whose workers print their pids and
        # take 0.5 s per replicate; it is killed in the middle of a round.
        fork_only()
        script = (
            "import os, time\n"
            "from uncertain_ssl import simulate\n"
            "masks = simulate._replicate_masks\n"
            "def slow(*args):\n"
            "    print(os.getpid(), flush=True)\n"
            "    time.sleep(0.5)\n"
            "    return masks(*args)\n"
            "simulate._replicate_masks = slow\n"
            "simulate._usable_cores = lambda: 2\n"
            "simulate.labeled_needed_empirical(20, 120, 1.0, 0.1, [0.9], seed=8, reps=4)\n"
        )
        paths = [os.path.dirname(os.path.dirname(simulate.__file__)), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        caller = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
        )
        workers = set()
        try:
            while len(workers) < 2:
                line = caller.stdout.readline()
                assert line, "the search ended before both workers ran"
                workers.add(int(line))
        finally:
            caller.kill()
            caller.wait()

        def running(pid):  # neither gone nor a zombie
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 30
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in workers if running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == []
        caller.stdout.close()
