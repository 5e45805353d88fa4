"""Scalar kernel checks: special-function values against independent oracles,
algebraic identities, quadrature fidelity against Monte Carlo, and the
relative-error budget of the simplified channel overlap."""

import math
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate, special

from uncertain_ssl.kernel import (
    DEFAULT_RULE,
    _posterior_mean_at,
    _psi_from_tanh,
    _psi_ratio,
    _psi_tilde_from_tanh,
    _psi_tilde_sum,
    _QuadraturePlan,
    approx_error_grid,
    channel_overlap,
    channel_overlap_approx,
    gaussian_tail,
    overlap_integrand,
    overlap_integrand_approx,
    overlap_integrand_series,
    posterior_mean,
)
from uncertain_ssl.overlaps import EpsilonMixture, qv_from_qu

# Adaptive quadrature of the normal density on [1, inf); frozen here so the
# assertion below never exercises the erfc path it checks.
Q_AT_ONE = 0.15865525393145707


class TestGaussianTail:
    def test_symmetry_point(self):
        assert gaussian_tail(0.0) == 0.5

    def test_value_at_one_matches_density_integral(self):
        oracle, err = integrate.quad(
            lambda v: math.exp(-v * v / 2.0) / math.sqrt(2.0 * math.pi), 1.0, np.inf
        )
        assert abs(oracle - Q_AT_ONE) < 1e-9
        assert abs(gaussian_tail(1.0) - Q_AT_ONE) < 1e-6

    def test_deep_tail_positive(self):
        tail = gaussian_tail(8.0)
        assert 0.0 < tail < 1e-14

    def test_complement_identity(self):
        x = np.linspace(-6.0, 6.0, 241)
        np.testing.assert_allclose(gaussian_tail(x) + gaussian_tail(-x), 1.0, atol=1e-14)

    def test_strictly_decreasing(self):
        x = np.linspace(-8.0, 8.0, 400)
        assert np.all(np.diff(gaussian_tail(x)) < 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            gaussian_tail(bad)

    def test_matches_scipy_erfc_oracle(self):
        # scipy is a test-only oracle: the library takes erfc from `math`.
        x = np.linspace(-8.5, 8.5, 34_001)
        oracle = 0.5 * special.erfc(x / math.sqrt(2.0))
        tails = gaussian_tail(x)
        scalars = np.array([gaussian_tail(float(v)) for v in x])
        np.testing.assert_allclose(tails, oracle, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(scalars, oracle, rtol=1e-14, atol=0.0)
        assert np.array_equal(tails, scalars)

    def test_array_keeps_shape_and_scalar_gives_float(self):
        x = np.array([[-1.0, 0.0], [0.5, 3.0]])
        tails = gaussian_tail(x)
        assert tails.shape == x.shape and tails.dtype == np.float64
        assert tails[1, 0] == gaussian_tail(0.5)
        assert gaussian_tail(np.empty((0, 3))).shape == (0, 3)
        assert type(gaussian_tail(np.float64(1.0))) is float


class TestPosteriorMean:
    def test_unlabeled_prior_reduces_to_tanh(self):
        t = np.linspace(-6.0, 6.0, 101)
        np.testing.assert_allclose(posterior_mean(0.0, t), np.tanh(t), atol=0.0)

    def test_certain_prior_pins_the_signal(self):
        for t in (-50.0, -1.0, 0.0, 2.0, 50.0):
            assert posterior_mean(1.0, t) == 1.0
            assert posterior_mean(-1.0, t) == -1.0

    def test_zero_output_returns_prior_mean(self):
        assert posterior_mean(0.5, 0.0) == 0.5

    def test_value_from_tanh_arithmetic(self):
        expected = (math.tanh(1.0) + 0.5) / (1.0 + 0.5 * math.tanh(1.0))
        assert abs(expected - 0.9136709340400074) < 1e-15
        assert abs(posterior_mean(0.5, 1.0) - expected) < 1e-15

    def test_odd_symmetry(self):
        t = np.linspace(-4.0, 4.0, 81)
        for eps in (0.0, 0.3, 0.7, 0.95):
            np.testing.assert_allclose(
                posterior_mean(eps, -t), -posterior_mean(-eps, t), atol=1e-15
            )

    def test_monotone_and_bounded(self):
        t = np.linspace(-30.0, 30.0, 601)
        for eps in (-0.9, -0.2, 0.0, 0.4, 0.8):
            values = posterior_mean(eps, t)
            assert np.all(np.diff(values) >= -1e-15)
            assert np.all(np.abs(values) <= 1.0)

    def test_rejects_out_of_range_prior(self):
        with pytest.raises(ValueError):
            posterior_mean(1.2, 0.0)

    @pytest.mark.parametrize(
        "eps",
        [[0.0, 0.3, -0.7, 0.99], [1.0, 0.0, -1.0, 0.5], [1.0, 1.0, 1.0, 1.0]],
        ids=["unpinned", "pinned", "all-pinned"],
    )
    def test_fixed_prior_denoiser_equals_posterior_mean(self, eps):
        # saturated tanh included: 0/0 at eps = ±1 must give ±1 and no warning
        e = np.tile(np.asarray(eps), 50)
        t = np.random.default_rng(3).normal(0.0, 15.0, e.size)
        t[:8] = [40.0, -40.0, -40.0, 40.0, -40.0, 40.0, np.inf, -np.inf]
        denoise = _posterior_mean_at(e)
        with np.errstate(all="raise"):
            out = denoise(t)
        assert out.tobytes() == posterior_mean(e, t).tobytes()


class TestOverlapIntegrand:
    def test_unlabeled_reduces_to_tanh(self):
        t = np.linspace(-5.0, 5.0, 41)
        np.testing.assert_allclose(overlap_integrand(0.0, t), np.tanh(t), atol=0.0)

    def test_certain_prior_is_one(self):
        for t in (-100.0, -2.0, 0.0, 1.0, 100.0):
            assert overlap_integrand(1.0, t) == 1.0
            assert overlap_integrand(-1.0, t) == 1.0

    def test_value_at_zero_is_squared_confidence(self):
        for eps in (0.0, 0.3, 0.5, 0.9, 1.0):
            assert overlap_integrand(eps, 0.0) == pytest.approx(eps * eps, abs=1e-15)

    def test_signal_weighted_posterior_mean_identity(self):
        # psi_eps(t) = d2 f_eps(t) - d1 f_eps(-t) with (d1, d2) the confidence
        # couple of eps = d2 - d1; at eps = 0.5 that couple is (0.25, 0.75).
        eps, t = 0.5, 1.3
        d1, d2 = (1.0 - eps) / 2.0, (1.0 + eps) / 2.0
        assert (d1, d2) == (0.25, 0.75)
        lhs = overlap_integrand(eps, t)
        rhs = d2 * posterior_mean(eps, t) - d1 * posterior_mean(eps, -t)
        assert abs(lhs - rhs) < 1e-14

    def test_sign_of_confidence_is_irrelevant(self):
        t = np.linspace(-6.0, 6.0, 25)
        for eps in (0.3, 0.7, 0.95):
            np.testing.assert_array_equal(
                overlap_integrand(eps, t), overlap_integrand(-eps, t)
            )


class TestOverlapIntegrandSeries:
    def test_unlabeled_prior_is_tanh_at_any_order(self):
        t = np.linspace(-4.0, 4.0, 17)
        np.testing.assert_allclose(overlap_integrand_series(0.0, t, 1), np.tanh(t), atol=0.0)

    def test_converges_to_closed_form(self):
        # eps**(2 k_max) < 1e-12 for every eps on the grid at k_max = 270
        k_max = 270
        assert 0.95 ** (2 * k_max) < 1e-12
        t_grid = np.linspace(-10.0, 10.0, 81)
        for eps in (0.0, 0.3, -0.3, 0.7, -0.7, 0.95, -0.95):
            series = overlap_integrand_series(eps, t_grid, k_max)
            closed = overlap_integrand(eps, t_grid)
            np.testing.assert_allclose(series, closed, atol=1e-10)

    def test_large_confidence_point(self):
        assert abs(
            overlap_integrand_series(0.9, 2.0, 140) - overlap_integrand(0.9, 2.0)
        ) < 1e-10

    def test_zero_output_kills_series(self):
        for k_max in (1, 3, 50):
            assert overlap_integrand_series(0.5, 0.0, k_max) == pytest.approx(0.25, abs=1e-15)

    def test_rejects_certain_prior(self):
        with pytest.raises(ValueError):
            overlap_integrand_series(1.0, 0.3, 10)

    @pytest.mark.parametrize("k_max", [2.9, 3.0, True, np.True_])
    def test_non_integer_order_rejected(self, k_max):
        with pytest.raises(ValueError, match="k_max must be an integer"):
            overlap_integrand_series(0.5, 0.3, k_max)

    def test_numpy_integer_order_accepted(self):
        t = np.linspace(-2.0, 2.0, 9)
        plain = overlap_integrand_series(0.5, t, 3)
        assert overlap_integrand_series(0.5, t, np.int32(3)).tobytes() == plain.tobytes()


class TestOverlapIntegrandApprox:
    def test_unlabeled_is_tanh(self):
        t = np.linspace(-5.0, 5.0, 21)
        np.testing.assert_array_equal(overlap_integrand_approx(0.0, t), np.tanh(t))

    def test_certain_prior_is_one(self):
        for t in (-3.0, 0.0, 7.0):
            assert overlap_integrand_approx(1.0, t) == 1.0

    def test_zero_output(self):
        assert overlap_integrand_approx(0.5, 0.0) == pytest.approx(0.25, abs=1e-15)


class TestQuadratureRule:
    def test_default_rule_invariants(self):
        rule = DEFAULT_RULE
        assert len(rule) == 61
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
        assert abs(float(rule.weights.sum()) - 1.0) <= 1e-12
        assert np.all(rule.weights >= 0.0)
        order = np.argsort(rule.nodes)
        z, w = rule.nodes[order], rule.weights[order]
        np.testing.assert_allclose(z + z[::-1], 0.0, atol=1e-12)
        np.testing.assert_allclose(w - w[::-1], 0.0, atol=1e-12)
        assert abs(float(rule.weights @ rule.nodes)) <= 1e-12
        assert abs(float(rule.weights @ rule.nodes**2) - 1.0) <= 1e-8


class TestGaussExpect:
    """The Gaussian average behind F_0(q) = E[tanh(q + sqrt(q) Z)]."""

    def test_tanh_against_monte_carlo(self):
        # 1e7-draw Monte Carlo oracle for E[tanh(q + sqrt(q) Z)] at q = 0.7
        q = 0.7
        rng = np.random.default_rng(20240707)
        samples = np.tanh(q + math.sqrt(q) * rng.standard_normal(10_000_000))
        mc, se = float(samples.mean()), float(samples.std() / math.sqrt(samples.size))
        assert abs(channel_overlap(0.0, q) - mc) < 3.0 * se

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            channel_overlap(0.0, -0.1)


class TestChannelOverlap:
    def test_zero_snr_returns_squared_confidence(self):
        for eps in (0.0, 0.25, 0.6, 1.0):
            assert channel_overlap(eps, 0.0) == pytest.approx(eps * eps, abs=1e-15)

    def test_certain_prior_saturates(self):
        for q in (0.0, 0.5, 4.0, 100.0):
            assert channel_overlap(1.0, q) == 1.0

    def test_saturation_at_large_snr(self):
        assert abs(channel_overlap(0.0, 100.0) - 1.0) < 1e-3

    def test_nondecreasing_in_snr(self):
        q_grid = np.linspace(0.0, 12.0, 61)
        for eps in (0.0, 0.4, 0.8):
            values = [channel_overlap(eps, q) for q in q_grid]
            assert np.all(np.diff(values) >= -1e-13)
            assert all(eps * eps <= v < 1.0 for v in values)

    @pytest.mark.parametrize("shape", ["scalar", "array"])
    def test_floor_at_squared_confidence_just_above_zero(self, shape):
        # The rule's odd moments vanish only to rounding: unclamped, these
        # points gave F_0 = -7.6e-44 and one ulp below 0.909**2.
        for eps, q in ((0.0, 2.7e-53), (-0.909, 9.3e-62)):
            e = eps if shape == "scalar" else np.array([eps])
            assert channel_overlap(e, q) == eps * eps
            assert channel_overlap(e, q) >= channel_overlap(e, 0.0)

    def test_quadrature_matches_monte_carlo_grid(self):
        # 1e6-draw Monte Carlo of the integrand on a 5 x 5 (eps, q) grid
        rng = np.random.default_rng(31415)
        z = rng.standard_normal(1_000_000)
        for eps in (0.0, 0.3, 0.5, 0.7, 0.95):
            for q in (0.1, 0.5, 1.0, 2.0, 5.0):
                samples = overlap_integrand(eps, q + math.sqrt(q) * z)
                mc = float(np.mean(samples))
                se = float(np.std(samples) / math.sqrt(samples.size))
                assert abs(channel_overlap(eps, q) - mc) < 3.0 * se


def soft_eps(seed, atoms=2000):
    """Random confidences in [-1, 1] with the exact cases -1, 0 and 1 mixed in."""
    rng = np.random.default_rng(seed)
    eps = rng.uniform(-1.0, 1.0, atoms)
    eps[rng.choice(atoms, 30, replace=False)] = np.repeat([-1.0, 0.0, 1.0], 10)
    return eps


class TestChannelOverlapBatched:
    """An array of eps gives, entry by entry, the bits of the scalar call."""

    @pytest.mark.parametrize("q", [0.0, 1e-9, 0.37, 2.0, 40.0])
    @pytest.mark.parametrize("overlap", [channel_overlap, channel_overlap_approx])
    def test_array_equals_scalar_calls(self, overlap, q):
        eps = soft_eps(11)
        assert overlap(eps, q).tolist() == [overlap(e, q) for e in eps]

    def test_each_entry_is_one_dot_with_the_weights(self):
        # Reference: the per-eps loop, one plain 1-d weights @ integrand
        # product each, with |eps| = 1 returned as exactly 1.
        eps = soft_eps(12, atoms=300)
        for q in (0.05, 0.37, 0.7, 3.0, 40.0):
            th = np.tanh(q + math.sqrt(q) * DEFAULT_RULE.nodes)
            expected = [
                1.0 if e * e == 1.0 else float(DEFAULT_RULE.weights @ _psi_from_tanh(e * e, th))
                for e in eps
            ]
            assert channel_overlap(eps, q).tolist() == expected

    def test_scalar_in_float_out_and_shape_kept(self):
        for eps in (0.3, np.float64(0.3), np.array(0.3), 1, -1.0):
            for q in (0.0, 0.8):
                assert type(channel_overlap(eps, q)) is float
                assert type(channel_overlap_approx(eps, q)) is float
        grid = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        for q in (0.0, 0.8):
            assert channel_overlap(grid, q).shape == (3, 4)
            assert channel_overlap([0.1, 0.2], q).shape == (2,)
            assert channel_overlap(np.empty(0), q).shape == (0,)

    @pytest.mark.parametrize("bad", [[0.2, 1.5], [0.2, float("nan")], [-1.01]])
    def test_rejects_any_bad_entry(self, bad):
        with pytest.raises(ValueError):
            channel_overlap(np.array(bad), 1.0)


class TestQuadraturePlan:
    """The plan reads eps**2 in {0, 1} without a table row and tabulates each
    other distinct eps**2 once, with the bits of the per-eps reference."""

    def test_zero_confidence_integrands_are_tanh(self):
        # The plan's level 0 is the rule average of tanh itself.
        th = np.tanh(np.random.default_rng(13).normal(0.5, 3.0, 1_000_000))
        assert not np.any((th == 0.0) & np.signbit(th))
        assert _psi_from_tanh(0.0, th).tobytes() == th.tobytes()
        assert _psi_tilde_from_tanh(0.0, th).tobytes() == th.tobytes()

    @pytest.mark.parametrize("q", [0.0, 1e-9, 0.37, 2.0, 40.0])
    @pytest.mark.parametrize(
        "overlap, integrand, reference",
        [
            (channel_overlap, _psi_ratio, _psi_from_tanh),
            (channel_overlap_approx, _psi_tilde_sum, _psi_tilde_from_tanh),
        ],
    )
    def test_equals_the_per_eps_dot_loop(self, overlap, integrand, reference, q):
        soft = np.random.default_rng(14).uniform(-1.0, 1.0, 50)
        eps = np.concatenate([[-1.0, 0.0, 1.0, -0.0], soft, -soft, soft[:10], [0.0, -1.0]])
        th = np.tanh(q + math.sqrt(q) * DEFAULT_RULE.nodes)
        expected = []
        for e in eps:
            e2 = e * e
            if e2 == 1.0 or q == 0.0:
                expected.append(e2)
            else:
                expected.append(max(float(DEFAULT_RULE.weights @ reference(e2, th)), e2))
        plan = _QuadraturePlan(eps)
        assert plan(integrand, q).tolist() == expected
        assert overlap(plan, q).tolist() == expected
        assert overlap(eps, q).tolist() == expected

    @pytest.mark.parametrize("eps", [0.3, -1.0, np.array([[0.5, -0.5], [0.0, 1.0]]), np.array([])])
    def test_plan_in_place_of_eps(self, eps):
        plan = _QuadraturePlan(eps)
        for overlap in (channel_overlap, channel_overlap_approx):
            for q in (0.0, 0.8):
                via_plan, direct = overlap(plan, q), overlap(eps, q)
                assert type(via_plan) is type(direct)
                assert np.shape(via_plan) == np.shape(direct)
                assert np.asarray(via_plan).tobytes() == np.asarray(direct).tobytes()

    def test_threads_share_one_mixture(self):
        eps = soft_eps(15, atoms=400)
        mix = EpsilonMixture(atoms=tuple((float(e), 1.0 / eps.size) for e in eps))
        q_grid = np.linspace(0.0, 6.0, 240).tolist()

        def evaluate(q):
            return qv_from_qu(mix, q), channel_overlap(mix._label_plan, q).tobytes()

        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(evaluate, q_grid))
        assert threaded == [evaluate(q) for q in q_grid]


class TestEpsValidation:
    """The one-pass range check keeps the messages of the two checks behind it."""

    @pytest.mark.parametrize(
        "bad, message",
        [
            (float("nan"), "eps must be finite"),
            (float("inf"), "eps must be finite"),
            (-float("inf"), "eps must be finite"),
            (1.0000000000000002, "eps must lie in [-1, 1]"),
            (-1.5, "eps must lie in [-1, 1]"),
        ],
    )
    @pytest.mark.parametrize("shape", ["scalar", "array"])
    @pytest.mark.parametrize("checked", [channel_overlap, posterior_mean])
    def test_bad_eps_keeps_its_message(self, checked, shape, bad, message):
        eps = bad if shape == "scalar" else np.array([0.0, -1.0, bad, 1.0])
        with pytest.raises(ValueError, match=re.escape(message)):
            checked(eps, 0.7)

    def test_non_finite_reported_before_out_of_range(self):
        with pytest.raises(ValueError, match="eps must be finite"):
            channel_overlap(np.array([2.0, float("nan")]), 0.7)


class TestChannelOverlapApprox:
    def test_matches_exact_at_zero_confidence(self):
        for q in (0.1, 1.0, 7.0):
            assert channel_overlap_approx(0.0, q) == channel_overlap(0.0, q)

    def test_certain_prior_is_one(self):
        assert channel_overlap_approx(1.0, 3.0) == 1.0

    def test_affine_identity_in_squared_confidence(self):
        for eps in (0.2, 0.6, 0.9):
            for q in (0.3, 1.0, 4.0):
                expected = eps * eps + (1.0 - eps * eps) * channel_overlap(0.0, q)
                assert abs(channel_overlap_approx(eps, q) - expected) < 1e-10

    def test_named_point(self):
        expected = 0.36 + 0.64 * channel_overlap(0.0, 1.0)
        assert abs(channel_overlap_approx(0.6, 1.0) - expected) < 1e-10


class TestApproxErrorSurface:
    def test_bound_and_exact_zero_rows(self):
        eps = np.linspace(0.0, 1.0, 26)
        q = np.linspace(0.1, 10.0, 34)
        surface = approx_error_grid(eps, q)
        assert surface.shape == (26, 34)
        assert float(surface.max()) <= 0.08
        assert np.all(surface[0] == 0.0)
        assert np.all(surface[-1] == 0.0)

    def test_error_shrinks_for_large_snr(self):
        eps = np.linspace(0.0, 1.0, 26)
        q = np.linspace(0.1, 10.0, 100)
        surface = approx_error_grid(eps, q)
        col_max = surface.max(axis=0)
        peak = int(np.argmax(col_max))
        assert peak < col_max.size - 1
        assert np.all(np.diff(col_max[peak:]) <= 1e-12)
        assert col_max[-1] < 1e-3

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            approx_error_grid([0.5], [0.0, 1.0])
