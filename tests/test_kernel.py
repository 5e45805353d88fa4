"""Scalar kernel checks: special-function values against independent oracles,
algebraic identities, quadrature fidelity against Monte Carlo, and the
relative-error budget of the simplified channel overlap."""

import math
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate, special

import uncertain_ssl.kernel as kernel_module
from uncertain_ssl.kernel import (
    DEFAULT_RULE,
    _psi_from_tanh,
    _psi_tilde_from_tanh,
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


# t at and past tanh's saturation, where the ratio is 0/0 at eps = ±1.
SATURATED = np.array([40.0, -40.0, np.inf, -np.inf, 0.0, 3.0, -0.5, 19.0])
# The classifier's calibrated scores, with the saturated values first.
CLASSIFIER_T = np.concatenate([SATURATED, np.random.default_rng(3).normal(0.0, 15.0, 192)])


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
        "eps, t",
        [
            (0.5, 40.0),
            (-1.0, np.inf),
            (np.array(1.0), np.array(-40.0)),
            (0.3, SATURATED),
            (-1.0, SATURATED),
            (np.array([[0.3], [1.0], [-1.0]]), SATURATED[None, :4]),
            (np.tile([1.0, -1.0], 4)[:, None], SATURATED[None, :]),
            (np.tile([0.0, 0.3, -0.7, 0.99], 50), CLASSIFIER_T),
            (np.tile([1.0, 0.0, -1.0, 0.5], 50), CLASSIFIER_T),
            (np.tile([1.0, -1.0], 100), CLASSIFIER_T),
        ],
        ids=[
            "0-d",
            "0-d-pinned",
            "0-d-arrays",
            "scalar-eps",
            "scalar-pinned-eps",
            "3x1-by-1x4",
            "all-pinned-broadcast",
            "unpinned",
            "pinned",
            "all-pinned",
        ],
    )
    def test_equals_the_scalar_ratio_with_exact_pins(self, eps, t):
        # saturated tanh included: 0/0 at eps = ±1 must give ±1 and no warning
        th = np.tanh(t)
        e_b, th_b = np.broadcast_arrays(np.asarray(eps, dtype=float), th)
        expected = np.array([
            1.0 if e == 1.0 else -1.0 if e == -1.0 else (h + e) / (1.0 + e * h)
            for e, h in zip(e_b.ravel().tolist(), th_b.ravel().tolist())
        ])
        with np.errstate(all="raise"):
            out = posterior_mean(eps, t)
        if e_b.ndim == 0:
            assert type(out) is float
        assert np.shape(out) == e_b.shape
        assert np.asarray(out).tobytes() == expected.tobytes()


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
    def test_literals_are_the_rescaled_hermgauss_rule(self):
        # physicists' nodes times sqrt(2); weights over sqrt(pi), normalised
        x, w = np.polynomial.hermite.hermgauss(61)
        weights = w / math.sqrt(math.pi)
        assert DEFAULT_RULE.nodes.tobytes() == (math.sqrt(2.0) * x).tobytes()
        assert DEFAULT_RULE.weights.tobytes() == (weights / weights.sum()).tobytes()

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


# Rows per tabulated block.
BLOCK = kernel_module._TABLE_BLOCK_CELLS // len(DEFAULT_RULE)


class TestQuadraturePlan:
    """The plan reads eps**2 in {0, 1} without a table row and tabulates each
    other distinct eps**2 once, with the bits of the per-eps reference."""

    def test_zero_confidence_integrands_are_tanh(self):
        # The plan's level 0 is the rule average of tanh itself.
        th = np.tanh(np.random.default_rng(13).normal(0.5, 3.0, 1_000_000))
        assert not np.any((th == 0.0) & np.signbit(th))
        assert _psi_from_tanh(0.0, th).tobytes() == th.tobytes()
        assert _psi_tilde_from_tanh(0.0, th).tobytes() == th.tobytes()

    @staticmethod
    def per_eps_dot_loop(eps, q):
        """The reference: one plain 1-d weights @ integrand product per eps,
        clamped at eps**2, with eps**2 returned as is at q = 0 and |eps| = 1."""
        th = np.tanh(q + math.sqrt(q) * DEFAULT_RULE.nodes)
        expected = []
        for e in eps:
            e2 = e * e
            if e2 == 1.0 or q == 0.0:
                expected.append(e2)
            else:
                expected.append(max(float(DEFAULT_RULE.weights @ _psi_from_tanh(e2, th)), e2))
        return expected

    @pytest.mark.parametrize("q", [0.0, 1e-9, 0.37, 2.0, 40.0])
    def test_equals_the_per_eps_dot_loop(self, q):
        soft = np.random.default_rng(14).uniform(-1.0, 1.0, 50)
        eps = np.concatenate([[-1.0, 0.0, 1.0, -0.0], soft, -soft, soft[:10], [0.0, -1.0]])
        expected = self.per_eps_dot_loop(eps, q)
        plan = _QuadraturePlan(eps)
        assert plan(q)[plan.index].tolist() == expected
        assert channel_overlap(plan, q).tolist() == expected
        assert channel_overlap(eps, q).tolist() == expected

    @pytest.mark.parametrize("q", [0.0, 1e-9, 0.37, 40.0])
    @pytest.mark.parametrize("tabulated", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_every_block_split_keeps_the_bits(self, q, tabulated):
        # Level counts on each side of the block size, with and without the
        # untabulated levels 0 and 1, and with levels shared by +eps and -eps.
        soft = np.linspace(0.05, 0.95, tabulated)
        for ends in ([], [0.0, -1.0], [1.0, -0.0, 0.0]):
            eps = np.concatenate([soft, ends, -soft[::3]])
            plan = _QuadraturePlan(eps)
            values = plan(q)
            assert values.size == tabulated + len({e * e for e in ends})
            expected = self.per_eps_dot_loop(eps, q)
            assert values[plan.index].tolist() == expected
            assert channel_overlap(plan, q).tolist() == expected

    @pytest.mark.parametrize("eps", [0.3, -1.0, np.array([[0.5, -0.5], [0.0, 1.0]]), np.array([])])
    def test_plan_in_place_of_eps(self, eps):
        plan = _QuadraturePlan(eps)
        for q in (0.0, 0.8):
            via_plan, direct = channel_overlap(plan, q), channel_overlap(eps, q)
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

    @pytest.mark.parametrize("q", [0.0, 1e-9, 0.37, 40.0])
    def test_is_the_affine_formula_bit_for_bit(self, q):
        f0 = channel_overlap(0.0, q)
        for eps in (0.0, -0.0, 0.2, -0.6, 0.9, 1.0, -1.0):
            assert channel_overlap_approx(eps, q) == eps * eps + (1.0 - eps * eps) * f0
        eps = soft_eps(16)
        e2 = eps * eps
        assert channel_overlap_approx(eps, q).tobytes() == (e2 + (1.0 - e2) * f0).tobytes()

    def test_exactly_one_when_certain_and_squared_confidence_at_zero_snr(self):
        for q in (0.0, 1e-9, 0.37, 40.0):
            assert channel_overlap_approx(1.0, q) == 1.0
            assert channel_overlap_approx(-1.0, q) == 1.0
        for eps in (0.0, 0.3, -0.7, 0.99):
            assert channel_overlap_approx(eps, 0.0) == eps * eps
        grid = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        assert channel_overlap_approx(grid, 0.0).tobytes() == (grid * grid).tobytes()

    @pytest.mark.parametrize("q", [0.0, 1e-9, 0.37, 2.0, 40.0])
    def test_is_the_per_eps_quadrature_of_its_integrand(self, q):
        # The formula is the Gaussian average of overlap_integrand_approx up
        # to rounding: within 2 ulp of 1 of one dot product per eps, clamped
        # at eps**2 as the exact overlap is.
        soft = np.random.default_rng(14).uniform(-1.0, 1.0, 50)
        eps = np.concatenate([[-1.0, 0.0, 1.0, -0.0], soft, -soft, soft[:10], [0.0, -1.0]])
        th = np.tanh(q + math.sqrt(q) * DEFAULT_RULE.nodes)
        expected = []
        for e in eps.tolist():
            e2 = e * e
            if e2 == 1.0 or q == 0.0:
                expected.append(e2)
            else:
                expected.append(max(float(DEFAULT_RULE.weights @ _psi_tilde_from_tanh(e2, th)), e2))
        out = channel_overlap_approx(eps, q)
        assert out.shape == eps.shape
        assert np.max(np.abs(out - np.array(expected))) <= 2.0 * np.finfo(float).eps

    @pytest.mark.parametrize("eps", [0.3, -1.0, np.array([[0.5, -0.5], [0.0, 1.0]]), np.array([])])
    def test_takes_eps_not_a_plan(self, eps):
        # Shaped as the exact overlap at the same eps; a plan is not an eps.
        for q in (0.0, 0.8):
            approx, exact = channel_overlap_approx(eps, q), channel_overlap(eps, q)
            assert type(approx) is type(exact)
            assert np.shape(approx) == np.shape(exact)
        with pytest.raises(ValueError, match="eps must be a real number"):
            channel_overlap_approx(_QuadraturePlan(eps), 0.8)


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

    @pytest.mark.parametrize("eps_values", [np.zeros((2, 61)), np.zeros((1, 1))])
    def test_rejects_eps_of_more_than_one_dimension(self, eps_values):
        # A 2-D eps with 61 columns would broadcast against the node table.
        with pytest.raises(ValueError, match=r"^eps_values must be a scalar or a 1-D array"):
            approx_error_grid(eps_values, [0.5, 1.0])

    @pytest.mark.parametrize("q_values", [np.ones((2, 61)), np.ones((3, 1))])
    def test_rejects_q_of_more_than_one_dimension(self, q_values):
        with pytest.raises(ValueError, match=r"^q_values must be a scalar or a 1-D array"):
            approx_error_grid([0.5], q_values)

    def test_scalars_and_0d_arrays_are_one_entry(self):
        row = approx_error_grid([0.4], [1.5])
        for eps in (0.4, np.float64(0.4), np.array(0.4)):
            for q in (1.5, np.array(1.5)):
                assert approx_error_grid(eps, q).tobytes() == row.tobytes()
                assert approx_error_grid(eps, q).shape == (1, 1)

    @staticmethod
    def one_table(eps, q):
        """The reference: both integrands as whole (E, Q, 61) tables, each
        reduced by one ``@ weights``."""
        th = np.tanh(q[:, None] + np.sqrt(q)[:, None] * DEFAULT_RULE.nodes[None, :])
        e2 = (eps * eps)[:, None, None]
        big = _psi_from_tanh(e2, th[None, :, :]) @ DEFAULT_RULE.weights
        small = _psi_tilde_from_tanh(e2, th[None, :, :]) @ DEFAULT_RULE.weights
        return np.abs(big - small) / big

    @pytest.mark.parametrize("q_count", [1, 100])
    def test_every_block_split_keeps_the_bits(self, q_count):
        # Row counts on each side of the block's row count at this q count,
        # with eps at 0, ±1 and between.
        q = np.linspace(0.05, 12.0, q_count)
        block = max(1, kernel_module._TABLE_BLOCK_CELLS // (q_count * len(DEFAULT_RULE)))
        soft = np.random.default_rng(23).uniform(-1.0, 1.0, 2 * block + 1)
        eps = np.concatenate([[0.0, 1.0, -1.0, -0.0], soft])
        for rows in {1, max(1, block - 1), block, block + 1, 2 * block + 1}:
            for e in (eps[:rows], eps[::-1][:rows]):
                surface = approx_error_grid(e, q)
                assert surface.shape == (rows, q_count)
                assert np.array_equal(surface, self.one_table(e, q))
        surface = approx_error_grid(eps, q)
        assert np.array_equal(surface, self.one_table(eps, q))
        assert np.all(surface[:4] == 0.0)
        # An empty axis keeps the one table's shape: (0, Q) and (E, 0).
        for e, qs in ((eps[:0], q), (eps, q[:0])):
            surface = approx_error_grid(e, qs)
            assert surface.shape == self.one_table(e, qs).shape == (e.size, qs.size)

    def test_memory_stays_bounded(self):
        # Each unblocked (401, 250, 61) table is 48.9 MB; the blocked grid
        # holds its (E, Q) result and no more than 4 MiB besides.
        eps = np.linspace(-1.0, 1.0, 401)
        q = np.linspace(0.05, 12.0, 250)
        tracemalloc.start()
        try:
            surface = approx_error_grid(eps, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert surface.shape == (401, 250)
        assert peak <= surface.nbytes + 4 * 2**20
