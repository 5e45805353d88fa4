"""Property tests of the channel overlap on the batched (array of eps) path,
and of the overlap system's label map built on it.

Hypothesis draws whole arrays of confidences and SNRs; the examples are
derandomized, so every run checks the same cases.  The rule's weights sum
to one and its odd moments vanish only to rounding; the overlap is clamped
at eps**2, so the lower bound holds exactly, but the rest of the order and
the surrogate identity carry a 1e-14 slack.  The symmetry carries none.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uncertain_ssl.kernel import channel_overlap, channel_overlap_approx  # noqa: E402
from uncertain_ssl.overlaps import EpsilonMixture, qv_from_qu  # noqa: E402

SLACK = 1e-14

eps_arrays = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40).map(np.array)
snrs = st.floats(0.0, 1e3)
examples = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@examples
@given(eps_arrays, snrs)
def test_overlap_between_squared_confidence_and_one(eps, q):
    values = channel_overlap(eps, q)
    assert np.all(values >= eps * eps)
    assert np.all(values <= 1.0 + SLACK)


@examples
@given(eps_arrays, snrs, snrs)
def test_overlap_nondecreasing_in_snr(eps, q1, q2):
    low, high = sorted((q1, q2))
    assert np.all(channel_overlap(eps, high) >= channel_overlap(eps, low) - SLACK)


@examples
@given(eps_arrays, snrs)
def test_overlap_even_in_confidence(eps, q):
    assert channel_overlap(-eps, q).tolist() == channel_overlap(eps, q).tolist()


@examples
@given(eps_arrays, snrs)
def test_surrogate_affine_in_squared_confidence(eps, q):
    e2 = eps * eps
    expected = e2 + (1.0 - e2) * channel_overlap(0.0, q)
    assert np.all(np.abs(channel_overlap_approx(eps, q) - expected) <= SLACK)


# A mixture: a few drawn confidences, the exact -1, 0 and 1 among them, and a
# seeded block of soft ones, enough to fill several tabulated blocks.
mixtures = st.builds(
    lambda exact, soft, seed: np.concatenate(
        [exact, np.random.default_rng(seed).uniform(-1.0, 1.0, soft)]
    ),
    st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]) | st.floats(-1.0, 1.0), max_size=12),
    st.integers(0, 900),
    st.integers(0, 2**32 - 1),
).filter(len)


@pytest.mark.blas_threads
@examples
@given(mixtures, snrs)
def test_label_map_is_the_atom_order_sum(eps, q):
    w = np.random.default_rng(eps.size).random(eps.size)
    mix = EpsilonMixture(atoms=tuple(zip(eps.tolist(), (w / w.sum()).tolist())))
    eps_array, weights = mix._arrays
    assert qv_from_qu(mix, q) == float(sum((weights * channel_overlap(eps_array, q)).tolist()))
