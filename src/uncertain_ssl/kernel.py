"""Scalar kernel for uncertain-label classification theory.

Everything in this module is a pure function of floats (or arrays, where
broadcasting is natural).  The building blocks:

- ``gaussian_tail``      upper tail Q(x) of the standard normal, from the
                         standard library's ``math.erfc`` (within 1e-14
                         relative of ``scipy.special.erfc`` on [-8.5, 8.5]),
- ``posterior_mean``     MMSE estimate of a ±1 signal with prior mean eps
                         observed through a Gaussian channel, by the one
                         fixed-prior form ``_posterior_mean_at`` that the
                         classifier also calls,
- ``overlap_integrand``  the scalar function whose Gaussian average gives the
                         signal/estimate alignment of that channel,
- ``channel_overlap``    that alignment F_eps(q) as a function of the channel
                         SNR q, computed by the fixed 61-node Gauss-Hermite
                         rule ``DEFAULT_RULE`` for one eps or a whole array
                         of eps at once,
- ``channel_overlap_approx`` the simplified surrogate that keeps only the
                         eps**2 dependence, eps**2 + (1 - eps**2) F_0(q),
                         exact at eps in {0, ±1},
- ``approx_error_grid``  the surrogate's relative error |F - F~| / F on an
                         (eps, q) grid.

``channel_overlap`` runs through one quadrature plan per eps array
(``_QuadraturePlan``): it checks eps and finds the distinct eps**2 levels
once.  An evaluation gives each level its value and nothing more: eps**2 = 1
is 1, eps**2 = 0 is one dot product of tanh with the weights, and every
other level is tabulated once, in blocks of rows small enough to stay in
cache.  ``channel_overlap`` accepts a plan in place of its eps array, so the
overlap system's label map keeps one plan per mixture and passes it at
every q.  ``approx_error_grid`` keeps its own reduction, with no clamp: each
eps row is one (q x node) table reduced by one matrix-vector product with
the weights.  It builds and reduces those rows in blocks of the same
``_TABLE_BLOCK_CELLS`` cells, at least one row each, so every cell keeps
the bits of one whole (eps x q x node) table, while beside the result each
temporary is the size of one block or of the (q x node) tanh table,
whatever the number of eps.

Inputs.  The package's type and range rules are written once each, here;
every public function applies them to its numeric inputs before any work,
raising ``ValueError`` with the parameter's name.
``_check_real`` takes a Python or numpy real within the float range or a
0-d real array and ``_check_reals`` a rectangular array of reals; a bool, a
bool entry of a list, a ragged list, str, bytes, None or other object is
rejected, never converted.
The range rules build on them: ``_check_nonneg`` (finite, >= 0),
``_check_positive`` (finite, > 0), ``_check_unit`` ([0, 1] or (0, 1]) and
``_check_eps`` (every entry in [-1, 1]).  ``_check_count`` takes an integer
that is not a bool, at least 1 and within the float range, and
``_check_seed`` passes a seed on as given unless it is or holds a bool.

Conventions.  A sample's label confidence couple (d1, d2), d1 + d2 = 1, is
summarised by eps = d2 - d1 in [-1, 1]: class 1 maps to y = -1, class 2 to
y = +1, so eps is the prior mean of y.  eps = 0 means unlabeled, |eps| = 1
certainty.  All overlap-type quantities depend on eps only through eps**2.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys

import numpy as np

__all__ = [
    "DEFAULT_RULE",
    "gaussian_tail",
    "posterior_mean",
    "overlap_integrand",
    "overlap_integrand_series",
    "overlap_integrand_approx",
    "channel_overlap",
    "channel_overlap_approx",
    "approx_error_grid",
]

_SQRT2 = math.sqrt(2.0)


def _holds_bool(values) -> bool:
    """Whether ``values`` is a bool, has a bool dtype, or is a list or tuple
    with a bool entry, which ``np.asarray`` would read as a number among
    numbers.  An ndarray is read by its dtype alone."""
    if isinstance(values, (bool, np.bool_)) or getattr(values, "dtype", None) == np.bool_:
        return True
    return isinstance(values, (list, tuple)) and any(
        isinstance(x, (bool, np.bool_)) for x in np.asarray(values, dtype=object).flat
    )


def _real_array(values, name: str) -> np.ndarray:
    """``values`` as an array of an integer or floating dtype, bools and
    ragged nesting rejected."""
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged nesting, which numpy cannot shape
        raise ValueError(f"{name} must be a real number or a rectangular array of them") from None
    if a.dtype.kind == "b" or (a.ndim and _holds_bool(values)):
        raise ValueError(f"{name} must be a number, not a bool")
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a real number, got {values!r}")
    return a


def _check_reals(values, name: str, finite: bool = True) -> np.ndarray:
    """``values`` as a float array without nan, and without ±inf when ``finite``."""
    a = _real_array(values, name).astype(float, copy=False)
    if not (np.isfinite(a) if finite else ~np.isnan(a)).all():
        raise ValueError(f"{name} must be finite" if finite else f"{name} must not be nan")
    return a


def _check_real(value, name: str) -> float:
    """``value`` as a float: a Python or numpy real, or a 0-d real array."""
    if type(value) is float:  # the solver's and the kernel's hot path
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # a Python int past the float range
            raise ValueError(f"{name} must lie within the float range") from None
    a = _check_reals(value, name, finite=False)
    if a.ndim != 0:
        raise ValueError(f"{name} must be a scalar, got shape {a.shape}")
    return float(a)


def _check_nonneg(value, name: str) -> float:
    x = _check_real(value, name)
    if not 0.0 <= x < math.inf:  # nan fails it too
        raise ValueError(f"{name} must be finite and nonnegative")
    return x


def _check_positive(value, name: str) -> float:
    x = _check_real(value, name)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be finite and positive")
    return x


def _check_unit(value, name: str, low_open: bool = False) -> float:
    """``value`` in the unit interval [0, 1], or in (0, 1] when ``low_open``."""
    x = _check_real(value, name)
    if not ((0.0 < x) if low_open else (0.0 <= x)) or not x <= 1.0:
        raise ValueError(f"{name} must lie in {'(' if low_open else '['}0, 1]")
    return x


def _check_eps(eps) -> np.ndarray:
    e = _real_array(eps, "eps")
    if (np.abs(e) <= 1.0).all():  # one pass; nan fails it too
        return e.astype(float, copy=False)
    _check_reals(e, "eps")  # a non-finite entry
    raise ValueError("eps must lie in [-1, 1]")


def _check_count(value, name: str) -> int:
    """``value`` as an int of at least 1: Python and numpy integers pass, while
    a bool or a float is rejected rather than truncated, and so is an int past
    the float range, which every count meets in float arithmetic."""
    if _holds_bool(value):
        raise ValueError(f"{name} must be an integer, not a bool")
    try:
        i = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if i < 1:
        raise ValueError(f"{name} must be at least 1")
    if i > sys.float_info.max:
        raise ValueError(f"{name} must lie within the float range")
    return i


def _check_seed(seed):
    """``seed`` for ``numpy.random.default_rng``, as given, except that a
    bool, or a bool entry of a sequence, which it would read as 0 or 1, is
    rejected."""
    if _holds_bool(seed):
        raise ValueError("seed must be an integer or a sequence of integers, not a bool")
    return seed


# The 61-node Gauss-Hermite rule for the standard normal measure, from z = 0
# outwards: the physicists' nodes x_j of ``numpy.polynomial.hermite.hermgauss(61)``
# map to z_j = sqrt(2) x_j, and its weights, divided by sqrt(pi), are
# normalised to sum to 1.  The rule is symmetric bit for bit, so the half is
# stored, as ``float.hex`` strings, which are exact; a test recomputes them.
_HALF_NODES = (  # z_j >= 0
    "0x0.0p+0", "0x1.9a40e7381f29dp-2", "0x1.9a6339246d85ep-1",
    "0x1.33f576bb66bebp+0", "0x1.9aed6299ff3cbp+0", "0x1.0115b75a9f9e3p+1",
    "0x1.34e1249140756p+1", "0x1.68e2b78e4ff3dp+1", "0x1.9d24b12aa523ap+1",
    "0x1.d1b1f2e7228dbp+1", "0x1.034b111f7e410p+2", "0x1.1deee9295d7f7p+2",
    "0x1.38cb5ae84ffdep+2", "0x1.53e7edcf7d6a3p+2", "0x1.6f4cfcd875abcp+2",
    "0x1.8b03e55c2b706p+2", "0x1.a71742a791648p+2", "0x1.c3933b08202efp+2",
    "0x1.e085e5438dfa7p+2", "0x1.fdffd0f1e11a5p+2", "0x1.0e0a60f97234cp+3",
    "0x1.1d6e5c7fada5bp+3", "0x1.2d3aba552fdcap+3", "0x1.3d825b3813519p+3",
    "0x1.4e5deba88ade4p+3", "0x1.5feedfc7ddb4cp+3", "0x1.7264c9b0185f5p+3",
    "0x1.8607d760f57b0p+3", "0x1.9b506611ff573p+3", "0x1.b328373f63b44p+3",
    "0x1.cff3fd66179d6p+3",
)
_HALF_WEIGHTS = (
    "0x1.474ca2ee6014dp-3", "0x1.2e28231eb3883p-3", "0x1.db5f448fa7a1bp-4",
    "0x1.3e6eb7a571ddbp-4", "0x1.6ae6229cb6702p-5", "0x1.5f48d06bf0050p-6",
    "0x1.2042a65acdf3bp-7", "0x1.900fb562799b3p-9", "0x1.d41e0819e569ap-11",
    "0x1.cc2af35a330edp-13", "0x1.7a6c4393c84b6p-15", "0x1.030dcfb899c5ep-17",
    "0x1.258c706e6fcfbp-20", "0x1.11773fb9cfd10p-23", "0x1.9f9fad5724646p-27",
    "0x1.fe9d75f7e261dp-31", "0x1.f5ba37e4bad33p-35", "0x1.8567a6248f6bdp-39",
    "0x1.d672e560bc0f4p-44", "0x1.b2a1d24691ed3p-49", "0x1.2c9c96cada38ap-54",
    "0x1.2f5598f2102c3p-60", "0x1.b0605bfb86b7ep-67", "0x1.a1dbd8a3d37a6p-74",
    "0x1.0397c3ef0c259p-81", "0x1.81fc175082a77p-90", "0x1.366fcf9b74eddp-99",
    "0x1.d07cba23fdff1p-110", "0x1.f8d107b117714p-122", "0x1.f2c09433e0a8dp-136",
    "0x1.11ebdbdfbfc0cp-153",
)


class _HermiteRule:
    """Gauss-Hermite rule for the standard normal measure, mirrored from
    the stored half; both arrays are read-only."""

    def __init__(self, half_nodes, half_weights):
        half_z = np.array([float.fromhex(h) for h in half_nodes])
        half_w = np.array([float.fromhex(h) for h in half_weights])
        self.nodes = np.concatenate((-half_z[:0:-1], half_z))
        self.weights = np.concatenate((half_w[:0:-1], half_w))
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    def __len__(self) -> int:
        return self.nodes.size


# 61 nodes resolve the bounded smooth integrands used here far below every
# tolerance in this package.
DEFAULT_RULE = _HermiteRule(_HALF_NODES, _HALF_WEIGHTS)


def _tail(x: float) -> float:
    return 0.5 * math.erfc(x / _SQRT2)


_tail_array = np.vectorize(_tail, otypes=[float])


def gaussian_tail(x):
    """Upper tail Q(x) = P(Z > x) of the standard normal.

    Q(x) = erfc(x / sqrt 2) / 2 with the standard library's ``math.erfc``,
    which agrees with ``scipy.special.erfc`` within 1e-14 relative on
    [-8.5, 8.5] and, unlike ``scipy.special``, adds nothing to the start-up
    of a command.  Strictly decreasing, with Q(x) + Q(-x) = 1.  A scalar gives
    a float; an array gives an array of the same shape, each entry equal to
    the scalar call.  Non-finite values are rejected.
    """
    arr = _check_reals(x, "x")
    return _tail(float(arr)) if arr.ndim == 0 else _tail_array(arr)


def posterior_mean(eps, t):
    """Posterior mean of a ±1 signal with prior mean eps at channel output t.

        f_eps(t) = (tanh t + eps) / (1 + eps tanh t)

    Monotone nondecreasing in t, valued in [-1, 1], with the odd symmetry
    f_eps(-t) = -f_{-eps}(t).  The degenerate priors eps = ±1 pin the
    estimate at ±1 for every t (returned exactly, bypassing the 0/0 ratio at
    saturated tanh).  eps and t broadcast against each other.
    """
    out = _posterior_mean_at(_check_eps(eps))(_check_reals(t, "t", finite=False))
    return float(out) if out.ndim == 0 else out


def _posterior_ratio(e, th):
    """The posterior-mean ratio at tanh(t) = th; 0/0 at saturated tanh for eps = ±1."""
    return (th + e) / (1.0 + e * th)


def _posterior_mean_at(e: np.ndarray):
    """The posterior mean at a checked eps array, as a function of a t array
    that broadcasts against it; the one copy of the denoiser.

    The pinned priors eps = ±1 are located once, on ``e`` as given, and one
    masked copy of ``e`` broadcasts them into the result.  Without them the
    denominator 1 + eps tanh t stays positive, so the ratio needs neither the
    error state nor the pinning.
    """
    pins = np.abs(e) == 1.0
    if not pins.any():
        return lambda t: _posterior_ratio(e, np.tanh(t))

    def pinned(t):
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.asarray(_posterior_ratio(e, np.tanh(t)))
        np.copyto(out, e, where=pins)
        return out

    return pinned


def _psi_ratio(e2, th):
    """Overlap integrand at eps**2 < 1, where 1 - eps**2 tanh**2 >= 1 - eps**2 > 0."""
    return (th + e2 * (1.0 - th - th * th)) / (1.0 - e2 * th * th)


def _psi_from_tanh(e2, th):
    """Overlap integrand as a function of eps**2 and tanh(t), broadcasting."""
    with np.errstate(invalid="ignore", divide="ignore"):
        out = _psi_ratio(e2, th)
    return np.where(e2 == 1.0, 1.0, out)


def _psi_tilde_from_tanh(e2, th):
    """Simplified integrand tanh t + eps**2 (1 - tanh t), broadcasting."""
    return np.where(e2 == 1.0, 1.0, th + e2 * (1.0 - th))


def overlap_integrand(eps, t):
    """Integrand whose Gaussian average gives the channel overlap.

        psi_eps(t) = [tanh t + eps^2 (1 - tanh t - tanh^2 t)] / [1 - eps^2 tanh^2 t]

    Depends on eps only through eps**2; psi_eps(0) = eps**2, psi_0 = tanh and
    psi_{±1} ≡ 1 (the |eps| = 1, |tanh t| -> 1 limit is taken exactly).  For
    the confidence couple (d1, d2) = ((1-eps)/2, (1+eps)/2) it equals the
    signal-weighted average d2 f_eps(t) - d1 f_eps(-t) of the posterior mean.
    """
    e = _check_eps(eps)
    th = np.tanh(_check_reals(t, "t", finite=False))
    out = _psi_from_tanh(e * e, th)
    return float(out) if out.ndim == 0 else out


def overlap_integrand_series(eps, t, k_max: int):
    """Partial sum of the series form of the overlap integrand.

        tanh t + eps^2 (1 - tanh t)
            - (1 - eps^2)(1 - tanh t) * sum_{k=1}^{k_max} (eps tanh t)^{2k}

    Requires |eps| < 1 (use ``overlap_integrand`` for the degenerate priors);
    converges to the closed form as k_max grows since (eps tanh t)^2 < 1.
    """
    e = _check_eps(eps)
    if np.any(np.abs(e) == 1.0):
        raise ValueError("series form requires |eps| < 1")
    k = _check_count(k_max, "k_max")
    th = np.tanh(_check_reals(t, "t", finite=False))
    r = (e * th) ** 2
    partial = r * (1.0 - r**k) / (1.0 - r)
    out = th + e * e * (1.0 - th) - (1.0 - e * e) * (1.0 - th) * partial
    return float(out) if np.ndim(out) == 0 else out


def overlap_integrand_approx(eps, t):
    """Simplified integrand tanh t + eps^2 (1 - tanh t).

    Coincides with ``overlap_integrand`` at eps in {0, ±1} and drops the
    higher-order series terms elsewhere, isolating the role of eps**2.
    """
    e = _check_eps(eps)
    th = np.tanh(_check_reals(t, "t", finite=False))
    out = _psi_tilde_from_tanh(e * e, th)
    return float(out) if out.ndim == 0 else out


# Tabulated rows are built and reduced this many (level, node) cells at a
# time, so that an evaluation's temporaries stay cache-sized and are reused
# from the allocator whatever the number of levels.  2**14 float64 cells are
# 128 KB; on the 2 000-atom mixture this block ran fastest of 2**11 to 2**15,
# and one unblocked table ran at half its speed.
_TABLE_BLOCK_CELLS = 1 << 14


class _QuadraturePlan:
    """An eps array reduced, once, to its distinct eps**2 levels.

    ``channel_overlap`` accepts a plan in place of its eps array and returns
    the same bits without re-checking eps or re-finding its levels, so a
    caller that evaluates one eps array at many q (the overlap system's
    label map) builds its plan once.  ``size`` is that of the eps array, and
    ``index``, of its shape, holds each entry's level.  The arrays are
    read-only and an evaluation writes only fresh ones, so threads may share
    a plan.
    """

    __slots__ = ("size", "index", "_levels", "_blocks", "_zero", "_one")

    def __init__(self, eps):
        e = _check_eps(eps)
        levels, index = np.unique((e * e).ravel(), return_inverse=True)
        levels.flags.writeable = False
        index.flags.writeable = False
        self.size = e.size
        self._levels, self.index = levels, index.reshape(e.shape)
        # Levels 0 and 1 need no table row; every level between gets one,
        # in blocks of at most _TABLE_BLOCK_CELLS cells.
        self._zero = bool(levels.size > 0 and levels[0] == 0.0)
        self._one = bool(levels.size > 0 and levels[-1] == 1.0)
        # Each block pairs its slice of the levels with a (rows, 1, 1) view
        # of them, the shape that makes the integrand a stack of row vectors.
        start, stop = int(self._zero), levels.size - int(self._one)
        step = max(1, _TABLE_BLOCK_CELLS // len(DEFAULT_RULE))
        blocks = (slice(i, min(i + step, stop)) for i in range(start, stop, step))
        self._blocks = tuple((block, levels[block, None, None]) for block in blocks)

    def __call__(self, q: float) -> np.ndarray:
        """Rule average of the overlap integrand at tanh(q + sqrt(q) Z) per
        distinct eps**2 level, in ascending level order, at a checked q.

        The levels below 1 use ``_psi_ratio``, whose denominator stays
        positive there.  Level 1 gives 1.  Level 0 gives the rule average of
        tanh itself, one dot product with the weights, which the integrand
        equals there bit for bit ((th + 0 x) / 1 is th unless th is -0, and
        tanh is never -0 at q > 0).  The levels between are tabulated and
        reduced in blocks of rows, each row by its own dot product with the
        weights, so a level's value does not depend on the other levels.
        q = 0 gives eps**2 exactly.  The rule's odd moments vanish only to
        rounding, so just above q = 0 the average can land below eps**2; it
        is clamped there from below.
        """
        levels = self._levels
        if q == 0.0:
            return levels
        weights = DEFAULT_RULE.weights
        th = DEFAULT_RULE.nodes * math.sqrt(q)  # tanh(q + sqrt(q) z), in place
        th += q
        np.tanh(th, out=th)
        values = np.empty(levels.size)
        if self._zero:
            tanh_mean = float(th.dot(weights))
            values[0] = tanh_mean if tanh_mean >= 0.0 else 0.0
        if self._one:
            values[-1] = 1.0
        for block, e2 in self._blocks:
            out = values[block, None, None]
            np.matmul(_psi_ratio(e2, th), weights[:, None], out=out)
            np.maximum(out, e2, out=out)
        return values


def channel_overlap(eps, q):
    """Alignment F_eps(q) = E[S * E[S|U]] of the Gaussian channel U = sqrt(q) S + Z.

    S is ±1 with prior mean eps.  Equals eps**2 at q = 0, is nondecreasing in
    q, saturates toward 1, and is identically 1 for the certain priors
    |eps| = 1 (returned exactly).  The average over Z uses ``DEFAULT_RULE``.
    A scalar eps gives a float; an array of eps gives an array of the same
    shape, each entry equal to the scalar call at that eps.  A
    ``_QuadraturePlan`` of an eps array in place of ``eps`` gives the bits of
    the call on that array.
    """
    plan = eps if isinstance(eps, _QuadraturePlan) else _QuadraturePlan(eps)
    out = plan(_check_nonneg(q, "q"))[plan.index]
    return float(out) if out.ndim == 0 else out


def channel_overlap_approx(eps, q):
    """Simplified channel overlap, the Gaussian average of
    ``overlap_integrand_approx``: eps**2 + (1 - eps**2) * channel_overlap(0, q).

    Computed by that formula from one ``channel_overlap(0.0, q)`` call, so it
    is exactly 1 at |eps| = 1 and eps**2 at q = 0, and exact at eps = 0.  A
    scalar eps gives a float; an array of eps gives an array of the same
    shape, each entry equal to the scalar call at that eps.
    """
    e = _check_eps(eps)
    e2 = e * e
    out = e2 + (1.0 - e2) * channel_overlap(0.0, q)
    return float(out) if out.ndim == 0 else out


def approx_error_grid(eps_values, q_values) -> np.ndarray:
    """Relative error |F_eps - F~_eps| / F_eps on an (eps, q) grid.

    Returns an array of shape (len(eps_values), len(q_values)); a scalar
    counts as one entry, and an array of more than one dimension is
    rejected.  Rows at eps in {0, ±1} are exactly zero (the surrogate is
    exact there); all q must be positive so the denominator cannot vanish.

    Both overlaps are rule averages of their integrands at
    tanh(q + sqrt(q) z), with no clamp: each eps row is one (Q, 61) table
    reduced by one matrix-vector product with the weights, so a cell does
    not depend on the other eps.  The rows are built and reduced in blocks
    of at most ``_TABLE_BLOCK_CELLS`` cells, and at least one row, so beside
    the (E, Q) result each temporary is the size of one block or of the
    (Q, 61) tanh table, whatever the number of eps.  The split keeps every
    cell's bits.  The q axis is never split: the per-row bits of a
    matrix-vector product may depend on how BLAS groups the rows.
    """
    e = np.atleast_1d(_check_eps(eps_values))
    q = np.atleast_1d(_check_reals(q_values, "q_values"))
    for name, a in (("eps_values", e), ("q_values", q)):
        if a.ndim > 1:
            raise ValueError(f"{name} must be a scalar or a 1-D array, got shape {a.shape}")
    if np.any(q <= 0.0):
        raise ValueError("q_values must be positive")
    weights = DEFAULT_RULE.weights
    th = np.tanh(q[:, None] + np.sqrt(q)[:, None] * DEFAULT_RULE.nodes[None, :])  # (Q, N)
    e2 = (e * e)[:, None, None]  # (E, 1, 1)
    out = np.empty((e.size, q.size))
    step = max(1, _TABLE_BLOCK_CELLS // max(th.size, 1))  # th is empty when q is
    for i in range(0, e.size, step):
        block = e2[i : i + step]
        big = _psi_from_tanh(block, th) @ weights  # (rows, Q)
        small = _psi_tilde_from_tanh(block, th) @ weights
        out[i : i + step] = np.abs(big - small) / big
    return out
