"""Scalar kernel for uncertain-label classification theory.

Everything in this module is a pure function of floats (or arrays, where
broadcasting is natural).  The building blocks:

- ``gaussian_tail``      upper tail Q(x) of the standard normal, from the
                         standard library's ``math.erfc`` (within 1e-14
                         relative of ``scipy.special.erfc`` on [-8.5, 8.5]),
- ``posterior_mean``     MMSE estimate of a ±1 signal with prior mean eps
                         observed through a Gaussian channel,
- ``overlap_integrand``  the scalar function whose Gaussian average gives the
                         signal/estimate alignment of that channel,
- ``channel_overlap``    that alignment F_eps(q) as a function of the channel
                         SNR q, computed by the fixed 61-node Gauss-Hermite
                         rule ``DEFAULT_RULE`` for one eps or a whole array
                         of eps at once,
- ``channel_overlap_approx`` the simplified surrogate that keeps only the
                         eps**2 dependence, exact at eps in {0, ±1}.

Both overlaps run through one quadrature plan per eps array
(``_QuadraturePlan``): it checks eps and finds the distinct eps**2 levels
once, reads eps**2 in {0, 1} without a table row and tabulates every other
level once.  Either overlap accepts a plan in place of its eps array, so the
overlap system's label map keeps one plan per mixture and passes it at
every q.

Inputs.  The package's type and range rules are written once each, here;
every public function applies them to its numeric inputs before any work,
raising ``ValueError`` with the parameter's name.
``_check_real`` takes a Python or numpy real within the float range or a
0-d real array and ``_check_reals`` an array of reals; a bool, a bool entry
of a list, str, bytes, None or other object is rejected, never converted.
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
    """``values`` as an array of an integer or floating dtype, bools rejected."""
    a = np.asarray(values)
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


class _HermiteRule:
    """Gauss-Hermite rule rescaled to the standard normal measure: the
    physicists' nodes x_j map to z_j = sqrt(2) x_j and the weights are
    normalised to a probability measure.  Both arrays are read-only."""

    def __init__(self, n: int):
        x, w = np.polynomial.hermite.hermgauss(n)
        weights = w / math.sqrt(math.pi)
        self.nodes = _SQRT2 * x
        self.weights = weights / weights.sum()
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    def __len__(self) -> int:
        return self.nodes.size


# 61 nodes resolve the bounded smooth integrands used here far below every
# tolerance in this package.
DEFAULT_RULE = _HermiteRule(61)


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
    saturated tanh).
    """
    return _posterior_mean(_check_eps(eps), _check_reals(t, "t", finite=False))


def _posterior_ratio(e, th):
    """The posterior-mean ratio at tanh(t) = th; 0/0 at saturated tanh for eps = ±1."""
    return (th + e) / (1.0 + e * th)


def _posterior_mean(e, t):
    """``posterior_mean`` for an eps already checked to lie in [-1, 1]."""
    th = np.tanh(t)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = _posterior_ratio(e, th)
    out = np.where(e == 1.0, 1.0, out)
    out = np.where(e == -1.0, -1.0, out)
    return float(out) if out.ndim == 0 else out


def _posterior_mean_at(e: np.ndarray):
    """``_posterior_mean`` at a fixed checked 1-D eps array, as a function of
    a t array of the same shape, equal to it bit for bit.

    The pinned priors eps = ±1 are located once.  Without them the
    denominator 1 + eps tanh t stays positive, so the ratio needs neither the
    error state nor the pinning.
    """
    plus = np.flatnonzero(e == 1.0)
    minus = np.flatnonzero(e == -1.0)
    if plus.size == 0 and minus.size == 0:
        return lambda t: _posterior_ratio(e, np.tanh(t))

    def pinned(t):
        with np.errstate(invalid="ignore", divide="ignore"):
            out = _posterior_ratio(e, np.tanh(t))
        out[plus] = 1.0
        out[minus] = -1.0
        return out

    return pinned


def _psi_ratio(e2, th):
    """Overlap integrand at eps**2 < 1, where 1 - eps**2 tanh**2 >= 1 - eps**2 > 0."""
    return (th + e2 * (1.0 - th - th * th)) / (1.0 - e2 * th * th)


def _psi_tilde_sum(e2, th):
    """Simplified integrand at eps**2 < 1."""
    return th + e2 * (1.0 - th)


def _psi_from_tanh(e2, th):
    """Overlap integrand as a function of eps**2 and tanh(t), broadcasting."""
    with np.errstate(invalid="ignore", divide="ignore"):
        out = _psi_ratio(e2, th)
    return np.where(e2 == 1.0, 1.0, out)


def _psi_tilde_from_tanh(e2, th):
    """Simplified integrand tanh t + eps**2 (1 - tanh t), broadcasting."""
    return np.where(e2 == 1.0, 1.0, _psi_tilde_sum(e2, th))


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


class _QuadraturePlan:
    """An eps array reduced, once, to its distinct eps**2 levels.

    ``channel_overlap`` and ``channel_overlap_approx`` accept a plan in place
    of its eps array and return the same bits without re-checking eps or
    re-finding its levels, so a caller that evaluates one eps array at many
    q (the overlap system's label map) builds its plan once.  ``shape`` and
    ``size`` are those of the eps array.  The arrays are read-only and an
    evaluation writes only fresh ones, so threads may share a plan.
    """

    __slots__ = ("shape", "size", "_levels", "_index", "_rows", "_zero")

    def __init__(self, eps):
        e = _check_eps(eps)
        levels, index = np.unique((e * e).ravel(), return_inverse=True)
        levels.flags.writeable = False
        index.flags.writeable = False
        self.shape, self.size = e.shape, e.size
        self._levels, self._index = levels, index
        # Levels 0 and 1 need no table row; every level between gets one.
        self._zero = bool(levels.size > 0 and levels[0] == 0.0)
        self._rows = slice(int(self._zero), levels.size - int(levels.size > 0 and levels[-1] == 1.0))

    def __call__(self, integrand, q: float) -> np.ndarray:
        """Rule average of ``integrand(eps**2, tanh(q + sqrt(q) Z))`` per
        entry, at a checked q, in the eps array's shape.

        ``integrand`` is an eps**2 < 1 form (``_psi_ratio`` or
        ``_psi_tilde_sum``), whose denominators stay positive.  Level 1 gives
        1.  Level 0 gives the rule average of tanh itself, which both
        integrands equal there bit for bit (th + 0 x and th / 1 are th unless
        th is -0, and tanh is never -0 at q > 0).  Each level between reads
        its own row of one (levels x nodes) table.  Every row, like the tanh
        average, is reduced by its own dot product with the weights, so an
        entry does not depend on the other entries.  q = 0 gives eps**2
        exactly.  The rule's odd moments vanish only to rounding, so just
        above q = 0 the average can land below eps**2; it is clamped there
        from below.
        """
        levels, rows = self._levels, self._rows
        if q == 0.0:
            values = levels
        else:
            th = np.tanh(q + math.sqrt(q) * DEFAULT_RULE.nodes)
            values = levels.copy()
            if self._zero:
                values[0] = np.matmul(th[None, None, :], DEFAULT_RULE.weights[:, None])[0, 0, 0]
            if rows.stop > rows.start:
                psi = integrand(levels[rows, None], th)
                values[rows] = np.matmul(psi[:, None, :], DEFAULT_RULE.weights[:, None])[:, 0, 0]
            values = np.maximum(values, levels)
        return values[self._index].reshape(self.shape)


def _quadrature(integrand, eps, q):
    """``integrand``'s rule average at every eps, through ``eps`` itself when
    it is a ``_QuadraturePlan`` and through a plan built here otherwise."""
    plan = eps if isinstance(eps, _QuadraturePlan) else _QuadraturePlan(eps)
    out = plan(integrand, _check_nonneg(q, "q"))
    return float(out) if out.ndim == 0 else out


def channel_overlap(eps, q):
    """Alignment F_eps(q) = E[S * E[S|U]] of the Gaussian channel U = sqrt(q) S + Z.

    S is ±1 with prior mean eps.  Equals eps**2 at q = 0, is nondecreasing in
    q, saturates toward 1, and is identically 1 for the certain priors
    |eps| = 1 (returned exactly).  The average over Z uses ``DEFAULT_RULE``.
    A scalar eps gives a float; an array of eps gives an array of the same
    shape, each entry equal to the scalar call at that eps.
    """
    return _quadrature(_psi_ratio, eps, q)


def channel_overlap_approx(eps, q):
    """Simplified channel overlap, the quadrature of ``overlap_integrand_approx``.

    Satisfies exactly eps**2 + (1 - eps**2) * channel_overlap(0, q); shares
    the q = 0 and |eps| = 1 values with ``channel_overlap``, and broadcasts
    over an array of eps the same way.
    """
    return _quadrature(_psi_tilde_sum, eps, q)


def approx_error_grid(eps_values, q_values) -> np.ndarray:
    """Relative error |F_eps - F~_eps| / F_eps on an (eps, q) grid.

    Returns an array of shape (len(eps_values), len(q_values)).  Rows at
    eps in {0, 1} are exactly zero (the surrogate is exact there); all q must
    be positive so the denominator cannot vanish.
    """
    e = np.atleast_1d(_check_eps(eps_values))
    q = np.atleast_1d(_check_reals(q_values, "q_values"))
    if np.any(q <= 0.0):
        raise ValueError("q_values must be positive")
    th = np.tanh(q[:, None] + np.sqrt(q)[:, None] * DEFAULT_RULE.nodes[None, :])  # (Q, N)
    e2 = (e * e)[:, None, None]  # (E, 1, 1)
    big = _psi_from_tanh(e2, th[None, :, :]) @ DEFAULT_RULE.weights  # (E, Q)
    small = _psi_tilde_from_tanh(e2, th[None, :, :]) @ DEFAULT_RULE.weights  # (E, Q)
    return np.abs(big - small) / big
