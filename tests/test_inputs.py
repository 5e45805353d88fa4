"""Every public callable rejects a non-number where it takes a number.

One table row per numeric parameter of the public API: the callable, a
valid call, the parameter's place in it and the name its error carries.
Each bad value below is put in that place, alone, and the call must raise
``ValueError`` naming the parameter before any work starts: the solver, a
quadrature, a draw and a classifier pass are each replaced by a stub that
raises ``WorkStarted``.  The valid call itself must get past every check,
so a bad value is what each rejection is due to.  A completeness check
walks ``uncertain_ssl.__all__``: every parameter of every public callable
has a row or a reason in ``NOT_NUMERIC``, or the callable is one of
``NO_CHECKED_INPUT``.
"""

import inspect
import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

import uncertain_ssl
from uncertain_ssl import EpsilonMixture, ProblemParams, generate_dataset
from uncertain_ssl import kernel, overlaps, simulate

# A bool entry of a list counts as a bool: numpy would read it as 1.0.
BOOLS = [True, False, np.bool_(True), np.array(True), np.array(False), [0.5, True]]
# 10**400 is an int past the float range, where float() overflows.
HUGE = 10**400
OTHERS = ["1", b"1", None, math.nan, math.inf, HUGE]


class WorkStarted(Exception):
    """Raised by the stubs in place of the package's work."""


def _started(*args, **kwargs):
    raise WorkStarted


def forbid_work(monkeypatch) -> None:
    monkeypatch.setattr(overlaps, "_solve_from", _started)
    monkeypatch.setattr(kernel._QuadraturePlan, "__call__", _started)
    monkeypatch.setattr(simulate, "_base_draw", _started)
    monkeypatch.setattr(simulate, "_posterior_mean_at", _started)
    monkeypatch.setattr(np.random, "default_rng", _started)


def _mixture():
    return EpsilonMixture.certainty(0.2)


def _dataset():
    return generate_dataset(4, 20, 1.0, [(0.3, 0.9)], seed=1)


class Row(NamedTuple):
    name: str  # dotted name under uncertain_ssl
    args: Callable[[], dict]  # a valid call's keyword arguments
    path: tuple  # the parameter's place: its keyword, then list indices
    message: str  # the name the error starts with
    accepts: tuple  # bad values that lie in the parameter's domain


def rows(name, args, *params, accepts=()):
    """One row per parameter: its keyword, or a (path, message name) pair."""
    out = []
    for param in params:
        path, message = param if isinstance(param, tuple) else ((param,), param)
        out.append(Row(name, args, path, message, accepts))
    return out


def _kw(**kwargs):
    return lambda: kwargs


def _solve_args():
    return dict(params=ProblemParams(1.0, 1.0, _mixture()), tol=1e-10, max_iter=100)


# t = ±inf is in t's domain: the posterior mean and the integrands have
# limits there.
T_ACCEPTS = (math.inf,)
EPS_T = _kw(eps=0.3, t=0.5)

ROWS = [
    *rows("gaussian_tail", _kw(x=0.5), "x"),
    *rows("posterior_mean", EPS_T, "eps"),
    *rows("posterior_mean", EPS_T, "t", accepts=T_ACCEPTS),
    *rows("overlap_integrand", EPS_T, "eps"),
    *rows("overlap_integrand", EPS_T, "t", accepts=T_ACCEPTS),
    *rows("overlap_integrand_series", _kw(eps=0.3, t=0.5, k_max=3), "eps", "k_max"),
    *rows("overlap_integrand_series", _kw(eps=0.3, t=0.5, k_max=3), "t", accepts=T_ACCEPTS),
    *rows("overlap_integrand_approx", EPS_T, "eps"),
    *rows("overlap_integrand_approx", EPS_T, "t", accepts=T_ACCEPTS),
    *rows("channel_overlap", _kw(eps=0.3, q=0.7), "eps", "q"),
    *rows("channel_overlap_approx", _kw(eps=0.3, q=0.7), "eps", "q"),
    *rows(
        "approx_error_grid",
        _kw(eps_values=[0.3], q_values=[0.7]),
        (("eps_values",), "eps"),
        "q_values",
    ),
    *rows(
        "EpsilonMixture",
        _kw(atoms=((0.5, 1.0),)),
        (("atoms", 0, 0), "eps"),
        (("atoms", 0, 1), "atom weight"),
    ),
    *rows("EpsilonMixture.certainty", _kw(eta=0.2), "eta"),
    *rows("EpsilonMixture.from_samples", _kw(eps_values=[0.5, 0.0]), (("eps_values",), "eps")),
    *rows("ProblemParams", lambda: dict(lam=1.0, c=1.0, mixture=_mixture()), "lam", "c"),
    *rows("qu_from_qv", _kw(lam=1.0, c=1.0, q_v=0.5), "lam", "c", "q_v"),
    # q_u reaches the kernel's check of the channel SNR, which calls it q
    *rows("qv_from_qu", lambda: dict(mixture=_mixture(), q_u=0.5), (("q_u",), "q")),
    *rows("solve_overlaps", _solve_args, "tol", "max_iter"),
    *rows(
        "solve_certainty",
        _kw(lam=1.0, c=1.0, eta=0.2, tol=1e-10, max_iter=100),
        "lam", "c", "eta", "tol", "max_iter",
    ),
    *rows("solve_approx", _solve_args, "tol", "max_iter"),
    *rows(
        "sensitivity_ratio", _kw(lam=1.0, c=1.0, q_v=0.5, delta=0.01), "lam", "c", "q_v", "delta"
    ),
    *rows("bayes_risk", _kw(q_u=0.5), "q_u"),
    *rows("oracle_risk", _kw(lam=1.0), "lam"),
    *rows("usefulness", _kw(q_u=0.5), "q_u"),
    *rows("absolute_reduction", _kw(e_sup=0.3, e_semi=0.2), "e_sup", "e_semi"),
    *rows(
        "oracle_relative_reduction",
        _kw(e_sup=0.3, e_semi=0.2, e_oracle=0.1),
        "e_sup", "e_semi", "e_oracle",
    ),
    *rows("labeled_needed", _kw(eta=0.2, kappa=0.9, n=100), "eta", "kappa", "n"),
    *rows("supervised_risk_theory", _kw(lam=1.0, c=1.0, eta=0.2), "lam", "c", "eta"),
    *rows(
        "generate_dataset",
        _kw(p=4, n=10, lam=1.0, labeling=[(0.2, 0.9)], seed=1),
        "p", "n", "lam",
        (("labeling", 0, 0), "labeling fraction"),
        (("labeling", 0, 1), "kappa"),
    ),
    *rows(
        "channel_overlap_mc_stats", _kw(eps=0.3, q=0.7, trials=10, seed=1), "eps", "q", "trials"
    ),
    *rows(
        "classify_semisupervised",
        lambda: dict(ds=_dataset(), lam=1.0, t_max=5, stop_tol=1e-6),
        "lam", "t_max", "stop_tol",
    ),
    *rows(
        "labeled_needed_empirical",
        _kw(p=10, n=40, lam=1.0, eta=0.2, kappas=[0.9], seed=3, reps=2, t_max=5),
        "p", "n", "lam", "eta",
        (("kappas", 0), "kappa"),
        "reps", "t_max",
    ),
]

# Parameters that take no number themselves.
NOT_NUMERIC = {
    "params": "a ProblemParams, whose lam and c have rows",
    "mixture": "an EpsilonMixture, whose atoms have rows",
    "ds": "a Dataset the library drew",
    "seed": "a numpy seed: an int, a sequence of ints, or None for fresh entropy; "
    "its bool rule is tested in test_simulate",
}

# Callables that check no input: exceptions, and records the library returns.
NO_CHECKED_INPUT = {
    "ConvergenceError",
    "InfeasibilityError",
    "SimulationError",
    "OverlapSolution",
    "ClassifierOutput",
    "Dataset",
}


def _resolve(name: str):
    obj = uncertain_ssl
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj


def _put(container, path: tuple, value):
    """``container`` with the entry at ``path`` replaced, tuples rebuilt."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(container, dict):
        return {**container, head: _put(container[head], rest, value)}
    items = list(container)
    items[head] = _put(items[head], rest, value)
    return type(container)(items)


def _call(name: str, args: dict) -> None:
    """Call ``name``; reaching the stubbed work counts as passing every check."""
    try:
        _resolve(name)(**args)
    except WorkStarted:
        pass


def _ids(r: Row) -> str:
    return f"{r.name}-{'.'.join(map(str, r.path))}"


@pytest.mark.parametrize("r", ROWS, ids=_ids)
def test_valid_call_gets_past_every_check(monkeypatch, r):
    args = r.args()
    forbid_work(monkeypatch)
    _call(r.name, args)


def _bad_id(bad) -> str:
    return "10**400" if bad is HUGE else repr(bad)


@pytest.mark.parametrize("bad", BOOLS + OTHERS, ids=_bad_id)
@pytest.mark.parametrize("r", ROWS, ids=_ids)
def test_bad_value_rejected_before_any_work(monkeypatch, r, bad):
    args = _put(r.args(), r.path, bad)
    forbid_work(monkeypatch)
    if any(bad is ok for ok in r.accepts):
        _call(r.name, args)
        return
    with pytest.raises(ValueError) as info:
        _resolve(r.name)(**args)
    message = str(info.value)
    assert re.match(rf"{re.escape(r.message)} must ", message), message
    if any(bad is b for b in BOOLS):
        assert message.endswith("not a bool"), message


def _public_callables():
    """Dotted name -> callable: every callable in ``__all__`` and every public
    classmethod of an exported class."""
    found = {}
    for name in uncertain_ssl.__all__:
        obj = getattr(uncertain_ssl, name)
        if not callable(obj):
            continue
        found[name] = obj
        if inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if isinstance(raw, classmethod) and not attr.startswith("_"):
                    found[f"{name}.{attr}"] = getattr(obj, attr)
    return found


def test_every_numeric_parameter_has_a_row():
    covered = {(r.name, r.path[0]) for r in ROWS}
    missing = []
    for name, obj in _public_callables().items():
        if name.split(".")[0] in NO_CHECKED_INPUT:
            continue
        for param in inspect.signature(obj).parameters:
            if (name, param) not in covered and param not in NOT_NUMERIC:
                missing.append(f"{name}({param})")
    assert missing == []


def test_rows_name_public_callables_and_parameters():
    public = _public_callables()
    for r in ROWS:
        assert r.path[0] in inspect.signature(public[r.name]).parameters, r


def test_numpy_reals_and_0d_arrays_accepted():
    plain = overlaps.qu_from_qv(1.5, 2.0, 0.4)
    assert overlaps.qu_from_qv(np.float32(1.5), np.int64(2), np.array(0.4)) == plain
    assert overlaps.qu_from_qv(np.array(1.5), 2, np.float64(0.4)) == plain
