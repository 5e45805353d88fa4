"""Property test of the CLI's one dispatch path.

Per command, Hypothesis starts from a tiny runnable config and replaces the
values of one or two of the command's config keys, or one item of an array
value, by a drawn bad value: a wrong JSON kind, a non-finite, negative or
zero number, or a value past the command's caps.  Whatever it draws, ``main``
returns an exit code of the contract, raises nothing and, when it fails,
leaves no output file.  The Monte Carlo draws are wrapped to fail past the
replicate cap, so an over-cap value that reaches a draw fails the test
instead of allocating.  The examples are derandomized, so every run checks
the same cases.
"""

import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uncertain_ssl import cli, simulate  # noqa: E402

# A runnable config per command, small enough to finish in milliseconds.
TINY = {
    "solve": {"lambda": 2.0, "c": 1.0, "eta": 0.2},
    "approx-error": {"eps_step": 0.5, "q_step": 4.95},
    "usefulness": {"points": 5},
    "labeled-needed": {
        "n": 40,
        "p": 10,
        "etas": [0.5],
        "theory_points": 2,
        "empirical_points": 1,
        "reps": 1,
        "t_max": 5,
    },
    "reduction": {"p": 10, "lambdas": [1.0, 2.0], "cs": [1.0], "reps": 1, "t_max": 5},
    "simulate": {"n": 20, "p": 10, "reps": 1, "t_max": 5},
    "channel-check": {"eps_values": [0.5], "q_values": [1.0], "trials": 100},
}

# Keys with no cap, where a huge value only buys run time: `t_max` bounds
# passes, and the fresh-replicate commands draw one replicate at a time.
UNCAPPED = {"t_max", "simulate.reps", "reduction.reps"}

BAD = [True, "1", None, [], {}, 1.5, float("nan"), float("inf"), -float("inf"), -1, -0.5, 0, 0.0]
HUGE = [10**9, 10**15, 1e300]

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NONCONVERGENCE, cli.EXIT_INFEASIBLE}


def bad_values(command: str, key: str, value):
    """A bad value in place of ``value``: a whole one, or one item replaced."""
    pool = BAD + ([] if {key, f"{command}.{key}"} & UNCAPPED else HUGE)
    whole = st.sampled_from(pool)
    if not isinstance(value, list) or not value:
        return whole
    item = st.integers(0, len(value) - 1).flatmap(
        lambda i: bad_values(command, key, value[i]).map(
            lambda bad: value[:i] + [bad] + value[i + 1 :]
        )
    )
    return st.one_of(whole, item)


@st.composite
def configs(draw, command: str):
    cfg = {**cli._COMMANDS[command].defaults, **TINY[command]}
    keys = draw(st.lists(st.sampled_from(sorted(cfg)), min_size=1, max_size=2, unique=True))
    for key in keys:
        cfg[key] = draw(bad_values(command, key, cfg[key]))
    return cfg


def capped(draw, cells):
    """``draw`` that fails the test when asked for more than the replicate cap."""

    def call(*args, **kwargs):
        assert cells(*args) <= cli.MAX_REPLICATE_CELLS, "drew past the replicate cap"
        return draw(*args, **kwargs)

    return call


@pytest.mark.parametrize("command", sorted(TINY))
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_config_exits_by_the_contract(command, data):
    cfg = data.draw(configs(command))
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as patch:
        patch.chdir(work)
        patch.setattr(simulate, "_base_draw", capped(simulate._base_draw, lambda p, n, *_: p * n))
        patch.setattr(
            cli,
            "channel_overlap_mc_stats",
            capped(cli.channel_overlap_mc_stats, lambda eps, q, trials, *_: trials),
        )
        with open("cfg.json", "w") as handle:
            json.dump(cfg, handle)
        code = cli.main([command, "--config", "cfg.json", "--out", os.path.join("out", "t")])
        assert code in EXIT_CODES
        if code != cli.EXIT_OK:
            assert os.listdir(work) == ["cfg.json"]
