"""The three workloads: the CLI commands one pass runs and the inputs they read.

Every pass regenerates figure tables the way a user does, one
``python -m uncertain_ssl.cli`` process at a time.  The workload seed reaches
the program only through generated config files and ``--seed`` values.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("theory", "montecarlo", "search")

# At this workload seed every Monte Carlo command runs at its CLI default seed,
# so the outputs can be compared with the stored reference tables.
DEFAULT_SEED = 0

# The soft mixture: this many seed-drawn reliabilities, each reported once as
# +eps and once as -eps, as a noisy labeler's output looks (2 000 atoms).
MIXTURE_RELIABILITIES = 1000

# CLI default seeds of the Monte Carlo commands.
CLI_SEEDS = {"simulate": 1234, "reduction": 20240, "channel-check": 99}


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass.

    ``argv`` follows ``python -m uncertain_ssl.cli``; ``outputs`` are the
    ``.dat`` files it writes into the pass directory.  ``seeded`` marks a
    command whose inputs depend on the workload seed: its tables equal the
    reference only at the default seed, and are held to bounds elsewhere.
    """

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    seeded: bool = False


def soft_mixture(seed: int) -> list[list[float]]:
    """Atoms ``[eps, weight]`` of the seed-drawn 2 000-atom soft mixture."""
    rng = random.Random(f"mixture/{seed}")
    weight = 1.0 / (2 * MIXTURE_RELIABILITIES)
    atoms = []
    for _ in range(MIXTURE_RELIABILITIES):
        kappa = rng.uniform(0.5, 1.0)
        eps = 2.0 * kappa - 1.0
        atoms += [[eps, weight], [-eps, weight]]
    return atoms


def program_seed(seed: int, command: str) -> int:
    """The ``--seed`` a Monte Carlo command receives at this workload seed."""
    if seed == DEFAULT_SEED:
        return CLI_SEEDS[command]
    digest = hashlib.sha256(f"{seed}/{command}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _write_config(inputs: Path, name: str, payload: dict) -> str:
    path = inputs / f"{name}.json"
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def build(workload: str, seed: int, inputs: Path) -> list[Command]:
    """Write the workload's config files into ``inputs`` and return its pass."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "theory":
        # solve has no runnable default: every point needs a config.
        points = {
            "solve_regular": {"lambda": 2.0, "c": 1.0, "eta": 0.2},
            # lam^2 c = 1, eta = 0: the known slow path, which runs the
            # solver to its default iteration cap (10 000).
            "solve_critical": {"lambda": 1.0, "c": 1.0, "eta": 0.0},
            "solve_near_critical": {"lambda": 1.0, "c": 1.0, "eta": 1e-6},
            "solve_mixture": {"lambda": 2.0, "c": 1.0, "mixture": soft_mixture(seed)},
        }
        commands = [
            Command(
                name,
                ("solve", "--config", _write_config(inputs, name, cfg), "--out", f"{name}.dat"),
                (f"{name}.dat",),
                seeded=name == "solve_mixture",
            )
            for name, cfg in points.items()
        ]
        return commands + [
            Command("approx-error", ("approx-error", "--out", "approx_error.dat"), ("approx_error.dat",)),
            Command("usefulness", ("usefulness", "--out", "usefulness.dat"), ("usefulness.dat",)),
        ]
    if workload == "montecarlo":
        outputs = {
            "simulate": "simulate.dat",
            "reduction": "reduction_lambda.dat",
            "channel-check": "channel_check.dat",
        }
        return [
            Command(
                name,
                (name, "--seed", str(program_seed(seed, name)), "--out", out),
                (out,),
                seeded=True,
            )
            for name, out in outputs.items()
        ]
    if workload == "search":
        # Defaults (n 1000, p 200, lam 0.25, reps 10, t_max 40, seed 777) with
        # the eta list cut to 0.02 to size the pass.  The program seed stays at
        # the CLI default for every workload seed: at eta = 0.02 the search is
        # noise-driven and exits 4 at other seeds (see perfbench/README.md).
        cfg = _write_config(inputs, "labeled_needed", {"etas": [0.02]})
        return [
            Command(
                "labeled-needed",
                ("labeled-needed", "--config", cfg, "--out", "labeled_needed"),
                ("labeled_needed_th.dat", "labeled_needed_emp.dat"),
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")
