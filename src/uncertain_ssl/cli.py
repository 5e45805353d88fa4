"""Command-line front end emitting figure-ready whitespace tables.

Subcommands
-----------
solve           overlap fixed point + risk record for one parameter set
approx-error    relative-error surface of the simplified channel overlap
usefulness      unlabeled-data usefulness against the Bayes risk
labeled-needed  labeled-count requirement curves, theory and empirical
reduction       error-reduction sweeps over the SNR or the sample ratio
simulate        one synthetic campaign compared against the theory
channel-check   Monte Carlo channel alignment against quadrature, with z-scores

Every command reads an optional JSON config (``--config``) over its defaults
in ``_COMMANDS``, applies those of the flag overrides ``--seed/--reps/--tol``
that its config holds, and turns the config into whitespace-separated tables
with a single header row; ``main`` writes them (atomically, at the end) with
a manifest echoing the resolved parameters and library versions next to the
output.  Identical configuration and seed produce byte-identical files;
pure-theory commands never consume a seed.

Exit codes: 0 success, 2 validation failure, 3 solver non-convergence,
4 simulation infeasibility.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
from typing import Callable, NamedTuple

import numpy as np
import scipy

from . import __version__
from .kernel import _check_count, _check_unit, approx_error_grid, channel_overlap
from .overlaps import ConvergenceError, EpsilonMixture, solve_overlaps
from .risk import (
    InfeasibilityError,
    absolute_reduction,
    bayes_risk,
    labeled_needed,
    oracle_relative_reduction,
    oracle_risk,
    supervised_risk_theory,
    usefulness,
)
from .simulate import (
    SimulationError,
    channel_overlap_mc_stats,
    _check_kappa,
    _check_labeling,
    _fresh_replicate_errors,
    _intended_mixture,
    _thread_map,
    labeled_needed_empirical,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_INFEASIBLE = 4

# Largest table a grid-valued command may build, in cells; also the largest
# `reps`, whose per-replicate results are kept until they are averaged.
MAX_GRID_CELLS = 1_000_000

# Largest feature matrix a Monte Carlo command may draw, in cells (200 MB of
# float64): one replicate for `simulate` and `reduction`, all of them for
# `labeled-needed`, whose search workers together keep every replicate, each
# worker the ones it owns; also the length of each `channel-check` draw
# (`trials`).
MAX_REPLICATE_CELLS = 25_000_000


class CliError(Exception):
    """Configuration or usage problem; maps to exit code 2."""


def _fmt(value) -> str:
    if type(value) is float:  # most cells; %-formatting gives format()'s text, faster
        return "%.12g" % value
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("boolean table cells are not supported")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _table_text(header: list[str], rows, break_after: set[int] | None = None) -> str:
    lines = [" ".join(header)]
    for index, row in enumerate(rows):
        lines.append(" ".join(map(_fmt, row)))
        if break_after and index in break_after:
            lines.append("")
    return "\n".join(lines) + "\n"


def _side_by_side(x_name: str, y_name: str, curves) -> str:
    """Table of equal-length curves (xs, ys): every x column, then every y column."""
    header = [f"{x_name}{j + 1}" for j in range(len(curves))]
    header += [f"{y_name}{j + 1}" for j in range(len(curves))]
    rows = [
        [xs[i] for xs, _ in curves] + [ys[i] for _, ys in curves]
        for i in range(len(curves[0][0]))
    ]
    return _table_text(header, rows)


def _write_manifest(base_path: str, command: str, params: dict) -> None:
    manifest = {
        "command": command,
        "parameters": params,
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    # No indent: an indented dump runs the standard library's pure-Python
    # encoder, a plain one its C encoder.
    _write_text(base_path + ".manifest.json", json.dumps(manifest, sort_keys=True) + "\n")


# JSON kind of each type ``json.load`` returns; ``bool`` is a key of its own,
# so a boolean never passes for a number.
_JSON_KINDS = {
    bool: "boolean",
    int: "integer",
    float: "number",
    str: "string",
    list: "array",
    dict: "object",
    type(None): "null",
}


def _json_kind(value) -> str:
    return _JSON_KINDS[type(value)]


def _check_kind(name: str, value, default) -> None:
    """Reject a config value whose JSON kind differs from its default's.

    An integer may stand for a number, never the other way round, and a
    boolean is never a number; arrays are checked item by item against the
    default's first item.
    """
    want, got = _json_kind(default), _json_kind(value)
    if got != want and not (want == "number" and got == "integer"):
        raise CliError(f"config key {name!r}: expected {want}, got {got}")
    if got == "number" and not math.isfinite(value):
        raise CliError(f"config key {name!r} must be finite")
    if want == "array" and default:
        for index, item in enumerate(value):
            _check_kind(f"{name}[{index}]", item, default[0])


def _resolve_config(args, defaults: dict) -> dict:
    cfg = dict(defaults)
    if args.config is not None:
        try:
            with open(args.config) as handle:
                loaded = json.load(handle)
        except OSError as exc:
            raise CliError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise CliError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise CliError(f"unknown config keys: {unknown}")
        for key, value in loaded.items():
            # keys that default to null are checked where they are used
            if defaults[key] is not None:
                _check_kind(key, value, defaults[key])
        cfg.update(loaded)
    for flag in _FLAGS:
        value = getattr(args, flag, None)
        if value is not None:
            cfg[flag] = value
    if "reps" in cfg and not 1 <= cfg["reps"] <= MAX_GRID_CELLS:
        raise CliError(f"reps must lie in [1, {MAX_GRID_CELLS}]")
    return cfg


def _mixture_from_config(cfg: dict) -> EpsilonMixture:
    eta = cfg.get("eta")
    atoms = cfg.get("mixture")
    if (eta is None) == (atoms is None):
        raise CliError("specify exactly one of 'eta' or 'mixture'")
    if eta is not None:
        return EpsilonMixture.certainty(eta)
    if _json_kind(atoms) != "array":
        raise CliError("mixture must be an array of [eps, weight] number pairs")
    return EpsilonMixture(atoms=tuple(atoms))


def _grid_size(lo: float, hi: float, step: float) -> int:
    """Point count of the grid lo, lo + step, ..., hi, checked before it is built."""
    if step <= 0.0 or hi < lo:
        raise CliError("grid bounds must be increasing with a positive step")
    steps = (hi - lo) / step
    if not steps < MAX_GRID_CELLS:
        raise CliError(f"grid has more than {MAX_GRID_CELLS} points")
    return int(round(steps)) + 1


def _check_replicate_cells(cells: int, what: str) -> None:
    if cells > MAX_REPLICATE_CELLS:
        raise CliError(f"{what} has {cells} cells, more than {MAX_REPLICATE_CELLS}")


def cmd_solve(cfg: dict) -> dict[str, str]:
    mixture = _mixture_from_config(cfg)
    lam = float(cfg["lambda"])
    solution = solve_overlaps(
        lam, float(cfg["c"]), mixture, tol=float(cfg["tol"]), max_iter=int(cfg["max_iter"])
    )
    header = ["q_u", "q_v", "bayes_risk", "oracle_risk", "usefulness", "residual", "iterations"]
    row = [
        solution.q_u,
        solution.q_v,
        bayes_risk(solution.q_u),
        oracle_risk(lam),
        usefulness(solution.q_u),
        solution.residual,
        solution.iterations,
    ]
    return {"": _table_text(header, [row])}


def cmd_approx_error(cfg: dict) -> dict[str, str]:
    axes = [(cfg[f"{x}_min"], cfg[f"{x}_max"], cfg[f"{x}_step"]) for x in ("eps", "q")]
    counts = [_grid_size(*axis) for axis in axes]
    if counts[0] * counts[1] > MAX_GRID_CELLS:
        raise CliError(
            f"eps x q grid has {counts[0]} x {counts[1]} cells, "
            f"more than {MAX_GRID_CELLS}"
        )
    eps_grid, q_grid = (
        np.linspace(lo, hi, count) for (lo, hi, _), count in zip(axes, counts)
    )
    surface = approx_error_grid(eps_grid, q_grid)
    rows = []
    breaks = set()
    q_list = q_grid.tolist()
    for eps, errs in zip(eps_grid.tolist(), surface.tolist()):
        rows.extend([eps, q, err] for q, err in zip(q_list, errs))
        breaks.add(len(rows) - 1)
    return {"": _table_text(["eps", "q", "err"], rows, break_after=breaks)}


def cmd_usefulness(cfg: dict) -> dict[str, str]:
    points = int(cfg["points"])
    if not 2 <= points <= MAX_GRID_CELLS:
        raise CliError(f"points must lie in [2, {MAX_GRID_CELLS}]")
    q_lo, q_hi = float(cfg["q_min_positive"]), float(cfg["q_max"])
    if not 0.0 < q_lo < q_hi:
        raise CliError("need 0 < q_min_positive < q_max")
    q_grid = np.concatenate([[0.0], np.logspace(math.log10(q_lo), math.log10(q_hi), points - 1)])
    rows = [[bayes_risk(q), channel_overlap(0.0, q)] for q in q_grid]
    return {"": _table_text(["eps", "y"], rows)}


def cmd_labeled_needed(cfg: dict) -> dict[str, str]:
    n = int(cfg["n"])
    p = int(cfg["p"])
    lam = float(cfg["lambda"])
    etas = [float(e) for e in cfg["etas"]]
    if not etas or any(not 0.0 < e <= 1.0 for e in etas):
        raise CliError("etas must be a nonempty list of values in (0, 1]")
    theory_points = int(cfg["theory_points"])
    empirical_points = _check_count(cfg["empirical_points"], "empirical_points")
    if theory_points < 2:
        raise CliError("theory_points must be at least 2")
    for name, points in (("theory_points", theory_points), ("empirical_points", empirical_points)):
        if len(etas) * points > MAX_GRID_CELLS:
            raise CliError(
                f"etas x {name} grid has {len(etas)} x {points} cells, "
                f"more than {MAX_GRID_CELLS}"
            )
    seed = int(cfg["seed"])
    reps = int(cfg["reps"])
    t_max = int(cfg["t_max"])
    _check_replicate_cells(reps * p * n, "the replicate bank (reps x p x n)")

    theory_cols = []
    for eta in etas:
        k_lo = (1.0 + math.sqrt(eta)) / 2.0
        while (2.0 * k_lo - 1.0) ** 2 < eta:  # rounding can land a hair below
            k_lo = math.nextafter(k_lo, 1.0)
        kappas = np.linspace(k_lo, 1.0, theory_points)
        theory_cols.append((kappas, [labeled_needed(eta, k, n) for k in kappas]))

    empirical_cols = []
    for eta in etas:
        # stay clear of the search cap: keep the theory requirement below 0.8 n
        k_lo = min((1.0 + math.sqrt(eta / 0.8)) / 2.0, 1.0)
        kappas = np.linspace(k_lo, 1.0, empirical_points)
        counts = labeled_needed_empirical(p, n, lam, eta, kappas, seed=seed, reps=reps, t_max=t_max)
        empirical_cols.append((kappas, counts))
    return {
        "_th.dat": _side_by_side("x", "y", theory_cols),
        "_emp.dat": _side_by_side("conf", "nl", empirical_cols),
    }


def _check_increasing(name: str, values: list) -> None:
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise CliError(f"{name} must be nonempty and strictly increasing")


def _mean_errors(errors: list) -> list:
    """Per point of a ``_fresh_replicate_errors`` result, the replicate means
    (oracle, supervised, semi-supervised) of the unlabeled-sample errors."""
    return [tuple(float(np.mean(column)) for column in zip(*point)) for point in errors]


def cmd_reduction(cfg: dict) -> dict[str, str]:
    sweep = cfg["sweep"]
    if sweep not in ("lambda", "c"):
        raise CliError("sweep must be 'lambda' or 'c'")
    eta = _check_unit(cfg["eta"], "eta")
    kappa = _check_kappa(cfg["kappa"])
    p = int(cfg["p"])
    reps = int(cfg["reps"])
    t_max = int(cfg["t_max"])
    seed = int(cfg["seed"])
    key, x_name = ("lambdas", "lambda") if sweep == "lambda" else ("cs", "alpha")
    values = [float(v) for v in cfg[key]]
    _check_increasing(key, values)
    if sweep == "lambda":
        points = [(lam, float(cfg["c"])) for lam in values]
    else:
        points = [(float(cfg["lambda"]), c) for c in values]
    largest_n = max(int(round(c * p)) for _, c in points)
    _check_replicate_cells(p * largest_n, "a replicate (p x largest n)")

    # Every point's theory first, so that a bad sweep value fails before any
    # draw.  The theory follows the labels drawn: a fraction eta at
    # reliability kappa, whose plug-in direction is worth eta (2 kappa - 1)^2
    # certain labels; at kappa = 1 these are certainty(eta) and eta exactly.
    mixture = _intended_mixture([(eta, kappa)])
    bounds = []
    for lam, c in points:
        e_sup_th = supervised_risk_theory(lam, c, eta * (2.0 * kappa - 1.0) ** 2)
        e_semi_th = bayes_risk(solve_overlaps(lam, c, mixture).q_u)
        e_oracle_th = oracle_risk(lam)
        bounds.append((
            absolute_reduction(e_sup_th, e_semi_th),
            oracle_relative_reduction(e_sup_th, e_semi_th, e_oracle_th),
        ))
    draws = [
        (p, int(round(c * p)), lam, [(eta, kappa)], [seed, index])
        for index, (lam, c) in enumerate(points)
    ]
    errors = _fresh_replicate_errors(draws, reps, t_max)

    rows = []
    for x, bound, (e_oracle, e_sup, e_semi) in zip(values, bounds, _mean_errors(errors)):
        try:
            algo_abs = absolute_reduction(e_sup, e_semi)
        except ValueError:
            algo_abs = float("nan")
        try:
            algo_oracle = oracle_relative_reduction(e_sup, e_semi, e_oracle)
        except ValueError:
            algo_oracle = float("nan")
        rows.append([x, algo_abs, algo_oracle, *bound])
    header = [x_name, "algo_abs", "algo_oracle", "bound_abs", "bound_oracle"]
    return {"": _table_text(header, rows)}


def cmd_simulate(cfg: dict) -> dict[str, str]:
    n = _check_count(cfg["n"], "n")
    p = _check_count(cfg["p"], "p")
    lam = float(cfg["lambda"])
    labeling = _check_labeling(cfg["labeling"])
    reps = int(cfg["reps"])
    t_max = int(cfg["t_max"])
    seed = int(cfg["seed"])
    _check_replicate_cells(p * n, "a replicate (p x n)")

    mixture = _intended_mixture(labeling)
    solution = solve_overlaps(lam, n / p, mixture)
    risk_th = bayes_risk(solution.q_u)
    oracle_th = oracle_risk(lam)

    errors = _fresh_replicate_errors([(p, n, lam, labeling, seed)], reps, t_max)
    [(e_oracle, e_sup, e_semi)] = _mean_errors(errors)

    header = [
        "error_oracle",
        "error_oracle_theory",
        "error_sup",
        "error_semi",
        "bayes_risk_theory",
        "oracle_delta",
        "semi_delta",
        "q_u",
        "q_v",
    ]
    row = [
        e_oracle,
        oracle_th,
        e_sup,
        e_semi,
        risk_th,
        e_oracle - oracle_th,
        e_semi - risk_th,
        solution.q_u,
        solution.q_v,
    ]
    return {"": _table_text(header, [row])}


def cmd_channel_check(cfg: dict) -> dict[str, str]:
    eps_values = [float(e) for e in cfg["eps_values"]]
    q_values = [float(q) for q in cfg["q_values"]]
    _check_increasing("eps_values", eps_values)
    _check_increasing("q_values", q_values)
    trials = int(cfg["trials"])
    seed = int(cfg["seed"])
    _check_replicate_cells(trials, "each channel draw (trials)")
    # The cells' draws run on the replicate threads, cell (i, j) from the seed
    # sequence (seed, i, j); the first failure in cell order raises.
    cells = [
        (eps, q, trials, [seed, index, jndex])
        for index, eps in enumerate(eps_values)
        for jndex, q in enumerate(q_values)
    ]
    stats = _thread_map(channel_overlap_mc_stats, iter(cells), len(cells))
    rows = []
    for (eps, q, _, _), (mc, stderr) in zip(cells, stats):
        theory = channel_overlap(eps, q)
        if stderr > 0.0:
            z = (mc - theory) / stderr
        else:
            z = 0.0 if mc == theory else float("inf")
        rows.append([eps, q, mc, theory, stderr, z])
    return {"": _table_text(["eps", "q", "mc", "theory", "stderr", "z"], rows)}


class Command(NamedTuple):
    """One subcommand of the table.

    ``run`` maps the resolved config to its tables, output suffix -> text, in
    writing order.  ``out`` is the default output name, formatted with the
    config; a command without one echoes its one table and writes files only
    when ``--out`` is given.
    """

    run: Callable[[dict], dict[str, str]]
    out: str | None
    defaults: dict


_COMMANDS = {
    "solve": Command(cmd_solve, None, {
        "lambda": 1.0,
        "c": 1.0,
        "eta": None,
        "mixture": None,
        "tol": 1e-10,
        "max_iter": 10000,
    }),
    "approx-error": Command(cmd_approx_error, "approx_error.dat", {
        "eps_min": 0.0,
        "eps_max": 1.0,
        "eps_step": 0.01,
        "q_min": 0.1,
        "q_max": 10.0,
        "q_step": 0.1,
    }),
    "usefulness": Command(
        cmd_usefulness, "usefulness.dat", {"q_max": 25.0, "points": 200, "q_min_positive": 1e-3}
    ),
    "labeled-needed": Command(cmd_labeled_needed, "labeled_needed", {
        "n": 1000,
        "p": 200,
        "lambda": 0.25,
        "etas": [0.02, 0.05, 0.1, 0.2, 0.5],
        "theory_points": 40,
        "empirical_points": 5,
        "reps": 10,
        "t_max": 40,
        "seed": 777,
    }),
    "reduction": Command(cmd_reduction, "reduction_{sweep}.dat", {
        "sweep": "lambda",
        "eta": 0.2,
        "kappa": 1.0,
        "p": 200,
        "c": 1.0,
        "lambda": 2.0,
        "lambdas": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0],
        "cs": [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0],
        "reps": 10,
        "t_max": 50,
        "seed": 20240,
    }),
    "simulate": Command(cmd_simulate, None, {
        "n": 2000,
        "p": 2000,
        "lambda": 2.0,
        "labeling": [[0.2, 1.0]],
        "reps": 10,
        "t_max": 50,
        "seed": 1234,
    }),
    "channel-check": Command(cmd_channel_check, "channel_check.dat", {
        "eps_values": [0.0, 0.25, 0.5, 0.75, 0.95],
        "q_values": [0.1, 0.5, 1.0, 2.0, 5.0],
        "trials": 200000,
        "seed": 99,
    }),
}

# Override flags; each is registered only on the commands whose defaults
# hold its key.
_FLAGS = {
    "seed": (int, "override the config seed"),
    "reps": (int, "override the replicate count"),
    "tol": (float, "override the solver tolerance"),
}


def _emit(name: str, cfg: dict, tables: dict[str, str], out: str | None) -> None:
    """Write every table atomically, then the manifest, then report the files.

    A command without a default output name echoes its table instead of
    reporting, and writes nothing without ``out``.
    """
    default = _COMMANDS[name].out
    if default is None:
        sys.stdout.write("".join(tables.values()))
        if out is None:
            return
    base = out if out is not None else default.format_map(cfg)
    paths = [base + suffix for suffix in tables]
    for path, text in zip(paths, tables.values()):
        _write_text(path, text)
    _write_manifest(base, name, cfg)
    if default is not None:
        sys.stdout.write("".join(f"wrote {path}\n" for path in paths))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncertain-ssl",
        description="Overlap theory and Monte Carlo verification for "
        "semi-supervised classification with uncertain labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON config file for this run")
        for flag, (kind, text) in _FLAGS.items():
            if flag in command.defaults:
                cmd.add_argument(f"--{flag}", type=kind, help=text)
        cmd.add_argument("--out", help="output path (or base path for multi-file commands)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    command = _COMMANDS[args.command]
    try:
        cfg = _resolve_config(args, command.defaults)
        _emit(args.command, cfg, command.run(cfg), args.out)
        return EXIT_OK
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (InfeasibilityError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CliError, ValueError, TypeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
