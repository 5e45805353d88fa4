"""Correctness gate for the figure tables one pass writes.

Every table must have the reference's header, row count and layout (the
layout does not depend on the seed).  The reference tables in
``perfbench/reference`` are the seed commit's output at the default seed.  A
command run on the reference's inputs (the default seed, or a command whose
inputs do not depend on the seed) must reproduce every cell, Monte Carlo
cells included, within ``THEORY_RTOL`` relative.  On other inputs, theory
cells that do not depend on the seed are still compared, and Monte Carlo
cells are held to bounds calibrated on other seeds before any timing was
taken, loose enough that a correct program fails at well under one seed in
a hundred.
"""

from __future__ import annotations

import math

THEORY_RTOL = 1e-12

# Solver diagnostics: the default tolerance and iteration cap of ``solve``.
SOLVE_TOL = 1e-10
SOLVE_MAX_ITER = 10000

# channel-check: 25 z-scores per table.  P(max |z| > 4.5) = 25 * 2 Q(4.5)
# = 1.7e-4 for a correct program.
Z_MAX = 4.5
# simulate at n = p = 2000, 10 reps: over 40 seeds semi_delta had mean 0.0001
# and standard deviation 0.0035, oracle_delta 0.0002 and 0.0020; both bounds
# sit near six standard deviations.
SEMI_DELTA_MAX = 0.02
ORACLE_DELTA_MAX = 0.012
# error_sup has no theory column: supervised_risk_theory(2, 1, 0.2) at the
# simulate defaults.  Over 60 seeds error_sup - theory had mean 0.0009 and
# standard deviation 0.0039.
SUPERVISED_THEORY = 0.22484589898444546
SUP_DELTA_MAX = 0.024
# reduction at n = p = 200, 10 reps, 12 lambdas: over 60 seeds the standard
# deviation of algo - bound in one row was at most 0.052 (abs) and 0.076
# (oracle); that of the row mean of algo - bound was 0.010 and 0.016.  Each
# bound sits near six standard deviations.
REDUCTION_ABS_CELL_MAX = 0.3
REDUCTION_ORACLE_CELL_MAX = 0.45
REDUCTION_ABS_MEAN_MAX = 0.06
REDUCTION_ORACLE_MEAN_MAX = 0.1

# Tables that are only ever produced from the reference's inputs and have no
# seed-independent check: they must equal the reference.
REFERENCE_ONLY = ("labeled_needed_emp.dat",)

SOLVE_THEORY = ("q_u", "q_v", "bayes_risk", "oracle_risk", "usefulness")


class Table:
    """A whitespace table: header, rows of cells, and the blank-line layout."""

    def __init__(self, text: str):
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            raise ValueError("empty table")
        self.header = lines[0].split()
        self.layout = [len(line.split()) for line in lines[1:]]
        self.rows = [line.split() for line in lines[1:] if line.strip()]

    def column(self, name: str) -> list[float]:
        index = self.header.index(name)
        return [float(row[index]) for row in self.rows]


def _quantum(value: float) -> float:
    """One unit in the 12th significant digit, the precision of a table cell."""
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(value))) - 11)


def close(value: float, reference: float) -> bool:
    """Agreement within THEORY_RTOL relative, on 12-digit table cells."""
    if value == reference:
        return True
    if not (math.isfinite(value) and math.isfinite(reference)):
        return False
    scale = max(abs(value), abs(reference))
    return abs(value - reference) <= THEORY_RTOL * scale + _quantum(reference)


def _compare(table: Table, ref: Table, columns, problems: list[str]) -> None:
    for name in columns:
        for row, (value, expected) in enumerate(zip(table.column(name), ref.column(name))):
            if not close(value, expected):
                problems.append(f"{name} row {row + 1}: {value!r} != reference {expected!r}")


def _bound(name: str, values, ok, problems: list[str], what: str) -> None:
    for row, value in enumerate(values):
        if not ok(value):
            problems.append(f"{name} row {row + 1}: {value!r} is not {what}")


def _check_solve(table: Table, ref: Table, same_inputs: bool, problems: list[str]) -> None:
    if not same_inputs:
        _compare(table, ref, ("oracle_risk",), problems)
        _bound("q_u", table.column("q_u"), lambda v: 0.0 <= v, problems, ">= 0")
        _bound("q_v", table.column("q_v"), lambda v: 0.0 <= v <= 1.0, problems, "in [0, 1]")
        _bound("usefulness", table.column("usefulness"), lambda v: 0.0 <= v <= 1.0, problems, "in [0, 1]")
    # The risk must be the Gaussian tail Q(sqrt(q_u)) of the reported q_u.
    for row, (q_u, risk) in enumerate(zip(table.column("q_u"), table.column("bayes_risk"))):
        expected = 0.5 * math.erfc(math.sqrt(max(q_u, 0.0) / 2.0))
        if not abs(risk - expected) <= 1e-9:
            problems.append(f"bayes_risk row {row + 1}: {risk!r} != Q(sqrt(q_u)) = {expected!r}")
    _bound("residual", table.column("residual"), lambda v: 0.0 <= v <= SOLVE_TOL, problems, f"in [0, {SOLVE_TOL}]")
    _bound(
        "iterations",
        table.column("iterations"),
        lambda v: v == int(v) and 1 <= v <= SOLVE_MAX_ITER,
        problems,
        f"an integer in [1, {SOLVE_MAX_ITER}]",
    )


def _check_simulate(table: Table, ref: Table, problems: list[str]) -> None:
    _compare(table, ref, ("error_oracle_theory", "bayes_risk_theory", "q_u", "q_v"), problems)
    for name in ("error_oracle", "error_sup", "error_semi"):
        _bound(name, table.column(name), lambda v: 0.0 <= v <= 1.0, problems, "in [0, 1]")
    sup_delta = [v - SUPERVISED_THEORY for v in table.column("error_sup")]
    _bound("error_sup - theory", sup_delta, lambda v: abs(v) <= SUP_DELTA_MAX, problems, f"within ±{SUP_DELTA_MAX}")
    _bound("semi_delta", table.column("semi_delta"), lambda v: abs(v) <= SEMI_DELTA_MAX, problems, f"within ±{SEMI_DELTA_MAX}")
    _bound("oracle_delta", table.column("oracle_delta"), lambda v: abs(v) <= ORACLE_DELTA_MAX, problems, f"within ±{ORACLE_DELTA_MAX}")


def _check_reduction(table: Table, ref: Table, problems: list[str]) -> None:
    _compare(table, ref, ("lambda", "bound_abs", "bound_oracle"), problems)
    # An undefined empirical reduction is written as nan; at these sizes it
    # does not occur, and nan fails every bound below.
    for kind, cell_max, mean_max in (
        ("abs", REDUCTION_ABS_CELL_MAX, REDUCTION_ABS_MEAN_MAX),
        ("oracle", REDUCTION_ORACLE_CELL_MAX, REDUCTION_ORACLE_MEAN_MAX),
    ):
        gaps = [a - b for a, b in zip(table.column(f"algo_{kind}"), table.column(f"bound_{kind}"))]
        _bound(f"algo_{kind} - bound_{kind}", gaps, lambda v: abs(v) <= cell_max, problems, f"within ±{cell_max}")
        mean = sum(gaps) / len(gaps)
        if not abs(mean) <= mean_max:
            problems.append(f"mean of algo_{kind} - bound_{kind}: {mean!r} is not within ±{mean_max}")


def _check_channel(table: Table, ref: Table, problems: list[str]) -> None:
    _compare(table, ref, ("eps", "q", "theory"), problems)
    _bound("mc", table.column("mc"), lambda v: -1.0 <= v <= 1.0, problems, "in [-1, 1]")
    _bound("stderr", table.column("stderr"), lambda v: math.isfinite(v) and v > 0.0, problems, "positive")
    _bound("z", table.column("z"), lambda v: abs(v) <= Z_MAX, problems, f"within ±{Z_MAX}")
    cells = zip(table.column("mc"), table.column("theory"), table.column("stderr"), table.column("z"))
    for row, (mc, theory, stderr, z) in enumerate(cells):
        if stderr > 0.0 and not abs(z - (mc - theory) / stderr) <= 1e-6 * max(1.0, abs(z)):
            problems.append(f"z row {row + 1}: {z!r} != (mc - theory) / stderr")


def check_table(filename: str, text: str, ref_text: str, same_inputs: bool = True) -> list[str]:
    """Problems found in one output table; an empty list means it passes.

    ``same_inputs`` says the command ran on the reference's inputs, so every
    cell must equal the reference's.  Otherwise seed-dependent theory cells
    (the mixture solve) are checked for consistency and Monte Carlo cells
    against calibrated bounds.
    """
    if not same_inputs and filename in REFERENCE_ONLY:
        return [f"{filename} can only be checked on the reference's inputs"]
    try:
        table = Table(text)
        ref = Table(ref_text)
    except ValueError as exc:
        return [str(exc)]
    if table.header != ref.header:
        return [f"header {table.header} != reference {ref.header}"]
    if table.layout != ref.layout:
        return [f"row layout differs from the reference ({len(table.rows)} rows, reference {len(ref.rows)})"]
    problems: list[str] = []
    try:
        if same_inputs:
            _compare(table, ref, table.header, problems)
        if filename.startswith("solve_"):
            _check_solve(table, ref, same_inputs, problems)
        elif filename == "simulate.dat":
            _check_simulate(table, ref, problems)
        elif filename == "reduction_lambda.dat":
            _check_reduction(table, ref, problems)
        elif filename == "channel_check.dat":
            _check_channel(table, ref, problems)
        elif not same_inputs:  # approx_error, usefulness, labeled_needed_th: all theory
            _compare(table, ref, table.header, problems)
    except ValueError as exc:
        problems.append(f"unreadable cell: {exc}")
    return problems
