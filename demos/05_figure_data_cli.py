"""Driving the command-line front end to produce figure-ready data files.

Each subcommand writes a whitespace table with a header row plus a JSON
manifest of the resolved parameters; reruns with the same seed are
byte-identical.  This script exercises the fast commands into a temporary
directory, prints the first lines of each table and removes the directory
when it is done.

Run:  python3 demos/05_figure_data_cli.py
"""

import json
import pathlib
import tempfile

from uncertain_ssl.cli import main

# Removed by cleanup() at the end, or when the interpreter exits on an error.
workdir = tempfile.TemporaryDirectory(prefix="uncertain_ssl_demo_")
scratch = pathlib.Path(workdir.name)
print(f"writing into {scratch}\n")


def show(path: pathlib.Path, lines: int = 4) -> None:
    content = path.read_text().splitlines()
    for line in content[:lines]:
        print(f"    {line}")
    if len(content) > lines:
        print(f"    ... ({len(content)} lines)")
    print()


print("== solve ==")
cfg = scratch / "solve.json"
cfg.write_text(json.dumps({"lambda": 2.0, "c": 1.0, "eta": 0.2}))
main(["solve", "--config", str(cfg), "--out", str(scratch / "solve.dat")])
print()

print("== usefulness (pure theory, no seed) ==")
cfg = scratch / "use.json"
cfg.write_text(json.dumps({"points": 60}))
main(["usefulness", "--config", str(cfg), "--out", str(scratch / "usefulness.dat")])
show(scratch / "usefulness.dat")

print("== approx-error (coarsened grid for the demo) ==")
cfg = scratch / "ae.json"
# each step divides its axis: 1 / 0.05 = 20 and (10 - 0.1) / 0.45 = 22 steps
cfg.write_text(json.dumps({"eps_step": 0.05, "q_step": 0.45}))
main(["approx-error", "--config", str(cfg), "--out", str(scratch / "approx_error.dat")])
show(scratch / "approx_error.dat")

print("== channel-check ==")
cfg = scratch / "cc.json"
cfg.write_text(json.dumps({"trials": 100000}))
main(["channel-check", "--config", str(cfg), "--seed", "5", "--out", str(scratch / "channel_check.dat")])
show(scratch / "channel_check.dat", lines=6)

print("== reduction (small Monte Carlo, sweep over the sample ratio) ==")
cfg = scratch / "red.json"
cfg.write_text(
    json.dumps({"sweep": "c", "p": 100, "cs": [0.5, 1.0, 2.0, 4.0], "reps": 4, "t_max": 30})
)
main(["reduction", "--config", str(cfg), "--out", str(scratch / "reduction_c.dat")])
show(scratch / "reduction_c.dat", lines=6)

print("== labeled-needed (reduced sizes for the demo) ==")
cfg = scratch / "ln.json"
cfg.write_text(
    json.dumps(
        {
            "n": 400,
            "p": 80,
            "lambda": 0.25,
            "etas": [0.1, 0.2],
            "theory_points": 10,
            "empirical_points": 3,
            "reps": 5,
            "t_max": 30,
            "seed": 777,
        }
    )
)
main(["labeled-needed", "--config", str(cfg), "--out", str(scratch / "labeled_needed")])
show(scratch / "labeled_needed_th.dat")
show(scratch / "labeled_needed_emp.dat")

print(f"tables and manifests were written under {scratch}; removing it")
workdir.cleanup()
