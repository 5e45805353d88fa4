"""Figure-regeneration benchmark of the uncertain_ssl command line.

    python3 perfbench/run.py --workload theory|montecarlo|search|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is taken from its ``src``.
One pass runs the workload's CLI commands one after the other, each a fresh
``python -m uncertain_ssl.cli`` process started after the previous one exits:
a closed loop with one client.  Passes repeat until the next one would end
after ``--seconds``.  Every output table goes through the correctness gate in
``check.py``, and every pass must reproduce the first pass byte for byte.

Times are reported in reference seconds: the wall times of a run are scaled
by how fast a fixed pure-Python loop ran between its children (``host_scale``),
so that the shared host's slow spells do not read as changes of the program.
The raw wall times are printed beside them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes (``tracer.py``) and reports the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import check
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES_FIRST = 2
SETUP_SAMPLES_PER_PASS = 1
IMPORTTIME_SAMPLES = 3
IMPORT_PACKAGES = ("numpy", "scipy", "uncertain_ssl")

# The shared host runs the same code up to 1.4 times slower for minutes at a
# time, and a median over one run cannot average that out.  So a fixed
# pure-Python loop is timed in this process, while no child runs, once before
# each child and once per started second of the child after it.  The times of
# a run are scaled by CALIBRATION_REFERENCE_S over the median loop time of the
# run: they read as on a host where the loop takes CALIBRATION_REFERENCE_S,
# about its time on a 2-vCPU Xeon host.
CALIBRATION_LOOPS = 300_000
CALIBRATION_REFERENCE_S = 0.025

# Single-threaded BLAS is the baseline: the thread count moves simulate and
# reduction in opposite directions.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONPATH": str(ROOT / "src"),
}

ENV_PROBE = """
import json, platform, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    blas = f"unknown ({type(exc).__name__})"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def calibration_loop() -> float:
    """Seconds the host takes for a fixed amount of pure-Python work."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int
    # Calibration loop times: one just before the child, then one per
    # started second of the child just after it.
    calibration_s: tuple[float, ...] = (CALIBRATION_REFERENCE_S,)


def host_scale(children) -> float:
    """Reference seconds per wall second while these children ran."""
    return CALIBRATION_REFERENCE_S / median(t for c in children for t in c.calibration_s)


def spawn(argv: list[str], cwd: Path, log_stem: Path) -> Child:
    """Run one child to completion; resource use comes from its own wait4."""
    before = calibration_loop()
    with open(f"{log_stem}.stdout", "wb") as out, open(f"{log_stem}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    calibration = (before, *(calibration_loop() for _ in range(math.ceil(wall))))
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, calibration)


def git_commit() -> str:
    try:
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return probe.stdout.strip() if probe.returncode == 0 else "unknown"


def environment(work: Path) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", ENV_PROBE], cwd=work, env=child_env(), capture_output=True, text=True, check=True
    )
    env = json.loads(probe.stdout)
    env.update(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        commit=git_commit(),
        child_env=CHILD_ENV,
        interpreter=sys.executable,
    )
    return env


def import_seconds(stderr: str) -> dict[str, float]:
    """Seconds spent in each package's module bodies, from ``-X importtime``."""
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        try:
            self_us = int(fields[0])
        except ValueError:  # the column header
            continue
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += self_us * 1e-6
    return totals


def tail(values) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label.

    Below eleven samples no percentile has ten beyond it; the slowest sample
    is reported then, and the label says so.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 11:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} passes (10 beyond it)"
    return ordered[-1], f"slowest of {n} passes (under 11 passes no percentile has 10 beyond it)"


@dataclass
class Pass:
    children: list[Child]
    digests: dict[str, str]
    output_bytes: int
    failed: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Wall time of the pass's children, without the calibration between them."""
        return sum(c.wall_s for c in self.children)


class Runner:
    """Runs passes of one workload at one seed and gates their outputs."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.commands = workloads.build(workload, seed, work / "inputs")
        self.at_default = seed == workloads.DEFAULT_SEED
        self.first: dict[str, str] | None = None
        self.reports: list[str] = []

    def run_pass(self, pass_id: int, traced: bool) -> Pass:
        out = self.work / ("traced" if traced else "pass")
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        children = []
        for command in self.commands:
            if traced:
                spans = self.work / "spans" / f"{pass_id}-{command.name}.json"
                argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), str(pass_id), *command.argv]
            else:
                argv = [sys.executable, "-m", "uncertain_ssl.cli", *command.argv]
            children.append(spawn(argv, out, out / command.name))

        digests, failed = {}, []
        for command, child in zip(self.commands, children):
            problems = [] if child.returncode == 0 else [f"exit code {child.returncode}"]
            for name in command.outputs:
                path = out / name
                if not path.exists():
                    problems.append(f"{name} missing")
                    continue
                data = path.read_bytes()
                digests[name] = hashlib.sha256(data).hexdigest()
                if self.first is None and traced:
                    problems.append(f"{name}: no untraced pass to compare with")
                elif self.first is None:
                    ref = (REFERENCE / name).read_text()
                    same_inputs = self.at_default or not command.seeded
                    problems += [f"{name}: {p}" for p in check.check_table(name, data.decode(), ref, same_inputs)]
                elif digests[name] != self.first.get(name):
                    problems.append(f"{name} differs from the first untraced pass")
            if problems:
                failed.append(command.name)
                stderr = (out / f"{command.name}.stderr").read_text(errors="replace").strip()
                detail = "; ".join(problems[:5]) + (f" (+{len(problems) - 5} more)" if len(problems) > 5 else "")
                self.reports.append(f"FAIL {self.workload} pass {pass_id} {command.name}: {detail}")
                if stderr:
                    self.reports.append("  stderr: " + stderr.splitlines()[-1])
        total_bytes = sum(path.stat().st_size for pattern in ("*.dat", "*.manifest.json") for path in out.glob(pattern))
        # Only an untraced pass sets the bytes that every later pass,
        # traced or not, must reproduce.
        if self.first is None and not traced and not failed:
            self.first = digests
        return Pass(children, digests, total_bytes, failed)

    def identical_to_reference(self, digests: dict[str, str]) -> dict[str, bool]:
        return {
            name: hashlib.sha256((REFERENCE / name).read_bytes()).hexdigest() == digest
            for name, digest in digests.items()
        }


def keep_going(started: float, seconds: float, costs: list[float]) -> bool:
    """Start another round only if it should end within the time budget."""
    return time.perf_counter() - started + median(costs) <= seconds


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(work)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    runner = Runner(workload, seed, work)
    result = measure_traced(runner, seconds) if traced else measure_untraced(runner, seconds)
    for line in runner.reports:
        print(line, file=sys.stderr)
    return result


def setup_sample(runner: Runner) -> Child:
    """A child that only imports the CLI, as every command does."""
    stem = runner.work / "setup"
    return spawn([sys.executable, "-c", "import uncertain_ssl.cli"], runner.work, stem)


def measure_untraced(runner: Runner, seconds: float) -> dict:
    # Set-up samples are spread over the run, one before each pass, so that
    # their median sees the same host as the passes.  The time left after the
    # last pass is filled with more of them.
    setup = [setup_sample(runner) for _ in range(SETUP_SAMPLES_FIRST)]
    passes: list[Pass] = []
    costs: list[float] = []
    started = time.perf_counter()
    while not passes or keep_going(started, seconds, costs):
        t0 = time.perf_counter()
        setup += [setup_sample(runner) for _ in range(SETUP_SAMPLES_PER_PASS)]
        sample_cost = [(time.perf_counter() - t0) / SETUP_SAMPLES_PER_PASS]
        passes.append(runner.run_pass(len(passes), traced=False))
        costs.append(time.perf_counter() - t0)
        last = passes[-1]
        print(f"pass {len(passes) - 1} raw wall_s {last.wall_s:.4f} host scale {host_scale(last.children):.4f}", flush=True)
    while keep_going(started, seconds, sample_cost):
        t0 = time.perf_counter()
        setup.append(setup_sample(runner))
        sample_cost = [time.perf_counter() - t0]
    scale = host_scale(setup + [c for p in passes for c in p.children])
    raw_walls = [p.wall_s for p in passes]
    raw_tail, tail_label = tail(raw_walls)
    raw_setup = median(c.wall_s for c in setup)
    metrics = {
        "wall_s": median(raw_walls) * scale,
        "wall_s_tail": raw_tail * scale,
        "setup_s": raw_setup * scale,
        "peak_rss_mb": median(max(c.maxrss_mb for c in p.children) for p in passes),
    }
    notes = {
        "wall_s": f"median of {len(passes)} passes, reference s (raw {median(raw_walls):.4f} s, host scale {scale:.4f})",
        "wall_s_tail": f"{tail_label}, reference s (raw {raw_tail:.4f} s)",
        "setup_s": f"median of {len(setup)} import-only children, reference s (raw {raw_setup:.4f} s)",
        "peak_rss_mb": f"largest child ru_maxrss in a pass, median of {len(passes)} passes",
    }
    return finish(runner, passes, f"{len(passes)} passes", metrics, notes, "end_to_end")


def measure_traced(runner: Runner, seconds: float) -> dict:
    imports = []
    for i in range(IMPORTTIME_SAMPLES):
        stem = runner.work / f"importtime-{i}"
        spawn([sys.executable, "-X", "importtime", "-c", "import uncertain_ssl.cli"], runner.work, stem)
        imports.append(import_seconds(Path(f"{stem}.stderr").read_text()))
    (runner.work / "spans").mkdir()
    plain: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict[str, float]] = []
    costs: list[float] = []
    started = time.perf_counter()
    while not plain or keep_going(started, seconds, costs):
        t0 = time.perf_counter()
        pass_id = len(plain)
        plain.append(runner.run_pass(pass_id, traced=False))
        traced_pass = runner.run_pass(pass_id, traced=True)
        traced.append(traced_pass)
        docs = []
        for command in runner.commands:
            path = runner.work / "spans" / f"{pass_id}-{command.name}.json"
            if path.exists():
                docs.append(json.loads(path.read_text()))
        layers.append(tracer.layer_metrics(docs))
        costs.append(time.perf_counter() - t0)

    metrics: dict[str, float] = {}
    repeat = True
    for name in tracer.SPAN_METRICS:
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):
            metrics[name] = median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                runner.reports.append(f"FAIL {runner.workload}: {name} differs between traced passes: {values}")
                repeat = False
    for package in IMPORT_PACKAGES:
        metrics[f"cli.import.{package}_s"] = median(sample[package] for sample in imports)
    identical = runner.identical_to_reference(plain[0].digests)
    metrics["cli.output_bytes"] = plain[0].output_bytes
    metrics["cli.outputs_identical"] = sum(identical.values())
    metrics["proc.cpu_s"] = median(sum(c.cpu_s for c in p.children) for p in plain)
    scale = host_scale([c for p in plain + traced for c in p.children])
    metrics["trace.overhead_s"] = (median(p.wall_s for p in traced) - median(p.wall_s for p in plain)) * scale
    notes = {name: f"median of {len(traced)} traced passes" for name in metrics if name.endswith("_s")}
    notes.update({f"cli.import.{p}_s": f"median of {len(imports)} -X importtime children" for p in IMPORT_PACKAGES})
    notes["proc.cpu_s"] = f"child CPU time of a pass, median of {len(plain)} untraced passes"
    notes["trace.overhead_s"] = f"median traced minus median untraced pass, reference s, {len(traced)} pairs"
    notes["cli.outputs_identical"] = f"of {len(identical)} tables sha256-equal to the seed commit's"
    for name, same in sorted(identical.items()):
        print(f"output {name} sha256 {plain[0].digests[name]} {'identical' if same else 'differs'}")
    label = f"{len(plain)} untraced + {len(traced)} traced passes"
    return finish(runner, plain + traced, label, metrics, notes, "per_layer", repeat)


def finish(
    runner: Runner, passes: list[Pass], label: str, metrics: dict, notes: dict, kind: str, repeat: bool = True
) -> dict:
    """Print the metrics named in BENCHMARK.json and build the result object.

    ``repeat`` is false when the traced counts differ between passes, which
    makes the run incorrect without failing a command.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    attempted = sum(len(p.children) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    print(f"== {runner.workload}  seed {runner.seed}  {label}  {attempted} commands")
    reported = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        reported[name] = {"value": metrics[name], "unit": unit}
        print(f"{name:44s} {metrics[name]:>16.6g} {unit:6s} {notes.get(name, '')}")
    print(f"{'fail_ratio':44s} {failed / attempted:>16.6g} {'ratio':6s} {failed} failed / {attempted} attempted")
    return {"correct": failed == 0 and repeat, "attempted": attempted, "failed": failed, "metrics": reported}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run raises SystemExit, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "uncertain_ssl" / "cli.py").is_file():
        print(f"error: no uncertain_ssl package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
