"""Self-checks of the benchmark: inputs, the correctness gate and the trace.

    python3 -m pytest perfbench/tests -q

The traced-run checks start real passes of every workload (a few minutes).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE_TABLES = sorted(p.name for p in (BENCH / "reference").glob("*.dat"))


def benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_seed_changes_mixture_and_monte_carlo_seeds(tmp_path):
    assert workloads.soft_mixture(3) == workloads.soft_mixture(3)
    assert workloads.soft_mixture(3) != workloads.soft_mixture(4)
    atoms = workloads.soft_mixture(3)
    assert len(atoms) == 2 * workloads.MIXTURE_RELIABILITIES
    assert all(a[0] == -b[0] for a, b in zip(atoms[::2], atoms[1::2]))
    for command in workloads.CLI_SEEDS:
        assert workloads.program_seed(workloads.DEFAULT_SEED, command) == workloads.CLI_SEEDS[command]
        assert workloads.program_seed(3, command) != workloads.program_seed(4, command)
    argv = [c.argv for c in workloads.build("montecarlo", 3, tmp_path / "a")]
    assert argv != [c.argv for c in workloads.build("montecarlo", 4, tmp_path / "b")]


def test_critical_point_stays_at_the_iteration_cap(tmp_path):
    commands = {c.name: c for c in workloads.build("theory", 0, tmp_path)}
    config = json.loads(Path(commands["solve_critical"].argv[2]).read_text())
    # lam^2 c = 1 and eta = 0, at the CLI's default iteration cap.
    assert config == {"lambda": 1.0, "c": 1.0, "eta": 0.0}
    table = check.Table((BENCH / "reference" / "solve_critical.dat").read_text())
    assert table.column("iterations") == [check.SOLVE_MAX_ITER]


@pytest.mark.parametrize("name", REFERENCE_TABLES)
def test_gate_accepts_the_reference(name):
    text = (BENCH / "reference" / name).read_text()
    assert check.check_table(name, text, text) == []
    if name not in check.REFERENCE_ONLY:
        assert check.check_table(name, text, text, same_inputs=False) == []


def _replace_cell(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    index = lines[0].split().index(column)
    cells = lines[row].split()
    cells[index] = value
    lines[row] = " ".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "name, column, value, same_inputs",
    [
        ("solve_regular.dat", "q_u", "1.14960336677", True),
        ("solve_critical.dat", "iterations", "10001", True),
        ("solve_mixture.dat", "bayes_risk", "0.2", False),
        ("usefulness.dat", "y", "0.5", True),
        ("simulate.dat", "error_oracle", "0.080126", True),
        ("simulate.dat", "semi_delta", "0.03", False),
        ("simulate.dat", "error_sup", "0.3", False),
        ("channel_check.dat", "mc", "0.0904378833552", True),
        ("channel_check.dat", "z", "5", False),
        ("labeled_needed_emp.dat", "nl1", "950", True),
        ("labeled_needed_emp.dat", "nl1", "387", True),
        ("reduction_lambda.dat", "algo_abs", "-0.0027972028972", True),
        ("reduction_lambda.dat", "algo_abs", "0.4", False),
        ("reduction_lambda.dat", "algo_oracle", "-0.5", False),
        ("reduction_lambda.dat", "bound_abs", "0.1", False),
    ],
)
def test_gate_rejects_a_wrong_cell(name, column, value, same_inputs):
    ref = (BENCH / "reference" / name).read_text()
    assert check.check_table(name, _replace_cell(ref, 1, column, value), ref, same_inputs)


def test_gate_rejects_a_biased_reduction():
    # Every cell stays within its own bound; the row mean does not.
    name = "reduction_lambda.dat"
    ref = (BENCH / "reference" / name).read_text()
    text = ref
    for row in range(1, 13):
        value = float(check.Table(ref).rows[row - 1][1]) + 0.1
        text = _replace_cell(text, row, "algo_abs", repr(value))
    assert check.check_table(name, ref, ref, same_inputs=False) == []
    problems = check.check_table(name, text, ref, same_inputs=False)
    assert problems and all("mean" in p for p in problems)


def test_gate_allows_the_last_printed_digit_only():
    assert check.close(0.123456789013, 0.123456789012)
    assert not check.close(0.123456789033, 0.123456789012)
    assert not check.close(1e-20, 0.0)


def test_gate_rejects_a_changed_layout():
    ref = (BENCH / "reference" / "approx_error.dat").read_text()
    assert check.check_table("approx_error.dat", ref.replace("\n\n", "\n", 1), ref)
    assert check.check_table("approx_error.dat", ref.replace("eps q err", "eps q error"), ref)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(range(1, 21))[0] == 10
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


def test_host_scale_uses_the_median_calibration():
    ref = run.CALIBRATION_REFERENCE_S
    children = [run.Child(1.0, 1.0, 1.0, 0, (2 * ref, 2 * ref)), run.Child(1.0, 1.0, 1.0, 0, (2 * ref, 9 * ref, ref))]
    assert run.host_scale(children) == pytest.approx(0.5)


def test_import_seconds_sums_each_package():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   numpy.core",
            "import time:       200 |        300 | numpy",
            "import time:        50 |         50 |     scipy.special",
            "import time:        10 |       1000 | uncertain_ssl.kernel",
        ]
    )
    assert run.import_seconds(stderr) == pytest.approx(
        {"numpy": 300e-6, "scipy": 50e-6, "uncertain_ssl": 10e-6}
    )


def test_layer_metrics_derive_self_times_from_spans():
    names = ["cli.main", "overlaps.solve_overlaps", "overlaps.qv_from_qu", "kernel.channel_overlap"]
    spans = [
        [0, 0.0, 10.0, -1, None],
        [1, 1.0, 9.0, 0, [40, 1]],
        [2, 2.0, 6.0, 1, [2]],
        [3, 3.0, 4.0, 2, None],
        [3, 4.0, 5.5, 2, None],
        [3, 9.0, 9.5, 0, None],
    ]
    m = tracer.layer_metrics([{"quad_nodes": 61, "names": names, "spans": spans}])
    assert m["kernel.channel_overlap.calls"] == 3
    assert m["kernel.quad_points"] == 3 * 61
    assert m["overlaps.solve_overlaps.overlap_calls"] == 2
    assert m["overlaps.solve_overlaps.iterations"] == 40
    assert m["overlaps.solve_overlaps.converged_ratio"] == 1.0
    assert m["overlaps.qv_from_qu.atoms"] == 2
    assert m["kernel.channel_overlap.self_s"] == pytest.approx(3.0)
    assert m["overlaps.qv_from_qu.self_s"] == pytest.approx(1.5)
    assert m["overlaps.solve_overlaps.self_s"] == pytest.approx(4.0)
    assert m["cli.main.self_s"] == pytest.approx(1.5)


def test_only_an_untraced_pass_sets_the_baseline(tmp_path, monkeypatch):
    runner = run.Runner("search", workloads.DEFAULT_SEED, tmp_path)

    def fake_spawn(argv, cwd, log_stem):
        # Untraced children write a wrong count, traced ones the reference.
        Path(f"{log_stem}.stderr").write_text("")
        traced = str(BENCH / "tracer.py") in argv
        for name in runner.commands[0].outputs:
            text = (BENCH / "reference" / name).read_text()
            (cwd / name).write_text(text if traced else text.replace(" 386\n", " 950\n"))
        return run.Child(0.0, 0.0, 0.0, 0)

    monkeypatch.setattr(run, "spawn", fake_spawn)
    assert runner.run_pass(0, traced=False).failed == ["labeled-needed"]
    assert runner.run_pass(0, traced=True).failed == ["labeled-needed"]
    assert runner.first is None


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = benchmark("--workload", "theory", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs of every workload at one seed, one pass pair each."""
    runs = {}
    for workload in workloads.WORKLOADS:
        for _ in range(2):
            proc = benchmark("--workload", workload, "--seconds", "1", "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            runs.setdefault(workload, []).append(json.loads(proc.stdout.splitlines()[-1]))
    return runs


def test_traced_outputs_match_untraced(traced_runs):
    for results in traced_runs.values():
        for result in results:
            assert result["correct"] and result["failed"] == 0


def test_traced_counts_repeat_exactly(traced_runs):
    for workload, (first, second) in traced_runs.items():
        for name, metric in first["metrics"].items():
            if metric["unit"] != "s":
                assert second["metrics"][name]["value"] == metric["value"], (workload, name)


def test_every_layer_metric_is_nonzero_on_some_workload(traced_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for entry in spec:
        values = [results[0]["metrics"][entry["name"]]["value"] for results in traced_runs.values()]
        assert any(values), entry["name"]
