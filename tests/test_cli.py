"""Command-line checks: schemas, byte-identical reruns, config validation,
and the exit-code contract."""

import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from uncertain_ssl import cli, simulate
from uncertain_ssl.cli import main
from uncertain_ssl.kernel import approx_error_grid


def run_cli(*argv) -> int:
    return main(list(argv))


def read_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def write_config(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


class TestSolveCommand:
    def test_writes_record_with_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"lambda": 2.0, "c": 1.0, "eta": 0.2})
        out = tmp_path / "solve.dat"
        assert run_cli("solve", "--config", cfg, "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q_u q_v bayes_risk oracle_risk usefulness residual iterations"
        values = dict(zip(lines[0].split(), lines[1].split()))
        assert float(values["q_u"]) == pytest.approx(1.149603366736, abs=1e-9)
        assert float(values["bayes_risk"]) == pytest.approx(0.141816097116, abs=1e-9)
        assert capsys.readouterr().out.startswith("q_u q_v")
        assert (tmp_path / "solve.dat.manifest.json").exists()

    def test_pinned_closed_form(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"lambda": 0.25, "c": 5.0, "eta": 1.0})
        out = tmp_path / "solve.dat"
        assert run_cli("solve", "--config", cfg, "--out", str(out)) == 0
        row = out.read_text().splitlines()[1].split()
        assert float(row[0]) == pytest.approx(0.25 * 1.25 / 2.25, abs=1e-9)
        assert float(row[1]) == pytest.approx(1.0, abs=1e-9)

    def test_no_signal_risk_half(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"lambda": 0.0, "c": 1.0, "eta": 0.3})
        out = tmp_path / "solve.dat"
        assert run_cli("solve", "--config", cfg, "--out", str(out)) == 0
        row = out.read_text().splitlines()[1].split()
        assert float(row[2]) == 0.5

    def test_self_consistent_residual(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"lambda": 2.0, "c": 1.0, "eta": 0.2})
        out = tmp_path / "solve.dat"
        run_cli("solve", "--config", cfg, "--out", str(out))
        row = out.read_text().splitlines()[1].split()
        assert float(row[5]) < 1e-9

    # The solver's rows at a regular and at the critical point lam^2 c = 1,
    # residual and iteration count included, so the test pins the solver's
    # numerics and not only its answer; perfbench/reference holds the same
    # text.
    @pytest.mark.parametrize(
        "cfg, row",
        [
            (
                {"lambda": 2.0, "c": 1.0, "eta": 0.2},
                "1.14960336674 0.675921870905 0.141816097116 0.0786496035251 "
                "0.594902338632 0 41",
            ),
            ({"lambda": 1.0, "c": 1.0, "eta": 0.0}, "0 0 0.5 0.158655253931 0 0 10000"),
        ],
        ids=["regular", "critical"],
    )
    def test_golden_rows(self, tmp_path, cfg, row):
        config = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "solve.dat"
        assert run_cli("solve", "--config", config, "--out", str(out)) == 0
        assert out.read_text() == (
            "q_u q_v bayes_risk oracle_risk usefulness residual iterations\n" + row + "\n"
        )

    def test_integers_stand_for_numbers(self, tmp_path):
        floats = write_config(tmp_path / "f.json", {"lambda": 2.0, "c": 1.0, "eta": 0.2})
        ints = write_config(tmp_path / "i.json", {"lambda": 2, "c": 1, "eta": 0.2})
        out_f, out_i = tmp_path / "f.dat", tmp_path / "i.dat"
        assert run_cli("solve", "--config", floats, "--out", str(out_f)) == 0
        assert run_cli("solve", "--config", ints, "--out", str(out_i)) == 0
        assert read_bytes(out_f) == read_bytes(out_i)

    def test_mixture_config(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"lambda": 1.0, "c": 1.0, "mixture": [[0.5, 0.6], [0.0, 0.4]]},
        )
        assert run_cli("solve", "--config", cfg) == 0


class TestExitCodes:
    def test_validation_failure(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"lambda": 2.0, "c": 1.0})
        assert run_cli("solve", "--config", cfg) == 2  # neither eta nor mixture
        bad = write_config(tmp_path / "bad.json", {"lambdas_typo": 1})
        assert run_cli("solve", "--config", bad) == 2
        assert run_cli("solve", "--seed", "3") == 2  # solve takes no seed
        assert run_cli("no-such-command") == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read config file"),
            ("{", "config file is not valid JSON"),
            ("[1, 2]", "config file must hold a JSON object"),
        ],
        ids=["missing", "not-json", "not-object"],
    )
    def test_unusable_config_file_rejected(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        assert run_cli("solve", "--config", str(cfg)) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("simulate", "seed", -1),
            ("simulate", "t_max", 0),
            ("reduction", "seed", -1),
            ("reduction", "t_max", 0),
            ("labeled-needed", "seed", -1),
            ("labeled-needed", "t_max", 0),
            ("channel-check", "seed", -1),
        ],
    )
    def test_seed_and_t_max_checked_before_any_worker(
        self, tmp_path, monkeypatch, capsys, command, key, value
    ):
        def no_workers(*args, **kwargs):
            raise AssertionError(f"workers started before {key} was checked")

        monkeypatch.setattr(simulate, "_owned_rounds", no_workers)
        cfg = write_config(tmp_path / "cfg.json", {key: value})
        assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "out.dat")) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be")
        assert list(tmp_path.glob("out*")) == []

    def test_damping_key_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", {"lambda": 2.0, "c": 1.0, "eta": 0.2, "damping": 0.5}
        )
        assert run_cli("solve", "--config", cfg) == 2

    @pytest.mark.parametrize("command", ["simulate", "reduction", "labeled-needed"])
    def test_reps_below_one_rejected(self, tmp_path, command):
        out = tmp_path / "out.dat"
        cfg = write_config(tmp_path / "cfg.json", {"reps": 0})
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
        assert run_cli(command, "--reps", "0", "--out", str(out)) == 2
        assert run_cli(command, "--reps", "-3", "--out", str(out)) == 2
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("payload", [{"empirical_points": 0}, {"theory_points": 1}])
    def test_labeled_needed_points_below_their_floor_rejected(self, tmp_path, payload):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert run_cli("labeled-needed", "--config", cfg, "--out", str(out)) == 2
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("solve", {"lambda": 2.0, "c": 1.0, "eta": True}),
            ("solve", {"lambda": 2.0, "c": 1.0, "eta": "0.2"}),
            ("solve", {"lambda": 2.0, "c": 1.0, "eta": [0.2]}),
            ("solve", {"lambda": True, "c": 1.0, "eta": 0.2}),
            ("solve", {"lambda": "2", "c": 1.0, "eta": 0.2}),
            ("solve", {"lambda": None, "c": 1.0, "eta": 0.2}),
            ("solve", {"lambda": float("nan"), "c": 1.0, "eta": 0.2}),
            ("solve", {"lambda": float("inf"), "c": 1.0, "eta": 0.2}),
            ("solve", {"lambda": 10**400, "c": 1.0, "eta": 0.2}),
            ("solve", {"lambda": 2.0, "c": 1.0, "eta": 0.2, "max_iter": 100.0}),
            ("solve", {"lambda": 2.0, "c": 1.0, "eta": 0.2, "max_iter": False}),
            ("solve", {"lambda": 2.0, "c": 1.0, "mixture": [[True, 1.0]]}),
            ("solve", {"lambda": 2.0, "c": 1.0, "mixture": [["0.5", 1.0]]}),
            ("solve", {"lambda": 2.0, "c": 1.0, "mixture": [[0.5, 0.5, 0.0]]}),
            ("solve", {"lambda": 2.0, "c": 1.0, "mixture": "0.5"}),
            ("simulate", {"labeling": [[0.2, True]]}),
            ("simulate", {"labeling": [0.2, 1.0]}),
            ("reduction", {"sweep": 1}),
            ("reduction", {"sweep": "x"}),
            ("reduction", {"lambdas": "1,2"}),
            ("channel-check", {"eps_values": [0.0, None]}),
            ("approx-error", {"eps_step": "0.1"}),
            ("usefulness", {"points": 40.0}),
        ],
        ids=[
            "eta-boolean",
            "eta-string",
            "eta-array",
            "number-boolean",
            "number-string",
            "number-null",
            "number-nan",
            "number-inf",
            "number-overflow",
            "integer-fraction",
            "integer-boolean",
            "mixture-boolean",
            "mixture-string",
            "mixture-triple",
            "mixture-not-array",
            "array-item-boolean",
            "array-item-kind",
            "string-number",
            "string-unknown",
            "array-string",
            "array-item-null",
            "step-string",
            "points-number",
        ],
    )
    def test_config_kind_mismatch_rejected(self, tmp_path, command, payload):
        out = tmp_path / "out.dat"
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("simulate", {"n": 1000000, "p": 1000000}),
            ("simulate", {"n": 5001, "p": 5000}),
            ("reduction", {"sweep": "c", "p": 2000, "cs": [1.0, 8.0]}),
            ("labeled-needed", {"reps": 126}),
            ("channel-check", {"trials": 10**15}),
            ("channel-check", {"trials": 25_000_001}),
        ],
        ids=[
            "simulate-huge",
            "simulate-just-over",
            "reduction-largest-n",
            "labeled-needed-bank",
            "channel-check-huge",
            "channel-check-just-over",
        ],
    )
    def test_replicate_over_cap_rejected_before_drawing(
        self, tmp_path, monkeypatch, capsys, command, payload
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("replicate drawn before its size was checked")

        monkeypatch.setattr(simulate, "_base_draw", no_draw)
        monkeypatch.setattr(cli, "channel_overlap_mc_stats", no_draw)
        cfg = write_config(tmp_path / "cfg.json", payload)
        out = tmp_path / "out.dat"
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
        assert f"more than {cli.MAX_REPLICATE_CELLS}" in capsys.readouterr().err
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("command", ["simulate", "reduction", "labeled-needed"])
    @pytest.mark.parametrize("reps", [10**9, cli.MAX_GRID_CELLS + 1], ids=["huge", "just-over"])
    def test_reps_over_cap_rejected_before_any_stream(
        self, tmp_path, monkeypatch, capsys, command, reps
    ):
        def no_stream(*args, **kwargs):
            raise AssertionError("replicate stream built before reps was checked")

        monkeypatch.setattr(simulate, "_rep_stream", no_stream)
        monkeypatch.setattr(simulate, "_base_draw", no_stream)
        out = tmp_path / "out.dat"
        cfg = write_config(tmp_path / "cfg.json", {"reps": reps})
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
        assert run_cli(command, "--reps", str(reps), "--out", str(out)) == 2
        assert capsys.readouterr().err.count(f"reps must lie in [1, {cli.MAX_GRID_CELLS}]") == 2
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("payload", [{"p": 0}, {"n": 0}], ids=["p-zero", "n-zero"])
    def test_simulate_empty_sizes_rejected(self, tmp_path, payload):
        cfg = write_config(tmp_path / "cfg.json", payload)
        out = tmp_path / "out.dat"
        assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 2
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize(
        "labeling, message",
        [
            ([[0.7, 1.0], [0.6, 1.0]], "labeling fractions must sum to at most 1"),
            (
                [[0.2, 1.0, 3]],
                "labeling block 0 must be a (fraction, kappa) pair, got [0.2, 1.0, 3]",
            ),
        ],
        ids=["fractions-over-one", "block-not-a-pair"],
    )
    def test_simulate_labeling_checked_before_the_theory(
        self, tmp_path, capsys, labeling, message
    ):
        cfg = write_config(tmp_path / "cfg.json", {"labeling": labeling})
        out = tmp_path / "out.dat"
        assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("simulate", {"n": 40, "p": 10, "labeling": [], "reps": 2, "t_max": 5}),
            # round(0.01 * 20) = 0 labeled samples per replicate
            ("reduction", {"eta": 0.01, "p": 20, "lambdas": [1.0], "reps": 2, "t_max": 5}),
        ],
    )
    def test_no_labeled_sample_exits_4(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path / "cfg.json", payload)
        out = tmp_path / "out.dat"
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 4
        captured = capsys.readouterr()
        assert captured.err == "error: supervised classifier needs labeled samples\n"
        assert "nan" not in captured.out
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize(
        "command, payload, first_streams",
        [
            (
                "simulate",
                {"n": 40, "p": 10, "labeling": [[1.0, 0.9]], "reps": 4, "t_max": 5},
                [[1234, 0], [1234, 1]],
            ),
            (
                "reduction",
                {"eta": 1.0, "p": 20, "lambdas": [1.0, 2.0], "reps": 4, "t_max": 5},
                [[20240, 0, 0], [20240, 0, 1]],
            ),
        ],
    )
    def test_every_sample_labeled_exits_4_at_the_first_replicate(
        self, tmp_path, monkeypatch, capsys, command, payload, first_streams
    ):
        # The forked worker inherits the patch; each process logs its draws
        # with its pid.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the patch reaches the workers only through fork")
        log = tmp_path / "draws.log"
        draw = simulate.generate_dataset

        def recording_draw(p, n, lam, labeling, seed):
            with open(log, "a") as handle:
                handle.write(json.dumps([os.getpid(), seed]) + "\n")
            return draw(p, n, lam, labeling, seed)

        monkeypatch.setattr(simulate, "generate_dataset", recording_draw)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        cfg = write_config(tmp_path / "cfg.json", payload)
        out = tmp_path / "out.dat"
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert err == "error: the labeling leaves no unlabeled sample to score\n"
        assert multiprocessing.active_children() == []
        # two participants: each fails at its first replicate and draws no
        # other.  The calling process's replicate 0 fails first in order, so
        # the worker may be stopped before it draws replicate 1.
        drawn = [json.loads(line) for line in log.read_text().splitlines()]
        assert [seed for pid, seed in drawn if pid == os.getpid()] == first_streams[:1]
        assert [seed for pid, seed in drawn if pid != os.getpid()] in ([], first_streams[1:])
        assert list(tmp_path.glob("out*")) == []

    def test_nonconvergence_exit(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"lambda": 2.0, "c": 1.0, "eta": 0.2, "max_iter": 1, "tol": 1e-16},
        )
        assert run_cli("solve", "--config", cfg) == 3

    def test_infeasibility_exit(self, tmp_path):
        # a reference labeled count above the search cap cannot be evaluated
        bad = write_config(
            tmp_path / "bad.json",
            {"n": 100, "p": 20, "lambda": 0.25, "etas": [0.98], "reps": 1,
             "theory_points": 3, "empirical_points": 1, "t_max": 10, "seed": 1},
        )
        assert run_cli("labeled-needed", "--config", bad, "--out", str(tmp_path / "x")) == 4
        # the theory table was computed before the search failed, and stays unwritten
        assert list(tmp_path.iterdir()) == [tmp_path / "bad.json"]


# The override flags each command registers: exactly the keys its defaults hold.
FLAGS = {
    "solve": {"--tol"},
    "approx-error": set(),
    "usefulness": set(),
    "labeled-needed": {"--seed", "--reps"},
    "reduction": {"--seed", "--reps"},
    "simulate": {"--seed", "--reps"},
    "channel-check": {"--seed"},
}


class TestFlagsAndOutputs:
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_exactly_its_flags(self, capsys, command):
        assert run_cli(command, "-h") == 0
        listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
        assert listed == {"--help", "--config", "--out"} | FLAGS[command]

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--reps", "1"),
            ("channel-check", "--reps", "1"),
            ("simulate", "--tol", "1e-9"),
            ("approx-error", "--seed", "1"),
        ],
        ids=["solve-reps", "channel-check-reps", "simulate-tol", "approx-error-seed"],
    )
    def test_flag_of_another_command_rejected(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--out", str(tmp_path / "out.dat")) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, payload, header",
        [
            ("solve", {"lambda": 2.0, "c": 1.0, "eta": 0.2}, "q_u q_v bayes_risk"),
            ("simulate", {"n": 40, "p": 20, "reps": 1, "t_max": 5}, "error_oracle "),
        ],
        ids=["solve", "simulate"],
    )
    def test_echo_without_out_writes_nothing(
        self, tmp_path, monkeypatch, capsys, command, payload, header
    ):
        cfg = write_config(tmp_path / "cfg.json", payload)
        monkeypatch.chdir(tmp_path)
        assert run_cli(command, "--config", cfg) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith(header)
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


class TestDeterminism:
    def test_solve_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"lambda": 2.0, "c": 1.0, "eta": 0.2})
        out_a, out_b = tmp_path / "a.dat", tmp_path / "b.dat"
        assert run_cli("solve", "--config", cfg, "--out", str(out_a)) == 0
        assert run_cli("solve", "--config", cfg, "--out", str(out_b)) == 0
        assert read_bytes(out_a) == read_bytes(out_b)
        assert read_bytes(tmp_path / "a.dat.manifest.json") == read_bytes(
            tmp_path / "b.dat.manifest.json"
        )

    def test_channel_check_seeded_reruns_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"eps_values": [0.0, 0.5], "q_values": [0.5, 1.0], "trials": 5000},
        )
        out_a, out_b = tmp_path / "a.dat", tmp_path / "b.dat"
        assert run_cli("channel-check", "--config", cfg, "--seed", "3", "--out", str(out_a)) == 0
        assert run_cli("channel-check", "--config", cfg, "--seed", "3", "--out", str(out_b)) == 0
        assert read_bytes(out_a) == read_bytes(out_b)
        out_c = tmp_path / "c.dat"
        assert run_cli("channel-check", "--config", cfg, "--seed", "4", "--out", str(out_c)) == 0
        assert read_bytes(out_a) != read_bytes(out_c)

    def test_simulate_seeded_reruns_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"n": 120, "p": 60, "lambda": 2.0, "reps": 2, "t_max": 15},
        )
        out_a, out_b = tmp_path / "a.dat", tmp_path / "b.dat"
        assert run_cli("simulate", "--config", cfg, "--seed", "5", "--out", str(out_a)) == 0
        assert run_cli("simulate", "--config", cfg, "--seed", "5", "--out", str(out_b)) == 0
        assert read_bytes(out_a) == read_bytes(out_b)


class TestApproxErrorCommand:
    def test_schema_blocks_and_bound(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", {"eps_step": 0.1, "q_step": 0.9}
        )
        out = tmp_path / "surface.dat"
        assert run_cli("approx-error", "--config", cfg, "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eps q err"
        assert "" in lines  # block breaks between eps scans
        data = np.loadtxt(str(out), skiprows=1)
        assert data.shape[1] == 3
        assert data[:, 2].max() <= 0.08
        zero_rows = data[np.isin(data[:, 0], (0.0, 1.0))]
        assert np.all(zero_rows[:, 2] == 0.0)

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("approx-error", {"eps_step": 1e-9}),
            ("approx-error", {"eps_step": 1e-300}),
            ("approx-error", {"eps_step": 1e-3, "q_step": 1e-3}),
            ("labeled-needed", {"theory_points": 10**9}),
            ("labeled-needed", {"etas": [0.02, 0.05], "theory_points": 600_000}),
            ("labeled-needed", {"etas": [0.02, 0.05], "empirical_points": 600_000}),
        ],
        ids=[
            "axis-over-cap",
            "axis-overflow",
            "cells-over-cap",
            "labeled-needed-theory-axis",
            "labeled-needed-theory-cells",
            "labeled-needed-empirical-cells",
        ],
    )
    def test_grid_over_cap_rejected_before_allocation(
        self, tmp_path, monkeypatch, command, payload
    ):
        linspace = np.linspace

        def bounded_linspace(start, stop, num=50, **kwargs):
            assert num <= cli.MAX_GRID_CELLS, "grid built before its size was checked"
            return linspace(start, stop, num, **kwargs)

        def no_surface(*args, **kwargs):
            raise AssertionError("grid values computed for an over-cap grid")

        monkeypatch.setattr(np, "linspace", bounded_linspace)
        for name in ("approx_error_grid", "labeled_needed", "labeled_needed_empirical"):
            monkeypatch.setattr(cli, name, no_surface)
        cfg = write_config(tmp_path / "cfg.json", payload)
        out = tmp_path / "surface.dat"
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize(
        "payload, axis",
        [({"eps_step": 0.3}, "eps_step"), ({"q_step": 0.5}, "q_step")],
        ids=["eps-3.33-steps", "q-19.8-steps"],
    )
    def test_step_that_does_not_divide_its_axis_rejected(
        self, tmp_path, capsys, payload, axis
    ):
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert run_cli("approx-error", "--config", cfg, "--out", str(tmp_path / "s.dat")) == 2
        assert axis in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_default_steps_divide_up_to_rounding(self):
        # (1 - 0) / 0.01 = 100 and (10 - 0.1) / 0.1 = 98.99999999999999 steps
        assert cli._grid_size("eps", 0.0, 1.0, 0.01) == 101
        assert cli._grid_size("q", 0.1, 10.0, 0.1) == 100

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc"
    )
    def test_million_cell_table_streams_in_bounded_memory(self, tmp_path):
        # 1000 x 1000 cells, the grid cap.  Held as row lists and one string,
        # this table took its process to ~314 MB; streamed, to ~41 MB.
        cfg = write_config(
            tmp_path / "cfg.json",
            {"eps_min": 0.0, "eps_max": 0.999, "eps_step": 0.001,
             "q_min": 0.01, "q_max": 10.0, "q_step": 0.01},
        )
        out = tmp_path / "big.dat"
        # The child reports its own VmHWM: its ru_maxrss would also count the
        # high-water mark of the test process it was forked from.
        script = (
            "import sys\n"
            "from uncertain_ssl.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as status:\n"
            "    print([line.split()[1] for line in status if line.startswith('VmHWM:')][0])\n"
            "sys.exit(code)\n"
        )
        paths = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run(
            [sys.executable, "-c", script, "approx-error", "--config", cfg, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        peak_mb = int(done.stdout.splitlines()[-1]) / 1024  # VmHWM is in kB
        assert peak_mb < 100, f"peak RSS {peak_mb:.1f} MB"

        eps_grid, q_grid = np.linspace(0.0, 0.999, 1000), np.linspace(0.01, 10.0, 1000)
        q_list = q_grid.tolist()
        expected = hashlib.sha256(b"eps q err\n")
        for eps, errs in zip(eps_grid.tolist(), approx_error_grid(eps_grid, q_grid).tolist()):
            scan = "".join("%.12g %.12g %.12g\n" % (eps, q, err) for q, err in zip(q_list, errs))
            expected.update(scan.encode() + b"\n")
        assert hashlib.sha256(read_bytes(out)).hexdigest() == expected.hexdigest()

    def test_pure_theory_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"eps_step": 0.5, "q_step": 4.95})
        out_a, out_b = tmp_path / "a.dat", tmp_path / "b.dat"
        run_cli("approx-error", "--config", cfg, "--out", str(out_a))
        run_cli("approx-error", "--config", cfg, "--out", str(out_b))
        assert read_bytes(out_a) == read_bytes(out_b)


class TestUsefulnessCommand:
    def test_schema_and_monotonicity(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"points": 40})
        out = tmp_path / "use.dat"
        assert run_cli("usefulness", "--config", cfg, "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eps y"
        data = np.loadtxt(str(out), skiprows=1)
        assert data.shape == (40, 2)
        # risk abscissa starts at 1/2 and decreases; usefulness increases
        assert data[0, 0] == 0.5 and data[0, 1] == 0.0
        assert np.all(np.diff(data[:, 0]) < 0.0)
        assert np.all(np.diff(data[:, 1]) > 0.0)


    @pytest.mark.parametrize(
        "payload",
        [
            {"q_max": -1.0},
            {"q_max": 1e-3},
            {"q_min_positive": 0.0},
            {"points": 1},
            {"points": 10**7},
        ],
        ids=["q-max-negative", "q-range-empty", "q-min-zero", "too-few-points", "too-many-points"],
    )
    def test_bad_range_rejected(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path / "cfg.json", payload)
        out = tmp_path / "use.dat"
        assert run_cli("usefulness", "--config", cfg, "--out", str(out)) == 2
        assert "math domain error" not in capsys.readouterr().err
        assert not out.exists()


class TestLabeledNeededCommand:
    def test_two_files_with_paired_columns(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "n": 200,
                "p": 40,
                "lambda": 0.25,
                "etas": [0.1, 0.2],
                "theory_points": 4,
                "empirical_points": 2,
                "reps": 3,
                "t_max": 20,
                "seed": 7,
            },
        )
        base = tmp_path / "ln"
        assert run_cli("labeled-needed", "--config", cfg, "--out", str(base)) == 0
        assert capsys.readouterr().out == f"wrote {base}_th.dat\nwrote {base}_emp.dat\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cfg.json",
            "ln.manifest.json",
            "ln_emp.dat",
            "ln_th.dat",
        ]
        th = (tmp_path / "ln_th.dat").read_text().splitlines()
        emp = (tmp_path / "ln_emp.dat").read_text().splitlines()
        assert th[0] == "x1 x2 y1 y2"
        assert emp[0] == "conf1 conf2 nl1 nl2"
        th_data = np.loadtxt(str(tmp_path / "ln_th.dat"), skiprows=1)
        assert th_data.shape == (4, 4)
        # theory curves decrease in reliability, ending at eta * n
        assert np.all(np.diff(th_data[:, 2]) < 0.0)
        assert th_data[-1, 2] == pytest.approx(0.1 * 200)
        assert th_data[-1, 3] == pytest.approx(0.2 * 200)
        emp_data = np.loadtxt(str(tmp_path / "ln_emp.dat"), skiprows=1)
        assert emp_data.shape == (2, 4)


class TestReductionCommand:
    def test_lambda_sweep_schema(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"sweep": "lambda", "p": 40, "lambdas": [1.0, 2.0], "reps": 2, "t_max": 15},
        )
        out = tmp_path / "red.dat"
        assert run_cli("reduction", "--config", cfg, "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda algo_abs algo_oracle bound_abs bound_oracle"
        data = np.loadtxt(str(out), skiprows=1)
        assert data.shape == (2, 5)
        assert np.all(np.isfinite(data[:, 3:]))

    def test_c_sweep_schema_and_x_column(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"sweep": "c", "p": 40, "cs": [0.5, 1.0], "reps": 2, "t_max": 15},
        )
        out = tmp_path / "red.dat"
        assert run_cli("reduction", "--config", cfg, "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha algo_abs algo_oracle bound_abs bound_oracle"
        data = np.loadtxt(str(out), skiprows=1)
        np.testing.assert_array_equal(data[:, 0], [0.5, 1.0])

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"sweep": "lambda", "lambdas": [2.0, 1.0]}, "lambdas"),
            ({"sweep": "c", "cs": [1.0, 1.0]}, "cs"),
            ({"sweep": "c", "cs": []}, "cs"),
        ],
        ids=["lambdas-decreasing", "cs-repeated", "cs-empty"],
    )
    def test_rejects_unsorted_grid(self, tmp_path, capsys, payload, key):
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert run_cli("reduction", "--config", cfg) == 2
        assert capsys.readouterr().err == f"error: {key} must be nonempty and strictly increasing\n"

    def test_overflowing_point_names_lam_c_and_eta(self, tmp_path, capsys):
        # the supervised baseline's sample ratio is c * eta; the message
        # names the two inputs, not their product
        cfg = write_config(tmp_path / "cfg.json", {"lambdas": [1.0, 2.0, 1e200], "p": 20})
        assert run_cli("reduction", "--config", cfg, "--out", str(tmp_path / "r.dat")) == 2
        assert capsys.readouterr().err == (
            "error: lam * lam * c * eta must be finite, got lam = 1e+200, c = 1 and eta = 0.2\n"
        )

    def test_theory_follows_the_labels_drawn(self, tmp_path):
        # kappa-reliable labels are worth less than certain ones, so both the
        # supervised baseline and the Bayes risk move, and the bound with them
        bounds = {}
        for kappa in (1.0, 0.75):
            cfg = write_config(
                tmp_path / "cfg.json",
                {"kappa": kappa, "p": 40, "lambdas": [1.0, 2.0, 3.0], "reps": 2, "t_max": 5},
            )
            out = tmp_path / f"red_{kappa}.dat"
            assert run_cli("reduction", "--config", cfg, "--out", str(out)) == 0
            bounds[kappa] = np.loadtxt(str(out), skiprows=1)[:, 3:]
        assert np.all(bounds[0.75] != bounds[1.0])
        assert np.all(bounds[0.75][:, 0] > bounds[1.0][:, 0])  # bound_abs
        # at lam 2 the kappa-blind bound read 0.369, below the algorithm's 0.542
        assert bounds[1.0][1, 0] == pytest.approx(0.369, abs=5e-4)
        assert bounds[0.75][1, 0] == pytest.approx(0.555, abs=5e-4)

    def test_kappa_one_theory_is_the_certainty_theory(self):
        # so the default table keeps its bytes
        for eta in (0.2, 0.05, 1.0):
            mixture = simulate._intended_mixture([(eta, 1.0)])
            assert mixture == cli.EpsilonMixture.certainty(eta)
            assert eta * (2.0 * 1.0 - 1.0) ** 2 == eta

    def test_undefined_reductions_are_nan(self, tmp_path):
        # at lam 400 no classifier errs: with no supervised error, neither
        # reduction is defined
        cfg = write_config(
            tmp_path / "cfg.json", {"lambdas": [400.0], "p": 50, "reps": 2, "eta": 0.2}
        )
        out = tmp_path / "red.dat"
        assert run_cli("reduction", "--config", cfg, "--out", str(out)) == 0
        assert out.read_text().splitlines()[1].split()[:3] == ["400", "nan", "nan"]

    def test_every_point_checked_before_any_draw(self, tmp_path, monkeypatch):
        # lam * lam * c overflows at the last point only
        def no_draw(*args):
            raise AssertionError("a replicate ran before every point's theory")

        monkeypatch.setattr(cli, "_fresh_replicate_errors", no_draw)
        cfg = write_config(tmp_path / "cfg.json", {"lambdas": [1.0, 2.0, 1e200], "p": 20})
        assert run_cli("reduction", "--config", cfg, "--out", str(tmp_path / "r.dat")) == 2
        assert list(tmp_path.glob("r.*")) == []


class TestChannelCheckCommand:
    def test_schema_and_z_scores(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"eps_values": [0.0, 0.5, 1.0], "q_values": [0.5, 2.0], "trials": 40000},
        )
        out = tmp_path / "cc.dat"
        assert run_cli("channel-check", "--config", cfg, "--seed", "11", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eps q mc theory stderr z"
        data = np.loadtxt(str(out), skiprows=1)
        assert data.shape == (6, 6)
        finite = data[data[:, 4] > 0.0]
        assert np.all(np.abs(finite[:, 5]) < 5.0)
        # certain prior rows are exact: mc == theory == 1 with zero spread
        certain = data[data[:, 0] == 1.0]
        assert np.all(certain[:, 2] == 1.0) and np.all(certain[:, 5] == 0.0)

    def test_empty_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"eps_values": []})
        assert run_cli("channel-check", "--config", cfg) == 2

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"eps_values": [0.5, 0.0]}, "eps_values"),
            ({"eps_values": [0.0, 0.0]}, "eps_values"),
            ({"q_values": [2.0, 0.5]}, "q_values"),
            ({"q_values": []}, "q_values"),
        ],
        ids=["eps_values-decreasing", "eps_values-repeated", "q_values-decreasing", "q_values-empty"],
    )
    def test_rejects_unsorted_grid(self, tmp_path, capsys, payload, key):
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert run_cli("channel-check", "--config", cfg, "--out", str(tmp_path / "cc.dat")) == 2
        assert capsys.readouterr().err == f"error: {key} must be nonempty and strictly increasing\n"
        assert list(tmp_path.glob("cc.*")) == []


    @pytest.mark.blas_threads
    def test_table_does_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        # The default grid's 25 cells are the units of one _owned_map, run by
        # the calling process and forked workers; a serial loop over the
        # cells gives the table the workers must give.
        tables = {}
        for cores in (1, 2, 3):
            monkeypatch.setattr(simulate, "_usable_cores", lambda c=cores: c)
            out = tmp_path / f"cc_{cores}.dat"
            assert run_cli("channel-check", "--out", str(out)) == 0
            assert multiprocessing.active_children() == []
            tables[cores] = read_bytes(out)
        monkeypatch.setattr(cli, "_owned_map", lambda unit, count: [unit(i) for i in range(count)])
        assert run_cli("channel-check", "--out", str(tmp_path / "serial.dat")) == 0
        serial = read_bytes(tmp_path / "serial.dat")
        assert tables == {1: serial, 2: serial, 3: serial}

    def test_first_failing_cell_raises_in_cell_order(self, monkeypatch):
        # forked workers inherit the patch
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the patch reaches the workers only through fork")

        def stats(eps, q, trials, seed):
            cell = tuple(seed[1:])
            if cell in ((0, 1), (1, 0)):
                time.sleep(0.05 * (cell == (0, 1)))  # cell (1, 0) may fail first in time
                raise simulate.SimulationError(f"cell {cell} failed")
            return 0.0, 0.0

        monkeypatch.setattr(cli, "channel_overlap_mc_stats", stats)
        cfg = {"eps_values": [0.0, 0.5], "q_values": [0.5, 1.0, 2.0], "trials": 10, "seed": 1}
        for cores in (1, 2, 3):
            monkeypatch.setattr(simulate, "_usable_cores", lambda c=cores: c)
            with pytest.raises(simulate.SimulationError, match=r"cell \(0, 1\) failed"):
                cli.cmd_channel_check(cfg)


class TestStartup:
    def test_no_command_loads_scipy_special(self, tmp_path):
        # A fresh interpreter, so the test process's own imports mask nothing.
        script = (
            "import sys\n"
            "import uncertain_ssl.cli as cli\n"
            "code = cli.main(['solve', '--config', sys.argv[1]])\n"
            "assert code == 0, code\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))\n"
        )
        cfg = write_config(tmp_path / "cfg.json", {"lambda": 2.0, "c": 1.0, "eta": 0.2})
        paths = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run(
            [sys.executable, "-c", script, cfg],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert done.stdout.splitlines()[-1] == "[]"

    def test_import_loads_no_process_pool(self):
        # The Monte Carlo commands import multiprocessing when their workers
        # start, and nothing imports concurrent.futures.
        # numpy.polynomial, which computes the quadrature rule, is test-only.
        script = (
            "import sys\n"
            "import uncertain_ssl.cli\n"
            "pool = ('multiprocessing', 'concurrent')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in pool or m in pool))\n"
            "print('numpy.polynomial' in sys.modules)\n"
        )
        paths = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert done.stdout.splitlines()[-2:] == ["[]", "False"]
