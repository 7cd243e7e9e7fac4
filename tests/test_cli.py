"""Command-line interface tests: formats, determinism, exit codes."""

import contextlib
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference
from pairflux import cli
from pairflux.cli import (
    EXIT_INTEGRATOR,
    EXIT_IO,
    EXIT_NO_RESONANCE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from pairflux.modesim import ModeRecurrenceWarning


def read_csv(path):
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


GOLDEN = Path(__file__).parent / "golden"


def split_table(text, json_rows):
    """(head, rows): every line that is not a table row, verbatim, and the
    number tokens of each row."""
    head, rows = [], []
    for line in text.splitlines():
        if json_rows and line.startswith("    ["):
            rows.append(line.strip().rstrip(",").strip("[]").split(", "))
        elif not json_rows and head and not line.startswith("#") and "," in head[-1]:
            rows.append(line.split(","))
        else:
            head.append(line)
    return head, rows


def _map_condition(tokens, mass):
    v, omega = np.array(tokens, dtype=float).T[:2]
    return np.array([scalar_reference.emission_rate(w, x, mass)[1] for x, w in zip(v, omega)])


def _quadrature_condition(tokens):
    # an integral of positive terms inherits the worst relative error of its
    # nodes: here those of 256-node Gauss-Legendre on [0, 1]
    nodes = 0.5 + 0.5 * np.polynomial.legendre.leggauss(256)[0]
    return np.array([scalar_reference.rates(nodes, float(row[0]))[1].max() for row in tokens])


# file, argv, number of leading grid columns, rounding condition per row;
# a rate column follows the grid columns, then a log10 column if present
GOLDEN_CASES = [
    ("spectrum.csv", ["spectrum", "--v", "1.7", "--points", "64"], 1,
     lambda rows: scalar_reference.rates(np.array(rows, dtype=float)[:, 0], 1.7)[1]),
    ("scan_mass.csv", ["scan", "--v-points", "5", "--points", "16", "--mass", "0.1"], 2,
     lambda rows: _map_condition(rows, 0.1)),
    ("scan_integrate.json", ["scan", "--integrate", "--v-points", "8", "--format", "json"], 1,
     _quadrature_condition),
]


@pytest.mark.parametrize("name, argv, n_grid, condition", GOLDEN_CASES,
                         ids=[case[0] for case in GOLDEN_CASES])
def test_golden_output(tmp_path, name, argv, n_grid, condition):
    """Metadata, header and grid columns byte for byte; the rate (and its
    log10) within 8 eps times the resolvent's rounding condition."""
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    json_rows = name.endswith(".json")
    head, rows = split_table(out.read_text(), json_rows)
    want_head, want_rows = split_table((GOLDEN / name).read_text(), json_rows)
    assert head == want_head
    assert len(rows) == len(want_rows)
    assert [row[:n_grid] for row in rows] == [row[:n_grid] for row in want_rows]
    got, want = (np.array(r, dtype=float)[:, n_grid:] for r in (rows, want_rows))
    assert got.shape == want.shape
    cond = condition(want_rows)
    scalar_reference.assert_close(got[:, 0], want[:, 0], cond)
    if want.shape[1] == 2:
        finite = np.isfinite(want[:, 1])
        assert np.array_equal(got[~finite, 1], want[~finite, 1])
        err = np.abs(got[finite, 1] - want[finite, 1])
        assert (err <= 8.0 * scalar_reference.EPS * (cond + np.abs(want[:, 1]))[finite]).all()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--v", "1", "--points", "0"],
    ["scan", "--points", "0"],
    ["spectrum", "--v", "1", "--points", "1"],
    ["spectrum", "--v", "1", "--omega-min", "0.9", "--omega-max", "0.1"],
    ["scan", "--v-max", "inf"],
    ["scan", "--v-min", "nan"],
    ["scan", "--integrate", "--v-max", "inf"],
    ["spectrum", "--v", "1e200"],
    ["scan", "--v-max", "1e200", "--v-points", "2", "--points", "4"],
    ["scan", "--integrate", "--v-max", "1e200", "--v-points", "2"],
    ["spectrum", "--v", "6e154", "--points", "3"],  # v * v overflows: nan rows before
    ["scan", "--integrate", "--v-max", "5e154", "--v-points", "2"],
    ["scan", "--integrate", "--points", "0"],  # the omega grid is checked in both modes
    ["scan", "--integrate", "--omega-min", "0.9", "--omega-max", "0.1"],
], ids=["spectrum_points_0", "scan_points_0", "spectrum_points_1", "reversed_omega_range",
        "scan_v_max_inf", "scan_v_min_nan", "integrate_v_max_inf", "spectrum_v_overflows",
        "scan_v_max_overflows", "integrate_v_max_overflows", "spectrum_v_squared_overflows",
        "integrate_v_squared_overflows", "integrate_points_0", "integrate_reversed_omega_range"])
def test_invalid_grid_input_exits_two(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning fails the test
        assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid arguments" in captured.err and "Traceback" not in captured.err
    if any(arg.endswith("e154") for arg in argv):  # the velocity is named
        assert "velocity" in captured.err and "e+154" in captured.err


# (option strings, default, type, required, choices) of every option, as the
# parser declared them one subcommand at a time before the shared option groups
FORMAT = (("--format",), "csv", None, False, ("csv", "json"))
OUT = (("--out",), None, None, False, None)
MASS = (("--mass",), None, float, False, None)
GRID = [(("--omega-min",), 0.001, float, False, None), (("--omega-max",), 0.999, float, False, None),
        (("--points",), 512, int, False, None)]
PARSER_TABLE = {
    "spectrum": [(("--v",), None, float, True, None), MASS, *GRID, FORMAT, OUT],
    "scan": [(("--v-min",), 0.1, float, False, None), (("--v-max",), 30.0, float, False, None),
             (("--v-points",), 200, int, False, None), MASS, *GRID,
             (("--integrate",), False, None, False, None), FORMAT, OUT],
    "resonance": [MASS],
    "simulate": [(("--v",), None, float, True, None), (("--kappa0",), 32, int, False, None),
                 (("--t0",), 400.0 * math.pi, float, False, None),
                 (("--dt-divisor",), 200.0, float, False, None),
                 (("--mode-multiplier",), 1.0, float, False, None),
                 (("--compare",), False, None, False, None), FORMAT, OUT,
                 (("--report",), None, None, False, None)],
    "estimate": [(("--n2",), None, float, True, None), (("--omega-l-over-c",), None, float, True, None),
                 (("--v-target",), None, float, False, None)],
}


def test_parser_options_match_the_table():
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    assert list(subparsers.choices) == list(PARSER_TABLE)
    for name, want in PARSER_TABLE.items():
        got = [(tuple(a.option_strings), a.default, a.type, a.required, a.choices)
               for a in subparsers.choices[name]._actions if a.dest != "help"]
        assert sorted(got, key=repr) == sorted(want, key=repr), name


@pytest.mark.parametrize("argv", [[]] + [[name] for name in PARSER_TABLE])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pairflux")


def test_handler_is_looked_up_when_main_runs(monkeypatch, capsys):
    # the parser is cached; a handler replaced on the module after it was built still runs
    assert main(["resonance"]) == EXIT_OK
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()
    monkeypatch.setattr(cli, "cmd_resonance", lambda args: "stub note")
    assert main(["resonance"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pairflux: resonance finished in ")
    assert captured.err.endswith("s, stub note\n")


def test_the_package_is_only_its_modules():
    # a fresh interpreter: this one imported every module long ago
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    code = ("import pairflux, sys; print(pairflux.__version__); print(sorted(name for name in "
            "sys.modules if name.startswith('pairflux.') or name.split('.')[0] == 'numpy'))")
    imported = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
    version, loaded = imported.stdout.splitlines()
    assert loaded == "[]"  # no submodule and no numpy: each name comes from its module
    printed = subprocess.run([sys.executable, "-m", "pairflux", "--version"], env=env,
                             capture_output=True, text=True, check=True)
    assert printed.stdout == f"pairflux {version}\n"


ALLOCATION = "Unable to allocate 256. TiB for an array with shape (35184372088832,)"


@pytest.mark.parametrize("message, shown", [(ALLOCATION, ALLOCATION), ("", "allocation failed")],
                         ids=["numpy_refusal", "bare"])
def test_memory_error_is_one_line(message, shown, monkeypatch, capsys):
    # numpy refuses an array too large for memory before allocating it; a stub raises
    # here, since a real huge request may be touched under an overcommitting kernel
    def refuse(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "cmd_scan", refuse)
    assert main(["scan", "--integrate"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pairflux: out of memory: {shown}\n"


class TestSpectrumCommand:
    def test_zero_pump_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--v", "0", "--points", "5", "--out", str(out)]) == EXIT_OK
        meta, columns, rows = read_csv(out)
        assert columns == ["omega", "rate", "log10_rate"]
        assert len(rows) == 5
        assert all(float(r[1]) == 0.0 for r in rows)
        assert all(r[2] == "-inf" for r in rows)
        assert meta["command"] == "spectrum"
        assert meta["units"] == "omega0 = 1, c = 1"

    def test_weak_pump_centre_value(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--v", "0.1", "--out", str(out)]) == EXIT_OK
        _, _, rows = read_csv(out)
        omega = np.array([float(r[0]) for r in rows])
        rate = np.array([float(r[1]) for r in rows])
        centre = int(np.argmin(np.abs(omega - 0.5)))
        assert abs(rate[centre] - 6.347266741283005e-05) < 1e-8
        log10 = float(rows[centre][2])
        assert abs(log10 - math.log10(rate[centre])) < 1e-12

    def test_near_resonant_pump_peaks_at_centre(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--v", "2.9386", "--out", str(out)]) == EXIT_OK
        _, _, rows = read_csv(out)
        omega = [float(r[0]) for r in rows]
        rate = [float(r[1]) for r in rows]
        assert abs(omega[rate.index(max(rate))] - 0.5) < 2e-3

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["spectrum", "--v", "1.7", "--points", "64", "--out", str(path)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "s.json"
        assert main([
            "spectrum", "--v", "0.1", "--points", "8", "--format", "json", "--out", str(out),
        ]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["meta"]["command"] == "spectrum"
        assert doc["data"]["columns"] == ["omega", "rate", "log10_rate"]
        assert len(doc["data"]["rows"]) == 8

    def test_validation_error_exit(self):
        assert main(["spectrum", "--v", "-1"]) == EXIT_USAGE
        assert main(["spectrum", "--v", "1", "--mass", "0.8"]) == EXIT_USAGE

    def test_unwritable_output_exit(self, tmp_path):
        missing = tmp_path / "no-such-dir" / "out.csv"
        assert main(["spectrum", "--v", "0.1", "--out", str(missing)]) == EXIT_IO

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--velocity", "1"])
        assert exc.value.code == 2


class TestScanCommand:
    def test_integrated_scan_defaults_peak_inside_resonance_window(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--integrate", "--out", str(out)]) == EXIT_OK
        _, columns, rows = read_csv(out)
        assert columns == ["v", "integrated_rate"]
        assert len(rows) == 200
        v = np.array([float(r[0]) for r in rows])
        total = np.array([float(r[1]) for r in rows])
        peak = int(np.argmax(total))
        assert 2.8 <= v[peak] <= 3.1
        assert total[peak] >= 10.0 * total[int(np.argmin(np.abs(v - 1.0)))]

    def test_small_pump_quadratic_scaling(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main([
            "scan", "--integrate", "--v-min", "0.1", "--v-max", "0.2",
            "--v-points", "2", "--out", str(out),
        ]) == EXIT_OK
        _, _, rows = read_csv(out)
        ratio = float(rows[1][1]) / float(rows[0][1])
        assert abs(ratio / 4.0 - 1.0) < 0.01

    def test_large_pump_inverse_square_scaling(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main([
            "scan", "--integrate", "--v-min", "15", "--v-max", "30",
            "--v-points", "2", "--out", str(out),
        ]) == EXIT_OK
        _, _, rows = read_csv(out)
        ratio = float(rows[0][1]) / float(rows[1][1])
        assert abs(ratio / 4.0 - 1.0) < 0.05

    @pytest.mark.parametrize("mass, v_min, v_max", [
        ("0.2", "3.5", "3.6"),     # 2m = 0.4, 1 - 2m = 0.6 and v_r = 3.56
        ("0.16", "3.75", "3.85"),  # 2m = 0.32, 1 - 2m = 0.68 and v_r = 3.80
    ])
    def test_integrated_scan_with_branch_point_near_half_frequency(
        self, mass, v_min, v_max, tmp_path, capsys
    ):
        out = tmp_path / "scan.csv"
        assert main([
            "scan", "--integrate", "--mass", mass, "--v-min", v_min, "--v-max", v_max,
            "--out", str(out),
        ]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        _, _, rows = read_csv(out)
        total = np.array([float(r[1]) for r in rows])
        assert len(total) == 200
        assert (np.isfinite(total) & (total > 0.0)).all()

    def test_long_form_ordering(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main([
            "scan", "--v-min", "0.5", "--v-max", "1.0", "--v-points", "2",
            "--points", "3", "--omega-min", "0.25", "--omega-max", "0.75",
            "--out", str(out),
        ]) == EXIT_OK
        _, columns, rows = read_csv(out)
        assert columns == ["v", "omega", "rate"]
        assert [r[0] for r in rows[:3]] == [rows[0][0]] * 3  # v-major
        assert len(rows) == 6

    def test_bad_range_exits_two(self):
        assert main(["scan", "--v-min", "2", "--v-max", "1"]) == EXIT_USAGE

    def test_integrated_scan_of_a_closed_channel_is_zero(self, tmp_path):
        # the band (2m, 1 - 2m) is empty for mass >= 1/4; a window node at this
        # mass sat on a branch point and the sweep used to exit 2
        out = tmp_path / "scan.csv"
        assert main(["scan", "--integrate", "--mass", "0.2500000000000355", "--v-min", "0.4",
                     "--v-max", "0.5", "--v-points", "3", "--out", str(out)]) == EXIT_OK
        assert [r[1] for r in read_csv(out)[2]] == ["0"] * 3


class TestResonanceCommand:
    def test_photon_value(self, capsys):
        assert main(["resonance"]) == EXIT_OK
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("resonance_velocity")][0]
        assert abs(float(line.split("=")[1]) - 2.938534902062) < 1e-12

    def test_massive_value_exceeds_photon(self, capsys):
        assert main(["resonance", "--mass", "0.1"]) == EXIT_OK
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("resonance_velocity")][0]
        assert float(line.split("=")[1]) > 2.9386

    def test_threshold_mass_exit(self):
        assert main(["resonance", "--mass", "0.5"]) == EXIT_NO_RESONANCE

    @pytest.mark.parametrize("mass, closed", [("0.2", False), ("0.2500000001", True),
                                              ("0.3", True), ("0.45", True), ("0.25", True)])
    def test_closed_channel_note(self, mass, closed, capsys):
        assert main(["resonance", "--mass", mass]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("resonance_velocity = ")
        if mass == "0.25":  # the branch point 2m = 1/2: the limit v_r -> 0
            assert float(captured.out.splitlines()[0].split("=")[1]) == 0.0
        note = "pairflux: note: the pair channel is closed for mass >= 1/4\n"
        assert (note in captured.err) == closed


class TestSimulateCommand:
    def test_zero_pump_compare_degenerate(self, tmp_path):
        out, report = tmp_path / "sim.csv", tmp_path / "rep.json"
        code = main([
            "simulate", "--v", "0", "--kappa0", "8", "--t0", str(100 * math.pi),
            "--compare", "--out", str(out), "--report", str(report),
        ])
        assert code == EXIT_OK
        _, columns, rows = read_csv(out)
        assert columns == ["omega", "rate"]
        assert all(abs(float(r[1])) < 1e-15 for r in rows)
        doc = json.loads(report.read_text())
        assert doc["degenerate"] is True and doc["passed"] is True

    def test_golden_numbers(self, tmp_path):
        # guards any rewrite of the oracle: metadata and omega byte for byte, the
        # rates within 1e-12 relative, and the unitarity residue, whose rounding
        # moves in its 8th digit, within 1e-6
        out = tmp_path / "simulate.csv"
        argv = ["simulate", "--v", "0.2", "--kappa0", "64", "--t0", "314.16", "--out", str(out)]
        assert main(argv) == EXIT_OK
        meta, columns, rows = read_csv(out)
        want_meta, want_columns, want_rows = read_csv(GOLDEN / "simulate.csv")
        defect, want_defect = (float(m.pop("symplectic_defect")) for m in (meta, want_meta))
        assert (meta, columns) == (want_meta, want_columns)
        assert [row[0] for row in rows] == [row[0] for row in want_rows]
        rate, want = (np.array([row[1] for row in t], dtype=float) for t in (rows, want_rows))
        assert np.abs(rate / want - 1.0).max() <= 1e-12
        assert abs(defect / want_defect - 1.0) <= 1e-6

    def test_compare_report_within_tolerance(self, tmp_path):
        out, report = tmp_path / "sim.csv", tmp_path / "rep.json"
        code = main([
            "simulate", "--v", "0.3", "--kappa0", "63", "--t0", str(100 * math.pi),
            "--compare", "--out", str(out), "--report", str(report),
        ])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["median_relative_deviation"] < 0.15
        assert doc["passed"] is True
        assert doc["meta"]["symplectic_defect"] < 1e-6
        per_mode = doc["data"]["rows"]
        assert all(0.2 < row[0] < 0.8 for row in per_mode)

    @pytest.mark.parametrize(
        "flags",
        [("--dt-divisor", "0"), ("--dt-divisor", "-200"), ("--t0", "inf"), ("--v", "nan"),
         ("--dt-divisor", "1e12"), ("--kappa0", "100000"), ("--t0", "1e12"), ("--t0", "1e20"),
         ("--t0", "1e308"),
         # 5e-324 * 5e-324 rounds to 0 steps per period
         ("--dt-divisor", "5e-324", "--mode-multiplier", "5e-324"),
         ("--dt-divisor", "inf"), ("--dt-divisor", "nan"), ("--dt-divisor", "19.9"),
         ("--v", "1e160")],
        ids=["zero_divisor", "negative_divisor", "infinite_t0", "nan_v",
             "steps_per_period_over_limit", "period_maps_over_limit", "periods_over_limit",
             "periods_beyond_int64_steps", "steps_beyond_float_range", "divisor_underflows",
             "infinite_divisor", "nan_divisor", "divisor_below_20", "v_squared_overflows"],
    )
    def test_invalid_input_exits_two(self, flags, capsys):
        argv = ["simulate", "--v", "0.1", "--kappa0", "8", "--t0", str(100 * math.pi)]
        assert main(argv + list(flags)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "invalid arguments" in err and "Traceback" not in err

    def test_stderr_reports_monodromy_radius(self, tmp_path, capsys):
        code = main([
            "simulate", "--v", "0", "--kappa0", "8", "--t0", str(100 * math.pi),
            "--out", str(tmp_path / "sim.csv"),
        ])
        assert code == EXIT_OK
        line = capsys.readouterr().err.strip()
        assert line.startswith("pairflux: simulate finished in ")
        assert abs(float(line.split("monodromy spectral radius ")[1]) - 1.0) < 1e-9

    def test_instability_exit(self):
        with pytest.warns(ModeRecurrenceWarning):  # t0 = 100 pi > 2 pi kappa0
            assert main([
                "simulate", "--v", "40", "--kappa0", "8", "--t0", str(100 * math.pi),
            ]) == EXIT_INTEGRATOR

    def test_recurrence_warning_is_one_line(self, tmp_path):
        # a fresh interpreter: the test runner records warnings instead of printing them
        argv = ["simulate", "--v", "0.2", "--kappa0", "16", "--t0", "314.16"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "pairflux", *argv], env=env,
                             capture_output=True, text=True, check=False)
        assert run.returncode == EXIT_OK
        out = tmp_path / "sim.csv"
        formatwarning = warnings.formatwarning
        with pytest.warns(ModeRecurrenceWarning):
            assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert warnings.formatwarning is formatwarning  # main puts it back
        assert run.stdout == out.read_text()  # the payload is unchanged
        warning, finished = run.stderr.splitlines()
        assert warning.startswith("pairflux: warning: t0 = 314.2 exceeds the mode-recurrence time")
        assert finished.startswith("pairflux: simulate finished in ")


class TestEstimateCommand:
    def test_reference_point(self, capsys):
        assert main([
            "estimate", "--n2", "1e-15", "--omega-l-over-c", "1e5", "--v-target", "1",
        ]) == EXIT_OK
        value = float(capsys.readouterr().out.split()[0])
        assert value == 1e10

    def test_default_target_is_resonance(self, capsys):
        assert main(["estimate", "--n2", "1e-15", "--omega-l-over-c", "1e5"]) == EXIT_OK
        value = float(capsys.readouterr().out.split()[0])
        assert abs(value / 2.938534902062e10 - 1.0) < 1e-9

    def test_halving_with_length(self, capsys):
        assert main(["estimate", "--n2", "1e-15", "--omega-l-over-c", "2e5",
                     "--v-target", "1"]) == EXIT_OK
        assert float(capsys.readouterr().out.split()[0]) == 5e9

    @pytest.mark.parametrize("flags", [
        ["--n2", "0"], ["--v-target", "0"], ["--n2", "nan"], ["--v-target", "nan"],
        ["--omega-l-over-c", "inf"], ["--v-target", "inf"],
        ["--n2", "1e-300", "--omega-l-over-c", "1e-300"],  # the intensity overflows
    ], ids=["n2_0", "v_target_0", "n2_nan", "v_target_nan", "omega_l_over_c_inf",
            "v_target_inf", "intensity_overflows"])
    def test_nonpositive_exit(self, flags, capsys):
        argv = ["estimate", "--n2", "1e-15", "--omega-l-over-c", "1e5"]
        assert main(argv + flags) == EXIT_USAGE
        assert capsys.readouterr().out == ""


def _listing(path):
    return sorted(p.name for p in path.iterdir())


@pytest.mark.filterwarnings("ignore::pairflux.modesim.ModeRecurrenceWarning")
class TestAtomicOutput:
    SPECTRUM = ["spectrum", "--v", "0.1", "--points", "4"]

    def test_failed_simulate_pair_leaves_neither_file(self, tmp_path):
        out = tmp_path / "a.csv"
        argv = ["simulate", "--v", "0.2", "--kappa0", "8", "--dt-divisor", "20", "--compare",
                "--out", str(out), "--report", str(tmp_path / "missing" / "r.json")]
        assert main(argv) == EXIT_IO
        assert _listing(tmp_path) == []
        out.write_text("old")
        assert main(argv) == EXIT_IO
        assert _listing(tmp_path) == ["a.csv"] and out.read_text() == "old"

    def test_same_out_and_report_exits_two_before_evolving(self, tmp_path, monkeypatch, capsys):
        # two renames onto one file would keep only the report
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli.modesim, "evolve", lambda config: pytest.fail("evolved"))
        argv = ["simulate", "--v", "0.2", "--kappa0", "8", "--compare"]
        assert main(argv + ["--out", "P", "--report", "./P"]) == EXIT_USAGE
        assert _listing(tmp_path) == []
        Path("P").write_text("old")
        Path("link").symlink_to("P")
        assert main(argv + ["--out", "link", "--report", str(tmp_path / "P")]) == EXIT_USAGE
        assert _listing(tmp_path) == ["P", "link"] and Path("P").read_text() == "old"
        err = capsys.readouterr().err
        assert err.count("pairflux: invalid arguments: --out") == 2 and "Traceback" not in err

    def test_report_without_compare_exits_two_before_evolving(self, tmp_path, monkeypatch, capsys):
        # without --compare no report is made, so asking for one is an error
        monkeypatch.setattr(cli.modesim, "evolve", lambda config: pytest.fail("evolved"))
        argv = ["simulate", "--v", "0.2", "--kappa0", "8",
                "--out", str(tmp_path / "Q"), "--report", str(tmp_path / "R")]
        assert main(argv) == EXIT_USAGE
        assert _listing(tmp_path) == []
        err = capsys.readouterr().err
        assert err == "pairflux: invalid arguments: --report needs --compare\n"

    def test_same_device_takes_out_and_report(self, capsys):
        argv = ["simulate", "--v", "0", "--kappa0", "8", "--t0", str(100 * math.pi), "--compare"]
        assert main(argv + ["--out", os.devnull, "--report", os.devnull]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        out = tmp_path / "s.csv"
        out.write_text("old")

        def disk_full(stream, *args):
            stream.write("# partial\n")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_csv", disk_full)
        assert main(self.SPECTRUM + ["--out", str(out)]) == EXIT_IO
        assert _listing(tmp_path) == ["s.csv"] and out.read_text() == "old"

    def test_symlink_is_written_through(self, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old")
        link.symlink_to(real)
        assert main(self.SPECTRUM + ["--out", str(link)]) == EXIT_OK
        assert link.is_symlink() and _listing(tmp_path) == ["link.csv", "real.csv"]
        assert real.read_text().startswith("# command = spectrum\n")

    def test_fifo_is_written_directly(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(self.SPECTRUM + ["--out", str(fifo)]) == EXIT_OK
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(fifo.stat().st_mode) and _listing(tmp_path) == ["pipe"]
        assert main(self.SPECTRUM + ["--out", str(tmp_path / "s.csv")]) == EXIT_OK
        assert received == [(tmp_path / "s.csv").read_text()]

    def test_file_modes(self, tmp_path):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("old")
        old.chmod(0o600)
        umask = os.umask(0o027)
        try:
            assert main(self.SPECTRUM + ["--out", str(new)]) == EXIT_OK
            assert main(self.SPECTRUM + ["--out", str(old)]) == EXIT_OK
        finally:
            os.umask(umask)
        assert stat.S_IMODE(new.stat().st_mode) == 0o640  # as open(path, "w") makes it
        assert stat.S_IMODE(old.stat().st_mode) == 0o600  # kept, as open(path, "w") keeps it


# prefix, delimiter, suffix, and whether the non-finite words are quoted
CSV_FRAMING, JSON_FRAMING = ("", ",", "\n", False), ("    [", ", ", "],\n", True)
SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, np.frombuffer(
    np.uint64(0x7FF8000000000001).tobytes())[0].item(),  # a nan with a payload
    math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
    1.7976931348623157e308, -1.7976931348623157e308]


def _per_cell(rows, prefix, delimiter, suffix, json):
    def cell(x):
        return ('"%.17g"' if json and not math.isfinite(x) else "%.17g") % x
    return "".join(prefix + delimiter.join(map(cell, row)) + suffix for row in rows.tolist())


def _first_difference(got, want):
    """None, or the first line where two texts differ: a short failure report
    where a diff of two megabyte strings would take minutes."""
    return next(((g, w) for g, w in itertools.zip_longest(
        got.splitlines(True), want.splitlines(True)) if g != w), None)


@settings(max_examples=60)
@given(n_rows=st.sampled_from([1, cli.BLOCK_ROWS - 1, cli.BLOCK_ROWS, cli.BLOCK_ROWS + 1]),
       pools=st.lists(st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                               min_size=1, max_size=12), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), framing=st.sampled_from([CSV_FRAMING, JSON_FRAMING]))
def test_row_blocks_match_per_cell_formatting(n_rows, pools, seed, framing):
    # each column draws its cells from a pool of at most 12 values: heavy repeats
    rng = np.random.default_rng(seed)
    rows = np.column_stack([np.array(pool)[rng.integers(0, len(pool), n_rows)] for pool in pools])
    blocks = list(cli._row_blocks(rows, *framing))
    assert len(blocks) == -(-n_rows // cli.BLOCK_ROWS)
    assert _first_difference("".join(blocks), _per_cell(rows, *framing)) is None


def test_long_form_json_quotes_non_finite_tokens():
    # non-finite cells on both sides of the first block boundary and in the last row
    rows = np.column_stack([np.repeat([0.5, 1.5, 2.5], 2000), np.tile(np.linspace(0, 1, 2000), 3),
                            np.arange(6000.0)])
    for i, value in [(0, math.nan), (cli.BLOCK_ROWS - 1, math.inf), (cli.BLOCK_ROWS, -math.inf),
                     (5999, math.nan)]:
        rows[i, 2] = value
    stream = io.StringIO()
    cli.write_json(stream, ["v", "omega", "rate"], rows, {"command": "scan"})

    def token(x):
        return '"%s"' % x if not math.isfinite(x) else "%.17g" % x
    body = ",\n".join("    [" + ", ".join(map(token, row)) + "]" for row in rows.tolist())
    assert _first_difference(stream.getvalue(), '{\n  "meta": {"command": "scan"},\n  "data": '
                             '{"columns": ["v", "omega", "rate"], "rows": [\n' + body
                             + "\n  ]}\n}\n") is None
    assert [json.loads(stream.getvalue())["data"]["rows"][i][2]
            for i in (0, cli.BLOCK_ROWS - 1, cli.BLOCK_ROWS, 5999)] == ["nan", "inf", "-inf", "nan"]


# every float flag of every subcommand, on runs small enough to take milliseconds
FLOAT_FLAGS = [
    (["spectrum", "--v", "1", "--points", "4"], ["--v", "--mass", "--omega-min", "--omega-max"]),
    (["scan", "--v-points", "2", "--points", "4"],
     ["--v-min", "--v-max", "--mass", "--omega-min", "--omega-max"]),
    (["scan", "--integrate", "--v-points", "2"], ["--v-min", "--v-max", "--mass"]),
    (["resonance"], ["--mass"]),
    (["simulate", "--v", "0.2", "--kappa0", "8", "--dt-divisor", "20", "--compare"],
     ["--v", "--t0", "--dt-divisor", "--mode-multiplier"]),
    (["estimate", "--n2", "1e-15", "--omega-l-over-c", "1e5"],
     ["--n2", "--omega-l-over-c", "--v-target"]),
]
EDGE_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                     1e308, -1e308, 8.5e154]),
    st.floats(1e100, 1.7e308), st.floats(5e-324, 1e-100),
    st.floats(-1.7e308, -1e100), st.floats(-1e-100, -5e-324),
).map(repr)


@pytest.mark.filterwarnings("ignore::pairflux.modesim.ModeRecurrenceWarning")
@settings(max_examples=150)
@given(data=st.data())
def test_float_flags_never_end_in_a_traceback(data):
    base, flags = data.draw(st.sampled_from(FLOAT_FLAGS))
    values = data.draw(st.dictionaries(st.sampled_from(flags), EDGE_FLOATS, min_size=1))
    argv = base + [f"{flag}={value}" for flag, value in values.items()]  # "=": "-inf" is a value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for flag in {"spectrum": ["--out"], "scan": ["--out"],
                     "simulate": ["--out", "--report"]}.get(base[0], []):
            argv += [flag, os.path.join(tmp, flag[2:])]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        left = os.listdir(tmp)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_NO_RESONANCE, EXIT_INTEGRATOR), argv
    assert "Traceback" not in err.getvalue(), argv
    assert code == EXIT_OK or left == [], (argv, left)
