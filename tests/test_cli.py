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
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_cell
import scalar_reference
from pairflux import cli, spectrum
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
    "simulate": [(("--v",), None, float, True, None), (("--kappa0",), 256, int, False, None),
                 (("--t0",), 400.0 * math.pi, float, False, None),
                 (("--dt-divisor",), 40.0, float, False, None),
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


def test_simulate_compare_does_not_import_numpy_ma(tmp_path):
    # a fresh interpreter: the compare's median imported numpy.ma, 10-20 ms of a cold start
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    argv = ["simulate", "--v", "0.2", "--kappa0", "16", "--t0", "314.16", "--compare",
            "--out", str(tmp_path / "sim.csv"), "--report", str(tmp_path / "report.json")]
    code = (f"import sys; from pairflux.cli import main; code = main({argv!r}); "
            "print(code, 'numpy.ma' in sys.modules, 'numpy' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "0 False True\n"
    report = json.loads((tmp_path / "report.json").read_text())
    deviations = [row[3] for row in report["data"]["rows"]]
    assert deviations and report["median_relative_deviation"] == np.median(deviations)


def test_cold_start_imports_neither_numpy_polynomial_nor_dataclasses(tmp_path):
    # a fresh interpreter: the quadrature rules and the digit kernel's powers of ten
    # come from stored tables, and the configs and records are plain classes
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    v_r = spectrum.RESONANCE_VELOCITY_PHOTON
    sweeps = [["--v-points", "8"], ["--v-min", repr(v_r - 0.08), "--v-max", repr(v_r + 0.08)],
              ["--v-points", "8", "--mass", "0.1"]]
    argvs = [["scan", "--integrate", *sweep, "--out", str(tmp_path / f"{i}.csv")]
             for i, sweep in enumerate(sweeps)]
    code = ("import sys; import pairflux.cli; print('dataclasses' in sys.modules); "
            f"print([pairflux.cli.main(argv) for argv in {argvs!r}], "
            "'numpy.polynomial' in sys.modules, 'dataclasses' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "False\n[0, 0, 0] False False\n"
    assert all(len(read_csv(tmp_path / f"{i}.csv")[2]) > 1 for i in range(3))


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
        # rates within 1e-12 relative, and the unitarity residue, rounding of the
        # symplectic GL3 maps (4.4e-13 in the file), at most 1e-12
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
        assert defect <= 1e-12 and want_defect <= 1e-12

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
         ("--t0", "1e308"), ("--dt-divisor", "inf"), ("--dt-divisor", "nan"),
         ("--dt-divisor", "19.9"), ("--v", "1e160")],
        ids=["zero_divisor", "negative_divisor", "infinite_t0", "nan_v",
             "steps_per_period_over_limit", "period_maps_over_limit", "periods_over_limit",
             "periods_beyond_int64_steps", "steps_beyond_float_range", "infinite_divisor",
             "nan_divisor", "divisor_below_20", "v_squared_overflows"],
    )
    def test_invalid_input_exits_two(self, flags, capsys):
        argv = ["simulate", "--v", "0.1", "--kappa0", "8", "--t0", str(100 * math.pi)]
        assert main(argv + list(flags)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "invalid arguments" in err and "Traceback" not in err

    def test_mode_multiplier_is_refused(self, tmp_path, monkeypatch, capsys):
        # the mode ladder ends at the pump frequency: the option is gone, not ignored
        monkeypatch.setattr(cli.modesim, "evolve", lambda config: pytest.fail("evolved"))
        argv = ["simulate", "--v", "0.2", "--kappa0", "8", "--mode-multiplier", "1.5",
                "--out", str(tmp_path / "sim.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and _listing(tmp_path) == []
        assert "unrecognized arguments: --mode-multiplier" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_metadata_keys(self, fmt, tmp_path):
        out, report = tmp_path / f"sim.{fmt}", tmp_path / "rep.json"
        assert main(["simulate", "--v", "0", "--kappa0", "8", "--t0", str(100 * math.pi),
                     "--compare", "--format", fmt, "--out", str(out),
                     "--report", str(report)]) == EXIT_OK
        table = read_csv(out)[0] if fmt == "csv" else json.loads(out.read_text())["meta"]
        want = ["command", "version", "units", "v", "kappa0", "t0", "dt_divisor",
                "symplectic_defect"]
        assert list(table) == list(json.loads(report.read_text())["meta"]) == want

    def test_stderr_reports_monodromy_radius(self, tmp_path, capsys):
        code = main([
            "simulate", "--v", "0", "--kappa0", "8", "--t0", str(100 * math.pi),
            "--out", str(tmp_path / "sim.csv"),
        ])
        assert code == EXIT_OK
        line = capsys.readouterr().err.strip()
        assert line.startswith("pairflux: simulate finished in ")
        assert ", 50 pump periods, monodromy spectral radius " in line  # t0 = 100 pi
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

    @pytest.mark.parametrize("outputs", [[], ["--out", "-"], ["--report", "-"],
                                         ["--out", "-", "--report", "-"]],
                             ids=["neither", "out_stdout", "report_stdout", "both_stdout"])
    def test_compare_on_stdout_alone_exits_two_before_evolving(self, outputs, monkeypatch, capsys):
        # the table and the report in one stream would be neither CSV nor JSON
        monkeypatch.setattr(cli.modesim, "evolve", lambda config: pytest.fail("evolved"))
        assert main(["simulate", "--v", "0.2", "--kappa0", "8", "--compare", *outputs]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("pairflux: invalid arguments: --compare writes a table and a "
                                "report: give --out or --report\n")

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
    return "".join(prefix + delimiter.join(per_cell.cell(x, json) for x in row) + suffix
                   for row in rows.tolist())


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
    blocks = list(cli._row_blocks(rows.T, *framing))
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
    cli.write_json(stream, ["v", "omega", "rate"], rows.T, {"command": "scan"})
    body = per_cell.rows_text(rows.tolist(), json=True)
    assert _first_difference(stream.getvalue(), '{\n  "meta": {"command": "scan"},\n  "data": '
                             '{"columns": ["v", "omega", "rate"], "rows": [\n' + body
                             + "  ]}\n}\n") is None
    assert [json.loads(stream.getvalue())["data"]["rows"][i][2]
            for i in (0, cli.BLOCK_ROWS - 1, cli.BLOCK_ROWS, 5999)] == ["nan", "inf", "-inf", "nan"]


V_R = spectrum.RESONANCE_VELOCITY_PHOTON


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("v_range, points, mass", [
    ((0.1, 30.0, 9), 500, None),
    ((0.1, 30.0, 9), 501, 0.1),
    ((V_R - 1e-13, V_R + 1.1e-12, 10), 501, None),
], ids=["500_points", "501_points_mass", "nudged"])
def test_long_form_matches_per_cell_formatting(tmp_path, v_range, points, mass, fmt):
    # the v and omega columns broadcast over the table; the second block of
    # 4,096 rows starts mid-pump, and in the nudged table, which carries its
    # real omega, both blocks hold pumps whose rate at omega = 1/2 the kernel
    # flags inf, and whose node there is therefore nudged
    v_min, v_max, v_points = v_range
    out = tmp_path / f"long.{fmt}"
    argv = ["scan", "--v-min", repr(v_min), "--v-max", repr(v_max), "--v-points", str(v_points),
            "--points", str(points), "--format", fmt, "--out", str(out)]
    assert main(argv + ([] if mass is None else ["--mass", repr(mass)])) == EXIT_OK
    v, grid = np.geomspace(v_min, v_max, v_points), spectrum.SpectralGrid(0.001, 0.999, points)
    omega, rate = spectrum.scan_2d(v, grid, mass)
    nudged = np.flatnonzero(omega.ravel() != np.tile(grid.nodes(), v_points))
    assert (nudged < cli.BLOCK_ROWS).any() == (nudged >= cli.BLOCK_ROWS).any() == (v_min > 1.0)
    rows = np.column_stack([np.repeat(v, points), omega.ravel(), rate.ravel()])
    text = out.read_text()
    if fmt == "json":  # every row as _per_cell ends it, the last one too
        got = text[text.index('"rows": [\n') + 10:text.rindex("\n  ]}")] + ",\n"
    else:
        got = text.split("v,omega,rate\n", 1)[1]
    want = _per_cell(rows, *(JSON_FRAMING if fmt == "json" else CSV_FRAMING))
    assert _first_difference(got, want) is None


@pytest.mark.parametrize("v_min, v_max, formatted", [
    (0.1, 30.0, 9 + 501 + 9 * 501),
    (V_R - 1e-13, V_R + 1.1e-12, 9 + 2 * 9 * 501),
], ids=["grid", "nudged"])
def test_long_form_formats_v_and_nodes_once(tmp_path, monkeypatch, v_min, v_max, formatted):
    # v and the nodes are formatted once per table; a nudged table formats its omega in full
    counted, cells = [], cli._digit_cells
    monkeypatch.setattr(cli, "_digit_cells",
                        lambda values, json=False: counted.append(values.size) or cells(values, json))
    assert main(["scan", "--v-min", repr(v_min), "--v-max", repr(v_max), "--v-points", "9",
                 "--points", "501", "--out", str(tmp_path / "long.csv")]) == EXIT_OK
    assert sum(counted) == formatted


@pytest.mark.parametrize("framing", [CSV_FRAMING, JSON_FRAMING])
def test_broadcast_columns_match_per_cell_formatting(framing):
    # a (3, 1) v column, 3001 nodes and a full rate column: 9,003 rows over 3
    # blocks, the second and third starting mid-pump; -0.0 keeps its sign
    v, nodes = np.array([[-0.0], [1.5], [2.5]]), np.linspace(0.0, 1.0, 3001)
    rate = np.arange(9003.0).reshape(3, 3001)
    got = "".join(cli._row_blocks([v, nodes, rate], *framing))
    rows = np.column_stack([np.repeat(v, 3001), np.tile(nodes, 3), rate.ravel()])
    assert _first_difference(got, _per_cell(rows, *framing)) is None


def _powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-307, 309)])
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])


def _ties():
    # n + 1/4 and n + 3/4 carry 18 significant digits: exact ties at the 18th
    n = np.random.default_rng(1).integers(2**50, 2**51, 5000).astype(float)
    return np.concatenate([n + 0.25, n + 0.75])


def _random_bits():
    return np.random.default_rng(2).integers(0, 2**64, 10**5, dtype=np.uint64).view(float)


def _log_uniform(n=10**5):
    rng = np.random.default_rng(3)
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-290.0, 300.0, n)


def _specials():
    # the values the digit kernel leaves to _token, among ordinary ones
    subnormals = np.random.default_rng(4).integers(1, 2**52, 100, dtype=np.uint64).view(float)
    edges = [1e-290, np.nextafter(1e-290, 0.0), 1e300, np.nextafter(1e300, 0.0)]
    return np.concatenate([SPECIAL_FLOATS, subnormals, -subnormals, edges, _log_uniform(1000)])


def _short_decimals(n=8500):
    # m 10^p 2^-j with m 10^p 5^j < 1e16: fewer than 17 significant digits, at every
    # fixed exponent k = -4 .. 15, ending in a cut fraction (k <= 14) or in integer zeros
    rng = np.random.default_rng(7)
    j, p = rng.integers(0, 15, n), rng.integers(0, 11, n)
    m = np.floor(10.0 ** (rng.random(n) * np.maximum(16 - p - j * np.log10(5.0), 0.0)))
    return rng.choice([-1.0, 1.0], n) * m * 10.0**p * 2.0**-j


FAMILIES = {"powers_of_ten": _powers_of_ten, "ties": _ties, "random_bits": _random_bits,
            "log_uniform": _log_uniform, "specials": _specials, "short_decimals": _short_decimals}


@pytest.mark.parametrize("family, columns, framing", [
    *(pytest.param(name, 1, CSV_FRAMING, id=name) for name in FAMILIES),
    pytest.param("specials", 1, JSON_FRAMING, id="specials_json"),
    *(pytest.param(name, 4, framing, id=f"{name}_4_columns_{kind}") for name in FAMILIES
      for kind, framing in (("csv", CSV_FRAMING), ("json", JSON_FRAMING))),
])
def test_digit_kernel_matches_percent_formatting(family, columns, framing):
    # distinct values, BLOCK_ROWS rows to a block: the digit kernel formats all
    # but what it leaves to _token; in 4 columns one kernel call mixes the
    # layouts of every column of a block
    values = FAMILIES[family]()
    rows = values[:len(values) // columns * columns].reshape(-1, columns)
    got = "".join(cli._row_blocks(rows.T, *framing))
    assert _first_difference(got, _per_cell(rows, *framing)) is None


def test_cells_do_not_depend_on_the_order_of_values():
    # each cell follows its value, whatever the order of the values
    values = np.sort(_log_uniform())
    shuffle = np.random.default_rng(6).permutation(len(values))
    _, cells = cli._digit_cells(values)
    assert cli._digit_cells(values[shuffle])[1].tobytes() == cells[:, shuffle].tobytes()


def test_emitter_memory_is_bounded_by_the_block():
    # every cell distinct: a table-wide dedup or a whole-table buffer would grow with the rows
    tables = [np.random.default_rng(5).uniform(0.0, 1.0, (n, 3)) for n in (20_000, 80_000)]
    cli._digit_tables()  # built once, outside the traced runs
    peaks = []
    with open(os.devnull, "w") as sink:
        for rows in tables:
            tracemalloc.start()
            cli.write_json(sink, ["a", "b", "c"], rows.T, {"command": "test"})
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_digit_kernel_leaves_only_near_ties():
    # exact ties at the 18th digit are common only where |x| has few fraction
    # bits, above about 1e13: 92 of these 10^5 values, all of them ties
    values = np.sort(_log_uniform())
    ok, _ = cli._digit_cells(values)
    assert (~ok).sum() <= 200
    for x in values[~ok].tolist():
        exact = Fraction(abs(x)) * Fraction(10) ** (16 - Decimal(x).adjusted())
        assert abs(exact - math.floor(exact) - Fraction(1, 2)) <= 1e-6


# every float flag of every subcommand, on runs small enough to take milliseconds
FLOAT_FLAGS = [
    (["spectrum", "--v", "1", "--points", "4"], ["--v", "--mass", "--omega-min", "--omega-max"]),
    (["scan", "--v-points", "2", "--points", "4"],
     ["--v-min", "--v-max", "--mass", "--omega-min", "--omega-max"]),
    (["scan", "--integrate", "--v-points", "2"], ["--v-min", "--v-max", "--mass"]),
    (["resonance"], ["--mass"]),
    (["simulate", "--v", "0.2", "--kappa0", "8", "--dt-divisor", "20", "--compare"],
     ["--v", "--t0", "--dt-divisor"]),
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
