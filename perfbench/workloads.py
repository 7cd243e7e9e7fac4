"""Seeded workload inputs and the correctness checks of their outputs.

A workload is the list of `pairflux` command lines of one run (the program
receives only these generated arguments), a small first call used to time
set-up, and a check that reads the files the commands wrote.  The checks
evaluate the closed form independently with numpy and compare numbers
within tolerances, never bytes, so a change in the last printed digit is not
a failure.  An operation is one pump-velocity row, one integrated rate or
one oracle run; the check returns how many of them failed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 0
DENOMINATOR_FLOOR = 1e-12  # the kernel's default divergence floor
CELL_RTOL = 1e-12          # closed-form cells, scaled by the rounding condition
# Integrated rates against the independent integral, by the path
# integrated_rate takes.  Its fixed 256-node Gauss rule reaches 3e-6 on the
# photon branch, but integrates across the jump of Im Geff at omega = 2 m on
# the massive one: 0.3% (median) to 0.54% (max) at mass 0.1.
FIXED_RULE_RTOL = {"photon": 1e-4, "massive": 1e-2}
# Within 0.1 of v_r the adaptive bisection accepts 2.2e-4 errors, and in
# narrow bands of v its acceptance test converges falsely: 2.7% at
# v - v_r = +1.126e-3, -1.125e-3 and +4.51e-3 (seeds 15, 149 and 154).
ADAPTIVE_RTOL = 5e-2
ADAPTIVE_BAND = 0.1        # integrated_rate refines when |v - v_r| < 0.1
WEAK_PUMP_RTOL = 0.01
ORACLE_MEDIAN_TOL = 0.15   # acceptance criterion 8
SYMPLECTIC_TOL = 1e-6      # acceptance criterion 9

OMEGA_GRID = (0.001, 0.999, 512)  # the CLI's default long-form omega grid


@dataclass
class Outcome:
    failed: int
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    commands: list[list[str]]
    probe: list[str]
    operations: int
    outputs: list[Path]
    check: Callable[[], Outcome]


# ---------------------------------------------------------------- closed form

def _geff(w, mass):
    g = (1.0 + 0.5 * w * np.log(np.abs(1.0 - w) / np.abs(1.0 + w))) / np.pi \
        + 1j * np.where(np.abs(w) < 1.0, 0.5 * w, 0.0)
    if mass is None:
        return g
    g1 = (1.0 + 0.5 * w * np.log(np.abs(2.0 * mass - w) / np.abs(1.0 + w))) / np.pi \
        + 1j * np.where(w < 2.0 * mass, 0.5 * w, 0.0)
    return g - g1


def reference_rate(w, v, mass=None):
    """Closed-form pair rate and the factor by which its rounding error is
    amplified when the resolvent factor nearly cancels."""
    w = np.asarray(w, dtype=float)
    a, b = _geff(w, mass), _geff(1.0 - w, mass)
    numerator = (v / (2.0 * np.pi)) ** 2 * 4.0 * a.imag * b.imag
    product = v * v * np.conj(a) * b
    factor = np.abs(1.0 - product)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(numerator == 0.0, 0.0,
                        np.where(factor < DENOMINATOR_FLOOR, np.inf, numerator / factor**2))
        condition = 1.0 + np.abs(product) / factor
    return rate, condition


def reference_resonance(mass=None) -> float:
    return float(1.0 / np.abs(_geff(np.array(0.5), mass)))


_X16, _W16 = np.polynomial.legendre.leggauss(16)


def _breakpoints(mass):
    # panels graded geometrically towards the band edges, the resonant
    # peak at omega = 1/2 and, for a massive boson, the jump at 2 m
    centres = [0.0, 0.5, 1.0] + ([2.0 * mass, 1.0 - 2.0 * mass] if mass else [])
    points = set(centres)
    for c in centres:
        for k in range(1, 45):
            points.update((c - 2.0**-k, c + 2.0**-k))
    return np.array(sorted(p for p in points if 0.0 <= p <= 1.0))


def reference_integrated_rate(v: float, mass=None) -> float:
    """Integral of the closed form over [0, 1] by composite 16-point Gauss
    on graded panels; independent of pairflux's quadrature policy."""
    b = _breakpoints(mass)
    mid, half = 0.5 * (b[1:] + b[:-1]), 0.5 * (b[1:] - b[:-1])
    nodes = (mid[:, None] + half[:, None] * _X16).ravel()
    weights = (half[:, None] * _W16).ravel()
    rate, _ = reference_rate(nodes, v, mass)
    return float(np.dot(weights, rate))


def _close(got: float, want: float, rtol: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= rtol * abs(want)


# ---------------------------------------------------------------- map

def map_workload(seed: int, out: Path) -> Workload:
    """Long-form scan, 200 log-spaced v x 512 omega, CSV to a file."""
    rng = np.random.default_rng([seed, 1])
    v_min = 0.1 * (1.0 + rng.uniform(-0.03, 0.03))
    v_max = 30.0 * (1.0 + rng.uniform(-0.03, 0.03))
    v_points, (w_min, w_max, w_points) = 200, OMEGA_GRID
    path = out / "map.csv"

    def argv(n_v: int, target: Path) -> list[str]:
        return ["scan", "--v-min", repr(v_min), "--v-max", repr(v_max),
                "--v-points", str(n_v), "--omega-min", repr(w_min),
                "--omega-max", repr(w_max), "--points", str(w_points), "--out", str(target)]

    v_grid = np.geomspace(v_min, v_max, v_points)
    w_grid = np.linspace(w_min, w_max, w_points)
    # the first and last cell of every row plus 14 seeded ones
    sample = np.sort(np.concatenate([
        [0, w_points - 1], rng.choice(np.arange(1, w_points - 1), 14, replace=False)]))

    def check() -> Outcome:
        lines = path.read_text(encoding="utf-8").splitlines()
        body = [i for i, line in enumerate(lines) if not line.startswith("#")]
        if not body or lines[body[0]] != "v,omega,rate" or len(body) != 1 + v_points * w_points:
            return Outcome(v_points, {"error": "map.csv does not hold a 200 x 512 table"})
        start = body[0] + 1
        failed = 0
        worst = 0.0
        for i in range(v_points):
            cells = np.array([[float(x) for x in lines[start + i * w_points + j].split(",")]
                              for j in sample])
            v, w, rate = cells[:, 0], cells[:, 1], cells[:, 2]
            want, condition = reference_rate(w, v)
            finite = np.isfinite(want)
            err = np.abs(rate[finite] - want[finite]) / (np.abs(want[finite]) * condition[finite])
            worst = max(worst, float(err.max(initial=0.0)))
            ok = (np.allclose(v, v_grid[i], rtol=1e-12, atol=0.0)
                  and np.allclose(w, w_grid[sample], rtol=1e-12, atol=0.0)
                  and np.array_equal(rate[~finite], want[~finite])
                  and bool((err <= CELL_RTOL).all()))
            failed += not ok
        return Outcome(failed, {"cells_checked": v_points * sample.size, "max_rel_err": worst})

    return Workload("map", [argv(v_points, path)], argv(2, out / "probe-map.csv"),
                    v_points, [path], check)


# ---------------------------------------------------------------- curve

@dataclass
class _Sweep:
    label: str
    v_min: float
    v_max: float
    mass: float | None
    path: Path
    points: int = 200

    def argv(self, points: int, target: Path) -> list[str]:
        argv = ["scan", "--integrate", "--v-min", repr(self.v_min), "--v-max", repr(self.v_max),
                "--v-points", str(points), "--format", "json", "--out", str(target)]
        if self.mass is not None:
            argv += ["--mass", repr(self.mass)]
        return argv


def curve_workload(seed: int, out: Path) -> Workload:
    """Three integrated-rate curves: photon 0.1..30, a window around v_r and
    mass 0.1 over 0.1..30."""
    rng = np.random.default_rng([seed, 2])
    v_r = reference_resonance()
    shift = rng.uniform(-0.01, 0.01)
    sweeps = [
        _Sweep("photon", 0.1, 30.0, None, out / "curve-photon.json"),
        _Sweep("window", v_r - 0.08 + shift, v_r + 0.08 + shift, None, out / "curve-window.json"),
        _Sweep("mass", 0.1, 30.0, 0.1, out / "curve-mass.json"),
    ]
    references: dict[str, np.ndarray] = {}

    def check_sweep(sweep: _Sweep, info: dict) -> int:
        v_grid = np.geomspace(sweep.v_min, sweep.v_max, sweep.points)
        if sweep.label not in references:
            references[sweep.label] = np.array(
                [reference_integrated_rate(float(v), sweep.mass) for v in v_grid])
        want = references[sweep.label]
        rows = json.loads(sweep.path.read_text(encoding="utf-8"))["data"]["rows"]
        if len(rows) != sweep.points:
            return sweep.points
        v = np.array([float(r[0]) for r in rows])
        rate = np.array([float(r[1]) for r in rows])
        v_res = reference_resonance(sweep.mass)
        rtol = np.where(np.abs(v - v_res) < ADAPTIVE_BAND, ADAPTIVE_RTOL,
                        FIXED_RULE_RTOL["photon" if sweep.mass is None else "massive"])
        bad = ~np.isclose(v, v_grid, rtol=1e-12, atol=0.0)
        finite = np.isfinite(rate)
        # inf is the documented answer only for a pump at exact resonance
        bad |= ~finite & (np.abs(v - v_res) > 1e-8)
        dev = np.abs(rate[finite] / want[finite] - 1.0)
        bad[finite] |= dev > rtol[finite]
        info[f"{sweep.label}_max_rel_err"] = float(dev.max(initial=0.0))
        if sweep.label == "photon":
            weak = (v[0] / (2.0 * math.pi)) ** 2 / 6.0
            bad[0] |= not _close(rate[0], weak, WEAK_PUMP_RTOL)
        if v[0] <= v_res <= v[-1] and finite.any():
            peak = int(np.argmax(np.where(finite, rate, -np.inf)))
            step = np.diff(v)[max(peak - 1, 0):peak + 1].max()
            bad[peak] |= abs(v[peak] - v_res) > step
            info[f"{sweep.label}_peak_v"] = float(v[peak])
        return int(bad.sum())

    def check() -> Outcome:
        info: dict = {}
        failed = sum(check_sweep(s, info) for s in sweeps)
        info["quad_rel_err"] = max(info[f"{s.label}_max_rel_err"] for s in sweeps)
        return Outcome(failed, info)

    return Workload("curve", [s.argv(s.points, s.path) for s in sweeps],
                    sweeps[0].argv(2, out / "probe-curve.json"),
                    sum(s.points for s in sweeps), [s.path for s in sweeps], check)


# ---------------------------------------------------------------- oracle

ORACLE_KAPPA0 = 64
ORACLE_T0 = 100.0 * math.pi
ORACLE_WINDOW = (0.2, 0.8)  # compare_to_analytic's default window


def oracle_workload(seed: int, out: Path) -> Workload:
    """One truncated-mode oracle run with a JSON deviation report."""
    rng = np.random.default_rng([seed, 3])
    v = float(rng.uniform(0.15, 0.25))
    spectrum_path, report_path = out / "oracle.csv", out / "oracle-report.json"

    def argv(extra: list[str], spectrum_out: Path, report_out: Path) -> list[str]:
        return ["simulate", "--v", repr(v), "--kappa0", str(ORACLE_KAPPA0),
                "--t0", repr(ORACLE_T0), *extra, "--compare",
                "--out", str(spectrum_out), "--report", str(report_out)]

    k = np.arange(1, ORACLE_KAPPA0 + 1)
    omega_expected = k[(k / ORACLE_KAPPA0 > ORACLE_WINDOW[0])
                       & (k / ORACLE_KAPPA0 < ORACLE_WINDOW[1])] / ORACLE_KAPPA0

    def check() -> Outcome:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        rows = np.array(report["data"]["rows"], dtype=float)
        defect = float(report["meta"]["symplectic_defect"])
        median = float(report["median_relative_deviation"])
        info = {"v": v, "median_dev": median, "symplectic_defect": defect}
        if rows.shape != (omega_expected.size, 4):
            return Outcome(1, info)
        omega, simulated, analytic, deviation = rows.T
        want, condition = reference_rate(omega, v)
        spectrum_rows = [line.split(",") for line in spectrum_path.read_text().splitlines()
                         if line and not line.startswith("#")][1:]
        spectrum = {float(w): float(r) for w, r in spectrum_rows}
        ok = (np.allclose(omega, omega_expected, rtol=1e-12, atol=0.0)
              and bool((np.abs(analytic - want) <= CELL_RTOL * condition * np.abs(want)).all())
              and np.allclose(deviation, np.abs(simulated / analytic - 1.0), rtol=1e-12, atol=1e-15)
              and all(_close(spectrum.get(float(w), math.nan), s, 1e-12)
                      for w, s in zip(omega, simulated))
              and _close(median, float(np.median(deviation)), 1e-12)
              and median <= ORACLE_MEDIAN_TOL
              and defect <= SYMPLECTIC_TOL)
        return Outcome(0 if ok else 1, info)

    return Workload("oracle", [argv([], spectrum_path, report_path)],
                    # same path at the coarsest allowed step: 1 000 instead of 10 000 steps
                    argv(["--dt-divisor", "20"], out / "probe-oracle.csv",
                         out / "probe-oracle-report.json"),
                    1, [spectrum_path, report_path], check)


WORKLOADS = {"map": map_workload, "curve": curve_workload, "oracle": oracle_workload}
