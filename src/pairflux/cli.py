"""Command-line front end.

Subcommands: spectrum (single-pump profile), scan (2D pump scan or
integrated-rate curve), resonance (resonant pump velocity), simulate
(truncated-mode oracle run), estimate (pump laser intensity).

Output contract: CSV with '#'-prefixed metadata lines, 17-significant-digit
floats, and literal "inf"/"-inf" tokens for flagged divergences, or JSON
with the same fields under "meta"/"data" keys.  Identical invocations
produce byte-identical files (no timestamps in the payload; wall time goes
to stderr).

Exit codes: 0 ok, 2 usage/validation, 3 unwritable output, 4 no resonance,
5 integrator instability.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, kernel, modesim, spectrum

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NO_RESONANCE = 4
EXIT_INTEGRATOR = 5

UNITS_NOTE = "omega0 = 1, c = 1"


@dataclass
class RunRecord:
    """Reproducibility header: everything needed to re-run the command."""

    command: str
    params: dict
    version: str = __version__

    def meta(self) -> dict:
        meta = {"command": self.command, "version": self.version, "units": UNITS_NOTE}
        meta.update(self.params)
        return meta


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"  # nan, inf and -inf print as those words


def _json_token(x) -> str:
    if isinstance(x, str):
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(x, bool):
        return "true" if x else "false"
    token = _fmt(x)
    return f'"{token}"' if token in ("nan", "inf", "-inf") else token


def write_csv(stream, columns: list[str], rows, meta: dict) -> None:
    """Metadata lines, the header, then the float rows; %.17g writes the
    same tokens as _fmt, including nan, inf and -inf."""
    for key, value in meta.items():
        stream.write(f"# {key} = {_fmt(value)}\n")
    stream.write(",".join(columns) + "\n")
    np.savetxt(stream, rows, fmt="%.17g", delimiter=",")


def write_json(stream, columns: list[str], rows, meta: dict, extra: dict | None = None) -> None:
    parts = ["{\n  \"meta\": {"]
    parts.append(", ".join(f"{_json_token(k)}: {_json_token(v)}" for k, v in meta.items()))
    parts.append("},\n")
    if extra:
        for key, value in extra.items():
            parts.append(f"  {_json_token(key)}: {_json_token(value)},\n")
    parts.append(f"  \"data\": {{\"columns\": [")
    parts.append(", ".join(_json_token(c) for c in columns))
    parts.append("], \"rows\": [\n")
    body = ",\n".join("    [" + ", ".join(_json_token(x) for x in row) + "]" for row in rows)
    parts.append(body)
    parts.append("\n  ]}\n}\n")
    stream.write("".join(parts))


@contextlib.contextmanager
def _output(path: str | None):
    """File path or '-'/None for stdout; an OSError from here maps to exit 3."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _log10_column(rates) -> np.ndarray:
    """log10 of each rate; nan stays nan and a zero rate gives -inf."""
    rates = np.asarray(rates, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.isnan(rates) | (rates > 0.0), np.log10(rates), -np.inf)


def _emit(args, record: RunRecord, columns, rows, extra: dict | None = None) -> None:
    fmt = getattr(args, "format", "csv")
    with _output(getattr(args, "out", None)) as stream:
        if fmt == "json":
            write_json(stream, columns, rows, record.meta(), extra)
        else:
            write_csv(stream, columns, rows, record.meta())


def _mass_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mass", type=float, default=None,
        help="boson mass in [0, 0.5]; omitted = photon branch",
    )


def cmd_spectrum(args) -> int:
    pump = spectrum.PumpConfig(v=args.v, mass=args.mass)
    grid = spectrum.SpectralGrid(args.omega_min, args.omega_max, args.points, "closed-uniform")
    result = spectrum.spectrum_grid(pump, grid)  # nan on a branch point
    record = RunRecord(
        command="spectrum",
        params={
            "v": args.v, "mass": "photon" if args.mass is None else args.mass,
            "omega_min": args.omega_min, "omega_max": args.omega_max,
            "points": args.points,
        },
    )
    rows = np.column_stack([result.omega, result.rate, _log10_column(result.rate)])
    _emit(args, record, ["omega", "rate", "log10_rate"], rows)
    return EXIT_OK


def cmd_scan(args) -> int:
    # checked before geomspace, which warns on a non-finite end
    if not (0.0 < args.v_min < args.v_max < math.inf) or args.v_points < 2:
        raise ValueError("need 0 < v-min < v-max < inf and v-points >= 2")
    v_values = np.geomspace(args.v_min, args.v_max, args.v_points)
    params = {
        "v_min": args.v_min, "v_max": args.v_max, "v_points": args.v_points,
        "mass": "photon" if args.mass is None else args.mass,
        "integrate": args.integrate,
    }
    if args.integrate:
        totals = [spectrum.integrated_rate(spectrum.PumpConfig(v=float(v), mass=args.mass))
                  for v in v_values]
        record = RunRecord(command="scan", params=params)
        _emit(args, record, ["v", "integrated_rate"], np.column_stack([v_values, totals]))
        return EXIT_OK
    params.update(
        {"omega_min": args.omega_min, "omega_max": args.omega_max, "points": args.points}
    )
    grid = spectrum.SpectralGrid(args.omega_min, args.omega_max, args.points, "closed-uniform")
    # one spectrum per pump row, so each row carries the omega it was evaluated at
    results = [spectrum.spectrum_grid(spectrum.PumpConfig(v=float(v), mass=args.mass), grid)
               for v in v_values]
    rows = np.column_stack([
        np.repeat(v_values, grid.points),
        np.concatenate([r.omega for r in results]),
        np.concatenate([r.rate for r in results]),
    ])
    record = RunRecord(command="scan", params=params)
    _emit(args, record, ["v", "omega", "rate"], rows)
    return EXIT_OK


def cmd_resonance(args) -> int:
    v_res = spectrum.resonance_velocity(args.mass)  # NoResonance -> exit 4
    reference = spectrum.RESONANCE_VELOCITY_PHOTON
    print(f"resonance_velocity = {v_res:.12f}")
    print(f"photon_reference   = {reference:.12f}  (4*pi / sqrt(pi^2 + (4 - ln 3)^2))")
    print(f"difference         = {v_res - reference:.6e}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if not (args.dt_divisor > 0.0 and args.mode_multiplier > 0.0):
        raise ValueError("--dt-divisor and --mode-multiplier must be > 0")
    dt = 2.0 * math.pi / (args.dt_divisor * args.mode_multiplier)
    config = modesim.SimConfig(
        kappa0=args.kappa0, v=args.v, t0=args.t0, dt=dt,
        mode_multiplier=args.mode_multiplier,
    )
    matrix = modesim.evolve(modesim.build_sim(config))  # IntegratorUnstable -> exit 5
    sim = modesim.extract_rates(matrix)
    record = RunRecord(
        command="simulate",
        params={
            "v": args.v, "kappa0": args.kappa0, "t0": args.t0,
            "dt_divisor": args.dt_divisor, "mode_multiplier": args.mode_multiplier,
            "symplectic_defect": matrix.symplectic_defect(),
        },
    )
    _emit(args, record, ["omega", "rate"], np.column_stack([sim.omega, sim.rate]))
    if args.compare:
        pump = spectrum.PumpConfig(v=args.v)
        report = modesim.compare_to_analytic(sim, pump, tolerance=args.tolerance)
        columns = ["omega", "simulated", "analytic", "relative_deviation"]
        rows = np.column_stack(
            [report.omega, report.simulated, report.analytic, report.relative_deviation]
        )
        extra = {
            "max_relative_deviation": report.max_deviation,
            "median_relative_deviation": report.median_deviation,
            "tolerance": report.tolerance,
            "passed": report.passed,
            "degenerate": report.degenerate,
        }
        with _output(args.report) as stream:
            write_json(stream, columns, rows, record.meta(), extra)
    args.note = f"monodromy spectral radius {matrix.spectral_radius:.12f}"
    return EXIT_OK


def cmd_estimate(args) -> int:
    v_target = args.v_target
    if v_target is None:
        v_target = spectrum.resonance_velocity(None)
    intensity = spectrum.required_intensity(args.n2, args.omega_l_over_c, v_target)
    print(f"{intensity:.12g} W/cm^2")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairflux",
        description="Two-boson vacuum emission of a medium with an oscillating optical length",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectrum", help="emission spectrum at a fixed pump velocity")
    p.add_argument("--v", type=float, required=True, help="pump velocity V/c")
    _mass_arg(p)
    p.add_argument("--omega-min", type=float, default=0.001)
    p.add_argument("--omega-max", type=float, default=0.999)
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("scan", help="scan over pump velocities (long-form or integrated)")
    p.add_argument("--v-min", type=float, default=0.1)
    p.add_argument("--v-max", type=float, default=30.0)
    p.add_argument("--v-points", type=int, default=200)
    _mass_arg(p)
    p.add_argument("--omega-min", type=float, default=0.001)
    p.add_argument("--omega-max", type=float, default=0.999)
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--integrate", action="store_true", help="emit (v, integrated rate) instead")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("resonance", help="resonant pump velocity")
    _mass_arg(p)
    p.set_defaults(handler=cmd_resonance)

    p = sub.add_parser("simulate", help="truncated-mode oracle run")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--kappa0", type=int, default=32)
    p.add_argument("--t0", type=float, default=400.0 * math.pi)
    p.add_argument("--dt-divisor", type=float, default=modesim.DEFAULT_DT_DIVISOR)
    p.add_argument("--mode-multiplier", type=float, default=1.0)
    p.add_argument("--compare", action="store_true", help="also emit a deviation report (JSON)")
    p.add_argument("--tolerance", type=float, default=0.15)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None, help="deviation report path (default stdout)")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("estimate", help="pump intensity reaching a target velocity")
    p.add_argument("--n2", type=float, required=True, help="Kerr index, cm^2/W")
    p.add_argument("--omega-l-over-c", type=float, required=True, help="omega0 L / c")
    p.add_argument("--v-target", type=float, default=None, help="default: resonance velocity")
    p.set_defaults(handler=cmd_estimate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.handler(args)
    except spectrum.NoResonance as exc:
        print(f"pairflux: no resonance: {exc}", file=sys.stderr)
        return EXIT_NO_RESONANCE
    except modesim.IntegratorUnstable as exc:
        print(f"pairflux: integrator unstable: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except (ValueError, kernel.SingularArgument) as exc:
        print(f"pairflux: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"pairflux: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    note = getattr(args, "note", "")  # a handler's diagnostic, kept out of the payload
    print(f"pairflux: {args.subcommand} finished in {time.perf_counter() - start:.3f}s"
          + (f", {note}" if note else ""), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
