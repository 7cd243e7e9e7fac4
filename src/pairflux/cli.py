"""Command-line front end.

Subcommands: spectrum (single-pump profile), scan (2D pump scan or
integrated-rate curve), resonance (resonant pump velocity), simulate
(truncated-mode oracle run), estimate (pump laser intensity).

Output contract: CSV with '#'-prefixed metadata lines, 17-significant-digit
floats, and literal "inf"/"-inf" tokens for flagged divergences, or JSON
with the same fields under "meta"/"data" keys.  Identical invocations
produce byte-identical files (no timestamps in the payload; wall time goes
to stderr).

Exit codes: 0 ok, 2 usage/validation (an invalid omega grid in either scan
mode, simulate --report without --compare) or a run too large for memory,
3 unwritable output, 4 no resonance, 5 integrator instability.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import stat
import sys
import tempfile
import time
import warnings

import numpy as np

from . import __version__, modesim, spectrum

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NO_RESONANCE = 4
EXIT_INTEGRATOR = 5

UNITS_NOTE = "omega0 = 1, c = 1"
BLOCK_ROWS = 4096  # rows per formatted block: one block of cells is held as Python strings
_NONFINITE = re.compile(r"-?inf|nan")


def _token(x, json: bool = False) -> str:
    """One value as text: an int as an integer, a float as %.17g (nan, inf
    and -inf print as those words).  As a JSON token a string is quoted and
    escaped, a bool is true/false and the non-finite words are quoted."""
    if isinstance(x, str):
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"' if json else x
    if json and isinstance(x, bool):
        return "true" if x else "false"
    token = str(int(x)) if isinstance(x, (int, np.integer)) else f"{float(x):.17g}"
    return _NONFINITE.sub(r'"\g<0>"', token) if json else token


def _row_blocks(rows, prefix: str, delimiter: str, suffix: str, json: bool = False):
    """The float rows as text, BLOCK_ROWS rows per block; each row is
    prefix, its %.17g cells joined by delimiter, then suffix (none of which
    holds a NUL).  Each distinct value of a column of a block is formatted
    once, with its framing, and the cells gather those strings.  Values are
    told apart by their bit pattern, so -0.0 and 0.0 (and any two nan
    payloads) never share a string.  As JSON the non-finite words are quoted."""
    rows = np.asarray(rows, dtype=float)
    ends = [delimiter] * (rows.shape[1] - 1) + [suffix]
    templates = [(prefix if c == 0 else "") + "%.17g" + end + "\0" for c, end in enumerate(ends)]
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start:start + BLOCK_ROWS]
        cells = np.empty(block.shape, dtype=object)
        for c, template in enumerate(templates):
            bits, inverse = np.unique(block[:, c].view(np.int64), return_inverse=True)
            # one % call for the column, split at the NULs: faster than a % call per value
            text = (template * len(bits)) % tuple(bits.view(float).tolist())
            strings = np.array(text.split("\0"), object)
            if json:  # quote the nan and inf words once per distinct value
                for i in np.flatnonzero(~np.isfinite(bits.view(float))):
                    strings[i] = _NONFINITE.sub(r'"\g<0>"', strings[i])
            cells[:, c] = strings[inverse]
        yield "".join(cells.ravel().tolist())


def write_csv(stream, columns: list[str], rows, meta: dict) -> None:
    """Metadata lines, the header, then the float rows."""
    for key, value in meta.items():
        stream.write(f"# {key} = {_token(value)}\n")
    stream.write(",".join(columns) + "\n")
    for text in _row_blocks(rows, "", ",", "\n"):
        stream.write(text)


def write_json(stream, columns: list[str], rows, meta: dict, extra: dict | None = None) -> None:
    """meta, the extra fields, then the columns and rows under "data", one
    row per line; nan, inf and -inf are quoted strings."""
    fields = ", ".join(f"{_token(k, True)}: {_token(v, True)}" for k, v in meta.items())
    lines = "".join(f"  {_token(k, True)}: {_token(v, True)},\n" for k, v in (extra or {}).items())
    names = ", ".join(_token(c, True) for c in columns)
    stream.write(f'{{\n  "meta": {{{fields}}},\n{lines}  "data": {{"columns": [{names}], "rows": [\n')
    for i, text in enumerate(_row_blocks(rows, "    [", ", ", "],\n", json=True)):
        # every row ends in ",\n"; the separator before the next block restores it
        stream.write((",\n" if i else "") + text[:-2])
    stream.write("\n  ]}\n}\n")


def _emit(stream, fmt: str, columns: list[str], rows, meta: dict) -> None:
    (write_json if fmt == "json" else write_csv)(stream, columns, rows, meta)


def _meta(args, **params) -> dict:
    """Reproducibility header: command, version, units, then what re-runs it."""
    return {"command": args.subcommand, "version": __version__, "units": UNITS_NOTE, **params}


@contextlib.contextmanager
def _output(path: str | None):
    """Stdout for None or '-'.  A file is written to a temporary file next
    to its target and renamed over it when the block ends without an
    exception, so a failed run leaves no partial file; an OSError from here
    maps to exit 3.  A symlink is written through, and an existing target
    that is not a regular file (a device, a FIFO) is written directly."""
    if path in (None, "-"):
        yield sys.stdout
        return
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:  # a new file gets what open(path, "w") gives: 0666 less the umask
        umask = os.umask(0o022)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask
    if not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.", suffix=".tmp",
                                   dir=os.path.dirname(target))
    except OSError as exc:  # name the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _log10_column(rates: np.ndarray) -> np.ndarray:
    """log10 of each rate; nan stays nan and a zero rate gives -inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.isnan(rates) | (rates > 0.0), np.log10(rates), -np.inf)


def cmd_spectrum(args) -> None:
    pump = spectrum.PumpConfig(v=args.v, mass=args.mass)
    grid = spectrum.SpectralGrid(args.omega_min, args.omega_max, args.points)
    result = spectrum.spectrum_grid(pump, grid)  # nan on a branch point
    meta = _meta(
        args, v=args.v, mass="photon" if args.mass is None else args.mass,
        omega_min=args.omega_min, omega_max=args.omega_max, points=args.points,
    )
    rows = np.column_stack([result.omega, result.rate, _log10_column(result.rate)])
    with _output(args.out) as stream:
        _emit(stream, args.format, ["omega", "rate", "log10_rate"], rows, meta)


def cmd_scan(args) -> None:
    # checked before geomspace, which warns on a non-finite end
    if not (0.0 < args.v_min < args.v_max < math.inf) or args.v_points < 2:
        raise ValueError("need 0 < v-min < v-max < inf and v-points >= 2")
    v_values = np.geomspace(args.v_min, args.v_max, args.v_points)
    grid = spectrum.SpectralGrid(args.omega_min, args.omega_max, args.points)  # checked in both modes
    params = {
        "v_min": args.v_min, "v_max": args.v_max, "v_points": args.v_points,
        "mass": "photon" if args.mass is None else args.mass,
        "integrate": args.integrate,
    }
    if args.integrate:
        totals = spectrum.integrated_rates(v_values, args.mass)
        columns, rows = ["v", "integrated_rate"], np.column_stack([v_values, totals])
    else:
        params.update(omega_min=args.omega_min, omega_max=args.omega_max, points=args.points)
        omega, rate = spectrum.scan_2d(v_values, grid, args.mass)
        columns, rows = ["v", "omega", "rate"], np.column_stack(
            [np.repeat(v_values, grid.points), omega.ravel(), rate.ravel()])
    with _output(args.out) as stream:
        _emit(stream, args.format, columns, rows, _meta(args, **params))


def cmd_resonance(args) -> None:
    v_res = spectrum.resonance_velocity(args.mass)  # NoResonance -> exit 4
    reference = spectrum.RESONANCE_VELOCITY_PHOTON
    print(f"resonance_velocity = {v_res:.12f}")
    print(f"photon_reference   = {reference:.12f}  (4*pi / sqrt(pi^2 + (4 - ln 3)^2))")
    print(f"difference         = {v_res - reference:.6e}")
    if args.mass is not None and args.mass >= 0.25:  # Im Geff is 0 on all of (2m, 1 - 2m)
        print("pairflux: note: the pair channel is closed for mass >= 1/4", file=sys.stderr)


def cmd_simulate(args) -> str:
    config = modesim.SimConfig(
        kappa0=args.kappa0, v=args.v, t0=args.t0, dt_divisor=args.dt_divisor,
        mode_multiplier=args.mode_multiplier,
    )
    if args.report is not None and not args.compare:  # only --compare makes a report
        raise ValueError("--report needs --compare")
    if args.compare and {args.out, args.report}.isdisjoint({None, "-"}):
        # renamed onto one file, the report would replace the table; a FIFO or a device takes both
        target = os.path.realpath(args.out)
        renamed = os.path.isfile(target) or not os.path.exists(target)
        if renamed and target == os.path.realpath(args.report):
            raise ValueError(f"--out {args.out} and --report {args.report} are the same file")
    matrix = modesim.evolve(config)  # IntegratorUnstable -> exit 5
    sim = modesim.extract_rates(matrix)
    meta = _meta(
        args, v=args.v, kappa0=args.kappa0, t0=args.t0, dt_divisor=args.dt_divisor,
        mode_multiplier=args.mode_multiplier, symplectic_defect=matrix.symplectic_defect(),
    )
    # an exception before the stack closes removes both files: both are written or neither
    with contextlib.ExitStack() as outputs:
        _emit(outputs.enter_context(_output(args.out)), args.format, ["omega", "rate"],
              np.column_stack([sim.omega, sim.rate]), meta)
        if args.compare:
            report = modesim.compare_to_analytic(sim)
            rows = np.column_stack(
                [report.omega, report.simulated, report.analytic, report.relative_deviation])
            extra = {
                "max_relative_deviation": report.max_deviation,
                "median_relative_deviation": report.median_deviation,
                "tolerance": modesim.COMPARE_TOLERANCE,
                "passed": report.passed,
                "degenerate": report.degenerate,
            }
            write_json(outputs.enter_context(_output(args.report)),
                       ["omega", "simulated", "analytic", "relative_deviation"], rows, meta, extra)
    return f"monodromy spectral radius {matrix.spectral_radius():.12f}"


def cmd_estimate(args) -> None:
    v_target = args.v_target
    if v_target is None:
        v_target = spectrum.resonance_velocity(None)
    intensity = spectrum.required_intensity(args.n2, args.omega_l_over_c, v_target)
    print(f"{intensity:.12g} W/cm^2")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The pairflux parser, built on the first call and reused; the mass,
    the omega grid and the output options are shared parent parsers."""
    mass = argparse.ArgumentParser(add_help=False)
    mass.add_argument("--mass", type=float, default=None,
                      help="boson mass in [0, 0.5]; omitted = photon branch")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--omega-min", type=float, default=0.001)
    grid.add_argument("--omega-max", type=float, default=0.999)
    grid.add_argument("--points", type=int, default=512)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--out", default=None, help="output path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="pairflux",
        description="Two-boson vacuum emission of a medium with an oscillating optical length",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectrum", parents=[mass, grid, output],
                       help="emission spectrum at a fixed pump velocity")
    p.add_argument("--v", type=float, required=True, help="pump velocity V/c")

    p = sub.add_parser("scan", parents=[mass, grid, output],
                       help="scan over pump velocities (long-form or integrated)")
    p.add_argument("--v-min", type=float, default=0.1)
    p.add_argument("--v-max", type=float, default=30.0)
    p.add_argument("--v-points", type=int, default=200)
    p.add_argument("--integrate", action="store_true", help="emit (v, integrated rate) instead")

    sub.add_parser("resonance", parents=[mass], help="resonant pump velocity")

    p = sub.add_parser("simulate", parents=[output], help="truncated-mode oracle run")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--kappa0", type=int, default=32)
    p.add_argument("--t0", type=float, default=400.0 * math.pi)
    p.add_argument("--dt-divisor", type=float, default=modesim.DEFAULT_DT_DIVISOR)
    p.add_argument("--mode-multiplier", type=float, default=1.0)
    p.add_argument("--compare", action="store_true", help="also emit a deviation report (JSON)")
    p.add_argument("--report", default=None, help="deviation report path (default stdout)")

    p = sub.add_parser("estimate", help="pump intensity reaching a target velocity")
    p.add_argument("--n2", type=float, required=True, help="Kerr index, cm^2/W")
    p.add_argument("--omega-l-over-c", type=float, required=True, help="omega0 L / c")
    p.add_argument("--v-target", type=float, default=None, help="default: resonance velocity")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    formatwarning = warnings.formatwarning  # a warning prints as one line, like the errors
    warnings.formatwarning = lambda message, *_: f"pairflux: warning: {message}\n"
    try:
        # the handler is looked up in the module now, not bound into the cached
        # parser, so one replaced on the module (perfbench's spans wrap them) is
        # the one run; it returns its diagnostic note, kept out of the payload
        note = globals()[f"cmd_{args.subcommand}"](args)
    except spectrum.NoResonance as exc:
        print(f"pairflux: no resonance: {exc}", file=sys.stderr)
        return EXIT_NO_RESONANCE
    except modesim.IntegratorUnstable as exc:
        print(f"pairflux: integrator unstable: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except ValueError as exc:  # kernel.SingularArgument is one
        print(f"pairflux: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy refuses an array too large for memory before allocating it
        print(f"pairflux: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"pairflux: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        warnings.formatwarning = formatwarning
    print(f"pairflux: {args.subcommand} finished in {time.perf_counter() - start:.3f}s"
          + (f", {note}" if note else ""), file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
