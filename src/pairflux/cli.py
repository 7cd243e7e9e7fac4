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
mode, simulate --report without --compare, simulate --compare with both
payloads on stdout) or a run too large for memory,
3 unwritable output, 4 no resonance, 5 integrator instability,
6 broken installation (a package data table missing or truncated).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
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
EXIT_INSTALL = 6

UNITS_NOTE = "omega0 = 1, c = 1"
BLOCK_ROWS = 4096  # rows per formatted block: one block is held as a byte matrix
CELL = 29  # bytes of a formatted cell: sign, '0.000', 17 digits and a point, 'e-308'
_CELL_ITEM = np.dtype(f"V{CELL}")  # a cell as one item: a row of the byte matrix takes it in one copy
_K_MIN, _K_MAX = -291, 300  # decimal exponents of the kernel's range [1e-290, 1e300)
_SPLIT = 2.0**27 + 1.0  # Veltkamp's split of a double into two 26-bit halves


def _token(x, json: bool = False) -> str:
    """One value as text: an int as an integer, a float as %.17g (nan, inf
    and -inf print as those words).  As a JSON token a string is quoted and
    escaped, a bool is true/false and the non-finite words are quoted."""
    if isinstance(x, str):
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"' if json else x
    if json and isinstance(x, bool):
        return "true" if x else "false"
    token = str(int(x)) if isinstance(x, (int, np.integer)) else f"{float(x):.17g}"
    return f'"{token}"' if json and token in ("nan", "inf", "-inf") else token


@functools.cache
def _digit_tables():
    """The %.17g kernel's tables: the ASCII of 0000 to 9999 as one uint32
    each, and for each decimal exponent k in [_K_MIN, _K_MAX] of a value:
    10**(16 - k) as the nearest double hi (also split into two 26-bit halves)
    and the nearest double lo to the rest, the text before the digits ('0.00'
    for k = -3) and after them ('e+17'), the digit the point follows (16 for
    a fixed value below 1, whose head holds the point) and the last digit
    that keeps its trailing zeros.  hi and lo, roundings of exact integer
    ratios, are read from powers_of_ten.f8 (little-endian doubles: the hi
    row, then the lo row)."""
    # np.indices, not integer division of 40,000 values: 1 ms less
    quads = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    hi, lo = spectrum.read_table("powers_of_ten.f8", 2 * (_K_MAX - _K_MIN + 1)).reshape(2, -1)
    mantissa, exponent = np.frexp(hi)
    upper = mantissa * _SPLIT  # on [0.5, 1), where it cannot overflow
    upper = np.ldexp(upper - (upper - mantissa), exponent)
    k = np.arange(_K_MIN, _K_MAX + 1)
    fixed = (-4 <= k) & (k < 17)  # %g's choice for 17 significant digits
    heads = np.zeros(len(k), "S5")
    heads[fixed & (k < 0)] = [b"0.000", b"0.00", b"0.0", b"0."]  # k = -4 .. -1
    a = np.abs(k)
    wide = a >= 100  # 'e', the sign, then 3 digits or 2 and a NUL
    tails = np.column_stack([
        np.full(len(k), ord("e")), np.where(k < 0, ord("-"), ord("+")),
        np.where(wide, a // 100, a // 10) % 10 + ord("0"),
        np.where(wide, a // 10, a) % 10 + ord("0"), np.where(wide, a % 10 + ord("0"), 0)])
    tails = np.where(fixed[:, None], 0, tails).astype(np.uint8).view("S5").ravel()
    leads = np.where(fixed, np.where(k < 0, 16, k), 0)
    wholes = np.where(fixed & (k >= 0), k, 0)
    tables = (quads.copy().view(np.uint32).ravel(), np.array([hi, upper, hi - upper, lo]),
              heads, tails, np.array([leads, wholes], np.uint8))
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _digit_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """'%.17g' % x of each value x as one item of CELL bytes, padded with
    NULs, and whether the item holds it: the rest are left for _token.

    x 10**(16 - k), k = floor(log10 |x|), is P + E exactly by Dekker's
    two-product, with P an integer-valued double in [1e16, 1e17); adding
    x lo leaves an error below 1e-14, so rounding gives the 17 digits that
    % gives wherever the fraction lies farther than 1e-6 from 1/2.  Left
    for _token: 0, nan, inf, |x| outside [1e-290, 1e300) (a split would leave
    the double range), near-ties, and digits that miss [1e16, 1e17) (a
    misjudged k or a carry).

    The kernel fills one byte position of every cell at a time, in the
    order of the values: the digits, then those past the digit the point
    follows moved on by one byte, and the point (or a NUL) after it."""
    mag = np.abs(values)
    ok = (mag >= 1e-290) & (mag < 1e300)
    quads, powers, heads, tails, (leads, wholes) = _digit_tables()
    mag = np.where(ok, mag, 1.0)
    k = np.floor(np.log10(mag)).astype(np.intp) - _K_MIN
    hi, upper, lower, lo = (column[k] for column in powers)
    big = mag * hi
    split = mag * _SPLIT
    top = split - (split - mag)
    bottom = mag - top
    rest = ((top * upper - big) + top * lower + bottom * upper) + bottom * lower + mag * lo
    del mag, hi, upper, lower, lo, split, top, bottom  # freed early: they set the peak memory
    step = np.rint(rest)
    frac = rest - step
    n = big.astype(np.int64) + step.astype(np.int64)
    del big, rest, step
    # n = 1e16 with a negative fraction: |x| < 10**k, so k was misjudged
    ok &= (np.abs(np.abs(frac) - 0.5) > 1e-6) & (n < 10**17) & (
        (n > 10**16) | (n == 10**16) & (frac >= 0.0))
    first, n = np.divmod(np.where(ok, n, 10**16), 10**16)
    upper8, lower8 = np.divmod(n, 10**8)
    groups = np.column_stack(np.divmod(upper8, 10**4) + np.divmod(lower8, 10**4))
    del n, upper8, lower8
    digits = np.empty((17, len(values)), np.uint8)
    digits[0] = first + ord("0")
    digits[1:] = quads[groups].view(np.uint8).reshape(-1, 16).T
    # %g drops the fraction's trailing zeros, and the point if no digit follows it
    position = np.arange(17, dtype=np.uint8)[:, None]
    last = np.max((digits != ord("0")) * position, axis=0)
    digits *= position <= np.maximum(last, wholes[k])
    lead = leads[k]
    point = np.where(last > lead, np.uint8(ord(".")), np.uint8(0))
    cells = np.zeros((CELL, len(values)), np.uint8)
    cells[0] = np.signbit(values) * np.uint8(ord("-"))
    cells[1:6] = heads[k].view(np.uint8).reshape(-1, 5).T
    cells[6:23] = digits  # digit p at byte 6 + p, then 7 + p past the point after digit lead
    np.copyto(cells[7:24], digits, where=position > lead)
    np.copyto(cells[7:24], point, where=position == lead)
    cells[24:29] = tails[k].view(np.uint8).reshape(-1, 5).T
    return ok, np.ascontiguousarray(cells.T).view(_CELL_ITEM)[:, 0]


def _cells(values: np.ndarray, json: bool) -> np.ndarray:
    """'%.17g' % x of each value x as one item of CELL bytes, padded with
    NULs: from the digit kernel, and from _token for what it leaves (as JSON
    the non-finite words are quoted)."""
    ok, cells = _digit_cells(values)
    # what the kernel leaves is mostly a few values (0, inf, nan) repeated: one _token each
    bits, inverse = np.unique(values[~ok].view(np.int64), return_inverse=True)
    tokens = [_token(x, json).encode() for x in bits.view(float).tolist()]
    cells[~ok] = np.array(tokens, _CELL_ITEM)[inverse]
    return cells


def _row_blocks(columns, prefix: str, delimiter: str, suffix: str, json: bool = False):
    """The float columns, broadcast together, as text, BLOCK_ROWS rows per
    block: row r holds element r of the broadcast shape, in C order, as
    prefix, its %.17g cells joined by delimiter, then suffix (none of which
    holds a NUL).  A column with fewer elements than the table has rows (the
    long form's v and nodes) is formatted once, and each block gathers its
    cells by row index; one _cells call per block formats the slices of the
    other columns, into cells of CELL bytes.  The rows gather them into one
    byte matrix that holds the framing, and the NULs are dropped."""
    columns = [np.asarray(column, dtype=float) for column in columns]
    shape = np.broadcast_shapes(*(column.shape for column in columns))
    n = math.prod(shape)
    template = (prefix + delimiter.join(["\0" * CELL] * len(columns)) + suffix).encode()
    matrix = np.empty((min(n, BLOCK_ROWS), len(template)), np.uint8)
    matrix[:] = np.frombuffer(template, np.uint8)
    short = {c: (_cells(column.reshape(-1), json),
                 np.broadcast_to(np.arange(column.size).reshape(column.shape), shape).ravel())
             for c, column in enumerate(columns) if column.size < n}
    full = {c: column.reshape(-1) for c, column in enumerate(columns) if c not in short}
    for start in range(0, n, BLOCK_ROWS):
        lines = matrix[:min(n - start, BLOCK_ROWS)]
        span = slice(start, start + len(lines))
        cells = _cells(np.array([column[span] for column in full.values()]).ravel(), json)
        given = dict(zip(full, cells.reshape(len(full), len(lines))))
        given.update((c, once[at[span]]) for c, (once, at) in short.items())
        for c in range(len(columns)):
            at = len(prefix) + c * (CELL + len(delimiter))
            lines[:, at:at + CELL].view(_CELL_ITEM)[:, 0] = given[c]
        yield lines.tobytes().translate(None, b"\0").decode("ascii")


def write_csv(stream, names: list[str], columns, meta: dict) -> None:
    """Metadata lines, the header, then the rows of the columns (see _row_blocks)."""
    for key, value in meta.items():
        stream.write(f"# {key} = {_token(value)}\n")
    stream.write(",".join(names) + "\n")
    for text in _row_blocks(columns, "", ",", "\n"):
        stream.write(text)


def write_json(stream, names: list[str], columns, meta: dict, extra: dict | None = None) -> None:
    """meta, the extra fields, then the names and the rows of the columns (see
    _row_blocks) under "data", one row per line; nan, inf and -inf are quoted
    strings."""
    fields = ", ".join(f"{_token(k, True)}: {_token(v, True)}" for k, v in meta.items())
    lines = "".join(f"  {_token(k, True)}: {_token(v, True)},\n" for k, v in (extra or {}).items())
    header = ", ".join(_token(c, True) for c in names)
    stream.write(f'{{\n  "meta": {{{fields}}},\n{lines}  "data": {{"columns": [{header}], "rows": [\n')
    for i, text in enumerate(_row_blocks(columns, "    [", ", ", "],\n", True)):
        # every row ends in ",\n"; the separator before the next block restores it
        stream.write((",\n" if i else "") + text[:-2])
    stream.write("\n  ]}\n}\n")


def _emit(stream, fmt: str, names: list[str], columns, meta: dict) -> None:
    _digit_tables()  # a broken table fails the command before its first byte is written
    (write_json if fmt == "json" else write_csv)(stream, names, columns, meta)


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


def cmd_spectrum(args) -> None:
    pump = spectrum.PumpConfig(v=args.v, mass=args.mass)
    grid = spectrum.SpectralGrid(args.omega_min, args.omega_max, args.points)
    omega, rate = spectrum.spectrum_grid(pump, grid)  # nan on a branch point
    meta = _meta(
        args, v=args.v, mass="photon" if args.mass is None else args.mass,
        omega_min=args.omega_min, omega_max=args.omega_max, points=args.points,
    )
    with np.errstate(divide="ignore"):  # a zero rate gives -inf, nan stays nan
        log10_rate = np.log10(rate)
    with _output(args.out) as stream:
        _emit(stream, args.format, ["omega", "rate", "log10_rate"], [omega, rate, log10_rate], meta)


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
        names, columns = ["v", "integrated_rate"], [v_values, totals]
    else:
        params.update(omega_min=args.omega_min, omega_max=args.omega_max, points=args.points)
        omega, rate = spectrum.scan_2d(v_values, grid, args.mass)
        nodes = grid.nodes()  # a table with no nudged node formats its omega column once
        names, columns = ["v", "omega", "rate"], [
            v_values[:, None], nodes if (omega == nodes).all() else omega, rate]
    with _output(args.out) as stream:
        _emit(stream, args.format, names, columns, _meta(args, **params))


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
        kappa0=args.kappa0, v=args.v, t0=args.t0, dt_divisor=args.dt_divisor)
    if args.report is not None and not args.compare:  # only --compare makes a report
        raise ValueError("--report needs --compare")
    if args.compare and args.out in (None, "-") and args.report in (None, "-"):
        # the table and the report in one stream would be neither valid CSV nor valid JSON
        raise ValueError("--compare writes a table and a report: give --out or --report")
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
        symplectic_defect=matrix.symplectic_defect())
    # an exception before the stack closes removes both files: both are written or neither
    with contextlib.ExitStack() as outputs:
        _emit(outputs.enter_context(_output(args.out)), args.format, ["omega", "rate"],
              [sim.omega, sim.rate], meta)
        if args.compare:
            report = modesim.compare_to_analytic(sim)
            extra = {
                "max_relative_deviation": report.max_deviation,
                "median_relative_deviation": report.median_deviation,
                "tolerance": modesim.COMPARE_TOLERANCE,
                "passed": report.passed,
                "degenerate": report.degenerate,
            }
            write_json(outputs.enter_context(_output(args.report)),
                       ["omega", "simulated", "analytic", "relative_deviation"],
                       [report.omega, report.simulated, report.analytic,
                        report.relative_deviation], meta, extra)
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
    p.add_argument("--kappa0", type=int, default=256)
    p.add_argument("--t0", type=float, default=400.0 * math.pi)
    p.add_argument("--dt-divisor", type=float, default=modesim.DEFAULT_DT_DIVISOR)
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
    except spectrum.BrokenInstallation as exc:
        print(f"pairflux: broken installation: {exc}", file=sys.stderr)
        return EXIT_INSTALL
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
