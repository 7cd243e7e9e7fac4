"""pairflux benchmark.

    python3 perfbench/run.py --workload {map,curve,oracle,all} [--seed N]
                             [--seconds S] [--trace {0,1}]

Runs a workload through the pairflux command line in this process, checks
every output, and prints one line per metric with its unit.  The last line
of standard output is one JSON object {correct, attempted, failed, metrics}:
with --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of a traced run.  Workloads, metrics and the baseline are
described in perfbench/README.md.
"""

import os
import sys

# One BLAS thread, set before numpy loads: steadier on a shared machine, and
# the oracle's 64 x 64 products run faster unthreaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7
NODES_PROBES = 3
PROBE_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.import_s": "s",
    "kernel.calls": "count",
    "kernel.points": "count",
    "kernel.busy_s": "s",
    "kernel.ns_per_point": "ns",
    "spectrum.rates": "count",
    "spectrum.points_per_rate": "count",
    "spectrum.self_s": "s",
    "spectrum.rate_ms_p50": "ms",
    "spectrum.rate_ms_p95": "ms",
    "spectrum.nodes_cold_s": "s",
    "spectrum.quad_rel_err": "1",
    "modesim.build_s": "s",
    "modesim.evolve_s": "s",
    "modesim.extract_s": "s",
    "modesim.compare_s": "s",
    "modesim.modes": "count",
    "modesim.evolve_us_per_period": "us",
    "modesim.symplectic_defect": "1",
    "modesim.median_dev": "1",
    "cli.emit_s": "s",
    "cli.rows": "count",
    "cli.bytes": "bytes",
    "cli.emit_ns_per_row": "ns",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tally:
    """Attempted and failed operations over every run of a workload."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.info: dict = {}

    def record(self, codes, stderr: str) -> None:
        w = self.workload
        self.attempted += w.operations
        if any(code != 0 for code in codes):
            self.failed += w.operations
            print(f"perfbench: {w.name}: pairflux exited with {codes}\n{stderr}", file=sys.stderr)
            return
        try:
            outcome = w.check()
        except Exception:  # unreadable output fails every operation of the run
            self.failed += w.operations
            traceback.print_exc()
            return
        self.failed += outcome.failed
        self.info = outcome.info
        if outcome.failed:
            print(f"perfbench: {w.name}: {outcome.failed} operations failed the check {outcome.info}",
                  file=sys.stderr)


def run_once(cli, tally: Tally, call=lambda fn: fn()) -> float:
    """Run the workload's commands once through `call`, check the output and
    return the wall time."""
    stderr = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            codes = call(lambda: [cli.main(argv) for argv in tally.workload.commands])
    except Exception:  # a crash fails every operation of the run
        codes = [traceback.format_exc()]
    wall = time.perf_counter() - start
    tally.record(codes, stderr.getvalue())
    return wall


def repeat(seconds: float, once) -> list:
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        results.append(once())
    return results


def probe(mode: str, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), mode, str(SRC), *args],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {mode} failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(samples: list) -> str:
    """Highest percentile with at least 10 samples above it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has 10 runs above it ({n} runs; max {max(samples):.6g} s)"
    ordered = sorted(samples)
    return f"p{math.floor(100 * (n - 10) / n)} {ordered[n - 11]:.6g} s (10 runs above)"


def end_to_end(w, tally, cli, seconds, report) -> dict:
    setup = [probe("setup", json.dumps(w.probe))["setup_s"] for _ in range(SETUP_PROBES)]
    run_once(cli, tally)  # warm-up, checked like every run
    walls = repeat(seconds, lambda: run_once(cli, tally))
    rss = probe("rss", json.dumps(w.commands))["peak_rss_mb"]
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    report(f"wall_s: median of {len(walls)} runs, quartiles {q1:.6g} {q3:.6g} s; {tail(walls)}")
    report(f"setup_s: median of {SETUP_PROBES} fresh interpreters")
    report("peak_rss_mb: one run in a fresh interpreter")
    return {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
            "peak_rss_mb": rss}


def per_layer(name, w, tally, modules, seconds, report) -> dict:
    cli = modules[0]
    setup = [probe("setup", json.dumps(w.probe)) for _ in range(SETUP_PROBES)]
    nodes = [probe("nodes")["nodes_cold_s"] for _ in range(NODES_PROBES)]
    run_once(cli, tally)  # warm-up, checked like every run
    tracer = spans.Tracer(*modules)
    walls, runs = [], []

    def pair():
        # alternate untraced and traced runs so that drift in machine speed
        # does not enter the overhead
        walls.append(run_once(cli, tally))
        with tracer.install():
            run_once(cli, tally, tracer.run)
        runs.append(spans.summarize(tracer.names, tracer.last))

    repeat(seconds, pair)
    tracer.save(OUT / f"spans-{name}.npz")  # the spans of the last traced run

    def med(key):
        # a measured run's value, so counts stay whole numbers
        return statistics.median_low(r[key] for r in runs)

    values = {key: med(key) for key in runs[0] if key in PER_LAYER}
    values.update({
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "kernel.ns_per_point": 1e9 * med("kernel.busy_s") / max(med("kernel.points"), 1),
        "spectrum.nodes_cold_s": statistics.median(nodes),
        "spectrum.quad_rel_err": tally.info.get("quad_rel_err", 0.0),
        "modesim.evolve_us_per_period": 1e6 * med("modesim.evolve_s")
                                        / (workloads.ORACLE_T0 / (2.0 * math.pi)),
        "modesim.symplectic_defect": tally.info.get("symplectic_defect", 0.0),
        "modesim.median_dev": tally.info.get("median_dev", 0.0),
        "cli.bytes": sum(path.stat().st_size for path in w.outputs),
        "cli.emit_ns_per_row": 1e9 * med("cli.emit_s") / max(med("cli.rows"), 1),
        "trace.wall_s": med("wall_s"),
        "trace.overhead_s": med("wall_s") - statistics.median(walls),
    })
    layer_self = {layer: statistics.median_low(r["layer_self_s"][layer] for r in runs)
                  for layer in spans.LAYERS}
    report(f"traced {len(runs)} runs, untraced {len(walls)} runs; layer self times "
           + ", ".join(f"{layer} {s:.4g} s" for layer, s in layer_self.items()))
    return values


def environment() -> dict:
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    caches = {level: libc.sysconf(code) for level, code in (("l1d", 188), ("l2", 191), ("l3", 194))}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cache_bytes": caches,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "pairflux").glob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pairflux" / "__init__.py").is_file():
        print(f"perfbench: no {SRC / 'pairflux'}; run from the root of a pairflux checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from pairflux import cli, kernel, modesim, spectrum
    if not cli.__file__.startswith(str(SRC)):
        print(f"perfbench: pairflux imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    print("env " + json.dumps(environment()), flush=True)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        w = workloads.WORKLOADS[name](args.seed, OUT)
        tally = Tally(w)

        def report(line, name=name):
            print(f"{name}: {line}", flush=True)

        if args.trace:
            values = per_layer(name, w, tally, (cli, spectrum, modesim, kernel), args.seconds, report)
        else:
            values = end_to_end(w, tally, cli, args.seconds, report)
        report(f"failed_frac {tally.failed / tally.attempted:.6g} 1: "
               f"{tally.failed} of {tally.attempted} operations; check {json.dumps(tally.info)}")
        for key, unit in units.items():
            report(f"{key} = {values[key]:.6g} {unit}")
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + key: {"value": values[key], "unit": unit} for key, unit in units.items()})
        attempted += tally.attempted
        failed += tally.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
