"""Fast self-check of the benchmark (about a minute).

    python3 perfbench/selfcheck.py

1. Every metric named in BENCHMARK.json prints with its unit, untraced and
   traced (map workload, one-second runs).
2. A deliberately perturbed output of each workload counts as failed.
3. The traced run's layer self times add up to its wall time within the
   tracing overhead.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys

import numpy as np

import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180, check=False)


def check_metrics() -> dict:
    results = {}
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench("--workload", "map", "--seed", "1", "--seconds", "1", "--trace", str(trace))
        lines = proc.stdout.splitlines()
        expect(proc.returncode == 0 and lines, f"--trace {trace} run exits 0")
        if not lines:
            continue
        result = json.loads(lines[-1])
        results[trace] = result
        expected = {m["name"]: m["unit"] for m in BENCHMARK[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == expected, f"--trace {trace} reports exactly the {group} metrics with their units")
        expect(all(any(line.startswith(f"map: {name} = ") and line.endswith(f" {unit}")
                       for line in lines) for name, unit in expected.items()),
               f"--trace {trace} prints every metric with its unit")
        expect(any(line.startswith("map: failed_frac ") for line in lines),
               f"--trace {trace} prints failed_frac")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"--trace {trace} run is correct")
    return results


def perturb_csv_rate(path) -> None:
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    v, w, rate = lines[i].split(",")
    lines[i] = ",".join([v, w, repr(float(rate) * (1.0 + 1e-9))])
    path.write_text("\n".join(lines) + "\n")


def perturb_json(path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def check_perturbations(cli) -> None:
    out = run.OUT / "selfcheck"
    out.mkdir(parents=True, exist_ok=True)
    cases = {
        "map": lambda w: perturb_csv_rate(w.outputs[0]),
        "curve": lambda w: perturb_json(
            w.outputs[0], lambda d: d["data"]["rows"][0].__setitem__(1, d["data"]["rows"][0][1] * 1.02)),
        "oracle": lambda w: perturb_json(
            w.outputs[1], lambda d: d.__setitem__("median_relative_deviation", 0.2)),
    }
    for name, perturb in cases.items():
        w = workloads.WORKLOADS[name](0, out)
        tally = run.Tally(w)
        run.run_once(cli, tally)
        expect(tally.failed == 0, f"{name}: unperturbed output passes the check")
        perturb(w)
        tally.record([0], "")
        expect(tally.failed == 1, f"{name}: a perturbed output counts one failed operation "
                                  f"(failed_frac {tally.failed / tally.attempted:.3g})")


def check_self_times(result: dict) -> None:
    saved = np.load(run.OUT / "spans-map.npz")
    names = [str(n) for n in saved["names"]]
    s = saved["spans"]
    overhead = max(result["metrics"]["trace.overhead_s"]["value"], 0.0)
    wall = (s[0, 3] - s[0, 2]) * 1e-9
    layer = spans.layer_of(names, s)
    layers_self = spans.self_times(s)[layer != spans.LAYERS.index("bench")].sum() * 1e-9
    expect(0.0 <= wall - layers_self <= overhead + 0.01 * wall,
           f"layer self times {layers_self:.4f} s add up to the traced wall {wall:.4f} s "
           f"within the overhead {overhead:.4f} s")
    summary = spans.summarize(names, s)
    expect(summary["kernel.calls"] == result["metrics"]["kernel.calls"]["value"],
           "kernel.calls recomputed from the written spans matches the reported count")


def check_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = bench("--workload", "map", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from pairflux import cli
    results = check_metrics()
    check_perturbations(cli)
    if 1 in results:
        check_self_times(results[1])
    check_bare_directory()
    print(f"{len(failures)} self-check failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
