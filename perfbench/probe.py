"""Fresh-interpreter measurements, started as a child process by run.py.

    python3 probe.py setup SRC ARGV_JSON   import pairflux, time the first call cold and warm
    python3 probe.py rss SRC COMMANDS_JSON run the workload once, report peak resident memory
    python3 probe.py nodes SRC             time the first SpectralGrid.nodes_weights() call

Prints one JSON object.
"""

import contextlib
import io
import json
import resource
import sys
import time


def _call(cli, argv) -> float:
    with contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"probe: pairflux {argv[0]} exited with {code}")
    return elapsed


def main() -> None:
    mode, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import pairflux
    from pairflux import cli
    import_s = time.perf_counter() - start
    if not pairflux.__file__.startswith(src):
        raise SystemExit(f"probe: imported pairflux from {pairflux.__file__}, not {src}")
    if mode == "setup":
        argv = json.loads(sys.argv[3])
        _call(cli, argv)
        cold = time.perf_counter() - start  # import plus the first call
        result = {"import_s": import_s, "setup_s": cold - _call(cli, argv)}
    elif mode == "rss":
        for argv in json.loads(sys.argv[3]):
            _call(cli, argv)
        # ru_maxrss is in KiB on Linux
        result = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    elif mode == "nodes":
        begin = time.perf_counter()
        pairflux.spectrum.SpectralGrid().nodes_weights()
        result = {"nodes_cold_s": time.perf_counter() - begin}
    else:
        raise SystemExit(f"probe: unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
