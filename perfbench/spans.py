"""Spans around the public functions of each pairflux layer.

`Tracer.install` replaces module attributes with timing wrappers.  Every
cross-layer call in pairflux is resolved through a module attribute at call
time (`kernel.emission_rate` inside the quadrature, `modesim.evolve` in the
CLI, the `cmd_*` handlers looked up by `build_parser`), so wrapping from
outside records the internal calls too.  Spans are kept in memory as
(name, parent, start_ns, end_ns, count) rows of one int64 array per traced
run, and self times are derived from them: a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("bench", "cli", "spectrum", "modesim", "kernel")
ROOT = "bench.run"


def _rows(args, result) -> int:
    return len(args[2])


def _modes(args, result) -> int:
    return 0 if result is None else len(result.omega)


def _one(args, result) -> int:
    return 1


class Tracer:
    def __init__(self, cli, spectrum, modesim, kernel):
        # (module, layer, attribute, count); count None marks the kernel leaf,
        # which counts the points of its first argument
        self.targets = [(kernel, "kernel", "emission_rate", None)]
        self.targets += [(spectrum, "spectrum", name, _one)
                         for name in ("integrated_rate", "spectrum_grid", "scan_2d")]
        self.targets += [(modesim, "modesim", "build_sim", _one), (modesim, "modesim", "evolve", _modes),
                         (modesim, "modesim", "extract_rates", _one),
                         (modesim, "modesim", "compare_to_analytic", _one)]
        self.targets += [(cli, "cli", name, _rows) for name in ("write_csv", "write_json")]
        self.targets += [(cli, "cli", name, _one) for name in sorted(vars(cli)) if name.startswith("cmd_")]
        self.names = [ROOT] + [f"{layer}.{attr}" for _, layer, attr, _ in self.targets]
        self.last = np.empty((0, 5), dtype=np.int64)  # spans of the latest run
        # one flat int64 row per span: no Python object outlives its span, so
        # the traced program's own allocations keep their memory layout
        self._flat = array("q")
        self._stack = [-1]

    def _wrap(self, fn, name_id, count):
        flat, stack, clock = self._flat, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(flat) // 5
            flat.extend((name_id, stack[-1], 0, 0, 0))
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                flat[5 * idx + 2:5 * idx + 5] = array("q", (start, end, count(args, result)))

        return traced

    def _wrap_leaf(self, fn, name_id):
        # no child span can point at a leaf, so it is appended when it ends;
        # this cuts the wrapper cost of the kernel's per-point calls by a third
        flat, stack, clock = self._flat, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                flat.extend((name_id, stack[-1], start, clock(), getattr(args[0], "size", 1)))

        return traced

    @contextmanager
    def install(self):
        saved = [(module, attr, getattr(module, attr)) for module, _, attr, _ in self.targets]
        try:
            for name_id, (module, _, attr, count) in enumerate(self.targets, start=1):
                fn = getattr(module, attr)
                setattr(module, attr, self._wrap_leaf(fn, name_id) if count is None
                        else self._wrap(fn, name_id, count))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def run(self, fn):
        """Call fn under a root span, keep the spans it produced in `last`
        and return its result."""
        del self._flat[:]
        try:
            return self._wrap(fn, 0, _one)()
        finally:
            self.last = np.frombuffer(self._flat, dtype=np.int64).reshape(-1, 5).copy()

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), spans=self.last,
                 columns=np.array(["name", "parent", "start_ns", "end_ns", "count"]))


def self_times(spans: np.ndarray) -> np.ndarray:
    """Per-span self time in ns: duration minus the durations of its children."""
    parent = spans[:, 1]
    duration = (spans[:, 3] - spans[:, 2]).astype(float)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(spans))
    return duration - covered


def layer_of(names: list[str], spans: np.ndarray) -> np.ndarray:
    index = np.array([LAYERS.index(name.split(".")[0]) for name in names])
    return index[spans[:, 0]]


def summarize(names: list[str], spans: np.ndarray) -> dict:
    """Per-layer numbers of one traced run of a workload."""
    name = np.array(names)[spans[:, 0]]
    parent = spans[:, 1]
    count = spans[:, 4]
    duration = (spans[:, 3] - spans[:, 2]) * 1e-9
    own = self_times(spans) * 1e-9
    layer = layer_of(names, spans)

    def self_s(layer_name: str) -> float:
        return float(own[layer == LAYERS.index(layer_name)].sum())

    def total(*span_names: str) -> float:
        return float(duration[np.isin(name, span_names)].sum())

    kernel = name == "kernel.emission_rate"
    rate = name == "spectrum.integrated_rate"
    rate_index = np.flatnonzero(rate)
    points_in_rates = int(count[kernel & np.isin(parent, rate_index)].sum())
    emit = np.isin(name, ("cli.write_csv", "cli.write_json"))
    evolve = name == "modesim.evolve"
    rate_ms = duration[rate] * 1e3
    return {
        "wall_s": total(ROOT),
        "layer_self_s": {layer_name: self_s(layer_name) for layer_name in LAYERS},
        "kernel.calls": int(kernel.sum()),
        "kernel.points": int(count[kernel].sum()),
        "kernel.busy_s": float(duration[kernel].sum()),
        "spectrum.rates": int(rate.sum()),
        "spectrum.points_per_rate": points_in_rates / max(int(rate.sum()), 1),
        "spectrum.self_s": self_s("spectrum"),
        "spectrum.rate_ms_p50": float(np.percentile(rate_ms, 50)) if rate_ms.size else 0.0,
        "spectrum.rate_ms_p95": float(np.percentile(rate_ms, 95)) if rate_ms.size else 0.0,
        "modesim.build_s": total("modesim.build_sim"),
        "modesim.evolve_s": total("modesim.evolve"),
        "modesim.extract_s": total("modesim.extract_rates"),
        "modesim.compare_s": total("modesim.compare_to_analytic"),
        "modesim.modes": int(count[evolve].max(initial=0)),
        "cli.emit_s": float(duration[emit].sum()),
        "cli.rows": int(count[emit].sum()),
        "cli.self_s": self_s("cli"),
    }
