"""The pairflux names the benchmark reaches by name.

perfbench/spans.py wraps module attributes of every layer, and
perfbench/probe.py calls SpectralGrid().nodes_weights(); a rename in
pairflux breaks them without failing any other test.  Both are imported
from their files as they are.
"""

import importlib.util
import math
import os
from pathlib import Path

from pairflux import cli, kernel, modesim, spectrum

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_and_restores_it(capsys):
    spans = _load("spans")
    tracer = spans.Tracer(cli, spectrum, modesim, kernel)
    originals = [getattr(module, attr) for module, _, attr, _ in tracer.targets]
    with tracer.install():
        wrapped = [getattr(module, attr) for module, _, attr, _ in tracer.targets]
        # v = 0 keeps the 8-mode run free of the recurrence warning
        argv = ["simulate", "--v", "0", "--kappa0", "8", "--t0", str(100 * math.pi), "--compare",
                "--out", os.devnull, "--report", os.devnull]
        assert tracer.run(lambda: cli.main(argv)) == cli.EXIT_OK
    capsys.readouterr()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [getattr(module, attr) for module, _, attr, _ in tracer.targets] == originals
    # evolve lays out its ladder through the module's build_sim, so the span nests in it
    names = [tracer.names[i] for i in tracer.last[:, 0]]
    build, evolve = names.index("modesim.build_sim"), names.index("modesim.evolve")
    assert tracer.last[build, 1] == evolve
    summary = spans.summarize(tracer.names, tracer.last)
    assert summary["modesim.build_s"] > 0.0 and summary["modesim.modes"] == 8


def test_tracer_counts_the_nodes_of_each_sweep_block(capsys):
    # integrated_rates passes each block the rule's PairTerms through the module
    # attribute kernel.emission_rate, and the span counts its size, the node count
    spans = _load("spans")
    tracer = spans.Tracer(cli, spectrum, modesim, kernel)
    with tracer.install():
        argv = ["scan", "--integrate", "--v-min", "2.9", "--v-max", "3.0", "--v-points", "12",
                "--format", "json", "--out", os.devnull]
        assert tracer.run(lambda: cli.main(argv)) == cli.EXIT_OK
    capsys.readouterr()
    summary = spans.summarize(tracer.names, tracer.last)
    # 12 pumps near resonance: blocks of 10 and 2 pumps on the 784-node rule
    assert (summary["kernel.calls"], summary["kernel.points"]) == (2, 2 * 784)


def test_probe_node_call_runs():
    nodes, weights = spectrum.SpectralGrid().nodes_weights()
    assert nodes.size == weights.size > 0
