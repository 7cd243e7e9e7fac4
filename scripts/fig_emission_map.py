#!/usr/bin/env python3
"""Emission-rate map over (pump velocity, frequency).

Runs `pairflux scan` on its default 200 log-spaced pump velocities in
[0.1, 30] and a 256-node closed-uniform omega grid on [0.001, 0.999], and
writes the command's long-form CSV (v, omega, rate) with its `scan`
metadata: the data behind the 2D spectrum map, with a broad symmetric band
at weak pump, the resonant ridge at omega = 1/2 near v ~ 2.94 and the 1/v^2
fall-off beyond.  Take log10 of the rate column when plotting.

Usage: python scripts/fig_emission_map.py [out.csv]
"""

import sys

from pairflux import cli

if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "fig_emission_map.csv"
    sys.exit(cli.main(["scan", "--points", "256", "--out", out]))
