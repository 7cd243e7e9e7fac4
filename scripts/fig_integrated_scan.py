#!/usr/bin/env python3
"""Integrated emission rate versus pump velocity.

Reproduces the total-rate curve: quadratic growth at small v, the resonant
peak near v ~ 2.94, and the 1/v^2 decay at large v.  Runs
`pairflux scan --integrate` on its default 200 log-spaced pump velocities
in [0.1, 30], which writes the (v, integrated_rate) CSV with its `scan`
metadata, then reads the file back and prints the location of the grid
maximum.

Usage: python scripts/fig_integrated_scan.py [out.csv]
"""

import sys

import numpy as np

from pairflux import cli
from pairflux.spectrum import RESONANCE_VELOCITY_PHOTON


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "fig_integrated_scan.csv"
    code = cli.main(["scan", "--integrate", "--out", out])
    if code:
        return code
    v, totals = np.genfromtxt(out, delimiter=",")[1:].T  # "#" lines skipped, row 0 the header
    peak = int(np.argmax(np.where(np.isfinite(totals), totals, -np.inf)))
    print(f"wrote {out}; grid maximum {totals[peak]:.6g} at v = {v[peak]:.4f} "
          f"(resonance velocity {RESONANCE_VELOCITY_PHOTON:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
