#!/usr/bin/env python3
"""Integrated emission rate versus pump velocity.

Reproduces the total-rate curve: quadratic growth at small v, the resonant
peak near v ~ 2.94, and the 1/v^2 decay at large v.  Prints the location
of the grid maximum and writes (v, integrated_rate, log10_rate) CSV.

Usage: python scripts/fig_integrated_scan.py [out.csv]
"""

import sys

import numpy as np

from pairflux import cli, spectrum

V_POINTS = 200


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "fig_integrated_scan.csv"
    v_values = np.geomspace(0.1, 30.0, V_POINTS)
    totals = np.array([spectrum.integrated_rate(spectrum.PumpConfig(float(v))) for v in v_values])
    rows = np.column_stack([v_values, totals, cli._log10_column(totals)])
    record = cli.RunRecord(
        command="fig_integrated_scan",
        params={"v_min": 0.1, "v_max": 30.0, "v_points": V_POINTS},
    )
    with open(out, "w", encoding="utf-8") as fh:
        cli.write_csv(fh, ["v", "integrated_rate", "log10_rate"], rows, record.meta())
    peak = int(np.argmax(np.where(np.isfinite(totals), totals, -np.inf)))
    peak_rate, peak_v = totals[peak], v_values[peak]
    print(f"wrote {out}; grid maximum {peak_rate:.6g} at v = {peak_v:.4f} "
          f"(resonance velocity {spectrum.resonance_velocity():.4f})")


if __name__ == "__main__":
    main()
