#!/usr/bin/env python3
"""Emission-rate map over (pump velocity, frequency).

Writes a long-form CSV (v, omega, rate, log10_rate) on a log-spaced pump
grid, the data behind the 2D spectrum map: a broad symmetric band at weak
pump, the resonant ridge at omega = 1/2 near v ~ 2.94, and the 1/v^2
fall-off beyond.

Usage: python scripts/fig_emission_map.py [out.csv]
"""

import sys

import numpy as np

from pairflux import cli, spectrum

V_POINTS = 200
OMEGA_POINTS = 256


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "fig_emission_map.csv"
    v_values = np.geomspace(0.1, 30.0, V_POINTS)
    grid = spectrum.SpectralGrid(0.001, 0.999, OMEGA_POINTS, "open-uniform")
    rate = spectrum.scan_2d(v_values, grid).ravel()
    rows = np.column_stack([
        np.repeat(v_values, OMEGA_POINTS), np.tile(grid.nodes(), V_POINTS),
        rate, cli._log10_column(rate),
    ])
    record = cli.RunRecord(
        command="fig_emission_map",
        params={"v_min": 0.1, "v_max": 30.0, "v_points": V_POINTS,
                "omega_points": OMEGA_POINTS},
    )
    with open(out, "w", encoding="utf-8") as fh:
        cli.write_csv(fh, ["v", "omega", "rate", "log10_rate"], rows, record.meta())
    print(f"wrote {len(rows)} rows to {out}")


if __name__ == "__main__":
    main()
