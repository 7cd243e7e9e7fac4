#!/usr/bin/env python3
"""Convergence of the truncated-mode oracle toward the closed-form spectrum.

Runs the simulator at fixed pump velocity and modulation time while the
resonator size kappa0 doubles, and prints the median relative deviation
from the closed form on omega in (0.2, 0.8).  Runs whose modulation time
exceeds the mode-recurrence time 2*pi*kappa0 sit in the discrete-resonator
regime and show the expected coherent-pair inflation; once kappa0 clears
t0 / 2*pi the deviation collapses to the percent level.  Each rung also
prints ln rho, the log of the one-period map's spectral radius.  Below the
model's instability threshold (the sideband chain's v = 3.575) it halves
from one rung to the next, as a discrete pair resonance does (0.0343 /
0.0174 / 0.0088 at kappa0 64 / 128 / 256, v = 3.0, t0 = 314.16); above it,
it stays put (0.1258 / 0.1289 / 0.1310 at v = 3.8).

Above the threshold the occupations grow exponentially, and the fitted
rates with them, so the printed median deviation is no rate comparison
(8e6 to 1.5e7 % at kappa0 64 to 256, v = 3.8, t0 = 314.16): ln rho is
the number to read there.  The last line says which regime the run is in,
from the ratio of ln rho on the last two rungs: at most 0.75 (ln rho
halves) the growth is a discrete pair resonance and the deviations compare
rates; above it (ln rho does not fall) the run is parametrically unstable;
an ln rho below 1e-12 (no pump) is rounding.  Measured ratios: 0.500 at
the defaults, 0.504 at v = 3.0 and 1.016 at v = 3.8, t0 = 314.16.

Usage: python scripts/oracle_convergence.py [v] [t0]
"""

import math
import sys
import time
import warnings

from pairflux import modesim

LADDER = (32, 64, 128, 256)


def main() -> None:
    v = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    t0 = float(sys.argv[2]) if len(sys.argv) > 2 else 400.0 * math.pi
    periods = modesim.SimConfig(kappa0=LADDER[0], v=v, t0=t0).periods
    print(f"v = {v}, t0 = {t0:.4g}, {periods} pump periods  "
          f"(recurrence-safe at or above kappa0 = {periods})")
    log_rhos = []
    for kappa0 in LADDER:
        config = modesim.SimConfig(kappa0=kappa0, v=v, t0=t0)
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", modesim.ModeRecurrenceWarning)
            matrix = modesim.evolve(config)
        report = modesim.compare_to_analytic(modesim.extract_rates(matrix))
        log_rho = math.log(matrix.spectral_radius())
        log_rhos.append(log_rho)
        regime = "recurrence" if config.periods > kappa0 else "continuum "
        print(
            f"  kappa0 = {kappa0:4d} [{regime}]  median dev = {report.median_deviation:8.2%}  "
            f"max dev = {report.max_deviation:8.2%}  symplectic defect = "
            f"{matrix.symplectic_defect():.2e}  ln rho = {log_rho:.3e}  "
            f"({time.perf_counter() - start:.2f}s)"
        )
    ratio = log_rhos[-1] / log_rhos[-2]
    if log_rhos[-1] < 1e-12:  # v = 0 reads 4.4e-16: rho is 1 to rounding
        verdict = "ln rho is rounding: nothing grows, and the rates can be compared"
    elif ratio <= 0.75:
        verdict = "ln rho halves: a discrete pair resonance, and the rates can be compared"
    else:
        verdict = ("ln rho does not fall: the run is parametrically unstable, and the "
                   "median deviation is no rate comparison")
    print(f"ln rho ratio {ratio:.3f} at kappa0 = {LADDER[-1]} / {LADDER[-2]}: {verdict}")


if __name__ == "__main__":
    main()
