"""Grid drivers over the spectral kernel: profiles, integrated rates,
resonance location, 2D pump scans, stimulated/phase-conjugate bookkeeping,
and the pump-intensity estimate.

All heavy lifting is delegated to the pure functions in pairflux.kernel;
this module owns discretization and quadrature policy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernel

# pump velocity at which the omega = 1/2 resolvent factor vanishes:
# 4 pi / sqrt(pi^2 + (4 - ln 3)^2), about 2.9385
RESONANCE_VELOCITY_PHOTON = 4.0 * math.pi / math.sqrt(
    math.pi**2 + (4.0 - math.log(3.0)) ** 2
)

BLOCK_CELLS = 8192  # (pump, node) cells per kernel call of a sweep: bounds its memory


class NoResonance(Exception):
    """The effective Green function vanishes at omega = 1/2; no finite pump
    velocity nulls the resolvent (threshold mass)."""


@dataclass(frozen=True)
class PumpConfig:
    """Physical pump parameters: dimensionless velocity v = V/c and the
    emitted-boson mass (None = photon)."""

    v: float
    mass: float | None = None

    def __post_init__(self):
        kernel.check_velocity(self.v)
        if self.mass is not None and not 0.0 <= self.mass <= 0.5:
            raise ValueError(f"mass must lie in [0, 1/2], got {self.mass!r}")


@dataclass(frozen=True)
class SpectralGrid:
    """Frequency discretization on [omega_min, omega_max] inside [0, 1]:
    linspace with both ends, trapezoid weights."""

    omega_min: float = 0.0
    omega_max: float = 1.0
    points: int = 256

    def __post_init__(self):
        if not 0.0 <= self.omega_min < self.omega_max <= 1.0:
            raise ValueError(
                f"need 0 <= omega_min < omega_max <= 1, got [{self.omega_min}, {self.omega_max}]"
            )
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")

    def nodes(self) -> np.ndarray:
        return self.nodes_weights()[0]

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        a, b, n = self.omega_min, self.omega_max, self.points
        h = (b - a) / (n - 1)
        w = np.full(n, h)
        w[[0, -1]] = 0.5 * h
        return np.linspace(a, b, n), w


@dataclass
class SpectrumResult:
    """Rates sampled on a grid.  flags holds (index, reason) for nodes that
    diverged ('resonant-divergence') or sat on a branch point ('singular')."""

    omega: np.ndarray
    rate: np.ndarray
    flags: list[tuple[int, str]] = field(default_factory=list)


@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _blocks(rows: np.ndarray, cells_per_row: int):
    """The row indices in consecutive blocks of at most BLOCK_CELLS cells
    (at least one row per block), one broadcast kernel call each."""
    size = max(1, BLOCK_CELLS // cells_per_row)
    return (rows[start:start + size] for start in range(0, len(rows), size))


def scan_2d(v_values, grid: SpectralGrid, mass: float | None = None):
    """Emission rates over pump velocities (rows) and grid nodes (columns), as
    (omega, rate) arrays of shape (pumps, points): the frequencies each row was
    evaluated at, and linear rates with inf on a divergent node and nan on a
    branch point.  A resonant row's node at omega = 1/2 is nudged off by a
    fraction of the spacing, so no row samples the divergence itself.  The rows
    go to the kernel in blocks of at most BLOCK_CELLS cells."""
    v = np.asarray(v_values, dtype=float)
    omega = np.tile(grid.nodes(), (len(v), 1))
    v_res = _resonance_or_none(mass)
    if v_res is not None:
        resonant = (v > 0.0) & (np.abs(v - v_res) < kernel.DENOMINATOR_FLOOR)
        omega[resonant[:, None] & (omega == 0.5)] += (
            1e-3 * (grid.omega_max - grid.omega_min) / grid.points)
    rate = np.empty_like(omega)
    for block in _blocks(np.arange(len(v)), grid.points):
        rate[block] = kernel.emission_rate(omega[block], v[block, None], mass)
    return omega, rate


def spectrum_grid(pump: PumpConfig, grid: SpectralGrid) -> SpectrumResult:
    """Emission rate at every grid node, scan_2d of [pump.v]; divergent or
    singular nodes are flagged and do not abort the grid."""
    omega, rate = (row[0] for row in scan_2d([pump.v], grid, pump.mass))
    flags = [(int(i), "singular" if math.isnan(rate[i]) else "resonant-divergence")
             for i in np.flatnonzero(~np.isfinite(rate))]
    return SpectrumResult(omega=omega, rate=rate, flags=flags)


def integrated_rates(v_values, mass: float | None = None) -> np.ndarray:
    """Total emission rate, the integral of the spectrum over the pair band,
    for every pump velocity of the vector v_values.  The band is [0, 1] for a
    photon and (2m, 1 - 2m) for a massive boson, outside which the numerator
    4 Im Geff(omega) Im Geff(1 - omega) is 0.

    Gauss-Legendre rule on the band: one panel of 256 nodes, or, when the pump
    velocity is within 0.1 of the resonance velocity, whose peak at omega =
    1/2 has a width of order |v - v_r|, 16-node panels halving towards the
    peak at the cuts 1/2 +- 0.15 * 2^-k (k = 0..47) that lie inside the band
    and more than 1e-12 from its edges.  The pumps of one rule share its
    nodes, BLOCK_CELLS cells per kernel call.  A pump gets 0 at v = 0 and
    float('inf') when a node runs into the divergence floor.  A band narrower
    than 1e-11 (every mass >= 1/4) is the closed channel: every pump gets 0,
    with only the velocities checked.
    """
    v = np.asarray(v_values, dtype=float)
    totals = np.zeros(len(v))
    v_res = _resonance_or_none(mass)  # the mass check
    lo, hi = (0.0, 1.0) if mass is None else (2.0 * mass, 1.0 - 2.0 * mass)
    if hi - lo < 1e-11:  # too narrow for nodes to stay off its edges, the branch points
        kernel.check_velocity(v)
        return totals
    near = np.abs(v - v_res) < 0.1  # an open band has a resonance
    steps = 0.15 * 0.5 ** np.arange(48)
    cuts = np.concatenate([0.5 - steps, 0.5 + steps])
    cuts = cuts[(cuts > lo + 1e-12) & (cuts < hi - 1e-12)]
    # no cut repeats an edge, so a sort is np.union1d (whose first call takes 20 ms)
    for pick, panels, n in [(~near, np.array([lo, hi]), 256),
                            (near, np.sort(np.concatenate([[lo, hi], cuts])), 16)]:
        x, w = _leggauss(n)
        mid, half = 0.5 * (panels[:-1] + panels[1:]), 0.5 * (panels[1:] - panels[:-1])
        nodes, weights = (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()
        for block in _blocks(np.flatnonzero(pick & (v != 0.0)), len(nodes)):
            rates = kernel.emission_rate(nodes[None, :], v[block, None], mass)
            for i, row in zip(block, rates):
                totals[i] = math.inf if np.isinf(row).any() else float(np.dot(weights, row))
    return totals


def integrated_rate(pump: PumpConfig) -> float:
    """Total emission rate of one pump: integrated_rates of [pump.v]."""
    return float(integrated_rates([pump.v], pump.mass)[0])


def resonance_velocity(mass: float | None = None) -> float:
    """Pump velocity nulling the omega = 1/2 resolvent factor, 1/|Geff(1/2)|.

    Photon branch: equals 4 pi / sqrt(pi^2 + (4 - ln 3)^2) ~ 2.94.  At mass
    1/4 the branch point 2m sits at omega = 1/2, where |Geff| grows without
    bound, and the limit 0 is returned.  Raises NoResonance when Geff(1/2)
    vanishes (threshold mass = 1/2).
    """
    try:
        modulus = abs(kernel.effective_green_function(0.5, mass))
    except kernel.SingularArgument:
        return 0.0
    if modulus == 0.0:
        raise NoResonance(f"effective Green function vanishes at omega = 1/2 for mass {mass!r}")
    return 1.0 / modulus


def _resonance_or_none(mass: float | None) -> float | None:
    """resonance_velocity, or None where no pump reaches one (mass 1/2, and
    the limit 0 at mass 1/4); a mass outside [0, 1/2] raises ValueError,
    which makes this the mass check of a sweep."""
    try:
        return resonance_velocity(mass) or None
    except NoResonance:
        return None


def stimulated_rate(
    omega: float, pump: PumpConfig, n_q: float
) -> tuple[float, float]:
    """Emission rates with n_q quanta already occupying the input mode.

    The occupation enhances emission by the bosonic factor 1 + n_q into
    both the same wavevector and the phase-conjugate partner -alpha q, so
    both returned rates equal (1 + n_q) * spontaneous.
    """
    if not 0.0 <= n_q < math.inf:  # nan fails it too
        raise ValueError(f"mode occupation must be finite and >= 0, got {n_q!r}")
    spontaneous = kernel.emission_rate(omega, pump.v, pump.mass)
    enhanced = (1.0 + n_q) * spontaneous
    return enhanced, enhanced


def conjugate_partner(omega: float) -> tuple[float, float]:
    """Pair partner frequency 1 - omega and wavevector ratio alpha = 1/omega - 1.

    At omega = 1/2 the partner is the phase-conjugate reflection at the
    same frequency (alpha = 1).
    """
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega must lie in (0, 1), got {omega!r}")
    return 1.0 - omega, 1.0 / omega - 1.0


def required_intensity(n2: float, omega_l_over_c: float, v_target: float) -> float:
    """Pump laser intensity (W/cm^2) reaching a target optical-length velocity.

    Inverts v = n'_0 omega0 L0 / c with the Kerr response n'_0 = n2 * I:
    I = v / (n2 * omega_l_over_c).  Every input, and the intensity, must be
    finite and > 0.
    """
    if not all(0.0 < x < math.inf for x in (n2, omega_l_over_c, v_target)):
        raise ValueError("n2, omega_l_over_c and v_target must all be finite and > 0")
    product = n2 * omega_l_over_c
    intensity = v_target / product if product > 0.0 else math.inf
    if not 0.0 < intensity < math.inf:
        raise ValueError(f"the intensity {intensity} W/cm^2 is outside the float range")
    return intensity
