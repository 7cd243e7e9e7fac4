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
from .kernel import DEFAULT_DENOMINATOR_FLOOR

# pump velocity at which the omega = 1/2 resolvent factor vanishes:
# 4 pi / sqrt(pi^2 + (4 - ln 3)^2), about 2.9385
RESONANCE_VELOCITY_PHOTON = 4.0 * math.pi / math.sqrt(
    math.pi**2 + (4.0 - math.log(3.0)) ** 2
)

_PLACEMENTS = ("open-uniform", "closed-uniform", "gauss-legendre")


class NoResonance(Exception):
    """The effective Green function vanishes at omega = 1/2; no finite pump
    velocity nulls the resolvent (threshold mass)."""


@dataclass(frozen=True)
class PumpConfig:
    """Physical pump parameters: dimensionless velocity v = V/c and the
    emitted-boson mass (None = photon), plus the divergence floor."""

    v: float
    mass: float | None = None
    denominator_floor: float = DEFAULT_DENOMINATOR_FLOOR

    def __post_init__(self):
        if self.v < 0.0 or not math.isfinite(self.v):
            raise ValueError(f"pump velocity must be finite and >= 0, got {self.v!r}")
        if self.mass is not None and not 0.0 <= self.mass <= 0.5:
            raise ValueError(f"mass must lie in [0, 1/2], got {self.mass!r}")
        if self.denominator_floor <= 0.0:
            raise ValueError("denominator_floor must be > 0")


@dataclass(frozen=True)
class SpectralGrid:
    """Frequency discretization on [omega_min, omega_max] inside [0, 1].

    'open-uniform' is a midpoint grid (never touches the interval ends);
    'closed-uniform' is linspace with both ends (trapezoid weights);
    'gauss-legendre' places Gauss nodes (open as well).
    """

    omega_min: float = 0.0
    omega_max: float = 1.0
    points: int = 256
    placement: str = "gauss-legendre"

    def __post_init__(self):
        if not 0.0 <= self.omega_min < self.omega_max <= 1.0:
            raise ValueError(
                f"need 0 <= omega_min < omega_max <= 1, got [{self.omega_min}, {self.omega_max}]"
            )
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")
        if self.placement not in _PLACEMENTS:
            raise ValueError(f"placement must be one of {_PLACEMENTS}, got {self.placement!r}")

    def nodes(self) -> np.ndarray:
        return self.nodes_weights()[0]

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        a, b, n = self.omega_min, self.omega_max, self.points
        if self.placement == "open-uniform":
            h = (b - a) / n
            return a + h * (np.arange(n) + 0.5), np.full(n, h)
        if self.placement == "closed-uniform":
            h = (b - a) / (n - 1)
            w = np.full(n, h)
            w[[0, -1]] = 0.5 * h
            return np.linspace(a, b, n), w
        x, w = _leggauss(n)
        half = 0.5 * (b - a)
        return 0.5 * (a + b) + half * x, w * half


@dataclass
class SpectrumResult:
    """Rates sampled on a grid.  flags holds (index, reason) for nodes that
    diverged ('resonant-divergence') or sat on a branch point ('singular')."""

    omega: np.ndarray
    rate: np.ndarray
    pump: PumpConfig
    flags: list[tuple[int, str]] = field(default_factory=list)


@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def spectrum_grid(pump: PumpConfig, grid: SpectralGrid) -> SpectrumResult:
    """Evaluate the emission rate at every grid node.

    Divergent or singular nodes are flagged and do not abort the grid.
    A node exactly at omega = 1/2 is nudged off by a fraction of the
    spacing when the pump sits at its resonance velocity, so the grid
    never samples the divergent point itself.
    """
    omega = grid.nodes()
    if pump.v > 0.0:
        v_res = _resonance_or_none(pump.mass)
        if v_res is not None and abs(pump.v - v_res) < pump.denominator_floor:
            spacing = (grid.omega_max - grid.omega_min) / grid.points
            omega[omega == 0.5] += 1e-3 * spacing
    rate = kernel.emission_rate(omega, pump.v, pump.mass, pump.denominator_floor)
    flags = [(int(i), "singular" if math.isnan(rate[i]) else "resonant-divergence")
             for i in np.flatnonzero(~np.isfinite(rate))]
    return SpectrumResult(omega=omega, rate=rate, pump=pump, flags=flags)


def _edges(mass: float | None) -> list[float]:
    """[0, 1] with the massive branch points 2m and 1 - 2m, where
    Im Geff(omega) and Im Geff(1 - omega) jump, as panel edges.  A cut within
    1e-12 of an edge kept before it is dropped, because the panel between
    them would be so narrow that its Gauss nodes round onto an edge."""
    edges = [0.0, 1.0]
    for cut in [] if mass is None else [2.0 * mass, 1.0 - 2.0 * mass]:
        if min(abs(cut - e) for e in edges) > 1e-12:
            edges.append(cut)
    return sorted(edges)


def _composite_gauss(f, edges, n: int) -> float:
    """The n-node Gauss-Legendre rule on every panel between consecutive
    edges, in one call of f; inf when a node diverges."""
    edges = np.asarray(edges, dtype=float)
    x, w = _leggauss(n)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    vals = f((mid[:, None] + half[:, None] * x).ravel())
    if np.isinf(vals).any():
        return math.inf
    return float(np.dot((half[:, None] * w).ravel(), vals))


def integrated_rate(pump: PumpConfig) -> float:
    """Total emission rate: integral of the spectrum over the pair band [0, 1].

    Composite Gauss-Legendre rule, split for a massive boson at the branch
    points 2m and 1 - 2m.  Away from resonance 256 nodes are shared out
    over those panels.  When the pump velocity is within 0.1 of the
    resonance velocity, whose peak at omega = 1/2 has a width of order
    |v - v_r|, panels ending at 1/2 +- 0.15 * 2^-k (k = 0..47) halve
    towards the peak and each carries 16 nodes.  Returns float('inf')
    when a node runs into the divergence floor (resonant pump), and
    raises SingularArgument when a node sits on a branch point.
    """
    if pump.v == 0.0:
        return 0.0

    def f(omega: np.ndarray) -> np.ndarray:
        rate = kernel.emission_rate(omega, pump.v, pump.mass, pump.denominator_floor)
        if np.isnan(rate).any():  # would make the total a silent nan
            raise kernel.SingularArgument(
                f"a quadrature node sits on a branch point (mass {pump.mass!r})")
        return rate

    edges = _edges(pump.mass)
    v_res = _resonance_or_none(pump.mass)
    if v_res is None or abs(pump.v - v_res) >= 0.1:
        return _composite_gauss(f, edges, -(-256 // (len(edges) - 1)))
    steps = 0.15 * 0.5 ** np.arange(48)
    cuts = np.concatenate([0.5 - steps, 0.5 + steps])
    cuts = cuts[np.abs(cuts[:, None] - edges).min(axis=1) > 1e-12]  # the rule of _edges
    return _composite_gauss(f, np.union1d(edges, cuts), 16)


def resonance_velocity(mass: float | None = None) -> float:
    """Pump velocity nulling the omega = 1/2 resolvent factor, 1/|Geff(1/2)|.

    Photon branch: equals 4 pi / sqrt(pi^2 + (4 - ln 3)^2) ~ 2.94.
    Raises NoResonance when Geff(1/2) vanishes (threshold mass = 1/2).
    """
    g = kernel.effective_green_function(0.5, mass)
    modulus = abs(g)
    if modulus == 0.0:
        raise NoResonance(f"effective Green function vanishes at omega = 1/2 for mass {mass!r}")
    return 1.0 / modulus


def _resonance_or_none(mass: float | None) -> float | None:
    try:
        return resonance_velocity(mass)
    except (NoResonance, kernel.SingularArgument):  # mass 1/4 puts 2m at omega = 1/2
        return None


def scan_2d(
    v_values, grid: SpectralGrid, mass: float | None = None,
    denominator_floor: float = DEFAULT_DENOMINATOR_FLOOR,
) -> np.ndarray:
    """Rate matrix over pump velocities (rows) and frequencies (columns).

    Linear rates; divergent cells carry float('inf').  Downstream emitters
    apply any log scaling.
    """
    return np.vstack([
        spectrum_grid(PumpConfig(float(v), mass, denominator_floor), grid).rate for v in v_values
    ])


def stimulated_rate(
    omega: float, pump: PumpConfig, n_q: float
) -> tuple[float, float]:
    """Emission rates with n_q quanta already occupying the input mode.

    The occupation enhances emission by the bosonic factor 1 + n_q into
    both the same wavevector and the phase-conjugate partner -alpha q, so
    both returned rates equal (1 + n_q) * spontaneous.
    """
    if n_q < 0.0:
        raise ValueError(f"mode occupation must be >= 0, got {n_q!r}")
    spontaneous = kernel.emission_rate(omega, pump.v, pump.mass, pump.denominator_floor)
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
