"""Grid drivers over the spectral kernel: profiles, integrated rates,
resonance location, 2D pump scans, stimulated/phase-conjugate bookkeeping,
and the pump-intensity estimate.

All heavy lifting is delegated to the pure functions in pairflux.kernel;
this module owns discretization and quadrature policy.
"""

from __future__ import annotations

import functools
import math
import os
from collections import namedtuple

import numpy as np

from . import kernel

# pump velocity at which the omega = 1/2 resolvent factor vanishes:
# 4 pi / sqrt(pi^2 + (4 - ln 3)^2), about 2.9385
RESONANCE_VELOCITY_PHOTON = 4.0 * math.pi / math.sqrt(
    math.pi**2 + (4.0 - math.log(3.0)) ** 2
)

BLOCK_CELLS = 8192  # (pump, node) cells per kernel call of a sweep: bounds its memory


_TABLE_DIR = os.path.dirname(__file__)  # where the package data tables are installed


class BrokenInstallation(Exception):
    """A package data table is missing, unreadable or not of its size."""


def read_table(name: str, size: int) -> np.ndarray:
    """The package data table name: size little-endian doubles, read-only.
    Raises BrokenInstallation, naming the file, when it cannot be read or
    holds another count (np.fromfile drops a trailing partial double)."""
    path = os.path.join(_TABLE_DIR, name)
    try:
        table = np.fromfile(path, "<f8")
    except OSError as exc:
        raise BrokenInstallation(f"cannot read {path}: {exc.strerror or exc}") from exc
    if table.size != size:
        raise BrokenInstallation(f"{path} holds {table.size} doubles, not {size}")
    table.flags.writeable = False  # shared by every call
    return table


class NoResonance(Exception):
    """The effective Green function vanishes at omega = 1/2; no finite pump
    velocity nulls the resolvent (threshold mass)."""


class PumpConfig(namedtuple("PumpConfig", "v mass", defaults=(None,))):
    """Physical pump parameters: dimensionless velocity v = V/c and the
    emitted-boson mass (None = photon).  Read-only, as SpectralGrid is:
    assigning a field raises AttributeError.  Both are named tuples that
    check their fields when built, through _make and _replace too."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it

    def __init__(self, *_, **__):
        kernel.check_velocity(self.v)
        kernel.check_mass(self.mass)


class SpectralGrid(namedtuple("SpectralGrid", "omega_min omega_max points",
                              defaults=(0.0, 1.0, 256))):
    """Frequency discretization on [omega_min, omega_max] inside [0, 1]:
    linspace with both ends, trapezoid weights."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __init__(self, *_, **__):
        if not 0.0 <= self.omega_min < self.omega_max <= 1.0:
            raise ValueError(
                f"need 0 <= omega_min < omega_max <= 1, got [{self.omega_min}, {self.omega_max}]"
            )
        if not (isinstance(self.points, (int, np.integer)) and self.points >= 2):
            raise ValueError(f"points must be an integer >= 2, got {self.points!r}")

    def nodes(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.points)

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        h = (self.omega_max - self.omega_min) / (self.points - 1)
        w = np.full(self.points, h)
        w[[0, -1]] = 0.5 * h
        return self.nodes(), w


@functools.cache
def _gauss_rules() -> tuple[np.ndarray, np.ndarray]:
    """The two Gauss-Legendre rules of integrated_rates as (2, n) arrays of
    nodes and weights, read from gauss_legendre.f8 (little-endian doubles):
    the 128 nodes below 0 of the 256-node rule, ascending, then all 16 of
    the 16-node rule; each equals numpy.polynomial.legendre.leggauss's bit
    for bit.  leggauss itself, with the numpy.polynomial import, takes
    15-20 ms of a cold start."""
    table = read_table("gauss_legendre.f8", 288)
    return table[:256].reshape(2, 128), table[256:].reshape(2, 16)


def _sweep(v: np.ndarray, rows: np.ndarray, nodes: np.ndarray, mass: float | None):
    """(block, rates) for the pumps v[rows] at the nodes, in blocks of at most
    BLOCK_CELLS cells (at least one row each): kernel.pair_terms of the nodes,
    once if there are rows, then one broadcast kernel call on it per block."""
    if not rows.size:
        return
    terms = kernel.pair_terms(nodes, mass)
    size = max(1, BLOCK_CELLS // len(nodes))
    for start in range(0, len(rows), size):
        block = rows[start:start + size]
        yield block, kernel.emission_rate(terms, v[block, None])


def scan_2d(v_values, grid: SpectralGrid, mass: float | None = None):
    """Emission rates over pump velocities (rows) and grid nodes (columns), as
    (omega, rate) arrays of shape (pumps, points): the frequencies each row was
    evaluated at, and linear rates with inf on a divergent node and nan on a
    branch point.  The kernel's own flag decides where the divergence is: a
    row whose node at omega = 1/2 comes back inf is evaluated again with that
    node nudged up by 1e-3 of (omega_max - omega_min) / points, so no row
    samples the divergence itself.  Two sweeps (_sweep) evaluate the rows:
    every row on the grid's nodes, then the flagged rows on the nudged nodes.
    The mass is checked first, for an empty v_values too."""
    v = np.asarray(v_values, dtype=float)
    nodes = grid.nodes()
    kernel.check_mass(mass)
    nudged = nodes.copy()
    nudged[nodes == 0.5] += 1e-3 * (grid.omega_max - grid.omega_min) / grid.points
    omega, rate = np.tile(nodes, (len(v), 1)), np.empty((len(v), grid.points))
    for block, rates in _sweep(v, np.arange(len(v)), nodes, mass):
        rate[block] = rates
    flagged = np.flatnonzero(np.isinf(rate[:, nodes == 0.5]).any(axis=1))
    omega[flagged] = nudged
    for block, rates in _sweep(v, flagged, nudged, mass):
        rate[block] = rates
    return omega, rate


def spectrum_grid(pump: PumpConfig, grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """(omega, rate) at every grid node, row 0 of scan_2d of [pump.v]: inf on
    a divergent node and nan on a branch point, neither aborting the grid."""
    omega, rate = scan_2d([pump.v], grid, pump.mass)
    return omega[0], rate[0]


def integrated_rates(v_values, mass: float | None = None) -> np.ndarray:
    """Total emission rate, the integral of the spectrum over the pair band,
    for every pump velocity of the vector v_values.  The band is [0, 1] for a
    photon and (2m, 1 - 2m) for a massive boson, outside which the numerator
    4 Im Geff(omega) Im Geff(1 - omega) is 0.

    Gauss-Legendre rule on the band: one panel of 256 nodes, or, when the pump
    velocity is within 0.1 of the resonance velocity, whose peak at omega =
    1/2 has a width of order |v - v_r|, 16-node panels halving towards the
    peak at the cuts 1/2 +- 0.15 * 2^-k (k = 0..47) that lie inside the band
    and more than 1e-12 from its edges, and at 1/2.  The rate and the band
    are symmetric under omega <-> 1 - omega, so each rule is folded: only
    its half below 1/2 is evaluated, weights doubled, 128 nodes of the band
    panel or 784 (photon) of the window panels, which the cut at 1/2 keeps
    from straddling it.  The pumps of one rule are one sweep (_sweep) of its
    nodes, their totals the row-wise weighted sums of its blocks of rates.
    The velocities are checked once, up front.  A pump gets 0 at v = 0 and
    float('inf') when a node runs into the divergence floor.  A band narrower
    than 1e-11 (every mass >= 1/4) is the closed channel: every pump gets 0,
    with only the velocities checked.
    """
    v = np.asarray(v_values, dtype=float)
    totals = np.zeros(len(v))
    kernel.check_mass(mass)  # ahead of the velocities
    kernel.check_velocity(v)
    lo, hi = (0.0, 1.0) if mass is None else (2.0 * mass, 1.0 - 2.0 * mass)
    if hi - lo < 1e-11:  # too narrow for nodes to stay off its edges, the branch points
        return totals
    near = np.abs(v - resonance_velocity(mass)) < 0.1  # an open band has a resonance
    # each rule folded at 1/2, its lower half with doubled weights: the nodes x < 0
    # of the band panel (all the stored ones), and the window panels below 1/2
    cuts = 0.5 - 0.15 * 0.5 ** np.arange(48)  # ascending
    window = np.concatenate([[lo], cuts[cuts > lo + 1e-12], [0.5]])
    band_rule, window_rule = _gauss_rules()
    for pick, panels, (x, w) in [(~near, np.array([lo, hi]), band_rule), (near, window, window_rule)]:
        rows = np.flatnonzero(pick & (v != 0.0))
        mid, half = 0.5 * (panels[:-1] + panels[1:]), 0.5 * (panels[1:] - panels[:-1])
        nodes = (mid[:, None] + half[:, None] * x).ravel()
        weights = (2.0 * half[:, None] * w).ravel()
        for block, rates in _sweep(v, rows, nodes, mass):
            # a row-wise sum, not rates @ weights: BLAS rounds a 1-row product
            # differently from a 5-row one, and a total must not depend on its block;
            # every term is >= 0 and every weight > 0, so an inf node makes the total inf
            totals[block] = (rates * weights).sum(axis=1)
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
