"""Brute-force oracle for the closed-form spectrum: truncated-mode
time-domain evolution of the pumped field and Bogoliubov extraction.

The resonator of optical length L0 = pi * kappa0 carries modes
omega_k = k / kappa0 (k = 1 .. mode_multiplier * kappa0).  The pump
couples every pair of modes through the wave-packet coordinate

    Q = (1 / (pi kappa0^2)) sum_j j x_j,

giving the linear, time-periodic equations of motion

    x_k'' = -omega_k^2 x_k + 2 v cos(t) omega_k * (Q - self term),

with the k = j self term excluded.  The dynamics are quadratic, so the
Heisenberg evolution equals the classical fundamental solution: evolving
every positive-frequency initial column x_k(0) = delta_kj / sqrt(2 w_j),
x_k'(0) = -i w_j x_k(0) and projecting the final state on e^{-+ i w_k t}
yields the Bogoliubov matrices (mu, nu), and the pair production shows up
as mode occupation N_k = sum_j |nu_kj|^2 growing linearly in time.

Validity window: a finite resonator re-interferes the emitted field after
the mode-recurrence time 2 pi kappa0.  Quantitative agreement with the
continuum formula requires t0 below that bound; beyond it the exactly
resonant mode pairs squeeze coherently and the spectrum inflates (the
discrete-resonator regime).  evolve() warns when a run crosses the bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernel
from .spectrum import PumpConfig

# Converts the raw mode-sum growth rate (occupation per unit time, per unit
# frequency) to the spectral convention of kernel.emission_rate.  Fixed
# analytically by matching the perturbative limit of the mode equations to
# (v/2pi)^2 w(1-w); pinned numerically by
# tests/test_modesim.py::test_rate_normalization_matches_perturbative_limit.
MODE_SUM_TO_SPECTRAL = 1.0 / (2.0 * math.pi)

DEFAULT_DT_DIVISOR = 200.0  # dt = 2 pi / (divisor * omega_max)

# Work a SimConfig may ask of evolve: RK4 steps per pump period, pump periods
# (one monodromy product each), and bytes of the 2K x 2K maps held at once
# (one per kept remainder, plus the monodromy, its power and a checkpoint
# product).  kappa0 256, 3000 steps and 200 periods stay far below, and a run
# inside the recurrence time 2 pi kappa0 of any kappa0 the map bound admits
# spans fewer than 3,400 periods.
MAX_STEPS_PER_PERIOD = 100_000
MAX_PERIODS = 10_000
MAX_MAP_BYTES = 2**30


def _ceil(x: float) -> int:
    """ceil(x) forgiving a relative rounding excess, so that
    2*pi / (2*pi/200) counts as 200 steps, not 201."""
    return math.ceil(x * (1.0 - 1e-9))


class IntegratorUnstable(Exception):
    """Amplitude norm blew past the configured bound during evolution."""


class ModeRecurrenceWarning(UserWarning):
    """Modulation time exceeds the resonator mode-recurrence time 2 pi kappa0."""


@dataclass(frozen=True)
class SimConfig:
    """Truncated-mode simulation parameters.

    kappa0 sets the mode count and spacing (delta omega = 1/kappa0); t0 is
    the total modulation time; dt defaults to 2 pi / (200 * omega_max),
    which keeps the per-row symplectic defect of the RK4 map below 1e-6
    out to t0 = 400 pi.  The step is snapped to 2 pi / ceil(2 pi / dt), so
    it divides the pump period and is never coarser than asked; the run
    takes ceil(t0 / step) steps.  mode_multiplier > 1 adds modes above the
    pump frequency to probe truncation sensitivity.
    """

    kappa0: int
    v: float
    t0: float = 400.0 * math.pi
    dt: float | None = None
    mode_multiplier: float = 1.0
    checkpoints: int = 16
    amplitude_bound: float = 1e6

    def __post_init__(self):
        # written as "not (valid)" so that nan fails every check
        if self.kappa0 < 8:
            raise ValueError(f"kappa0 must be >= 8, got {self.kappa0}")
        if not 0.0 <= self.v < math.inf:
            raise ValueError(f"v must be finite and >= 0, got {self.v}")
        if not 100.0 * math.pi <= self.t0 < math.inf:
            raise ValueError(
                f"t0 must be finite and >= 100*pi (stationary extraction), got {self.t0}")
        if not 1.0 <= self.mode_multiplier < math.inf:
            raise ValueError(f"mode_multiplier must be finite and >= 1, got {self.mode_multiplier}")
        if self.checkpoints < 4:
            raise ValueError(f"checkpoints must be >= 4, got {self.checkpoints}")
        omega_max = self.mode_multiplier
        if self.dt is not None and not 0.0 < self.dt <= 2.0 * math.pi / (20.0 * omega_max):
            raise ValueError(f"dt must be in (0, 2*pi/(20*omega_max)], got {self.dt}")
        if self.steps_per_period > MAX_STEPS_PER_PERIOD:
            raise ValueError(f"dt = {self.dt} needs {self.steps_per_period} steps per pump "
                             f"period, more than {MAX_STEPS_PER_PERIOD}")
        if self.n_steps > MAX_PERIODS * self.steps_per_period:
            raise ValueError(f"t0 = {self.t0} spans more than {MAX_PERIODS} pump periods")
        map_bytes = (len(self.kept_remainders) + 3) * (2 * self.n_modes) ** 2 * 8
        if map_bytes > MAX_MAP_BYTES:
            raise ValueError(f"{self.n_modes} modes need {map_bytes / 2**30:.3g} GiB of "
                             f"period maps, more than {MAX_MAP_BYTES / 2**30:.3g} GiB")

    @property
    def steps_per_period(self) -> int:
        """RK4 steps per pump period 2 pi: the requested dt snapped down to
        divide the period (so Floquet composition is exact)."""
        dt = self.dt if self.dt is not None else (
            2.0 * math.pi / (DEFAULT_DT_DIVISOR * self.mode_multiplier))
        return _ceil(2.0 * math.pi / dt)

    @property
    def step(self) -> float:
        return 2.0 * math.pi / self.steps_per_period

    @property
    def n_steps(self) -> int:
        """Steps to reach t0; the last one may overshoot t0 by less than a step."""
        return _ceil(self.t0 / self.step)

    @property
    def checkpoint_steps(self) -> np.ndarray:
        """Step counts at which evolve records occupations."""
        return np.linspace(0, self.n_steps, self.checkpoints + 1).astype(int)[1:]

    @property
    def kept_remainders(self) -> set[int]:
        """Non-zero remainders modulo steps_per_period of the checkpoint
        steps: the partial-period maps evolve keeps."""
        return {int(s) % self.steps_per_period for s in self.checkpoint_steps} - {0}

    @property
    def n_modes(self) -> int:
        return int(round(self.mode_multiplier * self.kappa0))

    @property
    def recurrence_time(self) -> float:
        return 2.0 * math.pi * self.kappa0


@dataclass
class ModeEnsemble:
    """Mode frequencies and pump-coupling weights for one SimConfig."""

    config: SimConfig
    omega: np.ndarray       # omega_k = k / kappa0
    coupling: np.ndarray    # k / (pi kappa0^2), the Q-expansion weight


@dataclass
class BogoliubovMatrix:
    """Final-state Bogoliubov coefficients plus occupation history.

    mu[k, j], nu[k, j]: coefficients of a_j, a_j^dagger in the out-mode k.
    occupations[c, k] = N_k at checkpoint time times[c].
    spectral_radius: largest |eigenvalue| of the one-period (monodromy)
    map; above 1 the pumped modes grow parametrically.
    """

    mu: np.ndarray
    nu: np.ndarray
    omega: np.ndarray
    times: np.ndarray
    occupations: np.ndarray
    config: SimConfig
    spectral_radius: float

    def occupation(self) -> np.ndarray:
        """Final per-mode pair occupation N_k = sum_j |nu_kj|^2."""
        return (np.abs(self.nu) ** 2).sum(axis=1)

    def symplectic_defect(self) -> float:
        """max_k |sum_j (|mu_kj|^2 - |nu_kj|^2) - 1|, the unitarity residue."""
        rows = (np.abs(self.mu) ** 2 - np.abs(self.nu) ** 2).sum(axis=1)
        return float(np.abs(rows - 1.0).max())


@dataclass
class SimSpectrum:
    """Extracted rate density samples (interior modes only)."""

    omega: np.ndarray
    rate: np.ndarray
    config: SimConfig


@dataclass
class DeviationReport:
    """Per-mode comparison of a simulated spectrum against the closed form."""

    omega: np.ndarray
    simulated: np.ndarray
    analytic: np.ndarray
    relative_deviation: np.ndarray
    max_deviation: float
    median_deviation: float
    tolerance: float
    passed: bool
    degenerate: bool = False


def build_sim(config: SimConfig) -> ModeEnsemble:
    """Lay out the mode ladder and coupling weights for the configuration."""
    k = np.arange(1, config.n_modes + 1, dtype=float)
    omega = k / config.kappa0
    coupling = k / (math.pi * config.kappa0**2)
    return ModeEnsemble(config=config, omega=omega, coupling=coupling)


def _project(X: np.ndarray, V: np.ndarray, omega: np.ndarray, t: float):
    """Bogoliubov coefficients (mu, nu) of the out-modes e^{-+i w_k t} at time t."""
    pref = (np.sqrt(0.5 * omega) * np.exp(1j * omega * t))[:, None]
    dx = 1j * V / omega[:, None]
    return pref * (X + dx), pref * np.conj(X - dx)


def evolve(ensemble: ModeEnsemble) -> BogoliubovMatrix:
    """Propagate the fundamental solution and extract (mu, nu).

    The equations are linear and 2 pi-periodic and the RK4 step h divides
    the period into n_p steps, so the map over s = q n_p + r steps is
    P_r M^q (Floquet).  One period of RK4 on the real 2K x 2K fundamental
    of (x, x') gives the monodromy M and the partial maps P_r the
    checkpoints need; M^q is built by repeated products.  Occupations are
    recorded at evenly spaced checkpoints for the stationary-rate fit in
    extract_rates.

    Raises IntegratorUnstable if any amplitude exceeds the configured
    bound; warns ModeRecurrenceWarning when t0 exceeds 2 pi kappa0.
    """
    config = ensemble.config
    if config.v > 0.0 and config.t0 > config.recurrence_time:
        warnings.warn(
            f"t0 = {config.t0:.4g} exceeds the mode-recurrence time "
            f"2*pi*kappa0 = {config.recurrence_time:.4g}; extracted rates will "
            "overestimate the continuum spectrum (discrete-resonator pair growth)",
            ModeRecurrenceWarning,
            stacklevel=2,
        )

    omega = ensemble.omega
    K = omega.size
    n_p, h = config.steps_per_period, config.step
    check_steps = config.checkpoint_steps
    remainders = config.kept_remainders

    omega_col = omega[:, None]
    cpl_col = ensemble.coupling[:, None]
    two_v = 2.0 * config.v

    def acc(t: float, X: np.ndarray) -> np.ndarray:
        # -w^2 x + 2 v cos(t) omega (Q - self term), one column per solution
        pump = (two_v * math.cos(t)) * omega_col * (ensemble.coupling @ X - cpl_col * X)
        return pump - omega_col * omega_col * X

    X = np.eye(K, 2 * K)          # x rows of the fundamental: x(0) = [1 0]
    V = np.eye(K, 2 * K, K)       # x' rows: x'(0) = [0 1]
    partial = {}
    for r in range(1, n_p + 1):
        t = (r - 1) * h
        k1 = acc(t, X)
        k2 = acc(t + 0.5 * h, X + 0.5 * h * V)
        k3 = acc(t + 0.5 * h, X + 0.5 * h * V + 0.25 * h * h * k1)
        k4 = acc(t + h, X + h * V + 0.5 * h * h * k2)
        X, V = (X + h * V + (h * h / 6.0) * (k1 + k2 + k3),
                V + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
        if r in remainders:
            partial[r] = np.vstack([X, V])
    monodromy = np.vstack([X, V])

    # initial columns x(0) = 1/sqrt(2 w), x'(0) = -i w x(0) on the fundamental
    x0 = 1.0 / np.sqrt(2.0 * omega)
    v0 = -1j * omega * x0
    power, q_now = np.eye(2 * K), 0
    occupations = np.empty((len(check_steps), K))
    bound = config.amplitude_bound
    for c, s in enumerate(check_steps):
        q, r = divmod(int(s), n_p)
        for _ in range(q - q_now):
            power = monodromy @ power
        q_now = q
        F = partial[r] @ power if r else power
        Xc = F[:K, :K] * x0 + F[:K, K:] * v0
        t = s * h
        if not np.isfinite(Xc).all() or np.abs(Xc).max() > bound:
            raise IntegratorUnstable(
                f"amplitude bound {bound:g} exceeded at t = {t:.4g} (v = {config.v})"
            )
        mu, nu = _project(Xc, F[K:, :K] * x0 + F[K:, K:] * v0, omega, t)
        occupations[c] = (np.abs(nu) ** 2).sum(axis=1)

    return BogoliubovMatrix(
        mu=mu, nu=nu, omega=omega, times=check_steps * h, occupations=occupations,
        config=config, spectral_radius=float(np.abs(np.linalg.eigvals(monodromy)).max()),
    )


def extract_rates(matrix: BogoliubovMatrix) -> SimSpectrum:
    """Rate density per mode from the stationary growth of N_k.

    N_k(t) is fitted linearly over the checkpoints in [t0/2, t0] (the
    first half absorbs the turn-on transient); the slope is converted to
    a per-unit-frequency rate through the mode density kappa0 and the
    spectral normalization constant.  Interior modes omega in (0.1, 0.9)
    only.
    """
    config = matrix.config
    sel = matrix.times >= 0.5 * config.t0 - 1e-9 * config.t0
    ts = matrix.times[sel]
    if ts.size >= 3:
        slopes = np.polyfit(ts, matrix.occupations[sel], deg=1)[0]
    else:
        slopes = matrix.occupations[-1] / matrix.times[-1]
    rate = config.kappa0 * slopes * MODE_SUM_TO_SPECTRAL
    interior = (matrix.omega > 0.1) & (matrix.omega < 0.9)
    return SimSpectrum(omega=matrix.omega[interior], rate=rate[interior], config=config)


def compare_to_analytic(
    sim: SimSpectrum,
    pump: PumpConfig,
    window: tuple[float, float] = (0.2, 0.8),
    tolerance: float = 0.15,
) -> DeviationReport:
    """Per-mode relative deviation of the simulated spectrum from the
    closed-form emission rate inside the comparison window."""
    if abs(pump.v - sim.config.v) > 1e-12:
        raise ValueError(f"pump v = {pump.v} does not match simulation v = {sim.config.v}")
    mask = (sim.omega > window[0]) & (sim.omega < window[1])
    omega = sim.omega[mask]
    simulated = sim.rate[mask]
    analytic = kernel.emission_rate(omega, pump.v, pump.mass, pump.denominator_floor)
    # v = 0 (or closed channel): nothing to normalize against
    degenerate = not analytic.any()
    devs = np.abs(simulated) if degenerate else np.abs(simulated / analytic - 1.0)
    median = float(np.median(devs)) if devs.size else 0.0
    return DeviationReport(
        omega=omega, simulated=simulated, analytic=analytic,
        relative_deviation=devs, max_deviation=float(devs.max(initial=0.0)),
        median_deviation=median, tolerance=tolerance,
        passed=degenerate or median <= tolerance, degenerate=degenerate,
    )
