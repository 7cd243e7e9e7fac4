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

DEFAULT_DT_DIVISOR = 200.0  # RK4 steps per pump period, per unit of mode_multiplier
CHECKPOINTS = 16  # occupation samples over the run; at least 8 fall in [t0/2, t0]
AMPLITUDE_BOUND = 1e6  # |x_k| beyond this raises IntegratorUnstable
COMPARE_WINDOW = (0.2, 0.8)  # open omega interval compare_to_analytic checks
COMPARE_TOLERANCE = 0.15  # median deviation a comparison passes at (acceptance criterion 8)

# Work a SimConfig may ask of evolve: RK4 steps per pump period, pump periods,
# and bytes of the 2K x 2K maps held at once: the kept maps, plus at most 8 more
# at the measured peak (monodromy, power and successor, a checkpoint product,
# matrix_power's temporaries, the complex checkpoint arrays).  kappa0 256, 3000
# steps and 200 periods stay far below, and a run inside the recurrence time
# 2 pi kappa0 of any kappa0 the map bound admits spans fewer than 2,000 periods.
MAX_STEPS_PER_PERIOD = 100_000
MAX_PERIODS = 10_000
MAX_MAP_BYTES = 2**30


def _ceil(x: float) -> int:
    """ceil(x) forgiving a relative rounding excess, so that a t0 of
    q whole periods counts as q * n_p steps, not one more."""
    return math.ceil(x * (1.0 - 1e-9))


class IntegratorUnstable(Exception):
    """An amplitude went non-finite or past AMPLITUDE_BOUND during evolution."""


class ModeRecurrenceWarning(UserWarning):
    """Modulation time exceeds the resonator mode-recurrence time 2 pi kappa0."""


@dataclass(frozen=True)
class SimConfig:
    """Truncated-mode simulation parameters.

    kappa0 sets the mode count and spacing (delta omega = 1/kappa0); t0 is
    the total modulation time.  A pump period takes
    ceil(dt_divisor * mode_multiplier) RK4 steps, so the step divides the
    period and is never coarser than 2 pi / (dt_divisor * omega_max); the
    default divisor 200 keeps the per-row symplectic defect of the RK4 map
    below 1e-6 out to t0 = 400 pi.  The run takes ceil(t0 / step) steps.
    mode_multiplier > 1 adds modes above the pump frequency, which widens the
    band the pump couples: it changes the model and does not test truncation.
    """

    kappa0: int
    v: float
    t0: float = 400.0 * math.pi
    dt_divisor: float = DEFAULT_DT_DIVISOR
    mode_multiplier: float = 1.0

    def __post_init__(self):
        # written as "not (valid)" so that nan fails every check
        if self.kappa0 < 8:
            raise ValueError(f"kappa0 must be >= 8, got {self.kappa0}")
        kernel.check_velocity(self.v)
        if not 100.0 * math.pi <= self.t0 < math.inf:
            raise ValueError(
                f"t0 must be finite and >= 100*pi (stationary extraction), got {self.t0}")
        if not 1.0 <= self.mode_multiplier < math.inf:
            raise ValueError(f"mode_multiplier must be finite and >= 1, got {self.mode_multiplier}")
        if not 20.0 <= self.dt_divisor < math.inf:
            raise ValueError(f"dt_divisor must be finite and >= 20, got {self.dt_divisor}")
        # the product of two large factors overflows to inf, which has no ceil
        divisor = self.dt_divisor * self.mode_multiplier
        if not divisor < math.inf or self.steps_per_period > MAX_STEPS_PER_PERIOD:
            raise ValueError(f"dt_divisor * mode_multiplier = {divisor} needs more than "
                             f"{MAX_STEPS_PER_PERIOD} steps per pump period")
        # near the float maximum t0 / step overflows before it reaches ceil
        if not self.t0 / self.step < math.inf or self.n_steps > MAX_PERIODS * self.steps_per_period:
            raise ValueError(f"t0 = {self.t0} spans more than {MAX_PERIODS} pump periods")
        map_bytes = (sum(map(len, self.kept_maps)) + 8) * (2 * self.n_modes) ** 2 * 8
        if map_bytes > MAX_MAP_BYTES:
            raise ValueError(f"{self.n_modes} modes need {map_bytes / 2**30:.3g} GiB of "
                             f"period maps, more than {MAX_MAP_BYTES / 2**30:.3g} GiB")

    @property
    def steps_per_period(self) -> int:
        """RK4 steps per pump period 2 pi, a whole number so that Floquet
        composition is exact."""
        return _ceil(self.dt_divisor * self.mode_multiplier)

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
        return np.linspace(0, self.n_steps, CHECKPOINTS + 1).astype(int)[1:]

    @property
    def kept_maps(self) -> tuple[set[int], set[int]]:
        """(remainders, gaps): the non-zero remainders r of the checkpoint
        steps modulo steps_per_period and the distinct numbers g of whole
        periods between checkpoints (the first from t = 0; t0 >= 100 pi keeps
        g >= 3), whose partial maps P_r and leaps M^g evolve keeps."""
        periods, remainders = np.divmod(self.checkpoint_steps, self.steps_per_period)
        return set(remainders.tolist()) - {0}, set(np.diff(periods, prepend=0).tolist())

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
    monodromy: the one-period map M of the real fundamental (x, x').
    """

    mu: np.ndarray
    nu: np.ndarray
    omega: np.ndarray
    times: np.ndarray
    occupations: np.ndarray
    config: SimConfig
    monodromy: np.ndarray

    def spectral_radius(self) -> float:
        """Largest |eigenvalue| of the monodromy; above 1 the pumped modes
        grow parametrically."""
        return float(np.abs(np.linalg.eigvals(self.monodromy)).max())

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
    checkpoints need; M^q is a product of leaps M^g, one matrix_power per
    distinct gap of g periods between checkpoints.  Occupations are recorded
    at evenly spaced checkpoints for the stationary-rate fit in extract_rates.

    Raises IntegratorUnstable if any amplitude is not finite or exceeds
    AMPLITUDE_BOUND; warns ModeRecurrenceWarning when t0 exceeds 2 pi kappa0.
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
    remainders, gaps = config.kept_maps

    # a w (Q - self term) - w^2 X, a = 2 v cos t, is rank one plus diagonal: a w (c . X) - (w^2 + a w c) X
    omega_sq, omega_cpl = omega * omega, omega * ensemble.coupling

    def acc(t: float, X: np.ndarray) -> np.ndarray:
        a = 2.0 * config.v * math.cos(t)
        return (a * omega)[:, None] * (ensemble.coupling @ X) - (omega_sq + a * omega_cpl)[:, None] * X

    with np.errstate(over="ignore", invalid="ignore"):  # the amplitude check catches it
        X = np.eye(K, 2 * K)          # x rows of the fundamental: x(0) = [1 0]
        V = np.eye(K, 2 * K, K)       # x' rows: x'(0) = [0 1]
        partial = {}
        for r in range(1, n_p + 1):
            t = (r - 1) * h
            k1 = acc(t, X)
            Y = X + (0.5 * h) * V  # serves k2 and k3
            k2 = acc(t + 0.5 * h, Y)
            k3 = acc(t + 0.5 * h, Y + (0.25 * h * h) * k1)
            X += h * V  # serves k4 and the X update
            k4 = acc(t + h, X + (0.5 * h * h) * k2)
            k2 += k3  # serves the X and the V update
            k1 += k2
            X += (h * h / 6.0) * k1
            V += (h / 6.0) * (k1 + k2 + k4)
            if r in remainders:
                partial[r] = np.vstack([X, V])
        monodromy = np.vstack([X, V])
        del X, V, Y, k1, k2, k3, k4  # 3.5 maps of stage arrays, freed before the leaps

        # initial columns x(0) = 1/sqrt(2 w), x'(0) = -i w x(0) on the fundamental
        x0 = 1.0 / np.sqrt(2.0 * omega)
        v0 = -1j * omega * x0
        leaps = {g: np.linalg.matrix_power(monodromy, g) for g in gaps}
        power, q_now = np.eye(2 * K), 0
        occupations = np.empty((len(check_steps), K))
        for c, s in enumerate(check_steps):
            q, r = divmod(int(s), n_p)
            power = leaps[q - q_now] @ power
            q_now = q
            F = partial[r] @ power if r else power
            Xc = F[:K, :K] * x0 + F[:K, K:] * v0
            t = s * h
            if not np.isfinite(Xc).all() or np.abs(Xc).max() > AMPLITUDE_BOUND:
                raise IntegratorUnstable(
                    f"amplitude bound {AMPLITUDE_BOUND:g} exceeded at t = {t:.4g} (v = {config.v})"
                )
            mu, nu = _project(Xc, F[K:, :K] * x0 + F[K:, K:] * v0, omega, t)
            occupations[c] = (np.abs(nu) ** 2).sum(axis=1)

    return BogoliubovMatrix(
        mu=mu, nu=nu, omega=omega, times=check_steps * h, occupations=occupations,
        config=config, monodromy=monodromy,
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
    slopes = np.polyfit(matrix.times[sel], matrix.occupations[sel], deg=1)[0]
    rate = config.kappa0 * slopes * MODE_SUM_TO_SPECTRAL
    interior = (matrix.omega > 0.1) & (matrix.omega < 0.9)
    return SimSpectrum(omega=matrix.omega[interior], rate=rate[interior], config=config)


def compare_to_analytic(sim: SimSpectrum, pump: PumpConfig) -> DeviationReport:
    """Per-mode relative deviation of the simulated spectrum from the
    closed-form emission rate inside COMPARE_WINDOW; the comparison passes
    when the median is at most COMPARE_TOLERANCE.  The oracle's modes
    are photons, so the pump must be the simulated one, without a mass."""
    if pump.mass is not None or abs(pump.v - sim.config.v) > 1e-12:
        raise ValueError(f"pump {pump} does not match the photon simulation at v = {sim.config.v}")
    mask = (sim.omega > COMPARE_WINDOW[0]) & (sim.omega < COMPARE_WINDOW[1])
    omega = sim.omega[mask]
    simulated = sim.rate[mask]
    analytic = kernel.emission_rate(omega, pump.v)
    # v = 0: nothing to normalize against
    degenerate = not analytic.any()
    devs = np.abs(simulated) if degenerate else np.abs(simulated / analytic - 1.0)
    median = float(np.median(devs)) if devs.size else 0.0
    return DeviationReport(
        omega=omega, simulated=simulated, analytic=analytic,
        relative_deviation=devs, max_deviation=float(devs.max(initial=0.0)),
        median_deviation=median, passed=degenerate or median <= COMPARE_TOLERANCE,
        degenerate=degenerate,
    )
