"""Brute-force oracle for the closed-form spectrum: truncated-mode
time-domain evolution of the pumped field and Bogoliubov extraction.

The resonator of optical length L0 = pi * kappa0 carries modes
omega_k = k / kappa0 (k = 1 .. kappa0, up to the pump frequency).  The pump
couples every pair of modes through the wave-packet coordinate

    Q = (1 / (pi kappa0^2)) sum_j j x_j,

giving the linear, time-periodic equations of motion

    x_k'' = -omega_k^2 x_k + 2 v cos(t) omega_k Q,

the k = j term included: omega = 1/2 pairs with itself.  The dynamics are
quadratic, so the Heisenberg evolution equals the classical fundamental
solution: evolving every positive-frequency initial column
x_k(0) = delta_kj / sqrt(2 w_j), x_k'(0) = -i w_j x_k(0) and projecting the
final state on e^{-+ i w_k t} yields the Bogoliubov matrices (mu, nu), and
the pair production shows up as mode occupation N_k = sum_j |nu_kj|^2
growing linearly in time.

Validity window: a finite resonator re-interferes the emitted field after
the mode-recurrence time 2 pi kappa0.  Quantitative agreement with the
continuum formula requires t0 below that bound; beyond it the exactly
resonant mode pairs squeeze coherently and the spectrum inflates (the
discrete-resonator regime).  evolve() warns when a run crosses the bound.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import kernel

# Converts the raw mode-sum growth rate (occupation per unit time, per unit
# frequency) to the spectral convention of kernel.emission_rate.  Fixed
# analytically by matching the perturbative limit of the mode equations to
# (v/2pi)^2 w(1-w); pinned numerically by
# tests/test_modesim.py::test_rate_normalization_matches_perturbative_limit.
MODE_SUM_TO_SPECTRAL = 1.0 / (2.0 * math.pi)

DEFAULT_DT_DIVISOR = 40.0  # GL3 steps per pump period
CHECKPOINTS = 16  # whole pump periods sampled over the run; 8 or 9 fall at or after t0/2
AMPLITUDE_BOUND = 1e6  # |x_k| beyond this raises IntegratorUnstable
COMPARE_WINDOW = (0.2, 0.8)  # open omega interval compare_to_analytic checks
COMPARE_TOLERANCE = 0.15  # median deviation a comparison passes at (acceptance criterion 8)

# Work a SimConfig may ask of evolve: steps per pump period, pump periods,
# and bytes of the 2K x 2K maps held at once: the leaps, plus at most 8 more
# at the measured peak (half period, monodromy, power and successor,
# matrix_power's temporaries, the real checkpoint arrays and the complex ones
# that project mu and nu).  The stepping's own working set is smaller.
# kappa0 256, 3000 steps and 200 periods stay far below, and a run inside the
# recurrence time 2 pi kappa0 of any kappa0 the map bound admits spans fewer
# than 2,000 periods.
MAX_STEPS_PER_PERIOD = 100_000
MAX_PERIODS = 10_000
MAX_MAP_BYTES = 2**30
STEP_BLOCK = 20  # most steps that _block_map folds into one map
# the 3-stage Gauss-Legendre method: its Butcher matrix A, nodes A 1 and weights b
_R15 = math.sqrt(15.0)
GAUSS_A = np.array([[5.0 / 36.0, 2.0 / 9.0 - _R15 / 15.0, 5.0 / 36.0 - _R15 / 30.0],
                    [5.0 / 36.0 + _R15 / 24.0, 2.0 / 9.0, 5.0 / 36.0 - _R15 / 24.0],
                    [5.0 / 36.0 + _R15 / 30.0, 2.0 / 9.0 + _R15 / 15.0, 5.0 / 36.0]])
GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * _R15 / 10.0
GAUSS_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0


class IntegratorUnstable(Exception):
    """The step is too coarse for the pump, or an amplitude went non-finite or
    past AMPLITUDE_BOUND during evolution."""


class ModeRecurrenceWarning(UserWarning):
    """Modulation time exceeds the resonator mode-recurrence time 2 pi kappa0."""


class SimConfig:
    """Truncated-mode simulation parameters.

    kappa0, an integer >= 8, sets the mode count and spacing
    (delta omega = 1/kappa0); t0 is the total modulation time.  A pump period
    takes the even number of GL3 steps at or above dt_divisor, so the step
    divides the half period and is never coarser than 2 pi / dt_divisor
    (2 pi: the period of the pump and of the top mode omega = 1).  GL3 is
    symplectic, so the step sets only the accuracy: at the default 40 the
    rates of kappa0 64 at v <= 3 lie within 1.6e-8 (relative) of a
    dt_divisor 2000 run.
    The run ends after the whole number of periods nearest t0 / 2 pi.
    Read-only: assigning a field raises AttributeError.  It and the three
    records below are plain classes, since dataclasses add their import and
    about 1 ms a class to a cold start.
    """

    __slots__ = ("kappa0", "v", "t0", "dt_divisor")

    def __init__(self, kappa0: int, v: float, t0: float = 400.0 * math.pi,
                 dt_divisor: float = DEFAULT_DT_DIVISOR):
        for name, value in zip(self.__slots__, (kappa0, v, t0, dt_divisor)):
            object.__setattr__(self, name, value)
        # written as "not (valid)" so that nan fails every check
        if not (isinstance(self.kappa0, (int, np.integer)) and self.kappa0 >= 8):
            raise ValueError(f"kappa0 must be an integer >= 8, got {self.kappa0!r}")
        kernel.check_velocity(self.v)
        if not 100.0 * math.pi <= self.t0 < math.inf:
            raise ValueError(
                f"t0 must be finite and >= 100*pi (stationary extraction), got {self.t0}")
        if not 20.0 <= self.dt_divisor < math.inf:
            raise ValueError(f"dt_divisor must be finite and >= 20, got {self.dt_divisor}")
        if self.steps_per_period > MAX_STEPS_PER_PERIOD:
            raise ValueError(f"dt_divisor = {self.dt_divisor} needs more than "
                             f"{MAX_STEPS_PER_PERIOD} steps per pump period")
        if self.periods > MAX_PERIODS:
            raise ValueError(f"t0 = {self.t0} spans more than {MAX_PERIODS} pump periods")
        # a numpy kappa0 would wrap the byte count at int64
        map_bytes = (len(self.kept_maps) + 8) * (2 * int(self.kappa0)) ** 2 * 8
        if map_bytes > MAX_MAP_BYTES:
            raise ValueError(f"{self.kappa0} modes need {map_bytes / 2**30:.3g} GiB of "
                             f"period maps, more than {MAX_MAP_BYTES / 2**30:.3g} GiB")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def steps_per_period(self) -> int:
        """Steps per pump period 2 pi: the even number at or above dt_divisor,
        whole so that Floquet composition is exact and even so that the
        period folds at t = pi."""
        return 2 * math.ceil(0.5 * self.dt_divisor)

    @property
    def step(self) -> float:
        return 2.0 * math.pi / self.steps_per_period

    @property
    def periods(self) -> int:
        """Whole pump periods in the run: those nearest t0, ties to even."""
        return round(self.t0 / (2.0 * math.pi))

    @property
    def checkpoint_steps(self) -> np.ndarray:
        """Step counts at which evolve records occupations: CHECKPOINTS whole
        pump periods spread evenly over the run, the last at its end.
        t0 >= 100 pi spans at least 50 periods, which keeps them distinct and
        3 apart."""
        n_p = self.steps_per_period
        return np.rint(np.linspace(0, self.periods, CHECKPOINTS + 1)[1:]).astype(int) * n_p

    @property
    def kept_maps(self) -> set[int]:
        """The distinct numbers g of whole periods between checkpoints (the
        first from t = 0), whose leaps M^g evolve keeps."""
        return set(np.diff(self.checkpoint_steps // self.steps_per_period, prepend=0).tolist())

    @property
    def recurrence_time(self) -> float:
        return 2.0 * math.pi * self.kappa0


class BogoliubovMatrix:
    """Final-state Bogoliubov coefficients plus occupation history.

    mu[k, j], nu[k, j]: coefficients of a_j, a_j^dagger in the out-mode k.
    occupations[c, k] = N_k at checkpoint time times[c].
    half_period: the map Mh of the real fundamental (x, x') from t = 0 to pi;
    monodromy: the one-period map M folded from it.
    """

    __slots__ = ("mu", "nu", "omega", "times", "occupations", "config", "half_period")

    def __init__(self, mu: np.ndarray, nu: np.ndarray, omega: np.ndarray, times: np.ndarray,
                 occupations: np.ndarray, config: SimConfig, half_period: np.ndarray):
        self.mu, self.nu, self.omega, self.times = mu, nu, omega, times
        self.occupations, self.config, self.half_period = occupations, config, half_period

    @property
    def monodromy(self) -> np.ndarray:
        return _fold(self.half_period)

    def spectral_radius(self) -> float:
        """Largest |eigenvalue| of the monodromy; above 1 the pumped modes
        grow parametrically.  By the matrix Hill discriminant (Magnus &
        Winkler, Hill's Equation, ch. 2), M^-1 = T M T, exact by evolve's
        fold, pairs each {l, 1/l} with one eigenvalue m = (l + 1/l) / 2 of
        M_xx.  From the half period [[A, B], [C, D]], M_xx - I = 2 B^T C and
        M_xx + I = 2 D^T A, so m = (1 + s) / (1 - s) and
        l = (1 +- sqrt(s))^2 / (1 - s) for the eigenvalues s of
        (D^T A)^-1 B^T C: unlike m, s keeps the free modes at m = +-1
        (omega = 1/2, 1), where m rounds and the root errs by 1e-7."""
        K, H = len(self.omega), self.half_period
        s = np.linalg.eigvals(np.linalg.solve(H[K:, K:].T @ H[:K, :K], H[:K, K:].T @ H[K:, :K]))
        return float((np.abs(1.0 + np.sqrt(s + 0j)) ** 2 / np.abs(1.0 - s)).max())

    def symplectic_defect(self) -> float:
        """max_k |sum_j (|mu_kj|^2 - |nu_kj|^2) - 1|, the unitarity residue."""
        rows = (np.abs(self.mu) ** 2 - np.abs(self.nu) ** 2).sum(axis=1)
        return float(np.abs(rows - 1.0).max())


class SimSpectrum:
    """Extracted rate density samples (interior modes only)."""

    __slots__ = ("omega", "rate", "config")

    def __init__(self, omega: np.ndarray, rate: np.ndarray, config: SimConfig):
        self.omega, self.rate, self.config = omega, rate, config


class DeviationReport:
    """Per-mode comparison of a simulated spectrum against the closed form."""

    __slots__ = ("omega", "simulated", "analytic", "relative_deviation", "max_deviation",
                 "median_deviation", "passed", "degenerate")

    def __init__(self, omega: np.ndarray, simulated: np.ndarray, analytic: np.ndarray,
                 relative_deviation: np.ndarray, max_deviation: float, median_deviation: float,
                 passed: bool, degenerate: bool = False):
        self.omega, self.simulated, self.analytic = omega, simulated, analytic
        self.relative_deviation, self.max_deviation = relative_deviation, max_deviation
        self.median_deviation, self.passed, self.degenerate = median_deviation, passed, degenerate


def build_sim(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """The mode ladder (omega, coupling): the frequencies k / kappa0 and the
    Q-expansion weights k / (pi kappa0^2)."""
    k = np.arange(1, config.kappa0 + 1, dtype=float)
    return k / config.kappa0, k / (math.pi * config.kappa0**2)


def _inverse3(m: np.ndarray) -> np.ndarray:
    """The inverses of the 3 x 3 matrices m[:, :, ...], by cofactors."""
    r1, r2 = [1, 2, 0], [2, 0, 1]
    # cof[j, i] is the cofactor of m[j, i]: the cyclic order carries its sign
    cof = m[np.ix_(r1, r1)] * m[np.ix_(r2, r2)] - m[np.ix_(r1, r2)] * m[np.ix_(r2, r1)]
    return cof.swapaxes(0, 1) / (m[0] * cof[0]).sum(axis=0)


def _block_map(omega: np.ndarray, coupling: np.ndarray, v: float, h: float, t: np.ndarray):
    """The n = len(t) 3-stage Gauss-Legendre (GL3) steps of length h from the
    times t, in closed form, as one map P (I + U V).

    The acceleration a w (c . X) - w^2 X, a = 2 v cos t, is rank one plus
    diagonal: alpha (c . X) - d X with alpha = a w and d = w^2.  With the Butcher
    matrix A, nodes A 1 = 1/2 -+ sqrt(15)/10, 1/2 and weights b, the stage
    positions Y of a mode solve
    (I + h^2 A^2 diag(d)) Y = X 1 + h (A 1) V + h^2 A^2 diag(alpha) u, where
    the three stage sums u = c . Y close a 3 x 3 system u = R Z on the state
    Z = [X; V].  The stage forces F = alpha u - d Y then give
    X += h V + h^2 sum_i b_i (1 - A1_i) F_i and V += h sum_i b_i F_i, so step s
    is Z <- D Z + B_s u.  d does not depend on t: the stage inverse and D, the
    free GL3 step [[px, qx], [pv, qv]], are per mode, and only R_s and B_s vary.

    With the powers P_s = D^s and Z_s = P_s Y_s, a step is Y <- Y + Bt_s (Rt_s Y),
    Rt_s = R_s P_s, Bt_s = P_{s+1}^-1 B_s.  The functionals u_s = Rt_s Y_s solve
    u = Rt Y_0 + N u, N the strictly block-lower part of Rt Bt: forward substitution
    gives u = V Y_0, V = (I - N)^-1 Rt, and Y_n = (I + U V) Y_0 with U = Bt.
    Returns P_n (2, 2, K), U (2K, 3n), V (3n, 2K).
    """
    n, K = len(t), omega.size
    w, c, d, q = omega, coupling, omega * omega, h * h * GAUSS_A @ GAUSS_A
    # G = (I + q diag(d))^-1 per mode: Y = g [X; V] + Gq (alpha u)
    G = _inverse3(np.eye(3)[:, :, None] + q[:, :, None] * d)
    g = np.einsum("ilk,lm->imk", G, np.c_[np.ones(3), h * GAUSS_NODES])  # (3, 2, K)
    Gq = np.einsum("ilk,lj->ijk", G, q)
    a = 2.0 * v * np.cos(t + h * GAUSS_NODES[:, None])  # (stage, n): alpha = a w
    coupled = np.eye(3)[:, :, None] - (Gq @ (c * w))[:, :, None] * a
    R = np.einsum("ijs,jmk->simk", _inverse3(coupled), c * g)  # (n, 3, 2, K)
    # F = alpha u - d Y: -d g per [X; V], (I - d Gq) alpha per u; X gains h^2 b (1 - A1) . F
    wq = np.array([h * h * GAUSS_WEIGHTS * (1.0 - GAUSS_NODES), h * GAUSS_WEIGHTS])  # rows X, V
    Bu = (wq[:, :, None] - d * np.einsum("ri,ijk->rjk", wq, Gq)) * w  # B_s = Bu a_s
    B = np.einsum("rjk,js->srkj", Bu, a)  # (n, 2, K, 3)
    P = np.empty((n + 1, 2, 2, K))  # the identity, then D
    P[0], P[1:] = np.eye(2)[:, :, None], np.array([[1.0, h], [0.0, 1.0]])[..., None]
    P[1:] -= np.einsum("ri,imk->rmk", wq, d * g)
    for r in range((n - 1).bit_length()):  # the powers D^s by doubling
        P[1 << r:] = np.einsum("sabk,sbck->sack", P[1 << r:], P[:-(1 << r)])
    # GL3 keeps each mode's phase-space area, det P_s = 1: the inverse is the adjugate
    inverse = P[1:, ::-1, ::-1].swapaxes(1, 2) * np.array([[[1.0], [-1.0]], [[-1.0], [1.0]]])
    Rt = np.einsum("siak,sack->sick", R, P[:n]).reshape(3 * n, 2 * K)
    U = np.einsum("sabk,sbki->aksi", inverse, B).reshape(2 * K, 3 * n)
    N = Rt @ U
    V = Rt.copy()
    for s in range(1, n):
        V[3 * s:3 * s + 3] += N[3 * s:3 * s + 3, :3 * s] @ V[:3 * s]
    return P[n], U, V


def _fold(half: np.ndarray) -> np.ndarray:
    """The monodromy [[D^T, B^T], [C^T, A^T]] Mh of the half period Mh = [[A, B], [C, D]]."""
    K = len(half) // 2
    A, B, C, D = half[:K, :K], half[:K, K:], half[K:, :K], half[K:, K:]
    return np.block([[D.T, B.T], [C.T, A.T]]) @ half


def evolve(config: SimConfig) -> BogoliubovMatrix:
    """Propagate the fundamental solution on the mode ladder of build_sim
    and extract (mu, nu).

    The equations are linear and 2 pi-periodic and the step h divides the
    period into an even n_p steps, so the map over q whole periods is M^q
    (Floquet).  GL3 steps the real 2K x 2K fundamental Z = [x; x'] over the
    first half period: each block of n = STEP_BLOCK steps, the last one
    shorter when n does not divide n_p / 2, is one exact map P (I + U V)
    (_block_map), applied as W = Z + U (V Z), a (3n x 2K)(2K x 2K) and a
    (2K x 3n)(3n x 2K) product, then Z = P W per mode.  GL3 is symmetric
    and the pump even in t, so the second half is T Mh^-1 T,
    T = diag(I, -I), and GL3 is symplectic, Mh^-1 = J^T Mh^T J:
    Mh = [[A, B], [C, D]] folds into M = [[D^T, B^T], [C^T, A^T]] Mh
    (_fold), one product.  Occupations are recorded stroboscopically, at the
    whole periods of checkpoint_steps, for the stationary-rate fit in
    extract_rates: the map F to a checkpoint is a product of leaps, one
    matrix_power per distinct gap of g periods, taken in the scaled
    coordinates (x, x' / w), where the occupations and the amplitude check
    are a few passes over F; (mu, nu) are projected once, at the last one.

    Raises IntegratorUnstable if the step cannot resolve the stiffest stage
    (h^2 (max w^2 + 2 v c . w) > 1) or any amplitude is not finite or exceeds
    AMPLITUDE_BOUND; warns ModeRecurrenceWarning when t0 exceeds 2 pi kappa0.
    """
    if config.v > 0.0 and config.t0 > config.recurrence_time:
        warnings.warn(
            f"t0 = {config.t0:.4g} exceeds the mode-recurrence time "
            f"2*pi*kappa0 = {config.recurrence_time:.4g}; extracted rates will "
            "overestimate the continuum spectrum (discrete-resonator pair growth)",
            ModeRecurrenceWarning,
            stacklevel=2,
        )

    omega, coupling = build_sim(config)  # a module lookup: a build_sim wrapped on the module runs
    K = omega.size
    n_p, h = config.steps_per_period, config.step
    check_steps = config.checkpoint_steps
    # the coupling a w c^T, |a| <= 2 v, has rank one and eigenvalue a c . w: past h^2 (max w^2
    # + 2 v c . w) = 1 the stepped map can stay below AMPLITUDE_BOUND where the true one does not
    stiffness = h * h * (float((omega * omega).max()) + 2.0 * config.v * float(omega @ coupling))
    if not stiffness <= 1.0:
        raise IntegratorUnstable(f"step {h:.4g} too coarse for v = {config.v}: "
                                 f"h^2 (max w^2 + 2 v c . w) = {stiffness:.3g} > 1")

    with np.errstate(over="ignore", invalid="ignore"):  # the amplitude check catches it
        Z, W = np.eye(2 * K), np.empty((2 * K, 2 * K))  # the fundamental [x; x'] starts at I
        Z3, W3 = Z.reshape(2, K, 2 * K), W.reshape(2, K, 2 * K)
        times = h * np.arange(n_p // 2)
        for start in range(0, times.size, STEP_BLOCK):
            P, U, V = _block_map(omega, coupling, config.v, h, times[start:start + STEP_BLOCK])
            np.matmul(U, V @ Z, out=W)
            W += Z
            np.einsum("abk,bkj->akj", P, W3, out=Z3)
        half_period = Z
        del Z, W, Z3, W3, P, U, V  # the second buffer, the views and the block map
        # the leaps in the scaled coordinates (x, x' / w): L = Dl M Dl^-1, Dl = diag(1, 1/w)
        scaled = _fold(half_period)
        scaled[K:] /= omega[:, None]
        scaled[:, K:] *= omega
        leaps = {g: np.linalg.matrix_power(scaled, g) for g in config.kept_maps}
        del scaled

        # x(0) = x0 = 1/sqrt(2 w), x'(0) = -i w x0: F = Dl M^q diag(x0, w x0) = [[a, b], [c, d]]
        # gives x = a - i b, x' / w = c - i d and N_k = (w_k / 2) sum_j (a - d)^2 + (b + c)^2
        x0 = np.tile(1.0 / np.sqrt(2.0 * omega), 2)
        occupations = np.empty((len(check_steps), K))
        for i, g in enumerate(np.diff(check_steps // n_p, prepend=0).tolist()):
            F = leaps[g] * x0 if i == 0 else leaps[g] @ F  # the first scales columns: no GEMM
            a, b, c, d = F[:K, :K], F[:K, K:], F[K:, :K], F[K:, K:]
            t = check_steps[i] * h
            if not (a * a + b * b).max() <= AMPLITUDE_BOUND**2:  # nan fails it too
                raise IntegratorUnstable(
                    f"amplitude bound {AMPLITUDE_BOUND:g} exceeded at t = {t:.4g} (v = {config.v})")
            re, im = a - d, b + c
            occupations[i] = 0.5 * omega * (re * re + im * im).sum(axis=1)
        # the out-modes e^{-+i w_k t}: mu = p (x + i x' / w), nu = p conj(x - i x' / w)
        pref = (np.sqrt(0.5 * omega) * np.exp(1j * omega * t))[:, None]
        mu, nu = pref * (a + d + 1j * (c - b)), pref * (re + 1j * im)

    return BogoliubovMatrix(
        mu=mu, nu=nu, omega=omega, times=check_steps * h, occupations=occupations,
        config=config, half_period=half_period,
    )


def extract_rates(matrix: BogoliubovMatrix) -> SimSpectrum:
    """Rate density per mode from the stationary growth of N_k.

    N_k(t) is fitted linearly over the checkpoints from t0/2 on (the first
    half absorbs the turn-on transient), up to the last, which is the whole
    pump period nearest t0 and may lie up to half a period past it (at
    t0 = 101.1 pi it is 102 pi); the slope is converted to
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


def _median(values: np.ndarray) -> float:
    """np.median of a 1-d array, bit for bit, and 0.0 when it is empty: the
    middle value of the sorted array or the mean of the two middle ones, nan
    when any value is nan.  np.median's own nan check imports numpy.ma, 10-20 ms
    of a cold start."""
    s = np.sort(values)  # nan sorts last
    if not s.size:
        return 0.0
    if np.isnan(s[-1]):
        return math.nan
    mid = s.size // 2
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2)


def compare_to_analytic(sim: SimSpectrum) -> DeviationReport:
    """Per-mode relative deviation of the simulated spectrum from the
    photon closed-form emission rate at the simulated v, inside
    COMPARE_WINDOW; the comparison passes when the median is at most
    COMPARE_TOLERANCE.  The oracle's modes are photons, so no mass enters."""
    mask = (sim.omega > COMPARE_WINDOW[0]) & (sim.omega < COMPARE_WINDOW[1])
    omega = sim.omega[mask]
    simulated = sim.rate[mask]
    analytic = kernel.emission_rate(omega, sim.config.v)
    # v = 0: nothing to normalize against
    degenerate = not analytic.any()
    devs = np.abs(simulated) if degenerate else np.abs(simulated / analytic - 1.0)
    median = _median(devs)
    return DeviationReport(
        omega=omega, simulated=simulated, analytic=analytic,
        relative_deviation=devs, max_deviation=float(devs.max(initial=0.0)),
        median_deviation=median, passed=degenerate or median <= COMPARE_TOLERANCE,
        degenerate=degenerate,
    )
