"""Truncated-mode oracle tests.

The expensive evolutions are shared through module-scoped fixtures; all
runs stay below the mode-recurrence time 2 pi kappa0 unless the test is
specifically about crossing it.
"""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pairflux import kernel, modesim
from pairflux.modesim import (
    BogoliubovMatrix,
    IntegratorUnstable,
    ModeRecurrenceWarning,
    SimConfig,
    build_sim,
    compare_to_analytic,
    evolve,
    extract_rates,
)
from pairflux.spectrum import RESONANCE_VELOCITY_PHOTON

import sideband_chain

T0 = 100.0 * math.pi  # shortest allowed modulation time


def quiet_run(config: SimConfig) -> BogoliubovMatrix:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModeRecurrenceWarning)
        return evolve(config)


@functools.cache
def gauss_tableau():
    """The Butcher tableau (nodes, A, b) of the 3-stage Gauss-Legendre collocation
    method, built from the leggauss nodes: a_ij and b_j integrate the Lagrange
    basis polynomial l_j from 0 to c_i and to 1."""
    x, _ = np.polynomial.legendre.leggauss(3)
    nodes = 0.5 * (x + 1.0)
    A, b = np.empty((3, 3)), np.empty(3)
    for j in range(3):
        others = np.delete(nodes, j)
        integral = (np.polynomial.Polynomial.fromroots(others) / np.prod(nodes[j] - others)).integ()
        A[:, j], b[j] = integral(nodes), integral(1.0)
    return nodes, A, b


@functools.cache
def longdouble_tableau():
    """The same tableau in np.longdouble, from its closed forms with sqrt(15)
    taken in longdouble: gauss_tableau's leggauss nodes are float64."""
    f, r = np.longdouble, np.sqrt(np.longdouble(15))
    A = np.array([[f(5) / 36, f(2) / 9 - r / 15, f(5) / 36 - r / 30],
                  [f(5) / 36 + r / 24, f(2) / 9, f(5) / 36 - r / 24],
                  [f(5) / 36 + r / 30, f(2) / 9 + r / 15, f(5) / 36]])
    return f(1) / 2 + np.array([-r, f(0), r]) / 10, A, np.array([f(5), f(8), f(5)]) / 18


def solve_longdouble(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b by Gaussian elimination with partial pivoting: numpy.linalg
    takes no longdouble."""
    n = len(a)
    m = np.hstack([a, b])
    for i in range(n):
        p = i + int(np.argmax(np.abs(m[i:, i])))
        m[[i, p]] = m[[p, i]]
        m[i + 1:, i:] -= np.outer(m[i + 1:, i] / m[i, i], m[i, i:])
    x = m[:, n:]
    for i in reversed(range(n)):  # back substitution on the upper triangle
        x[i] /= m[i, i]
        x[:i] -= np.outer(m[:i, i], x[i])
    return x


def gl_step(config: SimConfig, t: float, h: float, tableau=gauss_tableau,
            solve=np.linalg.solve) -> np.ndarray:
    """Reference: the dense 2K x 2K map of one 3-stage Gauss-Legendre step from
    t, its stages solved as one 6K x 6K system, in the tableau's precision."""
    nodes, A, b = tableau()
    omega, coupling = (x.astype(A.dtype) for x in build_sim(config))
    K = omega.size

    def generator(s):  # Z' = L(s) Z, Z = [x; x']
        F = 2.0 * config.v * np.cos(s) * np.outer(omega, coupling)
        F -= np.diag(omega**2)  # the free -w^2
        return np.block([[np.zeros((K, K)), np.eye(K)], [F, np.zeros((K, K))]])

    L = [generator(t + c * h) for c in nodes]
    stages = np.eye(6 * K) - h * np.block([[A[i, j] * L[j] for j in range(3)] for i in range(3)])
    Y = solve(stages, np.vstack([np.eye(2 * K)] * 3))
    return np.eye(2 * K) + h * sum(b[j] * L[j] @ Y[2 * K * j:2 * K * (j + 1)] for j in range(3))


def stepped(config: SimConfig):
    """Reference: the dense GL3 steps one by one on the complex [x; x'] state up
    to the last checkpoint, returning (mu, nu, occupations) at evolve's
    checkpoints.  The step maps repeat with the pump period."""
    omega, _ = build_sim(config)
    h, n_p = config.step, config.steps_per_period
    w = omega[:, None]
    maps = [gl_step(config, s * h, h) for s in range(n_p)]
    X = np.diag(1.0 / np.sqrt(2.0 * omega)).astype(complex)
    Z = np.vstack([X, -1j * w * X])
    checks = set(config.checkpoint_steps.tolist())
    occupations = []
    for n in range(max(checks)):
        Z = maps[n % n_p] @ Z
        if n + 1 in checks:
            X, V = Z[:omega.size], Z[omega.size:]
            pref = np.sqrt(w / 2) * np.exp(1j * w * (n + 1) * h)
            mu, nu = pref * (X + 1j * V / w), pref * np.conj(X - 1j * V / w)
            occupations.append((np.abs(nu) ** 2).sum(axis=1))
    return mu, nu, np.array(occupations)


def apply_block(P: np.ndarray, U: np.ndarray, V: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """P (I + U V) Z: a block map of _block_map applied to Z."""
    K = P.shape[-1]
    W = (Z + U @ (V @ Z)).reshape(2, K, -1)
    return np.einsum("abk,bkj->akj", P, W).reshape(2 * K, -1)


def block_stepped(config: SimConfig, n: int) -> np.ndarray:
    """The map of the first n steps from t = 0, in blocks of _block_map, with no
    fold: n = steps_per_period gives the monodromy from every step of the period."""
    omega, coupling = modesim.build_sim(config)
    K, h = omega.size, config.step
    Z = np.eye(2 * K)
    for start in range(0, n, modesim.STEP_BLOCK):
        steps = np.arange(start, min(start + modesim.STEP_BLOCK, n))
        Z = apply_block(*modesim._block_map(omega, coupling, config.v, h, h * steps), Z)
    return Z


@pytest.fixture(scope="module")
def run_strong_pump():
    """kappa0 = 64, v = 0.5: even mode count, pre-recurrence."""
    config = SimConfig(kappa0=64, v=0.5, t0=T0)
    return config, quiet_run(config)


@pytest.fixture(scope="module")
def run_weak_pump():
    """kappa0 = 64, v = 0.05: deep perturbative regime."""
    config = SimConfig(kappa0=64, v=0.05, t0=T0)
    return config, quiet_run(config)


@pytest.fixture(scope="module")
def run_odd_ladder():
    """kappa0 = 63: every mode has a partner at 1 - omega other than itself
    (no omega = 1/2 mode)."""
    config = SimConfig(kappa0=63, v=0.5, t0=T0)
    return config, quiet_run(config)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(kappa0=4, v=0.1)
        # 8.7 would lay out 9 modes up to 1.034, past the pump frequency
        for kappa0 in (8.7, math.inf, math.nan):
            with pytest.raises(ValueError, match="kappa0"):
                SimConfig(kappa0=kappa0, v=0.1)
        with pytest.raises(ValueError):
            SimConfig(kappa0=32, v=-0.1)
        with pytest.raises(ValueError, match="velocity"):
            SimConfig(kappa0=8, v=1e160)  # v * v overflows: the kernel's check
        with pytest.raises(ValueError):
            SimConfig(kappa0=32, v=0.1, t0=10.0)
        with pytest.raises(ValueError):
            SimConfig(kappa0=32, v=0.1, dt_divisor=1.0)
        # nan and inf fail every check; a period takes at least 20 steps
        for bad in (dict(v=math.nan), dict(v=math.inf), dict(t0=math.inf), dict(t0=math.nan),
                    dict(dt_divisor=0.0), dict(dt_divisor=-200.0), dict(dt_divisor=math.nan),
                    dict(dt_divisor=math.inf), dict(dt_divisor=19.9)):
            with pytest.raises(ValueError):
                SimConfig(**{"kappa0": 32, "v": 0.1, **bad})

    def test_keywords_defaults_and_read_only(self):
        config = SimConfig(v=0.2, kappa0=16)
        assert (config.kappa0, config.v, config.t0, config.dt_divisor) == (
            16, 0.2, 400.0 * math.pi, modesim.DEFAULT_DT_DIVISOR)
        given = SimConfig(16, 0.2, T0, 50.0)
        assert (given.t0, given.dt_divisor) == (T0, 50.0)
        with pytest.raises(TypeError):
            SimConfig(16, 0.2, T0, 50.0, 2.0)  # four fields: a fifth argument has no place
        for field in ("kappa0", "v", "t0", "dt_divisor", "extra"):
            with pytest.raises(AttributeError):
                setattr(config, field, 1.0)
        assert (config.kappa0, config.v) == (16, 0.2)
        with pytest.raises(TypeError):
            SimConfig(16)  # v has no default

    def test_work_bounds(self):
        # judged from the configuration alone: nothing here allocates a map
        limit = modesim.MAX_STEPS_PER_PERIOD
        assert SimConfig(kappa0=8, v=0.1, dt_divisor=limit).steps_per_period == limit
        with pytest.raises(ValueError, match="steps per pump period"):
            SimConfig(kappa0=8, v=0.1, dt_divisor=limit + 1)
        with pytest.raises(ValueError, match="steps per pump period"):
            SimConfig(kappa0=8, v=0.1, dt_divisor=1e12)
        periods = modesim.MAX_PERIODS
        assert SimConfig(kappa0=8, v=0.1, t0=2.0 * math.pi * periods).periods == periods
        # the run is the whole number of periods nearest t0: 0.4 past the limit rounds back to it
        assert SimConfig(kappa0=8, v=0.1, t0=2.0 * math.pi * (periods + 0.4)).periods == periods
        for over in (0.6, 1.0):
            with pytest.raises(ValueError, match="pump periods"):
                SimConfig(kappa0=8, v=0.1, t0=2.0 * math.pi * (periods + over))
        for t0 in (1e12, 1e20):  # 1e20 gives more steps than checkpoint_steps' int64 holds
            with pytest.raises(ValueError, match="pump periods"):
                SimConfig(kappa0=8, v=0.0, t0=t0)
        # default t0 = 400 pi keeps the leaps M^12 and M^13:
        # with the 8 working maps, 10 maps of (2K)^2 doubles
        assert SimConfig(kappa0=1831, v=0.1).kept_maps == {12, 13}
        assert 10 * (2 * 1831) ** 2 * 8 <= modesim.MAX_MAP_BYTES < 10 * (2 * 1832) ** 2 * 8
        with pytest.raises(ValueError, match="GiB"):
            SimConfig(kappa0=1832, v=0.1)
        with pytest.raises(ValueError, match="GiB"):
            SimConfig(kappa0=10_000, v=0.1)
        # a numpy kappa0 whose byte count wraps int64 (to 0 at 2^31) is refused too
        with pytest.raises(ValueError, match="GiB"):
            SimConfig(kappa0=np.int64(2**31), v=0.1)

    @pytest.mark.parametrize(
        "t0, dt_divisor",
        [(T0, 200.0), (4 * T0, 200.0), (2.0 * math.pi * 64, 200.0),
         # 125 blocks of step tables: none may outlive the period
         (T0, 2000.0)],
        ids=["leaps_3_and_4", "leaps_12_and_13", "one_leap", "fine_step"])
    def test_map_bound_covers_the_measured_peak(self, t0, dt_divisor):
        # the bound counts the kept maps plus 8: numpy reports its arrays to tracemalloc
        config = SimConfig(kappa0=64, v=0.2, t0=t0, dt_divisor=dt_divisor)
        tracemalloc.start()
        try:
            quiet_run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (len(config.kept_maps) + 8) * (2 * 64) ** 2 * 8

    def test_default_step_scales_with_band_top(self):
        assert SimConfig(kappa0=32, v=0.1).step == 2.0 * math.pi / 40.0


class TestBuild:
    def test_mode_ladder(self):
        omega, coupling = build_sim(SimConfig(kappa0=8, v=0.1))
        assert omega.tolist() == [k / 8 for k in range(1, 9)]
        assert coupling.shape == omega.shape

    def test_coupling_weights(self):
        _, coupling = build_sim(SimConfig(kappa0=8, v=0.1))
        assert np.allclose(coupling, np.arange(1, 9) / (math.pi * 64.0))


class TestFreeEvolution:
    def test_identity_bogoliubov_at_default_step(self):
        config = SimConfig(kappa0=8, v=0.0, t0=T0)
        matrix = evolve(config)
        # the positive-frequency subspace is preserved exactly; mu picks up
        # only the GL3 phase error of the free oscillators
        assert np.abs(matrix.nu).max() < 1e-12
        assert np.abs(matrix.mu - np.eye(8)).max() < 1e-5

    def test_identity_bogoliubov_at_fine_step(self):
        config = SimConfig(kappa0=8, v=0.0, t0=T0, dt_divisor=3000.0)
        matrix = evolve(config)
        assert np.abs(matrix.nu).max() < 1e-10
        assert np.abs(matrix.mu - np.eye(8)).max() < 1e-10


class TestStepForm:
    """evolve's step D Z + B (R Z) is the GL3 step, regrouped, its block
    P (I + U V) a run of those steps, and its folded period the stepped one."""

    # a block of 20 steps has rank 3n = 60, above 2K: 16 at kappa0 8, 48 at 24
    @pytest.mark.parametrize("kappa0", [8, 24])
    @pytest.mark.parametrize("v", [0.0, 0.5, 3.8])
    @pytest.mark.parametrize("n", [1, 5, modesim.STEP_BLOCK])
    def test_block_matches_the_stages(self, v, n, kappa0):
        config = SimConfig(kappa0=kappa0, v=v, t0=T0)
        omega, coupling = build_sim(config)
        K, h = omega.size, config.step
        t = 17.3 * h + 0.41  # off the step grid
        Z = np.random.default_rng(21).standard_normal((2 * K, 2 * K))
        P, U, V = modesim._block_map(omega, coupling, v, h, t + h * np.arange(n))
        assert U.shape == (2 * K, 3 * n) and V.shape == (3 * n, 2 * K)
        got = apply_block(P, U, V, Z)
        want = Z
        for s in range(n):
            want = gl_step(config, t + s * h, h) @ want
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        if v == 0.0:  # free evolution stays per-mode: the rank-3n update is exactly 0
            assert not (U @ V).any()

    @pytest.mark.parametrize("kappa0", [8, 64])
    def test_period_matches_the_stages(self, kappa0):
        # one pump period of 40 steps: the smallest ladder, and the benchmark's size
        config = SimConfig(kappa0=kappa0, v=0.5, t0=T0)
        h = config.step
        want = np.eye(2 * config.kappa0)
        for s in range(config.steps_per_period):
            want = gl_step(config, s * h, h) @ want
        assert np.abs(quiet_run(config).monodromy - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("kappa0", [8, 64])
    @pytest.mark.parametrize("v", [0.0, 0.24, 3.8])
    def test_fold_matches_the_stepped_period(self, kappa0, v):
        # measured 3.9e-17 to 7.1e-16; the half period is stepped in evolve's blocks
        # without evolve, which at kappa0 8, v = 3.8 stops at the amplitude bound
        # (t = 276.5 < 100 pi)
        config = SimConfig(kappa0=kappa0, v=v, t0=T0)
        n_p = config.steps_per_period
        M = modesim._fold(block_stepped(config, n_p // 2))
        want = block_stepped(config, n_p)
        assert np.abs(M - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("v", [0.0, 0.5, 3.8])
    def test_period_is_symplectic(self, v):
        # max |M^T J M - J|, measured 8.4e-15 to 8.9e-15
        K = 64
        M = quiet_run(SimConfig(kappa0=K, v=v, t0=T0)).monodromy
        J = np.block([[np.zeros((K, K)), np.eye(K)], [-np.eye(K), np.zeros((K, K))]])
        assert np.abs(M.T @ J @ M - J).max() <= 1e-12

    @pytest.mark.parametrize("kappa0, dt_divisor, lengths", [
        (8, 40.0, [20]), (24, 40.0, [20]), (32, 40.0, [20]), (8, 60.0, [20, 10]),
        (8, 200.0, [20] * 5)])
    def test_half_period_in_blocks_of_step_block(self, monkeypatch, kappa0, dt_divisor, lengths):
        # every ladder takes blocks of STEP_BLOCK steps, the last one shorter when
        # STEP_BLOCK does not divide the half period, and they run from t = 0 to pi
        times = []
        block_map = modesim._block_map

        def counted(omega, coupling, v, h, t):
            times.append(t)
            return block_map(omega, coupling, v, h, t)

        monkeypatch.setattr(modesim, "_block_map", counted)
        config = SimConfig(kappa0=kappa0, v=0.5, t0=T0, dt_divisor=dt_divisor)
        quiet_run(config)
        assert [len(t) for t in times] == lengths
        half = config.step * np.arange(config.steps_per_period // 2)
        assert np.concatenate(times).tobytes() == half.tobytes()


def strong_pump_report(v: float):
    config = SimConfig(kappa0=64, v=v, t0=T0)
    return compare_to_analytic(extract_rates(quiet_run(config)))


class TestFloquetAgainstStepping:
    """evolve composes one-period maps; a plain step-by-step GL3 must agree."""

    @pytest.mark.parametrize(
        "config, h, last",
        [
            # 50 periods: checkpoints 3 or 4 whole periods apart
            (SimConfig(kappa0=16, v=0.5, t0=T0), 2.0 * math.pi / 40, 2000),
            # 50.5 steps do not divide the period: rounded up to the even 52
            (SimConfig(kappa0=16, v=0.5, t0=T0, dt_divisor=50.5),
             2.0 * math.pi / 52, 2600),
        ],
        ids=["gaps_3_and_4", "snapped_step"],
    )
    def test_matches_reference_stepper(self, config, h, last):
        assert (config.step, config.checkpoint_steps[-1]) == (h, last)
        matrix = quiet_run(config)
        mu, nu, occupations = stepped(config)
        for got, want in ((matrix.occupations, occupations), (matrix.mu, mu), (matrix.nu, nu)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_leaps_do_not_depend_on_the_gap(self):
        # t0 = 200 pi leaps 6 or 7 periods between checkpoints, 400 pi 12 or 13;
        # the 8 checkpoints they share must read the same occupations
        short, long = (quiet_run(SimConfig(kappa0=16, v=0.3, t0=t0)) for t0 in (2 * T0, 4 * T0))
        assert (short.config.kept_maps, long.config.kept_maps) == ({6, 7}, {12, 13})
        assert np.array_equal(short.times[1::2], long.times[:8])
        assert np.abs(short.occupations[1::2] / long.occupations[:8] - 1.0).max() <= 1e-12

    def test_step_snapping(self):
        # the default step divides the period as is; a fractional or odd divisor
        # snaps to the next finer even number of steps per period
        assert SimConfig(kappa0=8, v=0.1, t0=4 * T0).periods == 200
        config = SimConfig(kappa0=8, v=0.1, t0=314.16)
        assert (config.steps_per_period, config.periods) == (40, 50)
        # the checkpoints are whole periods, the last the one nearest t0
        assert config.checkpoint_steps[-1] == 2000
        for t0 in (T0, 314.16, 123.4 * math.pi + 0.7, 4 * T0):
            config = SimConfig(kappa0=8, v=0.1, t0=t0, dt_divisor=250.5)
            periods, remainders = np.divmod(config.checkpoint_steps, config.steps_per_period)
            assert not remainders.any() and (np.diff(periods) >= 3).all()
        assert SimConfig(kappa0=8, v=0.1, dt_divisor=250.5).steps_per_period == 252
        assert SimConfig(kappa0=8, v=0.1, dt_divisor=201.0).steps_per_period == 202

    def test_run_is_the_nearest_whole_number_of_periods(self):
        # the run is the whole number of periods nearest t0 itself, not nearest t0 rounded
        # up to a whole step, which would make 51.49 run 52 periods and 101.495 run 102
        for periods, want in ((51.49, 51), (51.499, 51), (101.495, 101), (51.51, 52), (50.0, 50)):
            config = SimConfig(kappa0=8, v=0.1, t0=2.0 * math.pi * periods)
            assert (config.periods, config.checkpoint_steps[-1]) == (want, 40 * want)
        # so the run ends within half a period of t0; an exact tie such as 51.5 periods
        # lands on pi plus an ulp of rounding, so none is taken here
        for dt_divisor in (modesim.DEFAULT_DT_DIVISOR, 250.5):
            for t0 in (T0, 314.16, 123.4 * math.pi + 0.7, 4 * T0, 2.0 * math.pi * 51.49,
                       2.0 * math.pi * 51.499, 2.0 * math.pi * 101.495, 2.0 * math.pi * 77.5001):
                config = SimConfig(kappa0=8, v=0.1, t0=t0, dt_divisor=dt_divisor)
                assert abs(config.checkpoint_steps[-1] * config.step - t0) <= math.pi


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="longdouble is a double here")
class TestRounding:
    """evolve's float64 rounding, against the same GL3 run stepped densely in
    np.longdouble (eps 1.1e-19 on x86-64) from the closed-form tableau: the
    bound a reassociation of the period maps must keep."""

    @pytest.mark.parametrize("kappa0", [8, 16])
    @pytest.mark.parametrize("v", [0.5, 3.0])
    def test_float64_against_longdouble(self, kappa0, v):
        # relative to the largest entry, measured: half period 1.4e-15 to 1.9e-15,
        # monodromy 2.0e-15 to 3.2e-15, occupations after 50 periods 1.0e-13 to 2.2e-13
        config = SimConfig(kappa0=kappa0, v=v, t0=T0)
        matrix = quiet_run(config)
        h = np.longdouble(config.step)
        half = np.eye(2 * kappa0, dtype=np.longdouble)
        for s in range(config.steps_per_period // 2):
            half = gl_step(config, s * h, h, longdouble_tableau, solve_longdouble) @ half
        M = modesim._fold(half)
        for got, want in ((matrix.half_period, half), (matrix.monodromy, M)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        # N_k = (w_k / 2) sum_j |x - i x' / w|^2 from x(0) = 1 / sqrt(2 w), x'(0) = -i w x(0)
        w = build_sim(config)[0].astype(np.longdouble)[:, None]
        x0 = np.diag(1.0 / np.sqrt(2.0 * w[:, 0]))
        Z = np.linalg.matrix_power(M, config.periods) @ np.vstack([x0, -1j * w * x0])
        want = (0.5 * w * np.abs(Z[:kappa0] - 1j * Z[kappa0:] / w) ** 2).sum(axis=1)
        assert np.abs(matrix.occupations[-1] - want).max() <= 1e-12 * want.max()


class TestEvolve:
    def test_symplectic_rows(self, run_strong_pump):
        # GL3 is symplectic: the residue is rounding, measured 4.4e-13
        _, matrix = run_strong_pump
        assert matrix.symplectic_defect() <= 1e-12

    def test_occupations_match_the_projection(self, run_strong_pump):
        # the checkpoints' real-arithmetic N_k against sum_j |nu_kj|^2 at the last one
        _, matrix = run_strong_pump
        want = (np.abs(matrix.nu) ** 2).sum(axis=1)
        assert np.abs(matrix.occupations[-1] - want).max() <= 1e-13 * np.abs(want).max()

    def test_stationary_growth(self, run_strong_pump):
        config, matrix = run_strong_pump
        i_half = int(np.argmin(np.abs(matrix.times - config.t0 / 2)))
        near = (matrix.omega > 0.3) & (matrix.omega < 0.7)  # omega = 1/2 included
        ratio = matrix.occupations[-1, near] / matrix.occupations[i_half, near]
        assert (ratio > 1.8).all() and (ratio < 2.2).all()

    def test_pairs_dominate(self, run_strong_pump):
        # occupation is carried by modes with an exact partner; the pair
        # structure puts omega_k + omega_j = 1, and omega = 1/2 is its own partner
        _, matrix = run_strong_pump
        occ = matrix.occupations[-1]
        partnered = occ[(matrix.omega > 0.2) & (matrix.omega < 0.8)]
        assert partnered.min() > 0.01 * partnered.max()

    def test_recurrence_warning(self):
        config = SimConfig(kappa0=8, v=0.1, t0=T0)  # recurrence time 16 pi < t0
        with pytest.warns(ModeRecurrenceWarning):
            evolve(config)

    def test_no_warning_without_pump(self):
        config = SimConfig(kappa0=8, v=0.0, t0=T0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ModeRecurrenceWarning)
            evolve(config)

    def test_monodromy_spectral_radius(self, run_strong_pump):
        # the free GL3 map keeps every mode on the unit circle; the pump makes
        # the one-period map grow
        _, matrix = run_strong_pump
        free = quiet_run(SimConfig(kappa0=64, v=0.0, t0=T0))
        assert abs(free.spectral_radius() - 1.0) <= 1e-12
        assert matrix.spectral_radius() > 1.001

    # v = 5 grows finite amplitudes past AMPLITUDE_BOUND; v = 1e10 overflows them to inf
    @pytest.mark.parametrize("v", [5.0, 1e10], ids=["finite_over_bound", "non_finite"])
    def test_instability_detected(self, v):
        config = SimConfig(kappa0=8, v=v, t0=T0)
        with pytest.raises(IntegratorUnstable), warnings.catch_warnings():
            warnings.simplefilter("ignore", ModeRecurrenceWarning)
            evolve(config)

    def test_step_guard_boundary(self, monkeypatch):
        # h^2 (max w^2 + 2 v c . w) = h^2 (1 + 2 v 204 / (512 pi)) reaches 1 at v = 155.84
        # (kappa0 8, 40 steps; c . w = sum k^2 / (pi kappa0^3)): just below, the run steps
        # and the amplitude bound stops it; just above, the guard stops it before the first block
        h = 2.0 * math.pi / modesim.DEFAULT_DT_DIVISOR
        edge = (1.0 / h**2 - 1.0) * math.pi * 512 / (2.0 * 204)
        blocks = []
        block_map = modesim._block_map

        def counted(*args):
            blocks.append(args)
            return block_map(*args)

        monkeypatch.setattr(modesim, "_block_map", counted)
        with pytest.raises(IntegratorUnstable, match="amplitude bound"):
            quiet_run(SimConfig(kappa0=8, v=edge * (1.0 - 1e-9), t0=T0))
        assert blocks
        blocks.clear()
        with pytest.raises(IntegratorUnstable, match="too coarse"):
            quiet_run(SimConfig(kappa0=8, v=edge * (1.0 + 1e-9), t0=T0))
        assert not blocks


@functools.cache
def radius_run(kappa0: int, v: float, dt_divisor: float = modesim.DEFAULT_DT_DIVISOR):
    """One shared run per ladder: the Hill radius and the monodromy."""
    matrix = quiet_run(SimConfig(kappa0=kappa0, v=v, t0=T0, dt_divisor=dt_divisor))
    return matrix.spectral_radius(), matrix.monodromy


def reversibility_defects(M: np.ndarray) -> tuple[float, float]:
    """max |M^-1 - T M T| and max |M_xx - M_vv^T|, T = diag(I, -I), each
    relative to max |M|: the two identities spectral_radius rests on."""
    K = len(M) // 2
    T = np.r_[np.ones(K), -np.ones(K)]
    scale = np.abs(M).max()
    return (np.abs(np.linalg.inv(M) - T[:, None] * M * T).max() / scale,
            np.abs(M[:K, :K] - M[K:, K:].T).max() / scale)


def full_radius(M: np.ndarray) -> float:
    """The largest |eigenvalue| of the whole 2K x 2K monodromy."""
    return float(np.abs(np.linalg.eigvals(M)).max())


def widen_ladder(monkeypatch, n_modes: int) -> None:
    """Wrap build_sim so that the ladder runs k = 1 .. n_modes, past the pump
    frequency when n_modes > kappa0, with the same k / kappa0 spacing and
    Q-expansion weights."""
    k = np.arange(1, n_modes + 1, dtype=float)
    monkeypatch.setattr(modesim, "build_sim",
                        lambda config: (k / config.kappa0, k / (math.pi * config.kappa0**2)))


LADDERS = [(8, 0.0), (8, 0.24), (8, 1.0), (64, 0.0), (64, 0.24), (64, 1.0)]


class TestSpectralRadius:
    @pytest.mark.parametrize("kappa0, v", LADDERS)
    def test_period_map_is_reversible(self, kappa0, v):
        # exact by the fold: measured 4.1e-15 to 7.9e-15 (inverse) and at most 2.1e-16 (transpose)
        inverse, transpose = reversibility_defects(radius_run(kappa0, v)[1])
        assert inverse <= 1e-12 and transpose <= 1e-12

    def test_pump_off_phase_breaks_reversibility(self, monkeypatch):
        # the same period started at t = 1: cos(t + 1) is not even, the second half
        # period is not the mirror of the first, and the fold misses the stepped period
        block_map = modesim._block_map
        monkeypatch.setattr(modesim, "_block_map",
                            lambda omega, c, v, h, t: block_map(omega, c, v, h, t + 1.0))
        config = SimConfig(kappa0=8, v=1.0, t0=T0)
        M, want = quiet_run(config).monodromy, block_stepped(config, config.steps_per_period)
        assert np.abs(M - want).max() > 1e-3 * np.abs(want).max()

    @pytest.mark.parametrize("kappa0, v", LADDERS + [(64, 3.8)])
    def test_matches_full_eigenvalues(self, kappa0, v):
        # measured at most 1.2e-14
        rho, M = radius_run(kappa0, v)
        assert abs(rho - full_radius(M)) <= 1e-11 * full_radius(M)

    @pytest.mark.parametrize("kappa0, v", [(8, 0.24), (8, 1.0), (64, 0.24), (64, 1.0)])
    def test_matches_full_eigenvalues_at_coarse_step(self, kappa0, v):
        # dt_divisor 20: the fold is reversible at any step; measured at most 3.8e-15
        rho, M = radius_run(kappa0, v, 20.0)
        assert abs(rho - full_radius(M)) <= 1e-11 * full_radius(M)

    @pytest.mark.parametrize("kappa0, dt_divisor", [(8, 200.0), (64, 200.0), (8, 20.0), (64, 20.0)])
    def test_free_ladder_is_on_the_unit_circle(self, kappa0, dt_divisor):
        # each free mode's s is real and negative, so |l| = 1 to rounding, also for
        # the modes omega = 1/2 and 1, whose m = -1 and 1 round in M_xx
        assert abs(radius_run(kappa0, 0.0, dt_divisor)[0] - 1.0) <= 1e-12

    def test_both_radii_converge_with_modes_above_the_pump(self, monkeypatch):
        # k = 1 .. 12 at kappa0 8 (top mode 1.5), steps of 2 pi / 3000 and 2 pi / 60, which
        # resolves the top mode as the default 40 resolves 1: the Hill radius needs only
        # the reversibility of the period map, not a ladder that ends at the pump
        # frequency.  The coarse Hill and full radii sit 1.5e-10 below the fine one,
        # where the two agree to 3.5e-13
        widen_ladder(monkeypatch, 12)
        fine = quiet_run(SimConfig(kappa0=8, v=1.0, t0=T0, dt_divisor=3000.0))
        assert fine.omega.size == 12 and fine.omega[-1] == 1.5
        rho = fine.spectral_radius()
        assert abs(rho - full_radius(fine.monodromy)) <= 1e-11
        coarse = quiet_run(SimConfig(kappa0=8, v=1.0, t0=T0, dt_divisor=60.0))
        assert max(reversibility_defects(coarse.monodromy)) <= 1e-12
        assert abs(coarse.spectral_radius() - rho) <= 1e-8
        assert abs(full_radius(coarse.monodromy) - rho) <= 1e-8

    def test_ladder_tells_the_two_regimes_apart(self):
        # below the threshold the growth is the discrete pair resonance, ln rho ~ 1/kappa0:
        # 0.0343 -> 0.0174 at v = 3.0; above it the continuum grows at a rate of its
        # own, 0.1258 -> 0.1289 at v = 3.8
        def ratio(v):
            return math.log(radius_run(128, v)[0]) / math.log(radius_run(64, v)[0])

        assert ratio(3.0) <= 0.6
        assert ratio(3.8) >= 0.9


def ladder_chain(kappa0: int, v: float, z: complex, N: int = 6) -> float:
    """The smallest over the largest singular value of the ladder's Hill chain
    Q_n - v G_K(z + n) (Q_{n-1} + Q_{n+1}), n = -1 - N .. N, with the ladder's own
    mode sum G_K(zeta) = (1 / (pi kappa0)) sum_k w_k^2 / (w_k^2 - zeta^2)."""
    omega, _ = build_sim(SimConfig(kappa0=kappa0, v=v))
    zeta = z + np.arange(-1 - N, N + 1)
    G = (omega**2 / (omega**2 - zeta[:, None] ** 2)).sum(axis=1) / (math.pi * kappa0)
    A = np.eye(zeta.size, k=1) + np.eye(zeta.size, k=-1)
    s = np.linalg.svd(np.eye(zeta.size) - v * G[:, None] * A, compute_uv=False)
    return s[-1] / s[0]


class TestHillChain:
    """x_k = sum_n X_kn e^{-i(z + n)t} gives (w_k^2 - (z + n)^2) X_kn = v w_k (Q_{n-1} +
    Q_{n+1}), and the coupling is rank one, so Q_n = sum_k c_k X_kn obeys a scalar
    chain: a monodromy multiplier lambda = e^{-2 pi i z} is a zero of its determinant
    (Magnus & Winkler, Hill's Equation).  No time stepping enters the chain."""

    @pytest.mark.parametrize("kappa0", [16, 32, 64])
    @pytest.mark.parametrize("v", [0.5, 3.0, 3.8])
    def test_top_multiplier_is_a_zero_of_the_chain(self, kappa0, v):
        # the chain's singular ratio measured 7.5e-12 to 4.4e-10 at z and 1.5e-3 to 0.70
        # at z + 0.003 (with the k = j term excluded it read 6.2e-3 to 3.5e-2 at z)
        lam = np.linalg.eigvals(radius_run(kappa0, v)[1])
        top = lam[np.argmax(np.abs(lam))]
        z = 1j * np.log(top + 0j) / (2.0 * math.pi)
        assert ladder_chain(kappa0, v, z) <= 1e-9
        assert ladder_chain(kappa0, v, z + 0.003) >= 1e-3
        # the top multiplier is real and negative: Re z = 1/2, mod 1
        assert top.real < -1.0 and abs(top.imag) <= 1e-9 * abs(top)


class TestExtractRates:
    def test_zero_pump_zero_rates(self):
        config = SimConfig(kappa0=8, v=0.0, t0=T0)
        spectrum = extract_rates(evolve(config))
        assert np.abs(spectrum.rate).max() < 1e-16

    def test_interior_window(self, run_strong_pump):
        config, matrix = run_strong_pump
        spectrum = extract_rates(matrix)
        assert spectrum.omega.min() > 0.1 and spectrum.omega.max() < 0.9

    def test_normalization_matches_perturbative_limit(self, run_weak_pump):
        # pins the mode-sum -> spectral-rate conversion constant
        config, matrix = run_weak_pump
        spectrum = extract_rates(matrix)
        mask = (spectrum.omega > 0.2) & (spectrum.omega < 0.8)
        pert = np.array([kernel.perturbative_rate(float(w), config.v) for w in spectrum.omega])
        ratio = spectrum.rate[mask] / pert[mask]
        assert abs(np.median(ratio) - 1.0) < 0.03

    def test_whole_period_checkpoints_fit_a_straight_line(self):
        # stroboscopic checkpoints carry no pump micromotion: each mode's rms distance
        # from the fitted line, over its growth across the fit window, has a median of
        # 1.2e-4 over modes in (0.2, 0.8); mid-period checkpoints read 2.8e-3
        config = SimConfig(kappa0=64, v=0.2, t0=T0)
        matrix = quiet_run(config)
        sel = matrix.times >= 0.5 * config.t0
        t, occupations = matrix.times[sel], matrix.occupations[sel]
        slope, intercept = np.polyfit(t, occupations, deg=1)
        rms = np.sqrt(((occupations - np.outer(t, slope) - intercept) ** 2).mean(axis=0))
        residual = rms / (slope * (t[-1] - t[0]))
        window = (matrix.omega > 0.2) & (matrix.omega < 0.8)
        assert np.median(residual[window]) <= 1e-3

    # the mode nearest 1/2: 32/63, paired with 31/63, and 1/2 itself, its own partner;
    # both measured 0.984 of the closed form
    @pytest.mark.parametrize("ladder", ["run_odd_ladder", "run_strong_pump"], ids=["odd", "even"])
    def test_centre_mode_matches_kernel(self, request, ladder):
        config, matrix = request.getfixturevalue(ladder)
        spectrum = extract_rates(matrix)
        i = int(np.argmin(np.abs(spectrum.omega - 0.5)))
        analytic = kernel.emission_rate(float(spectrum.omega[i]), config.v)
        assert abs(spectrum.rate[i] / analytic - 1.0) < 0.15

    def test_spectrum_symmetric(self, run_odd_ladder):
        config, matrix = run_odd_ladder
        spectrum = extract_rates(matrix)
        for j, w in enumerate(spectrum.omega):
            if 0.25 < w < 0.5:
                jj = int(np.argmin(np.abs(spectrum.omega - (1.0 - w))))
                assert abs(spectrum.rate[j] / spectrum.rate[jj] - 1.0) < 0.10


class TestTruncation:
    def test_far_detuned_modes_stay_empty(self, monkeypatch):
        # modes above the pair band (no partner within 0.1) acquire less than
        # 5% of the peak occupation (measured 2.1%): the evidence for ending the
        # ladder at the pump frequency.  The test widens it to k = 1 .. 96 itself,
        # with a step of 2 pi / 60 that resolves the top mode 1.5 as 40 resolves 1
        config = SimConfig(kappa0=64, v=0.1, t0=T0, dt_divisor=60.0)
        widen_ladder(monkeypatch, 96)
        matrix = quiet_run(config)
        assert matrix.omega.size == 96 and matrix.omega[-1] == 1.5
        occupation = matrix.occupations[-1]
        detuned = matrix.omega > 1.1 + 1.0 / config.kappa0
        assert occupation[detuned].max() < 0.05 * occupation.max()


class TestConvergence:
    def test_halving_dt_leaves_rates_unchanged(self):
        base = SimConfig(kappa0=32, v=0.5, t0=T0)
        fine = SimConfig(kappa0=32, v=0.5, t0=T0, dt_divisor=2.0 * modesim.DEFAULT_DT_DIVISOR)
        r_base = extract_rates(quiet_run(base))
        r_fine = extract_rates(quiet_run(fine))
        assert np.abs(r_base.rate / r_fine.rate - 1.0).max() < 0.01

    @pytest.mark.parametrize("v, bound", [(0.2, 1e-9), (1.0, 1e-9), (3.0, 3e-8)])
    def test_default_step_matches_a_fine_step(self, v, bound):
        # the largest relative rate error over the interior modes against 2000 steps a
        # period, measured 1.1e-10, 3.6e-10 and 1.6e-8 (the 2-stage method at 200 steps
        # read 4.7e-9, 4.9e-9 and 5.3e-8)
        rates = [extract_rates(quiet_run(SimConfig(kappa0=64, v=v, t0=T0, dt_divisor=n))).rate
                 for n in (modesim.DEFAULT_DT_DIVISOR, 2000.0)]
        assert np.abs(rates[0] / rates[1] - 1.0).max() <= bound


class TestCompare:
    def test_strong_pump_median(self, run_strong_pump):
        config, matrix = run_strong_pump
        report = compare_to_analytic(extract_rates(matrix))
        assert report.passed and report.median_deviation < 0.05
        assert not report.degenerate

    def test_oracle_agrees_at_unit_pump(self):
        # kappa0 = 64 measures 0.071, and 0.070 at kappa0 = 128
        report = strong_pump_report(1.0)
        print(f"strong pump v = 1: median deviation = {report.median_deviation:.3f}")
        assert report.median_deviation <= 0.15

    @pytest.mark.xfail(
        strict=True,
        reason="at v = 2 the oracle sits 31% from the closed form (median 0.305 at "
        "kappa0 = 64, 0.308 at 128; 0.413/0.424 at v = 2.5): the gap does not shrink "
        "as kappa0 doubles, so it is not the finite-resonator recurrence",
    )
    def test_oracle_strong_pump_gap(self):
        report = strong_pump_report(2.0)
        print(f"strong pump v = 2: median deviation = {report.median_deviation:.3f}")
        assert report.median_deviation <= 0.15

    def test_oracle_sees_the_weak_pump_v4_term(self):
        # rate / perturbative = 1 + v^2 c2 + O(v^4): the closed form's c2 is
        # 2 Re[G(w) G(w - 1)], the sideband chain's adds 2 Re[G(w) G(w + 1) + G(w - 1) G(w - 2)].
        # At v = 0.24 the measured (rate / perturbative - 1) / v^2 reads a median
        # 0.0010 from the chain's c2 and 0.066 from the closed form's
        v = 0.24
        spectrum = extract_rates(quiet_run(SimConfig(kappa0=128, v=v, t0=2 * T0)))
        window = (spectrum.omega > 0.2) & (spectrum.omega < 0.8)
        w = spectrum.omega[window]
        measured = (spectrum.rate[window] / kernel.perturbative_rate(w, v) - 1.0) / v**2
        G = kernel.green_function
        closed = 2.0 * (G(w) * G(w - 1.0)).real
        chain = closed + 2.0 * (G(w) * G(w + 1.0) + G(w - 1.0) * G(w - 2.0)).real
        assert np.median(np.abs(measured - chain)) <= 0.005
        assert np.median(np.abs(measured - closed)) >= 0.04

    @pytest.mark.parametrize("v, bound", [
        (0.2, 5e-4), (1.0, 5e-4), (2.0, 4e-3),
        (2.5, 0.015), (RESONANCE_VELOCITY_PHOTON, 0.015), (3.0, 0.015),
    ])
    def test_oracle_follows_the_sideband_chain(self, v, bound):
        # the median |sim / chain - 1| over the modes in (0.2, 0.8), the chain at
        # N = 4, measured 0.00010, 0.00023, 0.00154, 0.00418, 0.00693 (v_r) and
        # 0.00709; the closed form, which drops the off-shell sidebands, sits 0.26%
        # to 41% away from the same runs
        spectrum = extract_rates(quiet_run(SimConfig(kappa0=64, v=v, t0=T0)))
        window = (spectrum.omega > 0.2) & (spectrum.omega < 0.8)
        chain = sideband_chain.chain_rate(spectrum.omega[window], v)
        assert np.median(np.abs(spectrum.rate[window] / chain - 1.0)) <= bound

    def test_oracle_is_finite_at_the_closed_form_pole(self):
        # at (omega, v) = (1/2, v_r) the closed form diverges and the chain reads
        # 0.5916; the oracle's omega = 1/2 mode read 0.5845 at kappa0 64 and 0.5882
        # at 128, a deficit that falls by a ratio of 0.48 as kappa0 doubles
        v_r = RESONANCE_VELOCITY_PHOTON
        assert kernel.emission_rate(0.5, v_r) == math.inf
        chain = float(sideband_chain.chain_rate(0.5, v_r))
        assert abs(chain - 0.5916) < 1e-4
        deficit = []
        for kappa0 in (64, 128):
            spectrum = extract_rates(quiet_run(SimConfig(kappa0=kappa0, v=v_r, t0=T0)))
            deficit.append(1.0 - float(spectrum.rate[spectrum.omega == 0.5][0]) / chain)
        assert 0.0 < deficit[0] <= 0.02
        assert 0.0 < deficit[1] <= 0.6 * deficit[0]

    def test_zero_pump_degenerate(self):
        config = SimConfig(kappa0=8, v=0.0, t0=T0)
        spectrum = extract_rates(evolve(config))
        report = compare_to_analytic(spectrum)
        assert report.degenerate and report.passed

    def test_analytic_is_the_photon_kernel_at_the_simulated_v(self, run_strong_pump):
        config, matrix = run_strong_pump
        report = compare_to_analytic(extract_rates(matrix))
        assert report.omega.size
        assert np.array_equal(report.analytic, kernel.emission_rate(report.omega, config.v))

    @pytest.mark.parametrize("size", [1, 2, 3, 50, 51, 1000, 1001])
    def test_median_matches_numpy(self, size):
        rng = np.random.default_rng(size)
        repeated = np.repeat(rng.random(3), size)
        for values in (rng.random(size), rng.lognormal(0.0, 3.0, size), repeated):
            assert modesim._median(values) == np.median(values)
        values = rng.random(size)
        values[size // 3] = math.nan
        assert math.isnan(modesim._median(values)) and math.isnan(np.median(values))
        assert modesim._median(np.array([])) == 0.0
