"""Truncated-mode oracle tests.

The expensive evolutions are shared through module-scoped fixtures; all
runs stay below the mode-recurrence time 2 pi kappa0 unless the test is
specifically about crossing it.
"""

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
from pairflux.spectrum import PumpConfig

T0 = 100.0 * math.pi  # shortest allowed modulation time


def quiet_run(config: SimConfig) -> BogoliubovMatrix:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModeRecurrenceWarning)
        return evolve(build_sim(config))


def stepped(config: SimConfig, h: float, n_steps: int):
    """Reference: plain RK4 over every step on the complex K x K state,
    returning (mu, nu, occupations) at the same checkpoints as evolve."""
    ens = build_sim(config)
    w, c = ens.omega[:, None], ens.coupling[:, None]

    def acc(t, X):
        return 2.0 * config.v * math.cos(t) * w * ((c * X).sum(axis=0) - c * X) - w * w * X

    X = np.diag(1.0 / np.sqrt(2.0 * ens.omega)).astype(complex)
    V = -1j * w * X
    checks = set(np.linspace(0, n_steps, modesim.CHECKPOINTS + 1).astype(int)[1:].tolist())
    occupations = []
    for n in range(n_steps):
        t = n * h
        k1 = acc(t, X)
        k2 = acc(t + h / 2, X + h / 2 * V)
        k3 = acc(t + h / 2, X + h / 2 * V + h * h / 4 * k1)
        k4 = acc(t + h, X + h * V + h * h / 2 * k2)
        X, V = X + h * V + h * h / 6 * (k1 + k2 + k3), V + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if n + 1 in checks:
            pref = np.sqrt(w / 2) * np.exp(1j * w * (n + 1) * h)
            mu, nu = pref * (X + 1j * V / w), pref * np.conj(X - 1j * V / w)
            occupations.append((np.abs(nu) ** 2).sum(axis=1))
    return mu, nu, np.array(occupations)


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
    """kappa0 = 63: every mode has an exact pair partner (no self-pair)."""
    config = SimConfig(kappa0=63, v=0.5, t0=T0)
    return config, quiet_run(config)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(kappa0=4, v=0.1)
        with pytest.raises(ValueError):
            SimConfig(kappa0=32, v=-0.1)
        with pytest.raises(ValueError, match="velocity"):
            SimConfig(kappa0=8, v=1e160)  # v * v overflows: the kernel's check
        with pytest.raises(ValueError):
            SimConfig(kappa0=32, v=0.1, t0=10.0)
        with pytest.raises(ValueError):
            SimConfig(kappa0=32, v=0.1, dt_divisor=1.0)
        with pytest.raises(ValueError):
            SimConfig(kappa0=32, v=0.1, mode_multiplier=0.5)
        # nan and inf fail every check; a period takes at least 20 steps
        for bad in (dict(v=math.nan), dict(v=math.inf), dict(t0=math.inf), dict(t0=math.nan),
                    dict(dt_divisor=0.0), dict(dt_divisor=-200.0), dict(dt_divisor=math.nan),
                    dict(dt_divisor=math.inf), dict(dt_divisor=19.9),
                    dict(mode_multiplier=math.nan)):
            with pytest.raises(ValueError):
                SimConfig(**{"kappa0": 32, "v": 0.1, **bad})

    def test_work_bounds(self):
        # judged from the configuration alone: nothing here allocates a map
        limit = modesim.MAX_STEPS_PER_PERIOD
        assert SimConfig(kappa0=8, v=0.1, dt_divisor=limit).steps_per_period == limit
        with pytest.raises(ValueError, match="steps per pump period"):
            SimConfig(kappa0=8, v=0.1, dt_divisor=limit + 1)
        with pytest.raises(ValueError, match="steps per pump period"):
            SimConfig(kappa0=8, v=0.1, dt_divisor=1e12)
        periods = modesim.MAX_PERIODS
        assert SimConfig(kappa0=8, v=0.1, t0=2.0 * math.pi * periods).n_steps == 200 * periods
        with pytest.raises(ValueError, match="pump periods"):
            SimConfig(kappa0=8, v=0.1, t0=2.0 * math.pi * (periods + 1))
        for t0 in (1e12, 1e20):  # 1e20 gives more steps than checkpoint_steps' int64 holds
            with pytest.raises(ValueError, match="pump periods"):
                SimConfig(kappa0=8, v=0.0, t0=t0)
        # default t0 = 400 pi keeps one partial map and the leaps M^12 and M^13:
        # with the 8 working maps, 11 maps of (2K)^2 doubles
        assert SimConfig(kappa0=1746, v=0.1).kept_maps == ({100}, {12, 13})
        assert 11 * (2 * 1746) ** 2 * 8 <= modesim.MAX_MAP_BYTES < 11 * (2 * 1747) ** 2 * 8
        with pytest.raises(ValueError, match="GiB"):
            SimConfig(kappa0=1747, v=0.1)
        with pytest.raises(ValueError, match="GiB"):
            SimConfig(kappa0=10_000, v=0.1)

    @pytest.mark.parametrize("t0", [T0, 4 * T0, 2.0 * math.pi * 64],
                             ids=["7_partial_maps", "1_partial_map", "whole_periods"])
    def test_map_bound_covers_the_measured_peak(self, t0):
        # the bound counts the kept maps plus 8: numpy reports its arrays to tracemalloc
        config = SimConfig(kappa0=64, v=0.2, t0=t0)
        tracemalloc.start()
        try:
            quiet_run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (sum(map(len, config.kept_maps)) + 8) * (2 * 64) ** 2 * 8

    def test_default_step_scales_with_band_top(self):
        assert SimConfig(kappa0=32, v=0.1).step == 2.0 * math.pi / 200.0
        assert SimConfig(kappa0=32, v=0.1, mode_multiplier=2.0).step == 2.0 * math.pi / 400.0


class TestBuild:
    def test_mode_ladder(self):
        ens = build_sim(SimConfig(kappa0=8, v=0.1))
        assert ens.omega.tolist() == [k / 8 for k in range(1, 9)]

    def test_mode_multiplier_extends_ladder(self):
        ens = build_sim(SimConfig(kappa0=8, v=0.1, mode_multiplier=2.0))
        assert len(ens.omega) == 16
        assert ens.omega[-1] == 2.0

    def test_coupling_weights(self):
        ens = build_sim(SimConfig(kappa0=8, v=0.1))
        assert np.allclose(ens.coupling, np.arange(1, 9) / (math.pi * 64.0))


class TestFreeEvolution:
    def test_identity_bogoliubov_at_default_step(self):
        config = SimConfig(kappa0=8, v=0.0, t0=T0)
        matrix = evolve(build_sim(config))
        # the positive-frequency subspace is preserved exactly; mu picks up
        # only the RK4 phase error of the free oscillators
        assert np.abs(matrix.nu).max() < 1e-12
        assert np.abs(matrix.mu - np.eye(8)).max() < 1e-5

    def test_identity_bogoliubov_at_fine_step(self):
        config = SimConfig(kappa0=8, v=0.0, t0=T0, dt_divisor=3000.0)
        matrix = evolve(build_sim(config))
        assert np.abs(matrix.nu).max() < 1e-10
        assert np.abs(matrix.mu - np.eye(8)).max() < 1e-10


def strong_pump_report(v: float):
    config = SimConfig(kappa0=64, v=v, t0=T0)
    return compare_to_analytic(extract_rates(quiet_run(config)), PumpConfig(v))


class TestFloquetAgainstStepping:
    """evolve composes one-period maps; a plain step-by-step RK4 must agree."""

    @pytest.mark.parametrize(
        "config, h, n_steps",
        [
            # checkpoints 625 steps = 3.125 periods apart: non-zero remainders
            (SimConfig(kappa0=16, v=0.5, t0=T0), 2.0 * math.pi / 200, 10000),
            (SimConfig(kappa0=16, v=0.3, t0=T0, mode_multiplier=1.5), 2.0 * math.pi / 300, 15000),
            # 250.5 steps do not divide the period: rounded up to 251
            (SimConfig(kappa0=16, v=0.5, t0=T0, dt_divisor=250.5),
             2.0 * math.pi / 251, 12550),
        ],
        ids=["remainders", "mode_multiplier_1.5", "snapped_step"],
    )
    def test_matches_reference_stepper(self, config, h, n_steps):
        assert (config.step, config.n_steps) == (h, n_steps)
        matrix = quiet_run(config)
        mu, nu, occupations = stepped(config, h, n_steps)
        for got, want in ((matrix.occupations, occupations), (matrix.mu, mu), (matrix.nu, nu)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_leaps_do_not_depend_on_the_gap(self):
        # t0 = 200 pi leaps 6 or 7 periods between checkpoints, 400 pi 12 or 13;
        # the 8 checkpoints they share must read the same occupations
        short, long = (quiet_run(SimConfig(kappa0=16, v=0.3, t0=t0)) for t0 in (2 * T0, 4 * T0))
        assert (short.config.kept_maps[1], long.config.kept_maps[1]) == ({6, 7}, {12, 13})
        assert np.array_equal(short.times[1::2], long.times[:8])
        assert np.abs(short.occupations[1::2] / long.occupations[:8] - 1.0).max() <= 1e-12

    def test_step_snapping(self):
        # the default step divides the period as is; a fractional divisor
        # snaps to the next finer whole number of steps per period
        assert SimConfig(kappa0=8, v=0.1, t0=4 * T0).n_steps == 40000
        config = SimConfig(kappa0=8, v=0.1, t0=314.16)
        assert (config.steps_per_period, config.n_steps) == (200, 10001)
        assert SimConfig(kappa0=8, v=0.1, dt_divisor=250.5).steps_per_period == 251


class TestEvolve:
    def test_symplectic_rows(self, run_strong_pump):
        _, matrix = run_strong_pump
        assert matrix.symplectic_defect() < 1e-6

    def test_stationary_growth(self, run_strong_pump):
        config, matrix = run_strong_pump
        i_half = int(np.argmin(np.abs(matrix.times - config.t0 / 2)))
        near = [
            k for k, w in enumerate(matrix.omega)
            if 0.3 < w < 0.7 and abs(w - 0.5) > 1e-9  # self-pair mode excluded
        ]
        ratio = matrix.occupations[-1, near] / matrix.occupations[i_half, near]
        assert (ratio > 1.8).all() and (ratio < 2.2).all()

    def test_pairs_dominate(self, run_strong_pump):
        # occupation is carried by modes with an exact partner; the pair
        # structure puts omega_k + omega_j = 1
        _, matrix = run_strong_pump
        occ = matrix.occupations[-1]
        partnered = occ[(matrix.omega > 0.2) & (matrix.omega < 0.8) & (matrix.omega != 0.5)]
        assert partnered.min() > 0.01 * partnered.max()

    def test_recurrence_warning(self):
        config = SimConfig(kappa0=8, v=0.1, t0=T0)  # recurrence time 16 pi < t0
        with pytest.warns(ModeRecurrenceWarning):
            evolve(build_sim(config))

    def test_no_warning_without_pump(self):
        config = SimConfig(kappa0=8, v=0.0, t0=T0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ModeRecurrenceWarning)
            evolve(build_sim(config))

    def test_monodromy_spectral_radius(self, run_strong_pump):
        # the free RK4 map keeps the lowest mode's amplitude to ~(h/kappa0)^6;
        # the pump makes the one-period map grow
        _, matrix = run_strong_pump
        free = quiet_run(SimConfig(kappa0=64, v=0.0, t0=T0))
        assert abs(free.spectral_radius() - 1.0) < 1e-9
        assert matrix.spectral_radius() > 1.001

    # v = 5 grows finite amplitudes past AMPLITUDE_BOUND; v = 1e10 overflows them to inf
    @pytest.mark.parametrize("v", [5.0, 1e10], ids=["finite_over_bound", "non_finite"])
    def test_instability_detected(self, v):
        config = SimConfig(kappa0=8, v=v, t0=T0)
        with pytest.raises(IntegratorUnstable), warnings.catch_warnings():
            warnings.simplefilter("ignore", ModeRecurrenceWarning)
            evolve(build_sim(config))


class TestExtractRates:
    def test_zero_pump_zero_rates(self):
        config = SimConfig(kappa0=8, v=0.0, t0=T0)
        spectrum = extract_rates(evolve(build_sim(config)))
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

    def test_centre_mode_matches_kernel_on_odd_ladder(self, run_odd_ladder):
        config, matrix = run_odd_ladder
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

    def test_self_pair_exclusion_starves_centre_mode(self, run_strong_pump):
        # at even kappa0 the omega = 1/2 mode has no partner (j = k term is
        # excluded): its extracted rate collapses while the median is intact
        config, matrix = run_strong_pump
        spectrum = extract_rates(matrix)
        i = int(np.argmin(np.abs(spectrum.omega - 0.5)))
        assert spectrum.omega[i] == 0.5
        analytic = kernel.emission_rate(0.5, config.v)
        assert spectrum.rate[i] < 0.5 * analytic
        report = compare_to_analytic(spectrum, PumpConfig(config.v))
        assert report.median_deviation < 0.05


class TestTruncation:
    def test_far_detuned_modes_stay_empty(self):
        # modes above the pair band (no partner within 0.1) acquire less
        # than 5% of the peak occupation
        config = SimConfig(kappa0=64, v=0.1, t0=T0, mode_multiplier=1.5)
        matrix = quiet_run(config)
        occupation = matrix.occupations[-1]
        detuned = matrix.omega > 1.1 + 1.0 / config.kappa0
        assert occupation[detuned].max() < 0.05 * occupation.max()


class TestConvergence:
    def test_halving_dt_leaves_rates_unchanged(self):
        base = SimConfig(kappa0=32, v=0.5, t0=T0, dt_divisor=200.0)
        fine = SimConfig(kappa0=32, v=0.5, t0=T0, dt_divisor=400.0)
        r_base = extract_rates(quiet_run(base))
        r_fine = extract_rates(quiet_run(fine))
        assert np.abs(r_base.rate / r_fine.rate - 1.0).max() < 0.01


class TestCompare:
    def test_strong_pump_median(self, run_strong_pump):
        config, matrix = run_strong_pump
        report = compare_to_analytic(extract_rates(matrix), PumpConfig(config.v))
        assert report.passed and report.median_deviation < 0.05
        assert not report.degenerate

    def test_oracle_agrees_at_unit_pump(self):
        # kappa0 = 64 measures 0.072, and 0.073 at kappa0 = 128
        report = strong_pump_report(1.0)
        print(f"strong pump v = 1: median deviation = {report.median_deviation:.3f}")
        assert report.median_deviation <= 0.15

    @pytest.mark.xfail(
        strict=True,
        reason="at v = 2 the oracle sits 29% from the closed form (median 0.292 at "
        "kappa0 = 64, 0.303 at 128; 0.390/0.407 at v = 2.5): the gap does not shrink "
        "as kappa0 doubles, so it is not the finite-resonator recurrence",
    )
    def test_oracle_strong_pump_gap(self):
        report = strong_pump_report(2.0)
        print(f"strong pump v = 2: median deviation = {report.median_deviation:.3f}")
        assert report.median_deviation <= 0.15

    def test_zero_pump_degenerate(self):
        config = SimConfig(kappa0=8, v=0.0, t0=T0)
        spectrum = extract_rates(evolve(build_sim(config)))
        report = compare_to_analytic(spectrum, PumpConfig(0.0))
        assert report.degenerate and report.passed

    def test_pump_mismatch_rejected(self, run_strong_pump):
        config, matrix = run_strong_pump
        with pytest.raises(ValueError):
            compare_to_analytic(extract_rates(matrix), PumpConfig(0.25))
        # the oracle is photon-only; mass 0.3 >= 1/4 closes the pair channel,
        # which would otherwise pass as a degenerate comparison against zeros
        with pytest.raises(ValueError, match="photon"):
            compare_to_analytic(extract_rates(matrix), PumpConfig(config.v, mass=0.3))
