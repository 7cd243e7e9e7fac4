"""Grid, quadrature, resonance, and bookkeeping tests for pairflux.spectrum."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairflux import kernel
from pairflux.spectrum import (
    BLOCK_CELLS,
    RESONANCE_VELOCITY_PHOTON,
    NoResonance,
    PumpConfig,
    SpectralGrid,
    conjugate_partner,
    integrated_rate,
    integrated_rates,
    required_intensity,
    resonance_velocity,
    scan_2d,
    spectrum_grid,
    stimulated_rate,
)

# mpmath references (mp.dps = 40)
V_RESONANCE = 2.938534902062392721728264364088159531907
V_RESONANCE_MASSIVE = {
    0.1: 3.948147883699223367256040528148342769213,
    0.16: 3.803910686376240203433402589710835183879,
    0.2: 3.560021955122407553008198398089385461295,
    0.24: 2.793853959180737955332073440069284478692,
    0.4: 24.60011798491108926157424479613139244328,
}


def midpoint_sum(v, n, mass=None):
    """Midpoint rule with n nodes for the rate integral over [0, 1]."""
    return kernel.emission_rate((np.arange(n) + 0.5) / n, v, mass).sum() / n


def graded_gauss_sum(v):
    """16-node Gauss on panels graded towards the resonant peak at 1/2."""
    steps = 2.0 ** -np.arange(1, 45)
    edges = np.unique(np.concatenate([[0.0, 1.0], 0.5 - steps, 0.5 + steps]))
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    x, w = np.polynomial.legendre.leggauss(16)
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    return float(np.dot((half[:, None] * w).ravel(), kernel.emission_rate(nodes, v)))


class TestConfigs:
    def test_pump_validation(self):
        with pytest.raises(ValueError):
            PumpConfig(v=-0.1)
        with pytest.raises(ValueError):
            PumpConfig(v=1.0, mass=0.7)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SpectralGrid(0.5, 0.4, 10)
        with pytest.raises(ValueError):
            SpectralGrid(0.0, 1.2, 10)
        with pytest.raises(ValueError):
            SpectralGrid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            SpectralGrid(0.0, 1.0, 10, placement="chebyshev")

    def test_gauss_nodes_stay_open(self):
        grid = SpectralGrid(0.2, 0.8, 32, "gauss-legendre")
        nodes = grid.nodes()
        assert nodes.min() > 0.2 and nodes.max() < 0.8

    def test_weights_sum_to_width(self):
        for placement in ("closed-uniform", "gauss-legendre"):
            grid = SpectralGrid(0.1, 0.7, 19, placement)
            _, w = grid.nodes_weights()
            assert abs(w.sum() - 0.6) < 1e-12


class TestSpectrumGrid:
    def test_no_pump_gives_zero_rates(self):
        res = spectrum_grid(PumpConfig(0.0), SpectralGrid(1 / 66, 65 / 66, 33, "closed-uniform"))
        assert (res.rate == 0.0).all()
        assert res.flags == []

    def test_weak_pump_profile_symmetric_peak(self):
        res = spectrum_grid(PumpConfig(0.1), SpectralGrid(0.0, 1.0, 101, "closed-uniform"))
        assert res.omega[np.argmax(res.rate)] == 0.5
        assert np.allclose(res.rate, res.rate[::-1], rtol=1e-12)

    def test_resonant_pump_dominates_grid_centre(self):
        grid = SpectralGrid(0.0, 1.0, 101, "closed-uniform")
        near = spectrum_grid(PumpConfig(2.9385), grid)
        unit = spectrum_grid(PumpConfig(1.0), grid)
        centre = np.argmin(np.abs(near.omega - 0.5))
        assert np.argmax(near.rate) == centre
        assert near.rate[centre] > 1e3 * unit.rate[centre]

    def test_grid_nudges_centre_node_at_exact_resonance(self):
        res = spectrum_grid(PumpConfig(V_RESONANCE), SpectralGrid(0.0, 1.0, 101, "closed-uniform"))
        assert not np.any(res.omega == 0.5)
        assert np.isfinite(res.rate).all()
        assert res.flags == []

    def test_divergent_nodes_are_flagged_not_fatal(self):
        grid = SpectralGrid(0.5 - 1e-13, 0.5 + 1e-13, 2, "closed-uniform")
        res = spectrum_grid(PumpConfig(V_RESONANCE), grid)
        assert [f[1] for f in res.flags] == ["resonant-divergence"] * 2
        assert (res.rate == math.inf).all()

    def test_singular_nodes_are_flagged_not_fatal(self):
        # omega = 0.4 = 2m sits on the shifted branch point for mass 0.2
        grid = SpectralGrid(0.35, 0.45, 2, "closed-uniform")
        res = spectrum_grid(PumpConfig(1.0, mass=0.175), grid)  # 2m = 0.35
        assert [f[1] for f in res.flags] == ["singular"]
        assert math.isnan(res.rate[0]) and math.isfinite(res.rate[1])

    def test_branch_point_at_half_frequency(self):
        # mass 1/4 puts 2m at omega = 1/2, where Geff and the resonance are undefined
        grid = SpectralGrid(0.25, 0.75, 3, "closed-uniform")
        res = spectrum_grid(PumpConfig(1.0, mass=0.25), grid)
        assert res.flags == [(1, "singular")]
        assert res.rate[0] == res.rate[2] == 0.0
        assert integrated_rate(PumpConfig(1.0, mass=0.25)) == 0.0


class TestIntegratedRate:
    def test_no_pump_integrates_to_zero(self):
        assert integrated_rate(PumpConfig(0.0)) == 0.0

    def test_weak_pump_matches_analytic_integral(self):
        # integral of (v/2pi)^2 w(1-w) over [0, 1] = (v/2pi)^2 / 6
        total = integrated_rate(PumpConfig(0.1))
        assert abs(total / ((0.1 / (2 * math.pi)) ** 2 / 6.0) - 1.0) < 0.01

    @pytest.mark.parametrize("v", [0.5, 2.0, 5.0, 10.0])
    def test_agrees_with_fine_riemann_sum(self, v):
        assert abs(integrated_rate(PumpConfig(v)) / midpoint_sum(v, 2560) - 1.0) < 0.005

    @pytest.mark.parametrize("mass, v", [
        *(pytest.param(0.1, v, id=str(v)) for v in (0.5, 1.0, 2.0, 6.0, 15.0, 3.9)),
        # near resonance, with a branch point 2m or 1 - 2m among the panels
        # halving towards 1/2
        *(pytest.param(m, V_RESONANCE_MASSIVE[m] + dv, id=f"mass{m}-v_r{dv:+}")
          for m in (0.16, 0.2, 0.24) for dv in (-0.05, 0.01, 0.07)),
    ])
    def test_massive_branch_agrees_with_fine_midpoint_sum(self, mass, v):
        # the rule splits where Im Geff jumps, at 2m and 1 - 2m; v = 3.9 takes the
        # near-resonance path at mass 0.1 (v_r = 3.948)
        total = integrated_rate(PumpConfig(v, mass=mass))
        assert abs(total / midpoint_sum(v, 400_000, mass=mass) - 1.0) < 1e-4

    def test_branch_point_next_to_a_panel_edge(self):
        # 2m = 0.35 + 2e-15 sits 36 ulps above the cut 1/2 - 0.15 of the panels
        # halving towards 1/2; a panel between them would put nodes on 2m
        v = resonance_velocity(0.175) + 0.01
        total = integrated_rate(PumpConfig(v, mass=0.175 + 1e-15))
        assert abs(total / integrated_rate(PumpConfig(v, mass=0.175)) - 1.0) < 1e-9

    @pytest.mark.parametrize("dm", [-3e-14, -1.5e-15, 1.5e-15, 3e-14])
    @pytest.mark.parametrize("v", [1.0, 20.0, "v_r+0.01"])
    def test_mass_next_to_a_quarter(self, dm, v):
        # 2m and 1 - 2m lie within 1e-12 of each other: the second is dropped as
        # a panel edge, where a panel between them used to put nodes on both;
        # the numerator is non-zero only on the sliver (2m, 1 - 2m)
        mass = 0.25 + dm
        v = resonance_velocity(mass) + 0.01 if v == "v_r+0.01" else v
        total = integrated_rate(PumpConfig(v, mass=mass))
        if dm > 0.0:
            assert total == 0.0
        else:  # a narrower sliver than 1e-12 away from 1/4 carries less
            assert 0.0 <= total <= integrated_rate(PumpConfig(v, mass=0.25 - 1e-12))

    @pytest.mark.parametrize("mass", [1e-14, 0.5 - 1e-14])
    @pytest.mark.parametrize("v", [1.0, 20.0])
    def test_mass_next_to_an_interval_end(self, mass, v):
        # a branch point within 1e-12 of 0 or 1 is dropped as a panel edge
        total = integrated_rate(PumpConfig(v, mass=mass))
        assert total == pytest.approx(midpoint_sum(v, 400_000, mass=mass), rel=1e-4, abs=0.0)

    def test_adaptive_refinement_near_resonance(self):
        v = 2.88  # inside the |v - v_r| < 0.1 refinement window
        assert abs(integrated_rate(PumpConfig(v)) / midpoint_sum(v, 400_000) - 1.0) < 1e-4

    @pytest.mark.parametrize("dv", [1.126e-3, 1.5147e-2])
    def test_bisection_does_not_converge_falsely(self, dv):
        # with 1/2 as a bisection point these pumps came out 2.7% and 2.1e-4 off:
        # panels ending on the peak fooled the whole-versus-halves test
        v = V_RESONANCE + dv
        assert abs(integrated_rate(PumpConfig(v)) / graded_gauss_sum(v) - 1.0) < 1e-4

    def test_exact_resonance_reports_divergence(self):
        assert integrated_rate(PumpConfig(V_RESONANCE)) == math.inf

    @pytest.mark.parametrize("mass", [None, 0.1, 0.16, 0.2, 0.25 - 1.5e-15, 0.25 + 1.5e-15, 0.3])
    def test_sweep_equals_single_pumps_bit_for_bit(self, mass):
        # more pumps than one kernel call takes, for both rules: the 256-node
        # rule takes 31 or 32 pumps a call, the ~1,550-node window rule 5
        v_r = resonance_velocity(mass)
        far = np.geomspace(0.05, 30.0, 2 * BLOCK_CELLS // 256)
        near = v_r + np.linspace(-0.095, 0.095, 3 * BLOCK_CELLS // 1550)
        v = np.concatenate([[0.0, V_RESONANCE], far, near])
        totals = integrated_rates(v, mass)
        assert totals.tolist() == [integrated_rate(PumpConfig(float(x), mass)) for x in v]
        assert totals[0] == 0.0 and (mass is not None or totals[1] == math.inf)

    def test_sweep_with_a_node_on_a_branch_point_raises(self):
        # at this mass the window panel [1/2 - 0.15 * 2^-37, 2m] holds the branch
        # point 1 - 2m and one of its nodes has 1 - omega == 2m exactly; the
        # 256-node rule has no such node
        mass = 0.2500000000000355
        v = resonance_velocity(mass) + np.array([0.5, 0.01])
        assert integrated_rates(v[:1], mass).tolist() == [0.0]
        with pytest.raises(kernel.SingularArgument):
            integrated_rates(v, mass)

    def test_scan_peaks_at_resonance(self):
        vs = np.linspace(0.5, 5.0, 46)
        totals = [integrated_rate(PumpConfig(float(v))) for v in vs]
        assert 2.8 <= vs[int(np.argmax(totals))] <= 3.1


class TestResonanceVelocity:
    def test_photon_matches_closed_form_constant(self):
        assert abs(resonance_velocity() - RESONANCE_VELOCITY_PHOTON) < 1e-12
        assert abs(resonance_velocity() - V_RESONANCE) < 1e-12

    def test_massive_reference_values(self):
        for m, expected in V_RESONANCE_MASSIVE.items():
            assert abs(resonance_velocity(m) / expected - 1.0) < 1e-12

    def test_massive_resonance_above_photon(self):
        assert resonance_velocity(0.1) > resonance_velocity()

    def test_threshold_mass_has_no_resonance(self):
        with pytest.raises(NoResonance):
            resonance_velocity(0.5)

    def test_nulls_the_resolvent(self):
        for m in (None, 0.1, 0.3):
            v = resonance_velocity(m)
            assert abs(kernel.resolvent_factor(0.5, v, m)) < 1e-9


class TestScan2D:
    def test_zero_row(self):
        grid = SpectralGrid(1 / 42, 41 / 42, 21, "closed-uniform")
        omega, matrix = scan_2d([0.0], grid)
        assert omega.shape == matrix.shape == (1, 21)
        assert (matrix == 0.0).all()

    def test_ridge_tracks_resonance(self):
        vs = [1.0, 2.0, 2.9385, 4.0, 8.0]
        grid = SpectralGrid(1 / 82, 81 / 82, 41, "closed-uniform")
        _, matrix = scan_2d(vs, grid)
        centre = np.argmin(np.abs(grid.nodes() - 0.5))
        assert np.argmax(matrix[:, centre]) == 2

    def test_rows_symmetric(self):
        grid = SpectralGrid(1 / 80, 79 / 80, 40, "closed-uniform")
        _, matrix = scan_2d([0.3, 1.7], grid)
        assert np.allclose(matrix, matrix[:, ::-1], rtol=1e-12)

    @pytest.mark.parametrize("mass", [None, 0.1])
    def test_only_the_resonant_row_is_nudged(self, mass):
        grid = SpectralGrid(0.0, 1.0, 101, "closed-uniform")
        v_r = resonance_velocity(mass)
        # the last pump lies just outside the nudge tolerance DENOMINATOR_FLOOR
        omega, rate = scan_2d([0.0, 1.0, v_r, v_r + 2e-12], grid, mass)
        nodes = grid.nodes()
        for row in (0, 1, 3):
            assert omega[row].tobytes() == nodes.tobytes()
        assert np.flatnonzero(omega[2] != nodes).tolist() == [50]
        assert omega[2, 50] == 0.5 + 1e-3 / 101
        assert not np.isinf(rate[2]).any()

    @pytest.mark.parametrize("v, mass", [
        (0.0, None), (0.7, None), (V_RESONANCE, None), (30.0, None),
        (V_RESONANCE_MASSIVE[0.1], 0.1), (1.0, 0.25),  # a branch point 2m at omega = 1/2
    ])
    def test_spectrum_grid_is_row_zero_of_scan_2d(self, v, mass):
        grid = SpectralGrid(0.0, 1.0, 101, "closed-uniform")
        res = spectrum_grid(PumpConfig(v, mass), grid)
        omega, rate = scan_2d([v], grid, mass)
        assert res.omega.tobytes() == omega[0].tobytes()
        assert res.rate.tobytes() == rate[0].tobytes()

    @pytest.mark.parametrize("mass", [None, 0.1])
    @pytest.mark.parametrize("points", [3001, BLOCK_CELLS + 1])
    def test_sweep_wider_than_a_block_equals_rows_bit_for_bit(self, mass, points):
        # 2 rows per kernel call at 3,001 points and 1 row above BLOCK_CELLS; the
        # rows hold v = 0, the resonance (its node at 1/2 nudged) and, for mass
        # 0.1, a nan column on the branch point omega = 0.2
        grid = SpectralGrid(0.2, 0.8, points, "closed-uniform")
        v = np.array([0.0, 0.3, resonance_velocity(mass), 1.0, 13.913, 7.5, 1e3])
        omega, rate = scan_2d(v, grid, mass)
        rows = [kernel.emission_rate(omega[i], float(v[i]), mass) for i in range(len(v))]
        assert rate.tobytes() == np.array(rows).tobytes()
        assert not np.isinf(rate[2]).any() and (omega[2] != grid.nodes()).sum() == 1
        assert np.isnan(rate[1:, 0]).all() == (mass is not None)

    def test_crossover_in_pump_velocity(self):
        # the centre-frequency rate rises with v below the resonance and
        # falls beyond it
        rising = [kernel.emission_rate(0.5, v) for v in np.linspace(0.05, 0.9 * V_RESONANCE, 30)]
        assert all(b > a for a, b in zip(rising, rising[1:]))
        falling = [kernel.emission_rate(0.5, v) for v in np.linspace(1.5 * V_RESONANCE, 40.0, 30)]
        assert all(b < a for a, b in zip(falling, falling[1:]))


class TestStimulatedRate:
    def test_vacuum_input_is_spontaneous(self):
        pump = PumpConfig(0.7)
        spontaneous = kernel.emission_rate(0.3, 0.7)
        assert stimulated_rate(0.3, pump, 0.0) == (spontaneous, spontaneous)

    def test_occupation_factor(self):
        pump = PumpConfig(0.7)
        same, conj = stimulated_rate(0.3, pump, 9.0)
        assert same == conj == 10.0 * kernel.emission_rate(0.3, 0.7)

    @given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.01, max_value=0.99))
    def test_exactly_linear_in_occupation(self, n_q, w):
        pump = PumpConfig(1.3)
        same, conj = stimulated_rate(w, pump, n_q)
        base = kernel.emission_rate(w, 1.3)
        assert same == (1.0 + n_q) * base
        assert conj == same

    def test_rejects_negative_occupation(self):
        with pytest.raises(ValueError):
            stimulated_rate(0.3, PumpConfig(0.7), -1.0)


class TestConjugatePartner:
    def test_half_frequency_is_self_conjugate(self):
        assert conjugate_partner(0.5) == (0.5, 1.0)

    def test_quarter_frequency(self):
        assert conjugate_partner(0.25) == (0.75, 3.0)

    def test_limit_towards_band_edge(self):
        partner, alpha = conjugate_partner(1.0 - 1e-9)
        assert 0.0 < partner < 1e-8
        assert 0.0 < alpha < 1e-8

    @given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
    def test_involution(self, w):
        partner, _ = conjugate_partner(w)
        back, _ = conjugate_partner(partner)
        assert abs(back - w) < 1e-15

    def test_domain_errors(self):
        for w in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError):
                conjugate_partner(w)


class TestRequiredIntensity:
    def test_reference_estimate(self):
        assert required_intensity(1e-15, 1e5, 1.0) == 1e10

    def test_resonant_target_scales_linearly(self):
        base = required_intensity(1e-15, 1e5, 1.0)
        assert abs(required_intensity(1e-15, 1e5, 2.9386) / base - 2.9386) < 1e-12

    def test_doubling_interaction_length_halves_intensity(self):
        assert required_intensity(1e-15, 2e5, 1.0) == required_intensity(1e-15, 1e5, 1.0) / 2.0

    def test_rejects_nonpositive_inputs(self):
        for args in ((0.0, 1e5, 1.0), (1e-15, -1e5, 1.0), (1e-15, 1e5, 0.0)):
            with pytest.raises(ValueError):
                required_intensity(*args)
