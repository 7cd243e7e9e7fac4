"""Grid, quadrature, resonance, and bookkeeping tests for pairflux.spectrum."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scalar_reference
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


def graded_gauss_sum(v, mass=None):
    """16-node Gauss over [0, 1] on panels graded towards the resonant peak at
    1/2 and, for a massive boson, towards the branch points 2m and 1 - 2m,
    where Im Geff jumps."""
    steps = 2.0 ** -np.arange(1, 45)
    edges = [[0.0, 1.0], 0.5 - steps, 0.5 + steps]
    for cut in [] if mass is None else [2.0 * mass, 1.0 - 2.0 * mass]:
        edges += [[cut], cut - steps, cut + steps]
    edges = np.unique(np.clip(np.concatenate(edges), 0.0, 1.0))
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    x, w = np.polynomial.legendre.leggauss(16)
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    return float(np.dot((half[:, None] * w).ravel(), kernel.emission_rate(nodes, v, mass)))


class TestConfigs:
    def test_pump_validation(self):
        with pytest.raises(ValueError):
            PumpConfig(v=-0.1)
        with pytest.raises(ValueError):
            PumpConfig(v=1.0, mass=0.7)
        with pytest.raises(ValueError, match="velocity"):
            PumpConfig(1e160)  # v * v overflows: the kernel's check

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SpectralGrid(0.5, 0.4, 10)
        with pytest.raises(ValueError):
            SpectralGrid(0.0, 1.2, 10)
        with pytest.raises(ValueError):
            SpectralGrid(0.0, 1.0, 1)

    def test_weights_sum_to_width(self):
        _, w = SpectralGrid(0.1, 0.7, 19).nodes_weights()
        assert abs(w.sum() - 0.6) < 1e-12

    def test_keywords_defaults_and_read_only(self):
        pump = PumpConfig(mass=0.1, v=2.0)
        assert (pump.v, pump.mass) == (2.0, 0.1) and PumpConfig(2.0).mass is None
        grid = SpectralGrid(points=9, omega_max=0.5)
        assert (grid.omega_min, grid.omega_max, grid.points) == (0.0, 0.5, 9)
        default = SpectralGrid()
        assert (default.omega_min, default.omega_max, default.points) == (0.0, 1.0, 256)
        for config, field in [(pump, "v"), (pump, "mass"), (grid, "points"),
                              (grid, "omega_min"), (grid, "extra")]:
            with pytest.raises(AttributeError):
                setattr(config, field, 0.2)
        assert (pump.v, pump.mass, grid.points) == (2.0, 0.1, 9)
        with pytest.raises(TypeError):
            PumpConfig()  # v has no default

    def test_replace_and_make_check_the_fields(self):
        with pytest.raises(ValueError, match="mass"):
            PumpConfig(0.1)._replace(mass=0.7)
        with pytest.raises(ValueError, match="points"):
            SpectralGrid()._replace(points=1)
        with pytest.raises(ValueError, match="velocity"):
            PumpConfig._make([-1.0, None])
        with pytest.raises(ValueError, match="omega_min"):
            SpectralGrid._make([0.5, 0.4, 10])
        grid = SpectralGrid()._replace(points=9)
        assert type(grid) is SpectralGrid and grid == SpectralGrid(0.0, 1.0, 9)
        assert PumpConfig._make([2.0, 0.1]) == PumpConfig(2.0, 0.1)

    @pytest.mark.parametrize("points", [2.5, math.nan, 1e20, 256.0, "256"])
    def test_grid_points_must_be_an_integer(self, points):
        with pytest.raises(ValueError, match="points"):
            SpectralGrid(0.0, 1.0, points)

    def test_grid_takes_a_numpy_integer(self):
        assert SpectralGrid(0.0, 1.0, np.int64(3)).nodes().tolist() == [0.0, 0.5, 1.0]


class TestSpectrumGrid:
    def test_no_pump_gives_zero_rates(self):
        _, rate = spectrum_grid(PumpConfig(0.0), SpectralGrid(1 / 66, 65 / 66, 33))
        assert (rate == 0.0).all()

    def test_weak_pump_profile_symmetric_peak(self):
        omega, rate = spectrum_grid(PumpConfig(0.1), SpectralGrid(0.0, 1.0, 101))
        assert omega[np.argmax(rate)] == 0.5
        assert np.allclose(rate, rate[::-1], rtol=1e-12)

    def test_resonant_pump_dominates_grid_centre(self):
        grid = SpectralGrid(0.0, 1.0, 101)
        omega, near = spectrum_grid(PumpConfig(2.9385), grid)
        _, unit = spectrum_grid(PumpConfig(1.0), grid)
        centre = np.argmin(np.abs(omega - 0.5))
        assert np.argmax(near) == centre
        assert near[centre] > 1e3 * unit[centre]

    def test_grid_nudges_centre_node_at_exact_resonance(self):
        omega, rate = spectrum_grid(PumpConfig(V_RESONANCE), SpectralGrid(0.0, 1.0, 101))
        assert not np.any(omega == 0.5)
        assert np.isfinite(rate).all()

    def test_divergent_nodes_are_flagged_not_fatal(self):
        grid = SpectralGrid(0.5 - 1e-13, 0.5 + 1e-13, 2)
        _, rate = spectrum_grid(PumpConfig(V_RESONANCE), grid)
        assert rate.tolist() == [math.inf, math.inf]

    def test_singular_nodes_are_flagged_not_fatal(self):
        # omega = 0.35 = 2m sits on the branch point for mass 0.175
        grid = SpectralGrid(0.35, 0.45, 2)
        _, rate = spectrum_grid(PumpConfig(1.0, mass=0.175), grid)
        assert np.isnan(rate).tolist() == [True, False]
        assert math.isfinite(rate[1])

    def test_branch_point_at_half_frequency(self):
        # mass 1/4 puts 2m at omega = 1/2, where Geff and the resonance are undefined
        grid = SpectralGrid(0.25, 0.75, 3)
        _, rate = spectrum_grid(PumpConfig(1.0, mass=0.25), grid)
        assert np.isnan(rate).tolist() == [False, True, False]
        assert rate[0] == rate[2] == 0.0
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
        # 2m and 1 - 2m lie within 1e-12 of each other; the numerator is non-zero
        # only on the sliver (2m, 1 - 2m), too narrow for nodes off its edges
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
        # a band edge within 1e-12 of 0 or 1 (mass 1e-14), or an empty band
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

    @pytest.mark.parametrize("mass", [None, 0.1, 0.2])
    def test_folded_rules_match_the_unfolded_rules(self, mass):
        # integrated_rates evaluates each rule below omega = 1/2 only, weights doubled;
        # here the whole rules: the 256-node band panel, and 16-node panels on the
        # window cuts, 1/2 included.  The fold rests on rate(1 - omega) == rate(omega),
        # checked on pairs that sum to 1 exactly: rounding 1 - omega alone moves the
        # rate at omega = 2e-5 by 5e-12
        v_r = resonance_velocity(mass)
        lo, hi = (0.0, 1.0) if mass is None else (2.0 * mass, 1.0 - 2.0 * mass)
        steps = 0.15 * 0.5 ** np.arange(48)
        cuts = np.concatenate([[0.5], 0.5 - steps, 0.5 + steps])
        window = np.sort(np.concatenate([[lo, hi], cuts[(cuts > lo + 1e-12) & (cuts < hi - 1e-12)]]))
        far = [0.3, 1.0, 2.0, v_r - 0.15, v_r + 0.2, 30.0]
        near = [v_r + d for d in (-0.099, -1e-2, -1e-3, -1e-4, 1e-4, 1e-3, 1e-2, 0.099)]
        for pumps, panels, n in [(far, np.array([lo, hi]), 256), (near, window, 16)]:
            x, w = np.polynomial.legendre.leggauss(n)
            mid, half = 0.5 * (panels[:-1] + panels[1:]), 0.5 * (panels[1:] - panels[:-1])
            nodes, weights = (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()
            got = integrated_rates(pumps, mass)
            for v, total in zip(pumps, got):
                rates = kernel.emission_rate(nodes, v, mass)
                condition = scalar_reference.rates(nodes, v, mass)[1]
                pairs = 1.0 - (1.0 - nodes)
                scalar_reference.assert_close(kernel.emission_rate(1.0 - pairs, v, mass),
                                              kernel.emission_rate(pairs, v, mass), condition)
                # an integral of positive terms inherits the worst error of its nodes
                scalar_reference.assert_close(total, (rates * weights).sum(), condition.max())

    @pytest.mark.parametrize("mass", [None, 0.1, 0.16, 0.2, 0.25 - 1.5e-15, 0.25 + 1.5e-15, 0.3])
    def test_sweep_equals_single_pumps_bit_for_bit(self, mass):
        # more pumps than one kernel call takes, for both rules: the folded 128-node
        # band rule takes 64 pumps a call, the folded window rule (768 or 784 nodes) 10
        v_r = resonance_velocity(mass)
        far = np.geomspace(0.05, 30.0, 3 * BLOCK_CELLS // 128)
        near = v_r + np.linspace(-0.095, 0.095, 3 * BLOCK_CELLS // 784)
        v = np.concatenate([[0.0, V_RESONANCE], far, near])
        totals = integrated_rates(v, mass)
        assert totals.tolist() == [integrated_rate(PumpConfig(float(x), mass)) for x in v]
        assert totals[0] == 0.0 and (mass is not None or totals[1] == math.inf)

    @pytest.mark.parametrize("mass", [None, 0.1])
    def test_green_functions_once_per_rule(self, mass, monkeypatch):
        # the node part of the rate is computed once per rule and shared by all its
        # blocks: 7 pumps take one block a rule, 700 pumps take 6 + 35 blocks
        calls = []
        geff = kernel._geff
        monkeypatch.setattr(kernel, "_geff", lambda w, m: calls.append(w.size) or geff(w, m))
        v_r = resonance_velocity(mass)
        sizes = []
        for n in (7, 700):
            calls.clear()
            far = np.geomspace(0.1, v_r - 0.2, n // 2)
            near = v_r + np.linspace(-0.08, 0.08, n - n // 2)
            integrated_rates(np.concatenate([far, near]), mass)
            sizes.append(list(calls))
        # Geff(omega) and Geff(1 - omega) per rule, and the resonance velocity's Geff(1/2)
        assert sizes[0] == sizes[1] and len([s for s in sizes[0] if s > 1]) <= 2 * 2

    @pytest.mark.parametrize("mass", [0.24999999999996447, 0.2500000000000355])
    def test_sweep_over_a_band_too_narrow_for_nodes_is_zero(self, mass):
        # the band (2m, 1 - 2m) is 1.4e-13 wide or empty, too narrow for nodes off
        # its edges (a window node of a rule over [0, 1] had 1 - omega == 2m here)
        v = resonance_velocity(mass) + np.array([0.5, 0.01])
        assert integrated_rates(v, mass).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("mass, rtol", [
        *((m, 2e-6) for m in (1e-3, 0.01, 0.1, 0.2, 0.24)),
        *((m, 1e-8) for m in (1e-11, 4e-13, 1e-14)),
    ])
    @pytest.mark.parametrize("v", [0.5, 2.0, 20.0])
    def test_band_rule_agrees_with_graded_reference(self, mass, rtol, v):
        # one 256-node panel on (2m, 1 - 2m), whose log edges a graded rule resolves
        total = integrated_rates([v], mass)[0]
        assert abs(total / graded_gauss_sum(v, mass) - 1.0) <= rtol

    @pytest.mark.parametrize("v", [1.0, 20.0, "v_r+0.01", "v_r-0.05"])
    def test_no_node_on_a_branch_point_below_a_quarter(self, v):
        # bands (2m, 1 - 2m) from 4e-16 to 4e-8 wide around 1/2: nodes of either
        # rule stay off the edges, and a band narrower than 1e-11 gives 0
        for mass in (0.25 - np.geomspace(1e-16, 1e-8, 200)).tolist():
            dv = {"v_r+0.01": 0.01, "v_r-0.05": -0.05}.get(v)
            pump = v if dv is None else resonance_velocity(mass) + dv
            total = integrated_rates([pump], mass)[0]
            assert math.isfinite(total) and total >= 0.0, mass

    @pytest.mark.parametrize("mass", [0.25, 0.2500000000000355, 0.3, 0.5])
    def test_closed_channel_still_checks_the_velocity(self, mass):
        assert integrated_rates([0.0, 1.0, 1e150], mass).tolist() == [0.0] * 3
        assert integrated_rates([], mass).tolist() == []
        for bad in [math.nan, math.inf, -1.0, 1e160]:
            with pytest.raises(ValueError, match="velocity"):
                integrated_rates([1.0, bad], mass)

    def test_scan_peaks_at_resonance(self):
        vs = np.linspace(0.5, 5.0, 46)
        totals = [integrated_rate(PumpConfig(float(v))) for v in vs]
        assert 2.8 <= vs[int(np.argmax(totals))] <= 3.1

    @pytest.mark.parametrize("mass, residue", [(None, 0.0688719), (0.1, 0.185069), (0.2, 0.0741671)])
    def test_total_rate_has_the_resonant_pole(self, mass, residue):
        # near (omega, v) = (1/2, v_r) the denominator is -2 d / v_r + i b x, with
        # x = omega - 1/2, d = v - v_r and b = 2 v_r^2 Im(G*(1/2) G'(1/2)) (G for
        # Geff), so the total rate is C / |d|, C = pi v_r N0 / (2 |b|), N0 the
        # numerator at 1/2: an independent check of the near-resonance panels
        def band(w, edge):  # the kernel's band function and its derivative in omega
            log = math.log(abs(edge - w) / (1.0 + w))
            return (complex((1.0 + 0.5 * w * log) / math.pi, 0.5 * w * (w < edge)),
                    complex((0.5 * log + 0.5 * w * (1.0 / (w - edge) - 1.0 / (1.0 + w))) / math.pi,
                            0.5 * (w < edge)))

        g, slope = band(0.5, 1.0)
        if mass is not None:
            g, slope = (a - b for a, b in zip((g, slope), band(0.5, 2.0 * mass)))
        v_r = resonance_velocity(mass)
        b = 2.0 * v_r**2 * (g.conjugate() * slope).imag
        c = math.pi * v_r * (v_r / (2.0 * math.pi)) ** 2 * 4.0 * g.imag**2 / (2.0 * abs(b))
        assert abs(c / residue - 1.0) < 1e-5
        for delta, rtol in [(1e-6, 2e-6), (1e-8, 1e-7)]:
            totals = integrated_rates([v_r - delta, v_r + delta], mass)
            assert np.abs(totals * delta / c - 1.0).max() <= rtol


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

    def test_quarter_mass_gives_the_limit_zero(self):
        # 2m = 1/2 is a branch point of Geff(1/2), whose modulus grows without
        # bound as 2m -> 1/2, so v_r falls towards 0 from either side
        assert resonance_velocity(0.25) == 0.0
        for side in (-1.0, 1.0):
            v_r = [resonance_velocity(0.25 + side * dm) for dm in (1e-6, 1e-12, 1e-15)]
            assert v_r == sorted(v_r, reverse=True) and 0.0 < v_r[-1] < 0.4

    def test_nulls_the_resolvent(self):
        for m in (None, 0.1, 0.3):
            v = resonance_velocity(m)
            assert abs(kernel.resolvent_factor(0.5, v, m)) < 1e-9


class TestScan2D:
    def test_zero_row(self):
        grid = SpectralGrid(1 / 42, 41 / 42, 21)
        omega, matrix = scan_2d([0.0], grid)
        assert omega.shape == matrix.shape == (1, 21)
        assert (matrix == 0.0).all()

    def test_ridge_tracks_resonance(self):
        vs = [1.0, 2.0, 2.9385, 4.0, 8.0]
        grid = SpectralGrid(1 / 82, 81 / 82, 41)
        _, matrix = scan_2d(vs, grid)
        centre = np.argmin(np.abs(grid.nodes() - 0.5))
        assert np.argmax(matrix[:, centre]) == 2

    def test_rows_symmetric(self):
        grid = SpectralGrid(1 / 80, 79 / 80, 40)
        _, matrix = scan_2d([0.3, 1.7], grid)
        assert np.allclose(matrix, matrix[:, ::-1], rtol=1e-12)

    @pytest.mark.parametrize("mass", [None, 0.1])
    def test_only_the_resonant_row_is_nudged(self, mass):
        grid = SpectralGrid(0.0, 1.0, 101)
        v_r = resonance_velocity(mass)
        # the last pump, 2e-12 above v_r, keeps |1 - v^2 P| at omega = 1/2 above the
        # kernel's floor: its rate there is finite, and its row is not nudged
        omega, rate = scan_2d([0.0, 1.0, v_r, v_r + 2e-12], grid, mass)
        nodes = grid.nodes()
        for row in (0, 1, 3):
            assert omega[row].tobytes() == nodes.tobytes()
        assert np.flatnonzero(omega[2] != nodes).tolist() == [50]
        assert omega[2, 50] == 0.5 + 1e-3 / 101
        assert not np.isinf(rate[2]).any()

    @pytest.mark.parametrize("mass, dv, peak", [
        (None, -1.3e-12, 4.15e7), (None, 1.3e-12, 4.15e7),
        (0.1, -1.5e-12, 9.20e7), (0.1, 1.5e-12, 9.20e7),
    ])
    def test_the_kernels_flag_decides_the_nudge(self, mass, dv, peak):
        # at omega = 1/2, |1 - v^2 P| is about 2 |dv| / v_r, below the kernel's floor
        # 1e-12 for |dv| < 5e-13 v_r (1.47e-12 photon, 1.97e-12 mass 0.1): these pumps,
        # more than 1e-12 from v_r, read inf on the grid's node, so their row is nudged
        grid = SpectralGrid(0.0, 1.0, 101)
        v = resonance_velocity(mass) + dv
        assert kernel.emission_rate(0.5, v, mass) == math.inf
        omega, rate = scan_2d([1.0, v], grid, mass)
        assert omega[0].tobytes() == grid.nodes().tobytes()
        assert np.flatnonzero(omega[1] != grid.nodes()).tolist() == [50]
        assert not np.isinf(rate).any()
        assert abs(rate[1, 50] / peak - 1.0) < 1e-3

    def test_a_closed_channel_row_is_not_nudged(self):
        # mass 0.3: the numerator vanishes on the whole grid, so the kernel flags no
        # cell at the mass's own v_r, and every rate is 0
        grid = SpectralGrid(0.001, 0.999, 501)
        omega, rate = scan_2d([resonance_velocity(0.3)], grid, 0.3)
        assert omega[0].tobytes() == grid.nodes().tobytes()
        assert (rate == 0.0).all()

    @pytest.mark.parametrize("v", [[], [1.0], [-1.0]])
    def test_mass_is_checked_first_for_any_pumps(self, v):
        with pytest.raises(ValueError, match="mass"):
            scan_2d(v, SpectralGrid(0.0, 1.0, 101), 0.7)

    @pytest.mark.parametrize("mass", [None, 0.1])
    def test_green_functions_once_per_sweep(self, mass, monkeypatch):
        # 200 pumps of 512 nodes take 13 kernel calls, which share one node part;
        # the resonant pumps, their node at 1/2 nudged, share the nudged nodes' part
        calls = []
        pair_terms = kernel.pair_terms
        monkeypatch.setattr(kernel, "pair_terms",
                            lambda w, m=None: calls.append(np.array(w)) or pair_terms(w, m))
        v = np.geomspace(0.1, 30.0, 200)
        grid = SpectralGrid(0.001, 0.999, 512)
        scan_2d(v, grid, mass)
        assert [w.tobytes() for w in calls] == [grid.nodes().tobytes()]
        calls.clear()
        grid = SpectralGrid(0.0, 1.0, 101)  # holds 1/2
        omega, _ = scan_2d(np.append(v, resonance_velocity(mass)), grid, mass)
        assert [w.shape for w in calls] == [(101,), (101,)]
        assert calls[0].tobytes() == grid.nodes().tobytes()
        assert calls[1].tobytes() == omega[-1:].tobytes() and (omega[-1] != grid.nodes()).sum() == 1

    @pytest.mark.parametrize("v, mass", [
        (0.0, None), (0.7, None), (V_RESONANCE, None), (30.0, None),
        (V_RESONANCE_MASSIVE[0.1], 0.1), (1.0, 0.25),  # a branch point 2m at omega = 1/2
    ])
    def test_spectrum_grid_is_row_zero_of_scan_2d(self, v, mass):
        grid = SpectralGrid(0.0, 1.0, 101)
        row_omega, row_rate = spectrum_grid(PumpConfig(v, mass), grid)
        omega, rate = scan_2d([v], grid, mass)
        assert row_omega.tobytes() == omega[0].tobytes()
        assert row_rate.tobytes() == rate[0].tobytes()

    @pytest.mark.parametrize("mass", [None, 0.1])
    @pytest.mark.parametrize("points", [3001, BLOCK_CELLS + 1])
    def test_sweep_wider_than_a_block_equals_rows_bit_for_bit(self, mass, points):
        # 2 rows per kernel call at 3,001 points and 1 row above BLOCK_CELLS; the
        # rows hold v = 0, the resonance (its node at 1/2 nudged) and, for mass
        # 0.1, a nan column on the branch point omega = 0.2
        grid = SpectralGrid(0.2, 0.8, points)
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

    @pytest.mark.parametrize("v", [0.0, 0.7])
    @pytest.mark.parametrize("n_q", [math.nan, math.inf, -1.0])
    def test_rejects_occupation_outside_finite_range(self, n_q, v):
        # unchecked, nan (and inf times the zero rate of v = 0) gives (nan, nan)
        with pytest.raises(ValueError, match="finite"):
            stimulated_rate(0.3, PumpConfig(v), n_q)


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
