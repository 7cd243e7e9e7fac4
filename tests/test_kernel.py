"""Closed-form kernel tests.

Reference values are frozen from a 40-digit mpmath evaluation of the same
closed forms (independent of the float implementation under test).
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pairflux import kernel, spectrum
from pairflux.kernel import (
    SingularArgument,
    effective_green_function,
    emission_rate,
    green_function,
    perturbative_rate,
    resolvent_factor,
    shifted_green_function,
)

import scalar_reference
import sideband_chain

# mpmath (mp.dps = 40) evaluations of the closed forms
G_HALF_RE = 0.2308850980422757270383997062153457011457
G_TWO_RE = -0.03138926638226910645970375537370336762412
G1_QUARTER_MASS_RE = 0.3022097576308008803108648690824951044164  # G1(0.1, m=0.25)
G_POINT3_RE = 0.2887529411881273434652449082423391064416
V_RESONANCE = 2.938534902062392721728264364088159531907
V_RESONANCE_MASS_01 = 3.948147883699223367256040528148342769213
RESOLVENT_HALF_V01 = 0.9988419207150200872523764843103797211738
RATE_HALF_V01 = 6.347266741283005371553445867679102557489e-05
PERT_HALF_V01 = 6.332573977646110715242466450607977431522e-05
LARGE_V_PLATEAU = 0.4721757571335780852813045058741392536389  # (1/2pi)^2 / (4 |G(1/2)|^4)

# emission_rate(1/2, v=1, m), the threshold-approach regression (see ledger:
# the sequence is deliberately not monotone between m=0.1 and m=0.2)
RATE_MASSIVE = {
    0.1: 0.007230528577581963135234521428894161088228,
    0.2: 0.007463967335646169884198603507979501649922,
    0.4: 0.0,
}


def cx_close(a: complex, b: complex, tol: float = 1e-14) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def gauss(f, a: float, b: float, n: int = 64) -> float:
    """The n-node Gauss-Legendre rule for the integral of f over [a, b], 0 when b <= a."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return half * float(np.dot(w, f(0.5 * (a + b) + half * x))) if b > a else 0.0


def pv_mode_sum(big_omega: float) -> float:
    """(1/pi) PV integral over [0, 1] of w^2 / (w^2 - W^2), the oracle's mode
    sum, by Gauss-Legendre: around a pole W < 1 the window [W - d, W + d]
    folds to the integral over [0, d] of (h(W + t) - h(W - t)) / t with
    h(s) = s^2 / (s + W), and the rest of [0, 1] takes the plain rule."""
    def direct(s):
        return s * s / (s * s - big_omega * big_omega)

    if big_omega > 1.0:
        return gauss(direct, 0.0, 1.0) / math.pi
    d = min(big_omega, 1.0 - big_omega)
    def h(s):
        return s * s / (s + big_omega)

    folded = gauss(lambda t: (h(big_omega + t) - h(big_omega - t)) / t, 0.0, d)
    rest = gauss(direct, 0.0, big_omega - d) + gauss(direct, big_omega + d, 1.0)
    return (folded + rest) / math.pi


def kramers_kronig(omega: float) -> float:
    """(1/pi) PV integral over the band [-1, 1] of Im G(s) / (s - omega), with
    Im G(s) = s/2 taken from green_function, by Gauss-Legendre: around a pole
    omega in (-1, 1) the window [omega - d, omega + d] folds to the integral
    over [0, d] of (Im G(omega + t) - Im G(omega - t)) / t, and the rest of
    the band takes the plain rule."""
    def im_g(s):
        return green_function(s).imag

    def direct(s):
        return im_g(s) / (s - omega)

    if abs(omega) >= 1.0:
        return gauss(direct, -1.0, 1.0) / math.pi
    d = min(1.0 + omega, 1.0 - omega)
    folded = gauss(lambda t: (im_g(omega + t) - im_g(omega - t)) / t, 0.0, d)
    rest = gauss(direct, -1.0, omega - d) + gauss(direct, omega + d, 1.0)
    return (folded + rest) / math.pi


# each public kernel function and its arguments at a random point (x, v, m)
# of [0, 1) x [0, 10) x ({None} or [0, 1/2))
KERNEL_POINTS = [
    (green_function, lambda x, v, m: (4.0 * x - 2.0,)),
    (shifted_green_function, lambda x, v, m: (2.0 * x, 0.5 if m is None else m)),
    (effective_green_function, lambda x, v, m: (2.0 * x, m)),
    (resolvent_factor, lambda x, v, m: (x, v, m)),
    (emission_rate, lambda x, v, m: (x, v, m)),
    (perturbative_rate, lambda x, v, m: (x, v)),
]


class TestMassCheck:
    @pytest.mark.parametrize("mass", [None, 0, 0.0, 0.25, 0.5])
    def test_accepts_the_photon_and_masses_up_to_the_threshold(self, mass):
        assert kernel.check_mass(mass) is None

    @pytest.mark.parametrize("mass", [-0.1, 0.6, math.nan, -math.inf, math.inf])
    def test_rejects_the_rest_and_nan(self, mass):
        with pytest.raises(ValueError, match="mass"):
            kernel.check_mass(mass)

    @pytest.mark.parametrize("mass", [-0.1, 0.6, math.nan])
    def test_every_entry_point_applies_it(self, mass):
        # one rule, one message; integrated_rates and scan_2d check it ahead of the pumps
        grid = spectrum.SpectralGrid(0.0, 1.0, 11)
        calls = [lambda: effective_green_function(0.3, mass),
                 lambda: shifted_green_function(0.3, mass),
                 lambda: emission_rate(0.3, 1.0, mass),
                 lambda: kernel.pair_terms([0.3], mass),
                 lambda: spectrum.PumpConfig(1.0, mass),
                 lambda: spectrum.resonance_velocity(mass),
                 lambda: spectrum.integrated_rates([-1.0], mass),
                 lambda: spectrum.scan_2d([-1.0], grid, mass),
                 lambda: spectrum.scan_2d([], grid, mass)]
        for call in calls:
            with pytest.raises(ValueError, match=r"mass must lie in \[0, 1/2\] \(pair threshold\)"):
                call()

    def test_pair_terms_are_read_only(self):
        terms = kernel.pair_terms([0.25, 0.5], 0.1)
        for field in ("omega", "re", "im", "numerator", "extra"):
            with pytest.raises(AttributeError):
                setattr(terms, field, None)
        assert terms.size == 2 and terms.omega.tolist() == [0.25, 0.5]


class TestGreenFunction:
    def test_reference_points(self):
        assert cx_close(green_function(0.0), complex(1.0 / math.pi, 0.0))
        assert cx_close(green_function(0.5), complex(G_HALF_RE, 0.25))
        assert cx_close(green_function(2.0), complex(G_TWO_RE, 0.0))

    def test_imaginary_part_is_half_omega_inside_band(self):
        for w in (1e-6, 0.1, 0.5, 0.99, 0.9999):
            assert green_function(w).imag == 0.5 * w
        for w in (1.0001, 2.0, 17.5):
            assert green_function(w).imag == 0.0

    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_reflection_identity(self, w):
        assume(abs(abs(w) - 1.0) > 1e-6)
        g_plus = green_function(w)
        g_minus = green_function(-w)
        assert abs(g_minus - g_plus.conjugate()) < 1e-12

    def test_singular_at_band_edge(self):
        with pytest.raises(SingularArgument):
            green_function(1.0)
        with pytest.raises(SingularArgument):
            green_function(-1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            green_function(math.inf)
        with pytest.raises(ValueError):
            green_function(math.nan)

    @pytest.mark.parametrize(
        "big_omega", [*(round(0.01 * k, 2) for k in range(1, 100)), 1.5, 2.0, 3.7])
    def test_real_part_is_the_principal_value_mode_sum(self, big_omega):
        # Re G(W) = (1/pi) PV int_0^1 w^2 / (w^2 - W^2) dw, inside the band and
        # beyond it; the worst deviation measured is 4.9e-12 (at W = 0.99)
        assert cx_close(pv_mode_sum(big_omega), green_function(big_omega).real, 1e-11)

    @pytest.mark.parametrize("omega", [0.1, 0.3, 0.5, 0.9, 1.7])
    def test_real_part_is_the_kramers_kronig_transform_of_the_band(self, omega):
        # G is analytic above the real axis and falls off as 1/z^2, so Re G is the
        # Hilbert transform of Im G = s/2 on [-1, 1]: (1/pi) PV int Im G(s) / (s - omega) ds.
        # Measured at most 1.1e-15 (omega = 0.9)
        assert abs(kramers_kronig(omega) - green_function(omega).real) <= 1e-10


class TestShiftedGreenFunction:
    def test_threshold_mass_reduces_to_green_function(self):
        for w in (0.05, 0.3, 0.77, 1.5):
            assert shifted_green_function(w, 0.5) == green_function(w)

    def test_reference_points(self):
        assert cx_close(shifted_green_function(0.5, 0.0), complex(G_HALF_RE, 0.0))
        assert cx_close(shifted_green_function(0.1, 0.25), complex(G1_QUARTER_MASS_RE, 0.05))
        assert cx_close(shifted_green_function(0.3, 0.5), complex(G_POINT3_RE, 0.15))

    def test_imaginary_part_opens_below_twice_mass(self):
        assert shifted_green_function(0.3, 0.25).imag == 0.15   # 0.3 < 2m = 0.5
        assert shifted_green_function(0.7, 0.25).imag == 0.0    # 0.7 > 2m

    def test_singular_at_shifted_edge(self):
        with pytest.raises(SingularArgument):
            shifted_green_function(0.5, 0.25)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            shifted_green_function(-0.1, 0.25)
        with pytest.raises(ValueError):
            shifted_green_function(0.3, 0.75)


class TestEffectiveGreenFunction:
    def test_photon_branch_is_green_function(self):
        for w in (0.1, 0.5, 0.9):
            assert effective_green_function(w, None) == green_function(w)

    def test_threshold_mass_vanishes_identically(self):
        for w in (0.01, 0.25, 0.5, 0.75, 0.99):
            assert effective_green_function(w, 0.5) == 0.0 + 0.0j

    def test_massive_is_componentwise_difference(self):
        w, m = 0.5, 0.25
        # 1 - w = 0.5 = 2m sits on the G1 singularity for the partner; use w itself
        w = 0.6
        expected = green_function(w) - shifted_green_function(w, m)
        assert effective_green_function(w, m) == expected


class TestResolventFactor:
    def test_no_pump_is_unity(self):
        for w in (0.1, 0.5, 0.93):
            assert resolvent_factor(w, 0.0) == 1.0 + 0.0j

    def test_reference_value(self):
        f = resolvent_factor(0.5, 0.1)
        assert abs(f.real - RESOLVENT_HALF_V01) < 1e-15
        assert f.imag == 0.0

    def test_null_at_resonance_velocity(self):
        assert abs(resolvent_factor(0.5, V_RESONANCE)) <= 1e-9

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            resolvent_factor(0.0, 1.0)
        with pytest.raises(ValueError):
            resolvent_factor(0.5, -1.0)


class TestFloatCalls:
    @pytest.mark.parametrize("f, point", KERNEL_POINTS, ids=[f.__name__ for f, _ in KERNEL_POINTS])
    def test_float_call_is_the_one_element_array_call(self, f, point):
        # numpy's 0-d arithmetic can differ from its array loops in the last bit
        # (v^2 G*(omega) G(1 - omega) did for 2% of random rates), so a float
        # call evaluates the one-element array
        rng = np.random.default_rng(7)
        for x, v, m in zip(rng.random(500), 10.0 * rng.random(500), 0.5 * rng.random(500)):
            for mass in (None, float(m)):
                omega, *args = point(float(x), float(v), mass)
                one, array = f(omega, *args), f(np.array([omega]), *args)
                assert type(one) in (float, complex) and array.shape == (1,)
                assert np.array([one]).tobytes() == array.tobytes(), (f.__name__, omega, *args)


class TestEmissionRate:
    def test_reference_value(self):
        assert abs(emission_rate(0.5, 0.1) / RATE_HALF_V01 - 1.0) < 1e-13

    def test_endpoints_are_zero(self):
        for v in (0.0, 0.1, 5.0):
            assert emission_rate(0.0, v) == 0.0
            assert emission_rate(1.0, v) == 0.0

    def test_divergence_flagged_as_inf(self):
        assert emission_rate(0.5, V_RESONANCE) == math.inf

    @given(
        # below ~1e-3 the 1 - (1 - w) float roundtrip perturbs the argument
        # itself by more than the 1e-12 assertion; the symmetry is exact
        st.floats(min_value=1e-3, max_value=0.5),
        st.floats(min_value=0.0, max_value=20.0),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.5)),
    )
    def test_spectrum_symmetry(self, w, v, mass):
        if mass is not None:
            # stay off the shifted branch points at omega = 2m and 1 - omega = 2m
            assume(abs(w - 2.0 * mass) > 1e-9 and abs(1.0 - w - 2.0 * mass) > 1e-9)
        a = emission_rate(w, v, mass)
        b = emission_rate(1.0 - w, v, mass)
        if math.isinf(a) or math.isinf(b):
            assert a == b
        elif a != 0.0 or b != 0.0:
            # a subnormal rate carries fewer digits than the bound asks for
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), sys.float_info.min)

    @given(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_nonnegative(self, w, v):
        assert emission_rate(w, v) >= 0.0

    def test_small_pump_matches_perturbation_theory(self):
        # first-order resolvent expansion bound, |rate/pert - 1| <= 3 v^2 |G* G|
        for v in (0.01, 0.005):
            for i in range(91):
                w = 0.05 + 0.01 * i
                g_prod = abs(
                    green_function(w).conjugate() * green_function(1.0 - w)
                )
                ratio = emission_rate(w, v) / perturbative_rate(w, v)
                assert abs(ratio - 1.0) <= 3.0 * v * v * g_prod

    def test_large_pump_plateau(self):
        r100 = emission_rate(0.5, 100.0) * 100.0**2
        r200 = emission_rate(0.5, 200.0) * 200.0**2
        assert abs(r100 / r200 - 1.0) < 0.02
        assert abs(r200 / LARGE_V_PLATEAU - 1.0) < 1e-3

    def test_threshold_mass_emits_nothing(self):
        for w in (0.1, 0.33, 0.5, 0.9):
            for v in (0.1, 1.0, V_RESONANCE, 10.0):
                assert emission_rate(w, v, mass=0.5) == 0.0

    def test_massive_rates_regression(self):
        # documents the threshold approach at (omega = 1/2, v = 1); the
        # 0.1 -> 0.2 rise is a real feature of the literal mass shift
        for m, expected in RATE_MASSIVE.items():
            got = emission_rate(0.5, 1.0, mass=m)
            if expected == 0.0:
                assert got == 0.0
            else:
                assert abs(got / expected - 1.0) < 1e-12

    def test_massive_numerator_window(self):
        # pair channel open only when both quanta clear the shifted edge
        assert emission_rate(0.3, 1.0, mass=0.2) == 0.0   # 0.3 < 2m = 0.4
        assert emission_rate(0.5, 1.0, mass=0.2) > 0.0

    def test_singular_interior_point_propagates(self):
        with pytest.raises(SingularArgument):
            emission_rate(0.4, 1.0, mass=0.2)  # omega = 2m exactly

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            emission_rate(1.5, 1.0)
        with pytest.raises(ValueError):
            emission_rate(0.5, -0.1)

    @pytest.mark.parametrize(
        "v", [math.nan, math.inf, 1e200, 8.424374178690127e154, 1.35e154, 5e154])
    def test_rejects_velocity_whose_scale_overflows(self, v):
        # v * v overflows above 1.34e154, and with it the rate's numerator and
        # resolvent: inf / inf came out as a nan "branch point"; a nan velocity did too
        with pytest.raises(ValueError, match="velocity") as exc:
            emission_rate(np.array([0.3]), v)
        assert exc.type is ValueError

    def test_largest_velocity_still_evaluates(self):
        assert emission_rate(0.0, 1.3407807929942596e154) == 0.0
        assert emission_rate(0.5, 1.3407807929942596e154) == 0.0  # the 1/v^2 fall-off

    @pytest.mark.parametrize("mass, v_res", [(None, V_RESONANCE), (0.1, V_RESONANCE_MASS_01)])
    def test_velocity_array_broadcasts_bit_for_bit(self, mass, v_res):
        # 1/2 is a node, so the resonant row hits the denominator floor; for
        # mass 0.1 the branch points 0.2 and 0.8 give nan columns.  At v = 13.913
        # (v / 2 pi) ** 2 of a float and np.square of an array differ by an ulp
        omega = np.linspace(0.0, 1.0, 101)
        v = np.array([0.0, 0.3, 1.0, v_res, 7.5, 13.913, 1e3, 1.3407807929942596e154])
        got = emission_rate(omega[None, :], v[:, None], mass)
        want = np.array([emission_rate(omega, float(x), mass) for x in v])
        assert got.tobytes() == want.tobytes()
        assert np.flatnonzero(np.isinf(got).any(axis=1)).tolist() == [3]
        row = [emission_rate(np.array([0.3]), float(x), mass)[0] for x in v]
        assert emission_rate(0.3, v, mass).tolist() == row  # a float omega broadcasts too

    @pytest.mark.parametrize("bad", [math.nan, -0.5, 1.35e154])
    def test_velocity_array_names_its_invalid_entry(self, bad):
        with pytest.raises(ValueError, match="velocity") as exc:
            emission_rate(np.array([[0.3]]), np.array([[1.0], [bad], [2.0]]))
        assert exc.type is ValueError and str(exc.value).endswith(f"got {bad!r}")


class TestPerturbativeRate:
    def test_reference_value(self):
        assert abs(perturbative_rate(0.5, 0.1) / PERT_HALF_V01 - 1.0) < 1e-15

    def test_endpoint_zeros(self):
        assert perturbative_rate(0.0, 3.0) == 0.0
        assert perturbative_rate(1.0, 3.0) == 0.0

    def test_quadratic_pump_scaling(self):
        assert perturbative_rate(0.3, 0.2) / perturbative_rate(0.3, 0.1) == 4.0

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=10.0))
    def test_matches_formula(self, w, v):
        assert perturbative_rate(w, v) == (v / (2.0 * math.pi)) ** 2 * w * (1.0 - w)


class TestSidebandChain:
    """The closed form keeps the sidebands n in {-1, 0} of the chain that the
    oracle's mode sum obeys; the off-shell sidebands n = +1 and n = -2 add
    v^2 (c2_chain - c2_closed) = 2 v^2 Re[G(w) G(w + 1) + G(w - 1) G(w - 2)] to
    rate / perturbative, a term of order v^4 in the rate."""

    @pytest.mark.parametrize("w", [0.25, 0.3, 0.4, 0.45])
    def test_weak_pump_v4_term(self, w):
        # the factor is the chain's rate over the closed form's; (factor - 1) / v^2 is
        # -0.078 to -0.061 here and matches to 1.3e-5 at v = 0.05; the rest is of
        # order v^2.  The chain cut to n in {-1, 0} is the closed form
        def factor(v, n_up):
            return float(sideband_chain.chain_rate(w, v, n_up)) / emission_rate(w, v)

        v = 0.05
        assert abs(factor(1.0, 0) - 1.0) < 1e-14
        second = 2.0 * (green_function(w) * green_function(w + 1.0)
                        + green_function(w - 1.0) * green_function(w - 2.0)).real
        assert second < -0.06
        assert abs((factor(v, 8) - 1.0) / v**2 - second) < 2e-5


class TestScalarReference:
    """The kernel against the scalar math evaluation it replaced, on the
    omega grid of the long-form scan and every tenth of its 200 pump
    velocities, and at the quadrature nodes of integrated_rates."""

    @pytest.mark.parametrize("mass", [None, 0.1, 0.3])
    def test_matches_on_map_grid(self, mass):
        omega = np.linspace(0.001, 0.999, 512)
        for v in np.geomspace(0.1, 30.0, 200)[::10]:
            want, condition = scalar_reference.rates(omega, v, mass)
            got = emission_rate(omega, v, mass)
            scalar_reference.assert_close(got, want, condition)

    @pytest.mark.parametrize("mass", [None, 0.1, 0.2])
    def test_matches_at_the_sweep_nodes(self, mass, monkeypatch):
        # the PairTerms integrated_rates builds, one per rule: the lower 128 nodes of the
        # band rule and the graded nodes below omega = 1/2, where the resolvent cancels most,
        # each combined with a block of pumps as the sweep combines them
        rules = []
        pair_terms = kernel.pair_terms
        monkeypatch.setattr(kernel, "pair_terms",
                            lambda nodes, m: rules.append(pair_terms(nodes, m)) or rules[-1])
        v_r = spectrum.resonance_velocity(mass)
        spectrum.integrated_rates([1.0, v_r + 0.01], mass)
        assert len(rules) == 2 and rules[0].size == 128
        if mass is None:
            assert rules[1].size == 784
        pumps = [v_r + d for d in (-1e-3, 1e-3, -1e-6, 1e-6, -1e-9, 1e-9)] + [0.0, 1e-150, 1e150]
        for terms in rules:
            got = emission_rate(terms, np.array(pumps)[:, None])
            for v, row in zip(pumps, got):
                want, condition = scalar_reference.rates(terms.omega, v, mass)
                scalar_reference.assert_close(row, want, condition)
