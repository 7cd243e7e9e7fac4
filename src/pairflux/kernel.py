"""Closed-form spectral kernel for two-boson vacuum emission.

A medium whose optical length oscillates harmonically (pump frequency
omega0, maximal boundary velocity v in units of c) converts zero-point
fluctuations into pairs of quanta with frequencies omega and 1 - omega
(units omega0 = hbar = c = 1 throughout).  The emission spectrum is a
resolvent resummation of the mode-mixing interaction,

    rate(omega) = (v / 2 pi)^2 * omega (1 - omega)
                  / |1 - v^2 G*(omega) G(1 - omega)|^2,

where G is the band Green function of the continuum of modes below the
pump frequency.  Everything in this module is a pure function of its
arguments; grid drivers live in pairflux.spectrum.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

# |resolvent factor| below this is reported as a divergence (rate = inf)
# rather than an overflowing float; the divergence at the resonant pump
# velocity is physical and must stay visible.
DENOMINATOR_FLOOR = 1e-12


class SingularArgument(ValueError):
    """Evaluation exactly on a logarithmic branch point of the Green function."""


# omega domains of the closed forms: (test, what a failing value violates)
_FINITE = (np.isfinite, "be finite")
_PHYSICAL = (lambda w: np.isfinite(w) & (w >= 0.0), "be finite and >= 0")
_BAND = (lambda w: (0.0 <= w) & (w <= 1.0), "lie in [0, 1]")
_OPEN_BAND = (lambda w: (0.0 < w) & (w < 1.0), "lie in (0, 1)")


def _checked(omega, domain, velocity: float | np.ndarray = 0.0) -> np.ndarray:
    """omega as a float array of at least one dimension (numpy's 0-d arithmetic can
    differ from its array loops in the last bit), once it and every pump velocity are
    valid: v >= 0 and v * v finite (below about 1.34e154), else the squares overflow."""
    if isinstance(velocity, float):  # Python floats: a square that overflows is a silent inf
        lo = hi = float(velocity)
    else:
        lo, hi = float(np.min(velocity)), float(np.max(velocity))
    if not (lo >= 0.0 and hi * hi < np.inf):
        bad = next(v for v in np.ravel(velocity).tolist() if not (v >= 0.0 and v * v < np.inf))
        raise ValueError(f"velocity must be >= 0 with v * v finite, got {bad!r}")
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    ok = domain[0](w)
    if not ok.all():
        raise ValueError(f"omega must {domain[1]}, got {float(w[~ok].flat[0])!r}")
    return w


def _edge(mass: float) -> float:
    if not 0.0 <= mass <= 0.5:
        raise ValueError(f"mass must lie in [0, 1/2] (pair threshold), got {mass!r}")
    return 2.0 * mass


def _scalar_or_array(value, omega, velocity: float | np.ndarray = 0.0):
    """Arrays pass through with nan on branch points.  When omega and velocity
    are both scalars, the one-element value comes back as a Python number, or
    raises SingularArgument on a branch point."""
    if np.ndim(omega) or np.ndim(velocity):
        return value
    if np.isnan(value[0]):
        raise SingularArgument(
            f"omega = {float(omega)!r} sits on a log branch point of the Green function")
    return value[0].item()


def _band(omega: np.ndarray, edge: float) -> np.ndarray:
    """(1/pi) [1 + (omega/2) ln(|edge - omega| / |1 + omega|)]
    + i (omega/2) Theta(edge - |omega|), nan + nan i where a log argument
    vanishes (omega = edge, omega = -1)."""
    a, b = np.abs(edge - omega), np.abs(1.0 + omega)
    with np.errstate(divide="ignore", invalid="ignore"):
        re = (1.0 + 0.5 * omega * np.log(a / b)) / np.pi
    g = re + 1j * (0.5 * omega * (np.abs(omega) < edge))
    return np.where((a == 0.0) | (b == 0.0), complex(np.nan, np.nan), g)


def _geff(omega: np.ndarray, mass: float | None) -> np.ndarray:
    g = _band(omega, 1.0)
    return g if mass is None else g - _band(omega, _edge(mass))


def _resolvent(g_w: np.ndarray, g_p: np.ndarray, velocity: float) -> np.ndarray:
    return 1.0 - velocity * velocity * np.conj(g_w) * g_p


def green_function(omega):
    """Band Green function G(omega) of the sub-pump mode continuum.

    G(omega) = (1/pi) [1 + (omega/2) ln(|1-omega| / |1+omega|)]
               + i (omega/2) Theta(1 - |omega|)

    Real for |omega| > 1; the imaginary part omega/2 inside the band is
    the absorptive (mode-density) piece.  Satisfies G(-omega) = conj(G(omega)).

    omega is a float or an array.  A float raises SingularArgument at
    |omega| = 1, the logarithmic branch point; an array carries nan there.
    """
    return _scalar_or_array(_band(_checked(omega, _FINITE), 1.0), omega)


def shifted_green_function(omega, mass: float):
    """Mass-shifted companion G1 entering the massive (Klein-Gordon) spectrum.

    Obtained from G by moving the band-edge factor 1 - omega to
    2*mass - omega, literally:  ln|1-omega| -> ln|2m-omega| and the band
    indicator Theta(1-omega) -> Theta(2m-omega), with the |1+omega|
    factor untouched.  Defined on the physical domain omega >= 0 with
    0 <= mass <= 1/2; at mass = 1/2 it coincides with G.

    Singular at omega = 2*mass (shifted branch point): SingularArgument
    for a float, nan in an array.
    """
    return _scalar_or_array(_band(_checked(omega, _PHYSICAL), _edge(mass)), omega)


def effective_green_function(omega, mass: float | None = None):
    """G for the photon branch (mass None), G - G1 for a massive boson.

    Identically zero at the pair-creation threshold mass = 1/2, where the
    shifted function equals G.  Its imaginary part is non-zero only for
    2m < omega < 1, so the pair numerator already vanishes for mass >= 1/4.
    """
    w = _checked(omega, _FINITE if mass is None else _PHYSICAL)
    return _scalar_or_array(_geff(w, mass), omega)


def resolvent_factor(omega, velocity: float, mass: float | None = None):
    """Resolvent denominator factor 1 - v^2 Geff*(omega) Geff(1-omega).

    Its squared modulus divides the pair spectrum; its zero at
    (omega = 1/2, v = v_r) is the resonant enhancement of the emission.
    """
    w = _checked(omega, _OPEN_BAND, velocity)
    return _scalar_or_array(
        _resolvent(_geff(w, mass), _geff(1.0 - w, mass), velocity), omega, velocity)


def emission_rate(omega, velocity: float | np.ndarray, mass: float | None = None):
    """Pair emission rate per unit time and frequency at omega in [0, 1].

    Photon branch: (v/2pi)^2 omega(1-omega) / |1 - v^2 G*(omega) G(1-omega)|^2.

    The numerator is the product of the absorptive parts of the effective
    Green function at the two pair frequencies, 4 Im Geff(omega) Im
    Geff(1-omega); for photons this is exactly omega(1-omega), and for a
    massive boson it carries the mass dependence so that the rate
    vanishes identically at the threshold mass = 1/2 (Geff == 0 there).

    omega and velocity are floats or arrays that broadcast together; the
    Green functions are evaluated on omega's shape only, so a sweep passes
    nodes[None, :] and v[:, None].  Endpoints omega in {0, 1} return 0 by
    limit.  A denominator modulus below DENOMINATOR_FLOOR is reported as
    inf - a flagged divergence, not an error.  A branch point of the
    massive branch raises SingularArgument for a float and gives nan in
    an array.
    """
    w = _checked(omega, _BAND, velocity)
    g_w, g_p = _geff(w, mass), _geff(1.0 - w, mass)
    with np.errstate(all="ignore"):
        # C pow, like a float's ** 2 (np.power squares: an ulp off for ~1 v in 1,200)
        numerator = np.float_power(velocity / TWO_PI, 2) * 4.0 * g_w.imag * g_p.imag
        factor = np.abs(_resolvent(g_w, g_p, velocity))
        rate = np.where(factor < DENOMINATOR_FLOOR, np.inf, numerator / factor**2)
    rate = np.where((numerator == 0.0) | (w == 0.0) | (w == 1.0), 0.0, rate)
    return _scalar_or_array(rate, omega, velocity)


def perturbative_rate(omega, velocity: float):
    """Weak-pump limit (v/2pi)^2 omega(1-omega) of the photon spectrum.

    Coincides with ordinary time-dependent perturbation theory; the full
    rate approaches it quadratically as v -> 0.
    """
    w = _checked(omega, _BAND, velocity)
    return _scalar_or_array((velocity / TWO_PI) ** 2 * w * (1.0 - w), omega, velocity)
