"""Two-boson vacuum emission of a medium with an oscillating optical length.

Closed-form spectral kernel (pairflux.kernel), grid and quadrature drivers
(pairflux.spectrum), an independent truncated-mode Bogoliubov simulator
(pairflux.modesim), and a CSV/JSON command-line front end (pairflux.cli).
"""

__version__ = "0.1.0"

from .kernel import (
    SingularArgument,
    effective_green_function,
    emission_rate,
    green_function,
    perturbative_rate,
    resolvent_factor,
    shifted_green_function,
)
from .spectrum import (
    RESONANCE_VELOCITY_PHOTON,
    NoResonance,
    PumpConfig,
    SpectralGrid,
    SpectrumResult,
    conjugate_partner,
    integrated_rate,
    integrated_rates,
    required_intensity,
    resonance_velocity,
    scan_2d,
    spectrum_grid,
    stimulated_rate,
)
from .modesim import (
    BogoliubovMatrix,
    DeviationReport,
    IntegratorUnstable,
    ModeRecurrenceWarning,
    SimConfig,
    SimSpectrum,
    build_sim,
    compare_to_analytic,
    evolve,
    extract_rates,
)

__all__ = [
    "__version__",
    "SingularArgument",
    "green_function",
    "shifted_green_function",
    "effective_green_function",
    "resolvent_factor",
    "emission_rate",
    "perturbative_rate",
    "RESONANCE_VELOCITY_PHOTON",
    "NoResonance",
    "PumpConfig",
    "SpectralGrid",
    "SpectrumResult",
    "spectrum_grid",
    "integrated_rate",
    "integrated_rates",
    "resonance_velocity",
    "scan_2d",
    "stimulated_rate",
    "conjugate_partner",
    "required_intensity",
    "SimConfig",
    "BogoliubovMatrix",
    "SimSpectrum",
    "DeviationReport",
    "IntegratorUnstable",
    "ModeRecurrenceWarning",
    "build_sim",
    "evolve",
    "extract_rates",
    "compare_to_analytic",
]
