"""Two-boson vacuum emission of a medium with an oscillating optical length.

Closed-form spectral kernel (pairflux.kernel), grid and quadrature drivers
(pairflux.spectrum), an independent truncated-mode Bogoliubov simulator
(pairflux.modesim), and a CSV/JSON command-line front end (pairflux.cli).
Each name is imported from its module; the package itself holds only __version__.
"""

__version__ = "0.1.0"
