"""Dense sideband chain: the pair rate of the oracle's mode sum, by a solve.

Expanding the oracle's field in pump sidebands Q_n e^{-i(omega + n)t} turns
its mode sum into the tridiagonal chain

    Q_n - v G(omega + n) (Q_{n-1} + Q_{n+1}) = source_n.

Cut to n in {-1, 0}, its denominator is the closed form's 1 - v^2 G(omega)
G(omega - 1); the sidebands beyond, where G is real but not zero, move the
rate by a term of order v^4 and keep it finite at the closed form's pole
(omega = 1/2, v = v_r).  Tests compare the kernel and the oracle against
this solve, n from -1 - n_up to n_up.
"""

import math

import numpy as np

from pairflux.kernel import green_function


def chain_rate(w, v: float, n_up: int = 4):
    """The chain's pair rate (v / 2 pi)^2 w (1 - w) |T_{-1,0} / (v G(w - 1))|^2
    at every w in (0, 1), v > 0, with T = (I - v diag(G) A)^-1 and A the
    chain's adjacency, by one dense inverse a frequency."""
    w = np.asarray(w, dtype=float)
    n = np.arange(-1 - n_up, n_up + 1)
    g = green_function(w[..., None] + n)
    adjacency = np.eye(n.size, k=1) + np.eye(n.size, k=-1)
    T = np.linalg.inv(np.eye(n.size) - v * g[..., :, None] * adjacency)
    i = n_up + 1  # the row of n = 0
    response = T[..., i - 1, i] / (v * g[..., i - 1])
    return (v / (2.0 * math.pi)) ** 2 * w * (1.0 - w) * np.abs(response) ** 2
