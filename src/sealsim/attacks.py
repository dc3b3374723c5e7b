"""Read-attack strategies against sealed states.

The measurement family is the one-parameter set of N operators

    Q_i = a(nu) * I + b(nu) * |i><i|,    i = 0 .. N-1,

with a = sqrt((1-nu)/N) and a + b = sqrt((1-nu)/N + nu).  These are the
unique nonnegative coefficients for which the family is complete
(N a^2 + 2ab + b^2 = 1) and the decode probability takes the form
(1-nu)/N + nu |c_i|^2 for a sealed state with amplitudes c.  nu = 0 is
a rescaled identity (no measurement), nu = 1 the full projective read.

The coin-toss strategy is the classical analog: with probability q
perform the honest computational-basis measurement, otherwise leave the
state untouched and report a uniform random guess.  Its decode
distribution equals the family's at nu = q; the post-measurement state
ensembles differ (the family's operators mix the identity and projector
branches coherently), so fidelities are reported per strategy and never
assumed equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError, check_unit_interval, real_weights, unit_norm_weights


@dataclass(frozen=True)
class MeasurementFamily:
    """The N structured operators a*I + b*|i><i| for one nu; nu and N fix a and b."""

    nu: float
    dim: int
    a: float = field(init=False)
    b: float = field(init=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise UsageError(f"dimension must be at least 1, got {self.dim}")
        nu = check_unit_interval("nu", self.nu)
        a = math.sqrt((1.0 - nu) / self.dim)
        object.__setattr__(self, "nu", float(nu))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", math.sqrt((1.0 - nu) / self.dim + nu) - a)

    def outcome_probabilities(self, weights: np.ndarray) -> np.ndarray:
        """||Q_i c||^2 for every i, from the weights |c|^2 of a sealed row c.

        The Monte Carlo samples this operator form; mc-validate checks it
        against analysis.decode_probabilities' closed form.
        """
        if weights.shape != (self.dim,):
            raise UsageError(f"dimension mismatch: family {self.dim}, weights {weights.shape}")
        a, b = self.a, self.b
        return a * a + (2.0 * a * b + b * b) * weights

    def completeness_deviation(self) -> float:
        """Max-entry deviation of sum_i Q_i^dag Q_i from the identity.

        By the exact identity Q^dag Q = a^2 I + (2ab + b^2)|i><i| the sum
        is the diagonal matrix (N a^2 + 2ab + b^2) I, so the deviation is
        one closed form at any N; the test suite checks it against the
        dense sum of the N expansions.
        """
        a, b = self.a, self.b
        return abs(self.dim * a * a + (2.0 * a * b + b * b) - 1.0)


def coin_toss_probabilities(weights, read_probability: float) -> np.ndarray:
    """Analytic decode distribution of the coin-toss strategy.

    Summing the two branches: q * w_i from the honest measurement, w the
    weights |c|^2 of the sealed row, plus (1-q)/N from the uniform idle
    guess.  A stack of weight rows (N along the last axis) gives one
    distribution per row.
    """
    q = check_unit_interval("read probability", read_probability)
    weights = real_weights(weights)
    return q * weights + (1.0 - q) / weights.shape[-1]


def coin_toss_escape_probability(amplitude_row, read_probability: float) -> float | np.ndarray:
    """Analytic verifier pass rate for the coin-toss strategy.

    The idle branch returns the state untouched (fidelity 1); the honest
    branch collapses to |i> with probability |c_i|^2 and then passes
    with fidelity |c_i|^2, giving (1-q) + q * sum |c_i|^4.  A stack of
    amplitude rows gives an array with one pass rate per row.
    """
    q = check_unit_interval("read probability", read_probability)
    row = np.asarray(amplitude_row, dtype=complex)
    unit_norm_weights(row, "amplitude row")
    escape = (1.0 - q) + q * np.sum(np.abs(row) ** 4, axis=-1)
    return float(escape) if escape.ndim == 0 else escape
